//! `parvactl` refuses a numeric flag it cannot parse, promptly and with
//! exit code 2, instead of running on a default.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `parvactl args`, killing it if it outlives `limit`; returns the
/// exit code (`None` if it had to be killed) and its stderr.
fn parvactl(args: &[&str], limit: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parvactl"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("parvactl starts");
    let started = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("parvactl can be waited on") {
            break status.code();
        }
        if started.elapsed() > limit {
            child.kill().expect("a running parvactl can be killed");
            child.wait().expect("the killed parvactl is reaped");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(
        &mut child.stderr.take().expect("stderr is piped"),
        &mut stderr,
    )
    .expect("stderr is UTF-8");
    (code, stderr)
}

#[test]
fn unparsable_numeric_flags_exit_2_promptly() {
    for (args, flag) in [
        // Without --listen, `--epochs` falling back to None ran forever.
        (&["daemon", "--epochs", "12x"][..], "--epochs"),
        (&["fleet", "--seed", "x"][..], "--seed"),
        (
            &["daemon", "--epochs", "2", "--checkpoint-at", "6x"][..],
            "--checkpoint-at",
        ),
        (&["region", "--intervals"][..], "--intervals"),
    ] {
        let (code, stderr) = parvactl(args, Duration::from_secs(20));
        assert_eq!(code, Some(2), "parvactl {args:?} exited {code:?}: {stderr}");
        assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
    }
}
