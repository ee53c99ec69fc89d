//! `daemon_control`: `parvad::run_daemon` on a paper-model catalogue with
//! MMPP arrivals, polled read-only over its control socket by one client
//! thread on a fixed open-loop schedule, checkpointed at a fixed epoch and
//! resumed from that checkpoint at the end.
//!
//! Every state change happens at a fixed epoch (the boot pod is admitted
//! before epoch 0, the checkpoint is taken at a fixed epoch) and the client
//! only reads, so the daemon's reports repeat exactly at a seed.

use crate::calib::{self, Timing};
use crate::stats::{self, fnv1a, median, mix, percentile, Request};
use crate::sys::{CpuRotation, RunDir};
use crate::trace::Tracer;
use crate::{Ctx, LayerMetrics, Outcome, Size};
use parvagpu::core::ParvaGpu;
use parvagpu::daemon::{
    decode_checkpoint, encode_checkpoint, http_request, load_checkpoint, run_daemon,
    AutoscalePolicy, Daemon, DaemonOpts, GaugeLog, PodSpec,
};
use parvagpu::deploy::Scheduler;
use parvagpu::perf::Model;
use parvagpu::profile::ProfileBook;
use parvagpu::scenarios::Scenario;
use parvagpu::serve::ArrivalProcess;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Simulated length of one daemon epoch, µs.
const EPOCH_US: u64 = 100_000;
/// Epochs of one pass: one daemon run from boot, about two seconds of
/// host time on a 2-CPU x86-64 host.
const PASS_EPOCHS: u64 = 5000;
/// Open-loop control request rate, requests per second.
const CONTROL_RPS: f64 = 500.0;
/// In the in-process replay, time `status` and `report` every this many
/// epochs.
const STATUS_EVERY: u64 = 100;

struct Boot {
    daemon: Daemon,
    epochs: u64,
    checkpoint_at: u64,
    decide_every: u64,
    gpus: usize,
}

fn boot(ctx: &Ctx, tr: &mut Tracer) -> Result<Boot, String> {
    let book = tr.span("profile.book", 0, |_| ProfileBook::builtin());
    // S2 ×2 checkpoints at about 830 KB, where decoding is already
    // superlinear in the size: on a 2-vCPU x86-64 host, S2 ×1 decoded
    // 391 KB in 250 ms, S2 ×2 809 KB in 1.0 s and S2 ×3 1.29 MB in 2.4 s.
    let specs = Scenario::S2.scaled(2);
    let deployment = tr
        .span("core.schedule", 0, |_| {
            ParvaGpu::new(&book).schedule(&specs)
        })
        .map_err(|e| format!("catalogue does not plan: {e}"))?;
    let policy = AutoscalePolicy::default();
    let arrivals = ArrivalProcess::Mmpp {
        burst_factor: 2.0,
        mean_phase_s: 2.0,
    };
    let mut daemon = tr.span("parvad.boot", 0, |_| {
        Daemon::new(&specs, arrivals, mix(ctx.seed, 0), EPOCH_US, policy)
    })?;
    let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 60.0);
    tr.span("parvad.submit", 0, |_| {
        daemon.submit(&pod, &mut parvagpu::obs::NullSink)
    })?;
    Ok(Boot {
        daemon,
        epochs: PASS_EPOCHS,
        checkpoint_at: PASS_EPOCHS * 3 / 4,
        decide_every: policy.decide_every,
        gpus: deployment.gpu_count(),
    })
}

/// One measured socket run, and its resume check when asked for.
#[derive(Default)]
struct SocketRun {
    /// The daemon thread's run, timed on its CPU between two host-speed
    /// readings.
    timing: Timing,
    requests: Vec<Request>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    offered: f64,
    slo_attainment: f64,
    gpus_mean: f64,
    report_json: String,
    digest: u64,
    resume_s: f64,
}

fn read_endpoint(out_dir: &Path, done: &AtomicBool) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && !done.load(Ordering::SeqCst) {
        if let Ok(addr) = std::fs::read_to_string(out_dir.join("endpoint")) {
            if addr.contains(':') {
                return Some(addr);
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    None
}

/// Whether the daemon finishes within a second: a request that fails
/// while it shuts down raced its exit and was never an attempt.
fn daemon_exiting(done: &AtomicBool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline {
        if done.load(Ordering::SeqCst) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done.load(Ordering::SeqCst)
}

/// One client thread: `GET /status` and `GET /report` alternately, each
/// due at a fixed time from the schedule start, until the daemon exits.
fn client(addr: &str, done: &AtomicBool, run: &mut SocketRun) {
    let period_ns = 1e9 / CONTROL_RPS;
    let t0 = Instant::now();
    let since = |t: Instant| u64::try_from(t.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
    for i in 0u64.. {
        let due_ns = (i as f64 * period_ns) as u64;
        let due = t0 + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if done.load(Ordering::SeqCst) {
            return;
        }
        let path = if i % 2 == 0 { "/status" } else { "/report" };
        let sent_ns = since(Instant::now());
        let reply = http_request(addr, "GET", path, None);
        let done_ns = since(Instant::now());
        match reply {
            Ok((200, body)) if !body.is_empty() => {
                run.attempted += 1;
                run.requests.push(Request {
                    due_ns,
                    sent_ns,
                    done_ns,
                });
            }
            Ok((code, body)) => {
                run.attempted += 1;
                run.failed += 1;
                run.errors
                    .push(format!("GET {path}: status {code}: {body:.80}"));
            }
            Err(_) if daemon_exiting(done) => return,
            Err(e) => {
                run.attempted += 1;
                run.failed += 1;
                run.errors.push(format!("GET {path}: {e}"));
            }
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// One socket run with the daemon thread pinned to CPU `k` and the client
/// to the next one.
fn socket_run(
    boot: &Boot,
    dir: &RunDir,
    k: usize,
    check_resume: bool,
) -> Result<SocketRun, String> {
    let cpus = CpuRotation::new();
    let out_dir = dir.fresh("uninterrupted");
    let ckpt = dir.fresh("checkpoint.json");
    let opts = DaemonOpts {
        listen: Some("127.0.0.1:0".into()),
        epochs: Some(boot.epochs),
        out_dir: Some(out_dir.clone()),
        checkpoint_at: Some(boot.checkpoint_at),
        checkpoint_path: Some(ckpt.clone()),
        ..DaemonOpts::default()
    };
    let mut daemon = boot.daemon.clone();
    let done = AtomicBool::new(false);
    let mut run = SocketRun::default();
    let (outcome, timing) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            cpus.pin(k);
            let (outcome, timing) = calib::timed(calib::kernel_s, || {
                let outcome = run_daemon(&mut daemon, &opts);
                done.store(true, Ordering::SeqCst);
                outcome
            });
            (outcome, timing)
        });
        cpus.pin(k + 1);
        match read_endpoint(&out_dir, &done) {
            Some(addr) => client(&addr, &done, &mut run),
            None => run.errors.push("the daemon published no endpoint".into()),
        }
        cpus.release();
        server.join().expect("daemon thread panicked")
    });
    let outcome = outcome?;
    if outcome.epochs != boot.epochs || !outcome.checkpointed {
        run.errors.push(format!(
            "daemon stopped at epoch {} (checkpointed: {}), expected {}",
            outcome.epochs, outcome.checkpointed, boot.epochs
        ));
    }
    run.timing = timing;

    let report = daemon.report();
    let status = daemon.status();
    let offered: u64 = report.services.iter().map(|s| s.offered).sum();
    let within: u64 = report.services.iter().map(|s| s.within_slo).sum();
    run.offered = offered as f64;
    run.slo_attainment = within as f64 / offered as f64;
    run.gpus_mean = status.gpu_epochs as f64 / status.epoch as f64;

    let mut digest_input = Vec::new();
    for artifact in ["report.json", "status.json"] {
        digest_input.extend_from_slice(read(&out_dir.join(artifact))?.as_bytes());
    }
    run.digest = fnv1a(&digest_input);
    run.report_json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    if check_resume {
        check_resume_from(boot, dir, &out_dir, &ckpt, &mut run)?;
    }
    Ok(run)
}

/// Resume from the mid-run checkpoint and finish headless: the final
/// report, status and gauge tail must equal the uninterrupted run's.
fn check_resume_from(
    boot: &Boot,
    dir: &RunDir,
    out_dir: &Path,
    ckpt: &Path,
    run: &mut SocketRun,
) -> Result<(), String> {
    let start = Instant::now();
    let mut resumed: Daemon = load_checkpoint(ckpt)?;
    run.resume_s = start.elapsed().as_secs_f64();
    if resumed.epoch() != boot.checkpoint_at {
        run.errors.push(format!(
            "checkpoint resumed at epoch {}, expected {}",
            resumed.epoch(),
            boot.checkpoint_at
        ));
    }
    let resumed_dir = dir.fresh("resumed");
    run_daemon(
        &mut resumed,
        &DaemonOpts {
            epochs: Some(boot.epochs),
            out_dir: Some(resumed_dir.clone()),
            ..DaemonOpts::default()
        },
    )?;
    for artifact in ["report.json", "status.json"] {
        if read(&out_dir.join(artifact))? != read(&resumed_dir.join(artifact))? {
            run.errors.push(format!(
                "resumed {artifact} differs from the uninterrupted run's"
            ));
        }
    }
    let full = read(&out_dir.join("gauges.jsonl"))?;
    let tail = read(&resumed_dir.join("gauges.jsonl"))?;
    if tail.is_empty() || !full.ends_with(&tail) {
        run.errors
            .push("resumed gauge tail differs from the uninterrupted run's".into());
    }
    Ok(())
}

/// In-process replay of the same schedule through `Daemon::step`, timing
/// steps, status and report calls, and the checkpoint round trip.
struct Replay {
    wall_s: f64,
    report_json: String,
    checkpoint_bytes: usize,
    reconfigs: u64,
    churned_gpus: u64,
}

fn replay(boot: &Boot, tr: &mut Tracer) -> Result<Replay, String> {
    let mut d = boot.daemon.clone();
    let mut checkpoint_bytes = 0;
    let mut untimed = Duration::ZERO;
    let start = Instant::now();
    for e in 1..=boot.epochs {
        let name = if e % boot.decide_every == 0 {
            "parvad.decision_step"
        } else {
            "parvad.step"
        };
        tr.span(name, e, |_| d.step(&mut GaugeLog::new()));
        if e % STATUS_EVERY == 0 {
            tr.span("parvad.status", e, |_| serde_json::to_string(&d.status()))
                .map_err(|e| e.to_string())?;
            tr.span("parvad.report", e, |_| serde_json::to_string(&d.report()))
                .map_err(|e| e.to_string())?;
        }
        if e == boot.checkpoint_at {
            let paused = Instant::now();
            let envelope = tr.span("checkpoint.encode", e, |_| encode_checkpoint(&d))?;
            let thawed: Daemon =
                tr.span("checkpoint.decode", e, |_| decode_checkpoint(&envelope))?;
            if thawed.epoch() != e {
                return Err(format!(
                    "checkpoint decoded at epoch {}, expected {e}",
                    thawed.epoch()
                ));
            }
            checkpoint_bytes = envelope.len();
            untimed = paused.elapsed();
        }
    }
    // The checkpoint round trip is timed by its own spans; the wall time
    // compared between traced and untraced replays covers the epochs.
    let wall_s = (start.elapsed() - untimed).as_secs_f64();
    let status = d.status();
    Ok(Replay {
        wall_s,
        report_json: serde_json::to_string(&d.report()).map_err(|e| e.to_string())?,
        checkpoint_bytes,
        reconfigs: status.reconfigs,
        churned_gpus: status.churned_gpus,
    })
}

fn control_metrics(passes: &[SocketRun], out: &mut LayerMetrics) -> Result<(), String> {
    let requests: Vec<Request> = passes
        .iter()
        .flat_map(|p| p.requests.iter().copied())
        .collect();
    let n = requests.len();
    if !stats::supports(n, 99) {
        return Err(format!(
            "{n} control samples cannot support p99 (need {} beyond it)",
            stats::MIN_TAIL_SAMPLES
        ));
    }
    let ms = |v: u64| v as f64 / 1e6;
    let latency: Vec<f64> = requests.iter().map(|r| ms(r.latency_ns())).collect();
    let lag: Vec<f64> = requests.iter().map(|r| ms(r.lag_ns())).collect();
    out.insert("control_p50_ms", percentile(&latency, 50).unwrap_or(0.0));
    out.insert("control_p99_ms", percentile(&latency, 99).unwrap_or(0.0));
    out.insert("control.samples", n as f64);
    out.insert(
        "bench.generator_lag_ms_p99",
        percentile(&lag, 99).unwrap_or(0.0),
    );
    let client_bound = passes.iter().any(|p| stats::client_bound(&p.requests));
    out.insert("bench.client_bound", f64::from(u8::from(client_bound)));
    out.insert("resume_s", passes[0].resume_s);
    Ok(())
}

/// Measure `daemon_control`.
///
/// # Errors
/// Boot, socket or checkpoint failures.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(&ctx.scratch, ctx.workload)?;
    let mut setup_tracer = Tracer::new(ctx.trace);
    let (setup_s, boot) = crate::time_setup(|first| {
        if first {
            boot(ctx, &mut setup_tracer)
        } else {
            boot(ctx, &mut Tracer::new(false))
        }
    })?;

    // Whole passes until the measured time is spent and the pooled control
    // samples support p99 (one pass, usually, when tracing); the first pass
    // also checks the resume.
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let start = Instant::now();
    let mut passes: Vec<SocketRun> = Vec::new();
    let mut samples = 0;
    while passes.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || !stats::supports(samples, 99)
    {
        let pass = socket_run(&boot, &dir, passes.len(), passes.is_empty())?;
        samples += pass.requests.len();
        passes.push(pass);
    }
    let run = &passes[0];
    // Passes alternate between CPUs, which run at different speeds on a
    // shared host: take the median pass on each CPU, then their mean.
    let n_cpus = CpuRotation::new().len().max(1).min(passes.len());
    let per_cpu = |f: fn(&SocketRun) -> f64| {
        let medians: Vec<f64> = (0..n_cpus)
            .map(|c| {
                let v: Vec<f64> = passes.iter().skip(c).step_by(n_cpus).map(f).collect();
                median(&v).unwrap_or(0.0)
            })
            .collect();
        medians.iter().sum::<f64>() / n_cpus as f64
    };
    let slowdowns: Vec<f64> = passes.iter().map(|p| p.timing.slowdown).collect();
    let mut out = Outcome {
        setup_s,
        throughput_rps: run.offered / per_cpu(|p| p.timing.wall_ref_s()),
        cpu_s: per_cpu(|p| p.timing.cpu_ref_s()),
        slowdown: median(&slowdowns).unwrap_or(0.0),
        slo_attainment: run.slo_attainment,
        gpus_mean: run.gpus_mean,
        digest: run.digest,
        ..Outcome::default()
    };
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.errors.extend(p.errors.iter().cloned());
        if p.digest != run.digest {
            out.errors.push(format!(
                "pass {i}: daemon reports differ from the first pass's"
            ));
        }
    }
    if out.attempted == 0 {
        out.errors.push("no control request was sent".into());
    }

    if ctx.trace {
        // A probe skips the untraced replay: only the workload's own run
        // reports the tracing overhead.
        let untraced = match ctx.size {
            Size::Full => Some(replay(&boot, &mut Tracer::new(false))?),
            Size::Probe => None,
        };
        let mut tr = Tracer::new(true);
        let traced = replay(&boot, &mut tr)?;
        for r in untraced.iter().chain([&traced]) {
            if r.report_json != run.report_json {
                out.errors
                    .push("in-process replay report differs from the socket run's".into());
            }
        }
        let l = &mut out.layer;
        if let Some(untraced) = &untraced {
            l.insert("bench.trace_overhead", traced.wall_s / untraced.wall_s);
        }
        control_metrics(&passes, l)?;
        let us = |name: &str| median(&tr.wall_ms(name)).map_or(0.0, |m| m * 1e3);
        l.insert("parvad.step_us_p50", us("parvad.step"));
        l.insert(
            "parvad.decision_step_ms",
            median(&tr.wall_ms("parvad.decision_step")).unwrap_or(0.0),
        );
        l.insert("autoscale.reconfigs", traced.reconfigs as f64);
        l.insert("autoscale.churned_gpus", traced.churned_gpus as f64);
        let (status_us, report_us) = (us("parvad.status"), us("parvad.report"));
        l.insert("parvad.status_us", status_us);
        l.insert("parvad.report_us", report_us);
        let control_p50_us = l["control_p50_ms"] * 1e3;
        l.insert(
            "parvad.socket_us",
            control_p50_us - (status_us + report_us) / 2.0,
        );
        l.insert("checkpoint.bytes", traced.checkpoint_bytes as f64);
        l.insert(
            "checkpoint.encode_ms",
            tr.wall_ms("checkpoint.encode").iter().sum(),
        );
        l.insert(
            "checkpoint.decode_ms",
            tr.wall_ms("checkpoint.decode").iter().sum(),
        );
        l.insert(
            "profile.book_ms",
            setup_tracer.wall_ms("profile.book").iter().sum(),
        );
        l.insert(
            "core.schedule_ms",
            median(&setup_tracer.wall_ms("core.schedule")).unwrap_or(0.0),
        );
        l.insert("core.gpus", boot.gpus as f64);
        out.tracers.push(setup_tracer);
        out.tracers.push(tr);
    }
    Ok(out)
}
