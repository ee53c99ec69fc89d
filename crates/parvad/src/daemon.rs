//! The daemon run loop and its HTTP/JSON control socket.
//!
//! `parvad` speaks the smallest useful dialect of HTTP/1.1: one request per
//! connection, JSON bodies, `Connection: close`. The socket is polled
//! *between* epochs — control actions land at epoch boundaries, which is
//! exactly the granularity the engine can checkpoint at, so an interrupted
//! daemon never loses a half-applied action.
//!
//! | Endpoint           | Body                                 | Effect |
//! |--------------------|--------------------------------------|--------|
//! | `GET /status`      | —                                    | [`crate::DaemonStatus`] |
//! | `GET /report`      | —                                    | cumulative [`parva_serve::StreamReport`] |
//! | `POST /submit`     | [`crate::PodSpec`] JSON              | admit a pod, `{"id":n}` |
//! | `POST /scale`      | `{"service":n,"multiplier":x}`       | inject true demand |
//! | `POST /drain`      | —                                    | stop admissions, exit after the epoch |
//! | `POST /checkpoint` | `{"path":"<file name>"}`             | write a checkpoint into `--out` now |
//!
//! Each request must arrive whole within two seconds (408 otherwise), so
//! a slow client cannot hold the epoch loop for longer. `POST /checkpoint`
//! takes a bare file name and writes it inside the `--out` directory: any
//! other path is refused with 400, and a daemon without `--out` refuses
//! with 409.
//!
//! Artifacts under `--out`: `gauges.jsonl` (appended per epoch — the
//! byte-gate stream), `report.json` and `status.json` (written at exit),
//! `endpoint` (the bound address, for scripts). With a stream directory the
//! same rows (plus trace spans) tee into a live [`parva_obs::StreamSink`]
//! whose shards `parvactl trace` tooling can follow.

use crate::engine::Daemon;
use crate::{checkpoint, GaugeLog, PodSpec};
use parva_obs::{Row, StreamConfig, StreamSink, TraceEvent, TraceSink};
use serde::Deserialize;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How to run the daemon loop.
#[derive(Debug, Clone, Default)]
pub struct DaemonOpts {
    /// Bind a control socket (`"127.0.0.1:0"` picks a free port). `None`
    /// runs headless — the deterministic mode CI byte-gates.
    pub listen: Option<String>,
    /// Stop once this many *total* epochs have completed (`None`: run until
    /// drained). A resumed daemon counts from its checkpointed epoch.
    pub epochs: Option<u64>,
    /// Artifact directory (`gauges.jsonl`, `report.json`, `status.json`,
    /// `endpoint`).
    pub out_dir: Option<PathBuf>,
    /// Write a checkpoint when the total epoch count reaches this value.
    pub checkpoint_at: Option<u64>,
    /// Where the checkpoint goes (required with `checkpoint_at`).
    pub checkpoint_path: Option<PathBuf>,
    /// Exit right after writing the scheduled checkpoint (simulating a
    /// suspension; a later `--resume` run continues the epoch stream).
    pub halt_at_checkpoint: bool,
    /// Tee gauges and trace events into a live `StreamSink` here.
    pub stream_dir: Option<PathBuf>,
    /// Wall-clock pause between epochs, ms (live demos; keep 0 for CI).
    pub throttle_ms: u64,
}

/// What a finished run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOutcome {
    /// Total completed epochs (including any resumed-from checkpoint).
    pub epochs: u64,
    /// Whether a checkpoint was written.
    pub checkpointed: bool,
    /// Whether the loop exited because of a drain request.
    pub drained: bool,
    /// Bound control-socket address, if listening.
    pub bound_addr: Option<String>,
}

#[derive(Deserialize)]
struct ScaleRequest {
    service: u32,
    multiplier: f64,
}

#[derive(Deserialize)]
struct CheckpointRequest {
    path: String,
}

/// Gauges into the byte-gated log, traces into the live stream.
struct TeeSink<'a> {
    log: GaugeLog,
    stream: &'a mut StreamSink,
}

impl TraceSink for TeeSink<'_> {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        self.stream.emit(ev);
    }

    fn next_sample_us(&self) -> u64 {
        u64::MAX
    }

    fn sample(&mut self, row: Row) {
        self.log.lines.push(row.to_json());
        self.stream.sample(row);
    }

    fn advance_sampler(&mut self) {}
}

/// Drive `daemon` to completion under `opts`.
///
/// # Errors
/// Socket, filesystem or checkpoint failures, as strings. Control-socket
/// request errors are reported to the client, never fatal to the daemon.
pub fn run_daemon(daemon: &mut Daemon, opts: &DaemonOpts) -> Result<DaemonOutcome, String> {
    let listener = match &opts.listen {
        Some(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("socket setup: {e}"))?;
            Some(l)
        }
        None => None,
    };
    let bound_addr = listener
        .as_ref()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .transpose()?
        .map(|a| a.to_string());

    let mut gauge_file = match &opts.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            if let Some(addr) = &bound_addr {
                std::fs::write(dir.join("endpoint"), addr)
                    .map_err(|e| format!("writing endpoint: {e}"))?;
            }
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("gauges.jsonl"))
                .map_err(|e| format!("opening gauges.jsonl: {e}"))?;
            Some(f)
        }
        None => None,
    };
    let mut stream = match &opts.stream_dir {
        Some(dir) => Some(
            StreamSink::create(dir, 0, StreamConfig::default())
                .map_err(|e| format!("creating stream dir: {e}"))?,
        ),
        None => None,
    };

    let mut checkpointed = false;
    let mut drained = false;
    loop {
        if let Some(l) = &listener {
            poll_control(l, daemon, opts.out_dir.as_deref());
        }
        if daemon.draining() {
            drained = true;
            break;
        }
        if let Some(target) = opts.epochs {
            if daemon.epoch() >= target {
                break;
            }
        }

        let lines = match stream.as_mut() {
            Some(s) => {
                let mut sink = TeeSink {
                    log: GaugeLog::new(),
                    stream: s,
                };
                daemon.step(&mut sink);
                sink.log.lines
            }
            None => {
                let mut sink = GaugeLog::new();
                daemon.step(&mut sink);
                sink.lines
            }
        };
        if let Some(f) = gauge_file.as_mut() {
            for line in &lines {
                writeln!(f, "{line}").map_err(|e| format!("writing gauges.jsonl: {e}"))?;
            }
            f.flush()
                .map_err(|e| format!("flushing gauges.jsonl: {e}"))?;
        }

        if opts.checkpoint_at == Some(daemon.epoch()) {
            let path = opts
                .checkpoint_path
                .as_ref()
                .ok_or("checkpoint_at set without a checkpoint path")?;
            checkpoint::save_checkpoint(daemon, path)?;
            checkpointed = true;
            if opts.halt_at_checkpoint {
                break;
            }
        }
        if opts.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
    }

    if let Some(dir) = &opts.out_dir {
        let report = serde_json::to_string_pretty(&daemon.report())
            .map_err(|e| format!("report encoding: {e}"))?;
        std::fs::write(dir.join("report.json"), report)
            .map_err(|e| format!("writing report.json: {e}"))?;
        let status = serde_json::to_string_pretty(&daemon.status())
            .map_err(|e| format!("status encoding: {e}"))?;
        std::fs::write(dir.join("status.json"), status)
            .map_err(|e| format!("writing status.json: {e}"))?;
    }
    if let Some(mut s) = stream {
        s.finish().map_err(|e| format!("finishing stream: {e}"))?;
    }
    Ok(DaemonOutcome {
        epochs: daemon.epoch(),
        checkpointed,
        drained,
        bound_addr,
    })
}

/// Handle every connection currently pending on the listener;
/// checkpoints requested over the socket go into `out_dir`.
fn poll_control(listener: &TcpListener, daemon: &mut Daemon, out_dir: Option<&Path>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, daemon, out_dir),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Largest request body the control socket accepts, bytes. Every body is
/// a small JSON object (pod specs are under 1 KiB); a larger declared
/// `Content-Length` is refused with 413 before any of the body is read, so
/// no client can grow the daemon's memory.
const MAX_BODY_BYTES: usize = 16 * 1024;

/// Time a client has to deliver one whole request, headers and body. The
/// epoch loop waits for at most this long per connection, however slowly
/// the bytes trickle in.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

fn handle_connection(mut stream: TcpStream, daemon: &mut Daemon, out_dir: Option<&Path>) {
    let _ = stream.set_nonblocking(false);
    match read_request(&mut stream, Instant::now() + REQUEST_DEADLINE) {
        Ok((method, path, body)) => {
            let (code, reply) = dispatch(daemon, out_dir, &method, &path, &body);
            respond(&mut stream, code, &reply);
        }
        Err(RequestError::TooLarge) => {
            respond(&mut stream, 413, "{\"error\":\"request body too large\"}");
        }
        Err(RequestError::Malformed) => {
            respond(&mut stream, 400, "{\"error\":\"malformed request\"}");
        }
        Err(RequestError::Timeout) => {
            respond(
                &mut stream,
                408,
                "{\"error\":\"request not received in time\"}",
            );
        }
    }
}

/// Why a request could not be read.
enum RequestError {
    Malformed,
    TooLarge,
    Timeout,
}

/// Where `POST /checkpoint` may write `name`: a bare file name, inside
/// the daemon's `--out` directory.
fn checkpoint_target(out_dir: Option<&Path>, name: &str) -> Result<PathBuf, (u16, &'static str)> {
    if name.is_empty() || name.contains(['/', '\\', '\0']) || name.contains("..") {
        return Err((400, "checkpoint path must be a bare file name"));
    }
    let dir = out_dir.ok_or((409, "the daemon has no --out directory to checkpoint into"))?;
    Ok(dir.join(name))
}

fn dispatch(
    daemon: &mut Daemon,
    out_dir: Option<&Path>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let err = |code: u16, msg: &str| (code, format!("{{\"error\":{}}}", quote_json(msg)));
    match (method, path) {
        ("GET", "/status") => match serde_json::to_string(&daemon.status()) {
            Ok(s) => (200, s),
            Err(e) => err(500, &e.to_string()),
        },
        ("GET", "/report") => match serde_json::to_string(&daemon.report()) {
            Ok(s) => (200, s),
            Err(e) => err(500, &e.to_string()),
        },
        ("POST", "/submit") => match serde_json::from_str::<PodSpec>(body) {
            Ok(pod) => match daemon.submit(&pod, &mut parva_obs::NullSink) {
                Ok(id) => (200, format!("{{\"id\":{id}}}")),
                Err(e) => err(409, &e),
            },
            Err(e) => err(400, &format!("bad pod spec: {e}")),
        },
        ("POST", "/scale") => match serde_json::from_str::<ScaleRequest>(body) {
            Ok(req) => match daemon.scale(req.service, req.multiplier) {
                Ok(()) => (200, "{\"ok\":true}".to_string()),
                Err(e) => err(409, &e),
            },
            Err(e) => err(400, &format!("bad scale request: {e}")),
        },
        ("POST", "/drain") => {
            daemon.drain();
            (200, "{\"ok\":true,\"draining\":true}".to_string())
        }
        ("POST", "/checkpoint") => match serde_json::from_str::<CheckpointRequest>(body) {
            Ok(req) => match checkpoint_target(out_dir, &req.path) {
                Ok(target) => match checkpoint::save_checkpoint(daemon, &target) {
                    Ok(()) => (
                        200,
                        format!(
                            "{{\"ok\":true,\"path\":{}}}",
                            quote_json(&target.display().to_string())
                        ),
                    ),
                    Err(e) => err(500, &e),
                },
                Err((code, msg)) => err(code, msg),
            },
            Err(e) => err(400, &format!("bad checkpoint request: {e}")),
        },
        _ => err(404, &format!("no such endpoint: {method} {path}")),
    }
}

fn quote_json(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"?\"".to_string())
}

/// Read into `chunk` with whatever time is left before `deadline`.
fn read_until(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, RequestError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(RequestError::Timeout);
    }
    stream
        .set_read_timeout(Some(left))
        .map_err(|_| RequestError::Malformed)?;
    stream.read(chunk).map_err(|e| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::Timeout,
        _ => RequestError::Malformed,
    })
}

fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<(String, String, String), RequestError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        let n = read_until(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(RequestError::Malformed);
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(RequestError::Malformed);
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(RequestError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let path = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let content_length = lines
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim())
        })
        .next()
        .map_or(Ok(0), |v| {
            v.parse::<u64>().map_err(|_| RequestError::Malformed)
        })?;
    if content_length > MAX_BODY_BYTES as u64 {
        return Err(RequestError::TooLarge);
    }
    let content_length = content_length as usize;
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_until(stream, &mut chunk, deadline)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, path, String::from_utf8_lossy(&body).to_string()))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, code: u16, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal blocking HTTP/1.1 client for `parvactl` and tests.
///
/// # Errors
/// Connection or protocol failures, as strings.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response: {raw:.60}"))?;
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoscalePolicy;
    use parva_deploy::ServiceSpec;
    use parva_perf::Model;
    use parva_serve::ArrivalProcess;

    /// A scratch directory owned by one test and removed when dropped; the
    /// name carries the process id and a counter, so concurrent test
    /// processes never share one.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("parvad-test-{label}-{}-{n}", std::process::id()));
            // Left over by an earlier process that had the same pid and died.
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn boot() -> Daemon {
        let specs = vec![
            ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
            ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
        ];
        Daemon::new(
            &specs,
            ArrivalProcess::Poisson,
            11,
            500_000,
            AutoscalePolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn headless_run_writes_artifacts() {
        let tmp = TempDir::new("headless");
        let dir = tmp.0.join("out");
        let mut daemon = boot();
        let outcome = run_daemon(
            &mut daemon,
            &DaemonOpts {
                epochs: Some(3),
                out_dir: Some(dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.epochs, 3);
        assert!(!outcome.checkpointed);
        let gauges = std::fs::read_to_string(dir.join("gauges.jsonl")).unwrap();
        assert_eq!(
            gauges
                .lines()
                .filter(|l| l.contains("parvad-epoch"))
                .count(),
            3
        );
        assert!(dir.join("report.json").exists());
        assert!(dir.join("status.json").exists());
    }

    #[test]
    fn halt_and_resume_reproduces_the_uninterrupted_byte_stream() {
        let tmp = TempDir::new("resume");
        let base = &tmp.0;
        let control_dir = base.join("control");
        let resumed_dir = base.join("resumed");
        let ckpt = base.join("ckpt.json");

        let mut control = boot();
        run_daemon(
            &mut control,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(control_dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();

        let mut first = boot();
        let outcome = run_daemon(
            &mut first,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(resumed_dir.clone()),
                checkpoint_at: Some(4),
                checkpoint_path: Some(ckpt.clone()),
                halt_at_checkpoint: true,
                ..DaemonOpts::default()
            },
        )
        .unwrap();
        assert!(outcome.checkpointed);
        assert_eq!(outcome.epochs, 4);
        drop(first);

        let mut resumed: Daemon = checkpoint::load_checkpoint(&ckpt).unwrap();
        run_daemon(
            &mut resumed,
            &DaemonOpts {
                epochs: Some(9),
                out_dir: Some(resumed_dir.clone()),
                ..DaemonOpts::default()
            },
        )
        .unwrap();

        for artifact in ["gauges.jsonl", "report.json", "status.json"] {
            let a = std::fs::read_to_string(control_dir.join(artifact)).unwrap();
            let b = std::fs::read_to_string(resumed_dir.join(artifact)).unwrap();
            assert_eq!(a, b, "{artifact} diverged across suspend/resume");
        }
    }

    /// Serve `boot()` on a fresh socket, polling between epochs until a
    /// drain arrives. Returns the address and the server thread.
    fn serve() -> (String, std::thread::JoinHandle<Daemon>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut daemon = boot();
            while !daemon.draining() {
                poll_control(&listener, &mut daemon, None);
                daemon.step(&mut parva_obs::NullSink);
            }
            daemon
        });
        (addr, server)
    }

    fn epoch_at(addr: &str) -> u64 {
        let (code, body) = http_request(addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200, "{body}");
        serde_json::from_str::<crate::DaemonStatus>(&body)
            .unwrap()
            .epoch
    }

    /// The daemon steps past `epoch` within a few seconds.
    fn assert_advances_past(addr: &str, epoch: u64) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while epoch_at(addr) <= epoch {
            assert!(Instant::now() < give_up, "daemon stopped stepping");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn oversized_body_is_refused_and_the_daemon_keeps_stepping() {
        let (addr, server) = serve();
        let before = epoch_at(&addr);

        // Declare a 10 GB body and send none of it: the daemon must answer
        // 413 from the headers alone, without waiting for or buffering it.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        write!(
            stream,
            "POST /submit HTTP/1.1\r\nContent-Length: 10000000000\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");
        assert!(raw.contains("too large"), "{raw}");

        assert_advances_past(&addr, before);
        let (code, _) = http_request(&addr, "POST", "/drain", None).unwrap();
        assert_eq!(code, 200);
        assert!(server.join().unwrap().draining());
    }

    #[test]
    fn trickling_client_is_cut_off_at_the_deadline() {
        let (addr, server) = serve();
        let before = epoch_at(&addr);

        // Send one header byte every 100 ms and never finish: each read
        // gets a byte well inside any per-read timeout, but the request as
        // a whole must be cut off at the deadline.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut reader = stream.try_clone().unwrap();
        reader
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let start = Instant::now();
        let trickle = std::thread::spawn(move || {
            for &b in b"GET /status HTTP/1.1\r\nX-Slow: ".iter().cycle() {
                if stream.write_all(&[b]).is_err() || start.elapsed() > Duration::from_secs(10) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        // The daemon may reset the connection after answering, because the
        // client is still sending: keep whatever arrived before that.
        let mut raw = Vec::new();
        let _ = reader.read_to_end(&mut raw);
        let cut_off = start.elapsed();
        trickle.join().unwrap();
        let raw = String::from_utf8_lossy(&raw);
        assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
        assert!(
            cut_off >= REQUEST_DEADLINE && cut_off < REQUEST_DEADLINE + Duration::from_secs(1),
            "cut off after {cut_off:?}"
        );

        assert_advances_past(&addr, before);
        let (code, _) = http_request(&addr, "POST", "/drain", None).unwrap();
        assert_eq!(code, 200);
        assert!(server.join().unwrap().draining());
    }

    #[test]
    fn checkpoints_are_confined_to_the_out_dir() {
        let tmp = TempDir::new("confine");
        let out = tmp.0.join("out");
        std::fs::create_dir_all(&out).unwrap();
        let outside = tmp.0.join("escape.json");
        let mut daemon = boot();
        let mut post = |out_dir: Option<&Path>, path: &str| {
            let body = format!("{{\"path\":{}}}", quote_json(path));
            dispatch(&mut daemon, out_dir, "POST", "/checkpoint", &body).0
        };
        for escaping in [
            "../escape.json",
            outside.to_str().unwrap(),
            "sub/escape.json",
            "..",
            "",
        ] {
            assert_eq!(post(Some(&out), escaping), 400, "{escaping:?}");
        }
        assert!(!outside.exists(), "an escaping path wrote a file");
        assert_eq!(std::fs::read_dir(&out).unwrap().count(), 0);

        assert_eq!(post(None, "live.ckpt.json"), 409);
        assert_eq!(post(Some(&out), "live.ckpt.json"), 200);
        let resumed: Daemon = checkpoint::load_checkpoint(&out.join("live.ckpt.json")).unwrap();
        assert_eq!(resumed.epoch(), 0);
    }

    #[test]
    fn control_socket_serves_the_full_lifecycle() {
        // Served until a drain arrives, stepping in between so submitted
        // pods actually receive traffic.
        let (addr, server) = serve();

        let (code, body) = http_request(&addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"services\""));

        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 60.0);
        let pod_json = serde_json::to_string(&pod).unwrap();
        let (code, body) = http_request(&addr, "POST", "/submit", Some(&pod_json)).unwrap();
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"id\":3"));
        // Duplicate admission conflicts.
        let (code, _) = http_request(&addr, "POST", "/submit", Some(&pod_json)).unwrap();
        assert_eq!(code, 409);

        let (code, _) = http_request(
            &addr,
            "POST",
            "/scale",
            Some("{\"service\":1,\"multiplier\":0.5}"),
        )
        .unwrap();
        assert_eq!(code, 200);

        let (code, body) = http_request(&addr, "GET", "/status", None).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("bert-qa"), "{body}");

        let (code, body) = http_request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(code, 404, "{body}");

        let (code, _) = http_request(&addr, "POST", "/drain", None).unwrap();
        assert_eq!(code, 200);
        let daemon = server.join().unwrap();
        assert!(daemon.draining());
        assert!(daemon.epoch() > 0);
    }
}
