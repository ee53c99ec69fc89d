//! `perfbench`: the benchmark of the ParvaGPU simulator and the `parvad`
//! daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|fleet_region|daemon_control|traced_audit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Each workload builds its inputs from
//! the seed, measures for about `--seconds` (whole passes over its inputs),
//! checks its outputs, and prints one JSON line last:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! * `--trace 0` prints the end-to-end metrics, measured untraced: set-up
//!   time, simulated requests per host second, CPU per pass, peak RSS
//!   (less the calibration's resident table), and the modelled SLO
//!   attainment and mean GPUs. Host times are medians over
//!   the repeats of each operation (of each pass, for the daemon), each
//!   rescaled to a reference host speed by a calibration kernel timed on
//!   the same CPU right before and after it (see [`calib`]). Single-threaded
//!   work is rotated across the CPUs the process may use, because on a
//!   shared host each CPU runs at its own, drifting speed.
//! * `--trace 1` prints the per-layer metrics. The workload runs one pass
//!   untraced and one pass with in-memory spans around its calls into each
//!   layer; the wall-time ratio is `bench.trace_overhead`. A layer the
//!   workload does not call is measured by a traced probe of the workload
//!   that does (see [`PER_LAYER`]), so every metric is always printed. The
//!   probes use smaller inputs, except that the daemon probe keeps one full
//!   socket pass, because its p99 needs 1000 control samples. Spans are
//!   written to `.perfbench/spans/` at exit.
//!
//! Scratch files live in `.perfbench/tmp/<pid>-<workload>-<n>/` and are
//! removed at exit. Report digests are kept in
//! `.perfbench/digests/<build>/`, keyed by a hash of the benchmark binary,
//! and a later run of the same build at the same seed whose digest differs
//! is marked incorrect. Only a run that found no other error stores one.
//! `failed / attempted` is the failure ratio; any failure also fails the
//! run.

mod audit;
mod calib;
mod daemon;
mod fleet;
mod oplist;
mod paper;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

/// Set-up is repeated on each CPU for at least this long and at least
/// [`SETUP_MIN_REPEATS`] times.
const SETUP_MIN_S_PER_CPU: f64 = 0.25;
const SETUP_MIN_REPEATS: usize = 5;

/// Time `setup` repeatedly (its argument says whether this is the first
/// call) on each CPU in turn, each repeat followed by one calibration
/// kernel run, and return the mean over CPUs of each CPU's median set-up
/// time over its median kernel time, at the reference host speed, with the
/// last result.
///
/// # Errors
/// The first failing set-up.
pub fn time_setup<T>(mut setup: impl FnMut(bool) -> Result<T, String>) -> Result<(f64, T), String> {
    let cpus = sys::CpuRotation::new();
    let mut medians = Vec::new();
    let mut built = None;
    for k in 0..cpus.len().max(1) {
        cpus.pin(k);
        let (mut times, mut kernels) = (Vec::new(), Vec::new());
        let started = std::time::Instant::now();
        while times.len() < SETUP_MIN_REPEATS
            || started.elapsed().as_secs_f64() < SETUP_MIN_S_PER_CPU
        {
            let start = std::time::Instant::now();
            let result = setup(built.is_none());
            times.push(start.elapsed().as_secs_f64());
            built = Some(result.inspect_err(|_| cpus.release())?);
            kernels.push(calib::kernel_once_s());
        }
        if let (Some(t), Some(k)) = (stats::median(&times), stats::median(&kernels)) {
            medians.push(t / calib::slowdown(k, k));
        }
    }
    cpus.release();
    let setup_s = medians.iter().sum::<f64>() / medians.len() as f64;
    Ok((setup_s, built.expect("at least one set-up ran")))
}

/// Per-layer metrics by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Input size: the measured workload, or a short probe of one of its layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Probe,
}

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Parent of the run's scratch directories.
    pub scratch: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Simulated requests offered per host second at the reference speed.
    pub throughput_rps: f64,
    /// Process CPU of one pass over the workload's inputs at the reference
    /// speed.
    pub cpu_s: f64,
    /// Median host slowdown against the reference speed while measuring.
    pub slowdown: f64,
    pub slo_attainment: f64,
    pub gpus_mean: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Digest of every report of one pass.
    pub digest: u64,
    pub layer: LayerMetrics,
    pub tracers: Vec<Tracer>,
}

pub const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "fleet_region",
    "daemon_control",
    "traced_audit",
];

/// Per-layer metrics: name, unit, and the workload whose probe measures
/// the metric when the running workload does not call that layer.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("bench.trace_overhead", "ratio", "paper_sweep"),
    ("des.events", "count", "paper_sweep"),
    ("des.sims", "count", "paper_sweep"),
    ("des.peak_queue_depth", "count", "paper_sweep"),
    ("des.events_per_req", "ratio", "paper_sweep"),
    ("des.ns_per_event", "ns", "paper_sweep"),
    ("des.loop_cpu_share", "ratio", "paper_sweep"),
    ("profile.book_ms", "ms", "paper_sweep"),
    ("core.schedule_ms", "ms", "paper_sweep"),
    ("core.gpus", "GPUs", "paper_sweep"),
    ("serve.run_ms_p50", "ms", "paper_sweep"),
    ("serve.run_ms_max", "ms", "paper_sweep"),
    ("fleet.run_ms", "ms", "fleet_region"),
    ("fleet.self_cpu_ms", "ms", "fleet_region"),
    ("fleet.cache_hit_rate", "ratio", "fleet_region"),
    ("fleet.cache_lookups", "count", "fleet_region"),
    ("region.run_ms", "ms", "fleet_region"),
    ("region.self_cpu_ms", "ms", "fleet_region"),
    ("region.parallelism", "ratio", "fleet_region"),
    ("parvad.step_us_p50", "us", "daemon_control"),
    ("parvad.decision_step_ms", "ms", "daemon_control"),
    ("autoscale.reconfigs", "count", "daemon_control"),
    ("autoscale.churned_gpus", "count", "daemon_control"),
    ("parvad.status_us", "us", "daemon_control"),
    ("parvad.report_us", "us", "daemon_control"),
    ("parvad.socket_us", "us", "daemon_control"),
    ("checkpoint.bytes", "bytes", "daemon_control"),
    ("checkpoint.encode_ms", "ms", "daemon_control"),
    ("checkpoint.decode_ms", "ms", "daemon_control"),
    ("control_p50_ms", "ms", "daemon_control"),
    ("control_p99_ms", "ms", "daemon_control"),
    ("control.samples", "count", "daemon_control"),
    ("resume_s", "s", "daemon_control"),
    ("bench.generator_lag_ms_p99", "ms", "daemon_control"),
    ("bench.client_bound", "flag", "daemon_control"),
    ("obs.trace_events", "count", "traced_audit"),
    ("obs.trace_bytes", "bytes", "traced_audit"),
    ("obs.overhead_ratio", "ratio", "traced_audit"),
    ("obs.ns_per_trace_event", "ns", "traced_audit"),
    ("obs.audit_ms", "ms", "traced_audit"),
    ("obs.parse_mb_per_s", "MB/s", "traced_audit"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?} (known: {})",
                WORKLOADS.join(", ")
            )
        })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "paper_sweep" => oplist::measure::<paper::PaperSweep>(ctx),
        "fleet_region" => oplist::measure::<fleet::FleetRegion>(ctx),
        "traced_audit" => oplist::measure::<audit::TracedAudit>(ctx),
        "daemon_control" => daemon::measure(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Compare the run's digest with the one an earlier run of the same build
/// at the same seed stored. A run that found no other error (`store`)
/// stores its digest when none is there yet.
fn check_digest(args: &Args, digest: u64, store: bool) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let build = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let dir = PathBuf::from(format!(".perfbench/digests/{:016x}", stats::fnv1a(&build)));
    let path = dir.join(format!("{}-seed{}", args.workload, args.seed));
    let hex = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == hex => Ok(None),
        Ok(stored) => Ok(Some(format!(
            "report digest {hex} differs from {} stored by an earlier run of this build at this seed",
            stored.trim()
        ))),
        Err(_) if store => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            std::fs::write(&path, &hex).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(None)
        }
        Err(_) => Ok(None),
    }
}

fn run(args: &Args) -> Result<String, String> {
    let process_start = std::time::Instant::now();
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        scratch: PathBuf::from(".perfbench/tmp"),
    };
    let mut out = measure(&ctx)?;
    let mut errors = std::mem::take(&mut out.errors);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut layer = std::mem::take(&mut out.layer);
        let mut tracers = std::mem::take(&mut out.tracers);
        let mut probed: Vec<&str> = Vec::new();
        for &(name, _, owner) in PER_LAYER {
            if layer.contains_key(name) || probed.contains(&owner) {
                continue;
            }
            probed.push(owner);
            let probe_ctx = Ctx {
                workload: owner,
                seed: ctx.seed,
                seconds: ctx.seconds,
                trace: true,
                size: Size::Probe,
                scratch: ctx.scratch.clone(),
            };
            let mut probe = measure(&probe_ctx)?;
            errors.extend(probe.errors.iter().map(|e| format!("{owner} probe: {e}")));
            out.attempted += probe.attempted;
            out.failed += probe.failed;
            for &(n, _, o) in PER_LAYER {
                if o == owner && !layer.contains_key(n) {
                    if let Some(v) = probe.layer.get(n) {
                        layer.insert(n, *v);
                    }
                }
            }
            tracers.append(&mut probe.tracers);
        }
        for &(name, unit, _) in PER_LAYER {
            let v = layer
                .get(name)
                .copied()
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            metrics.push((name, v, unit));
        }
        let spans = PathBuf::from(format!(
            ".perfbench/spans/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let mut all = Tracer::new(true);
        for t in tracers {
            all.spans.extend(t.spans);
        }
        all.write_jsonl(&spans)?;
    } else {
        // The calibration's own resident table is not the workload's.
        let rss = sys::peak_rss_mb()? - calib::RESIDENT_MIB;
        metrics.extend([
            ("setup_s", out.setup_s, "s"),
            ("throughput_rps", out.throughput_rps, "req/s"),
            ("cpu_s", out.cpu_s, "s"),
            ("peak_rss_mb", rss, "MiB"),
            ("slo_attainment", out.slo_attainment, "ratio"),
            ("gpus_mean", out.gpus_mean, "GPUs"),
        ]);
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }
    if out.failed > 0 {
        errors.push(format!(
            "{} of {} operations failed (failed ratio {})",
            out.failed,
            out.attempted,
            stats::failed_ratio(out.attempted, out.failed)
        ));
    }
    if let Some(e) = check_digest(args, out.digest, errors.is_empty())? {
        errors.push(e);
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {} finished in {:.1} s (host slowdown {:.3})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        process_start.elapsed().as_secs_f64(),
        out.slowdown
    );

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        errors.is_empty(),
        out.attempted,
        out.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
