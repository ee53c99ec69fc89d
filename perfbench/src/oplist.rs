//! The measuring loop shared by the workloads that are a fixed list of
//! operations (`paper_sweep`, `fleet_region`, `traced_audit`): set up, then
//! run whole passes over the list until the measured time is spent.

use crate::calib;
use crate::stats::{self, median};
use crate::sys::{self, RunDir};
use crate::trace::Tracer;
use crate::{Ctx, LayerMetrics, Outcome};
use std::time::Instant;

/// What one operation produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    /// Simulated requests offered (the throughput numerator).
    pub offered: f64,
    /// SLO attainment as a fraction `slo_num / slo_den`, summed over ops.
    pub slo_num: f64,
    pub slo_den: f64,
    /// GPUs provisioned, summed over `windows` serving windows.
    pub gpu_sum: f64,
    pub windows: f64,
    /// Digest of every report the operation produced, taken after the
    /// operation's time (see [`OpList::digest`]).
    pub digest: u64,
    /// Trace events and bytes written (traced runs of the obs layer).
    pub trace_events: u64,
    pub trace_bytes: u64,
}

/// A workload made of a fixed list of operations.
pub trait OpList: Sized {
    /// What an operation hands to [`OpList::digest`].
    type Report;

    /// Build the inputs from the seed: profile books, specs, validation.
    ///
    /// # Errors
    /// Invalid inputs.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String>;

    /// Whether operations run on one thread and may be pinned to a CPU
    /// (an operation that fans out to threads would inherit the pin).
    const PIN: bool = true;

    fn len(&self) -> usize;

    /// Run operation `i`. This is the timed part.
    ///
    /// # Errors
    /// The operation failed or its output failed a correctness check.
    fn run(
        &mut self,
        i: usize,
        dir: &RunDir,
        tr: &mut Tracer,
    ) -> Result<(OpResult, Self::Report), String>;

    /// Digest of operation `i`'s reports, taken outside its timed part so
    /// that the benchmark's own encoding and hashing are not measured.
    ///
    /// # Errors
    /// The reports cannot be encoded or fail a correctness check.
    fn digest(&self, i: usize, report: Self::Report) -> Result<u64, String>;

    /// Layer metrics particular to this workload, from a traced pass.
    fn layer_metrics(&self, _tr: &Tracer, _pass: &Pass, _out: &mut LayerMetrics) {}
}

/// One or more whole passes over the operation list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per pass: the operations' wall time at the reference host speed,
    /// their raw process CPU, and the requests they offered.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub offered: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-operation results of the first pass (`None` where it failed).
    pub first: Vec<Option<OpResult>>,
    /// Per-operation wall time and process CPU of every repeat at the
    /// reference host speed, and the host slowdown around it.
    pub op_wall_s: Vec<Vec<f64>>,
    pub op_cpu_s: Vec<Vec<f64>>,
    pub op_slowdown: Vec<Vec<f64>>,
    pub errors: Vec<String>,
    pub des: parvagpu::des::counters::Snapshot,
    pub cache: (u64, u64),
}

impl Pass {
    fn first_sum(&self, f: impl Fn(&OpResult) -> f64) -> f64 {
        self.first.iter().flatten().map(f).sum()
    }
}

/// Run whole passes until at least `seconds` have elapsed (one pass at
/// least). Every pass does the same work, and every repeat of an
/// operation must reproduce its first digest. Each operation is timed
/// between two host-speed readings on the CPU it runs on.
fn run_passes<W: OpList>(w: &mut W, seconds: f64, dir: &RunDir, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let des0 = parvagpu::des::counters::snapshot();
    let cache0 = parvagpu::fleet::simcache::global_stats();
    let cpus = sys::CpuRotation::new();
    let reading = || {
        if W::PIN {
            calib::kernel_s()
        } else {
            calib::kernel_s_on_all(&cpus)
        }
    };
    let start = Instant::now();
    loop {
        let first_pass = pass.wall_s.is_empty();
        let (mut wall, mut cpu, mut offered) = (0.0, 0.0, 0.0);
        for i in 0..w.len() {
            pass.attempted += 1;
            if W::PIN {
                cpus.pin(i + pass.wall_s.len());
            }
            let op = u64::try_from(i).unwrap_or(u64::MAX);
            let (result, timing) =
                calib::timed(reading, || tr.span("op", op, |tr| w.run(i, dir, tr)));
            if first_pass {
                pass.op_wall_s.push(Vec::new());
                pass.op_cpu_s.push(Vec::new());
                pass.op_slowdown.push(Vec::new());
            }
            pass.op_wall_s[i].push(timing.wall_ref_s());
            pass.op_cpu_s[i].push(timing.cpu_ref_s());
            pass.op_slowdown[i].push(timing.slowdown);
            wall += timing.wall_ref_s();
            cpu += timing.cpu_s;
            let result = result.and_then(|(mut r, report)| {
                r.digest = w.digest(i, report)?;
                Ok(r)
            });
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("op {i}: {e}"));
                    if first_pass {
                        pass.first.push(None);
                    }
                    continue;
                }
            };
            offered += result.offered;
            if first_pass {
                pass.first.push(Some(result));
            } else if let Some(Some(first)) = pass.first.get(i) {
                if first.digest != result.digest {
                    pass.errors.push(format!(
                        "op {i}: report digest {:016x} differs from the first pass's {:016x}",
                        result.digest, first.digest
                    ));
                }
            }
        }
        pass.wall_s.push(wall);
        pass.cpu_s.push(cpu);
        pass.offered.push(offered);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    cpus.release();
    pass.des = parvagpu::des::counters::snapshot().delta(&des0);
    let cache1 = parvagpu::fleet::simcache::global_stats();
    pass.cache = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    pass
}

fn digest_of(pass: &Pass) -> u64 {
    let mut bytes = Vec::new();
    for r in &pass.first {
        bytes.extend_from_slice(&r.map_or(0, |r| r.digest).to_le_bytes());
    }
    stats::fnv1a(&bytes)
}

/// Measure workload `W`: end-to-end metrics from untraced passes, or, when
/// tracing, per-layer metrics from one traced pass beside an untraced one.
///
/// # Errors
/// Setup failed.
pub fn measure<W: OpList>(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = RunDir::create(&ctx.scratch, ctx.workload)?;
    let mut setup_tracer = Tracer::new(ctx.trace);
    let (setup_s, mut w) = crate::time_setup(|first| {
        if first {
            W::setup(ctx, &mut setup_tracer)
        } else {
            W::setup(ctx, &mut Tracer::new(false))
        }
    })?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let pass = if ctx.trace {
        let untraced = run_passes(&mut w, 0.0, &dir, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let traced = run_passes(&mut w, 0.0, &dir, &mut tr);
        out.layer.insert(
            "bench.trace_overhead",
            traced.wall_s[0] / untraced.wall_s[0],
        );
        generic_layer_metrics(&setup_tracer, &tr, &traced, &mut out.layer);
        w.layer_metrics(&tr, &traced, &mut out.layer);
        if untraced
            .first
            .iter()
            .map(|r| r.map(|r| r.digest))
            .ne(traced.first.iter().map(|r| r.map(|r| r.digest)))
        {
            out.errors
                .push("a traced pass produced different reports from an untraced one".into());
        }
        out.errors.extend(untraced.errors);
        out.attempted += untraced.attempted;
        out.failed += untraced.failed;
        out.tracers.push(setup_tracer);
        out.tracers.push(tr);
        traced
    } else {
        run_passes(&mut w, ctx.seconds, &dir, &mut Tracer::new(false))
    };

    // Host time of one pass at the reference speed: each operation's median
    // over its repeats, summed, so that a disturbance must hit most repeats
    // of an operation to move the figure.
    let ok: Vec<usize> = (0..pass.first.len())
        .filter(|&i| pass.first[i].is_some())
        .collect();
    let per_op =
        |times: &[Vec<f64>]| -> f64 { ok.iter().map(|&i| median(&times[i]).unwrap_or(0.0)).sum() };
    out.throughput_rps = pass.first_sum(|r| r.offered) / per_op(&pass.op_wall_s);
    out.cpu_s = per_op(&pass.op_cpu_s);
    out.slowdown = median(&pass.op_slowdown.concat()).unwrap_or(0.0);
    out.slo_attainment = pass.first_sum(|r| r.slo_num) / pass.first_sum(|r| r.slo_den);
    out.gpus_mean = pass.first_sum(|r| r.gpu_sum) / pass.first_sum(|r| r.windows);
    out.digest = digest_of(&pass);
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.errors.extend(pass.errors);
    Ok(out)
}

/// DES, profile, core and serve metrics: present whenever the traced pass
/// called into that layer.
fn generic_layer_metrics(setup: &Tracer, tr: &Tracer, pass: &Pass, out: &mut LayerMetrics) {
    let books = setup.wall_ms("profile.book");
    if !books.is_empty() {
        out.insert("profile.book_ms", books.iter().sum());
    }
    let des = pass.des;
    if des.events > 0 {
        out.insert("des.events", des.events as f64);
        out.insert("des.sims", des.sims as f64);
        out.insert("des.peak_queue_depth", des.peak_queue_depth as f64);
        let offered: f64 = pass.offered.iter().sum();
        let cpu_s: f64 = pass.cpu_s.iter().sum();
        out.insert("des.events_per_req", des.events as f64 / offered);
        out.insert(
            "des.ns_per_event",
            des.loop_cpu_nanos as f64 / des.events as f64,
        );
        out.insert(
            "des.loop_cpu_share",
            des.loop_cpu_nanos as f64 / 1e9 / cpu_s,
        );
    }
    let schedules: Vec<f64> = setup
        .wall_ms("core.schedule")
        .into_iter()
        .chain(tr.wall_ms("core.schedule"))
        .collect();
    if let Some(m) = median(&schedules) {
        out.insert("core.schedule_ms", m);
        out.insert(
            "core.gpus",
            pass.first_sum(|r| r.gpu_sum) / pass.first_sum(|r| r.windows),
        );
    }
    let runs = tr.wall_ms("serve.run");
    if let (Some(p50), Some(max)) = (median(&runs), stats::percentile(&runs, 100)) {
        out.insert("serve.run_ms_p50", p50);
        out.insert("serve.run_ms_max", max);
    }
}
