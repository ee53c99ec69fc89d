//! `traced_audit`: serve-mode builtins streamed through
//! `ScenarioSpec::run_streamed` into a fresh directory, recounted by
//! `run_trace_audit` with exact equality, and compared with the untraced
//! `run` of the same spec and seed.

use crate::oplist::{OpList, OpResult, Pass};
use crate::stats::{fnv1a, mix};
use crate::sys::{dir_bytes, RunDir};
use crate::trace::Tracer;
use crate::{Ctx, LayerMetrics, Size};
use parvagpu::mig::GpuModel;
use parvagpu::profile::{ProfileBook, SweepGrid};
use parvagpu::scenarios::{spec_by_name, Mode, ScenarioReport, ScenarioSpec};

const SPECS: [&str; 4] = ["quickstart", "single_node_mps", "retry_storm", "llm"];

/// Seeds per spec in the measured workload.
const SEEDS: u64 = 2;

struct Op {
    spec: ScenarioSpec,
    /// GPUs the spec's scheduler deploys for its catalogue.
    gpus: usize,
}

pub struct TracedAudit {
    ops: Vec<Op>,
}

/// GPUs of the deployment the spec's own scheduler builds.
fn deployed_gpus(spec: &ScenarioSpec, op: u64, tr: &mut Tracer) -> Result<usize, String> {
    let Mode::Serve { scheduler, gpu, .. } = &spec.mode else {
        return Err(format!("{} is not a serve-mode spec", spec.name));
    };
    let mut services = spec.workload.services()?;
    let next_id = services.iter().map(|s| s.id + 1).max().unwrap_or(0);
    for (k, pod) in spec.pods.iter().enumerate() {
        services.push(pod.to_service_spec(next_id + k as u32)?);
    }
    let book = match gpu {
        Some(name) => {
            let gpu = GpuModel::CATALOG
                .iter()
                .copied()
                .find(|g| g.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown GPU {name}"))?;
            let mut models = Vec::new();
            for s in &services {
                if !models.contains(&s.model) {
                    models.push(s.model);
                }
            }
            tr.span("profile.book", op, |_| {
                ProfileBook::measure_on(&models, &SweepGrid::paper_default(), gpu)
            })
        }
        None => tr.span("profile.book", op, |_| ProfileBook::builtin()),
    };
    let name = if scheduler.is_empty() {
        "parvagpu"
    } else {
        scheduler
    };
    let sched = parvagpu::cli::make_scheduler(name, &book)?;
    let deployment = tr
        .span("core.schedule", op, |_| sched.schedule(&services))
        .map_err(|e| e.to_string())?;
    Ok(deployment.gpu_count())
}

impl OpList for TracedAudit {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let (names, seeds): (&[&str], u64) = match ctx.size {
            Size::Full => (&SPECS, SEEDS),
            Size::Probe => (&["quickstart"], 1),
        };
        let mut ops = Vec::new();
        for _ in 0..seeds {
            for name in names {
                let mut spec = spec_by_name(name).ok_or_else(|| format!("no builtin {name}"))?;
                spec.seed = mix(ctx.seed, ops.len() as u64);
                spec.validate().map_err(|e| format!("{name}: {e}"))?;
                let gpus = deployed_gpus(&spec, ops.len() as u64, tr)?;
                ops.push(Op { spec, gpus });
            }
        }
        Ok(Self { ops })
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    /// The untraced report and the streamed report's JSON (encoded inside
    /// the operation, because the audit reads it from disk).
    type Report = (ScenarioReport, String);

    fn run(
        &mut self,
        i: usize,
        dir: &RunDir,
        tr: &mut Tracer,
    ) -> Result<(OpResult, Self::Report), String> {
        let op = &self.ops[i];
        let id = i as u64;
        let plain = tr.span("obs.run", id, |_| op.spec.run())?;
        let shards = dir.fresh(&op.spec.name);
        let (streamed, stats) =
            tr.span("obs.run_streamed", id, |_| op.spec.run_streamed(&shards))?;
        let streamed_json =
            serde_json::to_string(&streamed).map_err(|e| format!("report encoding: {e}"))?;
        let trace_bytes = dir_bytes(&shards)?;
        let report_path = dir.fresh("report");
        std::fs::write(&report_path, &streamed_json)
            .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
        let audit = tr.span("obs.audit", id, |_| {
            parvagpu::cli::run_trace_audit(
                &shards.to_string_lossy(),
                &report_path.to_string_lossy(),
                None,
                None,
            )
        });
        let _ = std::fs::remove_dir_all(&shards);
        let _ = std::fs::remove_file(&report_path);
        audit.map_err(|e| format!("{}: {e}", op.spec.name))?;

        let ScenarioReport::Serve(report) = &plain else {
            return Err(format!("{}: expected a serve report", op.spec.name));
        };
        let offered: u64 = report.services.iter().map(|s| s.offered).sum();
        let within: u64 = report.services.iter().map(|s| s.completed_within_slo).sum();
        let result = OpResult {
            // Both the untraced and the streamed run simulate the requests.
            offered: 2.0 * offered as f64,
            slo_num: within as f64,
            slo_den: offered as f64,
            gpu_sum: op.gpus as f64,
            windows: 1.0,
            trace_events: stats.trace_events,
            trace_bytes,
            ..OpResult::default()
        };
        Ok((result, (plain, streamed_json)))
    }

    fn digest(&self, i: usize, (plain, streamed_json): Self::Report) -> Result<u64, String> {
        let plain_json =
            serde_json::to_string(&plain).map_err(|e| format!("report encoding: {e}"))?;
        if plain_json != streamed_json {
            return Err(format!(
                "{}: streamed report differs from the untraced run",
                self.ops[i].spec.name
            ));
        }
        Ok(fnv1a(plain_json.as_bytes()))
    }

    fn layer_metrics(&self, tr: &Tracer, pass: &Pass, out: &mut LayerMetrics) {
        let total_ns = |name: &str| tr.named(name).map(|s| s.wall_ns).sum::<u64>() as f64;
        let events: u64 = pass.first.iter().flatten().map(|r| r.trace_events).sum();
        let bytes: u64 = pass.first.iter().flatten().map(|r| r.trace_bytes).sum();
        let (plain, streamed, audit) = (
            total_ns("obs.run"),
            total_ns("obs.run_streamed"),
            total_ns("obs.audit"),
        );
        out.insert("obs.trace_events", events as f64);
        out.insert("obs.trace_bytes", bytes as f64);
        out.insert("obs.overhead_ratio", streamed / plain);
        out.insert("obs.ns_per_trace_event", (streamed - plain) / events as f64);
        out.insert("obs.audit_ms", audit / 1e6);
        out.insert("obs.parse_mb_per_s", bytes as f64 / 1e6 / (audit / 1e9));
    }
}
