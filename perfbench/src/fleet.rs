//! `fleet_region`: the registry's fleet and region builtins, each run at
//! several seeds derived from the workload seed through `ScenarioSpec::run`.

use crate::oplist::{OpList, OpResult, Pass};
use crate::stats::{fnv1a, median, mix};
use crate::sys::RunDir;
use crate::trace::{Span, Tracer};
use crate::{Ctx, LayerMetrics, Size};
use parvagpu::cluster::NodeType;
use parvagpu::scenarios::{spec_by_name, Mode, ScenarioReport, ScenarioSpec};

const SPECS: [&str; 7] = [
    "fleet_chaos",
    "spot_heavy",
    "region_failover",
    "evacuation_drill",
    "diurnal",
    "follow_the_sun",
    "multi_tenant",
];

/// Seeds per spec in the measured workload.
const SEEDS: u64 = 5;

/// GPUs per node: every node type the repository defines has eight.
const GPUS_PER_NODE: f64 = NodeType::P4DE_24XLARGE.gpus as f64;

struct Op {
    spec: ScenarioSpec,
    fleet: bool,
    /// Nominal requests the spec offers: catalogue rate × window × intervals.
    offered: f64,
}

pub struct FleetRegion {
    ops: Vec<Op>,
}

impl OpList for FleetRegion {
    // Region runs fan out to one thread per region.
    const PIN: bool = false;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let (names, seeds): (&[&str], u64) = match ctx.size {
            Size::Full => (&SPECS, SEEDS),
            Size::Probe => (&["fleet_chaos", "region_failover"], 1),
        };
        let mut ops = Vec::new();
        for k in 0..seeds {
            for name in names {
                let mut spec = spec_by_name(name).ok_or_else(|| format!("no builtin {name}"))?;
                spec.seed = mix(ctx.seed, ops.len() as u64);
                if ctx.size == Size::Probe {
                    spec = spec.quick();
                }
                tr.span("spec.validate", k, |_| spec.validate())
                    .map_err(|e| format!("{name}: {e}"))?;
                let (fleet, intervals) = match &spec.mode {
                    Mode::Fleet { intervals, .. } => (true, *intervals),
                    Mode::Region { intervals, .. } => (false, *intervals),
                    Mode::Serve { .. } => return Err(format!("{name} is a serve-mode spec")),
                };
                let rate: f64 = spec
                    .workload
                    .services()?
                    .iter()
                    .map(|s| s.request_rate_rps)
                    .sum();
                let offered = rate * spec.window.duration_s * intervals as f64;
                ops.push(Op {
                    spec,
                    fleet,
                    offered,
                });
            }
        }
        Ok(Self { ops })
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    type Report = ScenarioReport;

    fn run(
        &mut self,
        i: usize,
        _dir: &RunDir,
        tr: &mut Tracer,
    ) -> Result<(OpResult, Self::Report), String> {
        let op = &self.ops[i];
        let name = if op.fleet { "fleet.run" } else { "region.run" };
        let report = tr.span(name, i as u64, |_| op.spec.run())?;
        // Per serving window: request compliance and GPUs in service.
        let windows: Vec<(f64, f64)> = match &report {
            ScenarioReport::Fleet(r) => r
                .events
                .iter()
                .map(|e| {
                    (
                        e.compliance_after,
                        e.nodes_in_service as f64 * GPUS_PER_NODE,
                    )
                })
                .collect(),
            ScenarioReport::Region(r) => r
                .intervals
                .iter()
                .map(|iv| {
                    let nodes: usize = iv.regions.iter().map(|r| r.nodes_in_service).sum();
                    (iv.global_compliance, nodes as f64 * GPUS_PER_NODE)
                })
                .collect(),
            ScenarioReport::Serve(_) => return Err("unexpected serve report".into()),
        };
        let result = OpResult {
            offered: op.offered,
            slo_num: windows.iter().map(|w| w.0).sum(),
            slo_den: windows.len() as f64,
            gpu_sum: windows.iter().map(|w| w.1).sum(),
            windows: windows.len() as f64,
            ..OpResult::default()
        };
        Ok((result, report))
    }

    fn digest(&self, _i: usize, report: ScenarioReport) -> Result<u64, String> {
        let json = serde_json::to_string(&report).map_err(|e| format!("report encoding: {e}"))?;
        Ok(fnv1a(json.as_bytes()))
    }

    fn layer_metrics(&self, tr: &Tracer, pass: &Pass, out: &mut LayerMetrics) {
        let self_cpu_ms = |s: &Span| s.cpu_ns.saturating_sub(s.des.loop_cpu_nanos) as f64 / 1e6;
        for (span, run_ms, cpu_ms) in [
            ("fleet.run", "fleet.run_ms", "fleet.self_cpu_ms"),
            ("region.run", "region.run_ms", "region.self_cpu_ms"),
        ] {
            if let Some(m) = median(&tr.wall_ms(span)) {
                out.insert(run_ms, m);
                let cpu: Vec<f64> = tr.named(span).map(self_cpu_ms).collect();
                out.insert(cpu_ms, median(&cpu).unwrap_or(0.0));
            }
        }
        let (hits, misses) = pass.cache;
        if hits + misses > 0 {
            out.insert("fleet.cache_hit_rate", hits as f64 / (hits + misses) as f64);
            out.insert("fleet.cache_lookups", (hits + misses) as f64);
        }
        let (loop_cpu, wall) = tr.named("region.run").fold((0u64, 0u64), |(c, w), s| {
            (c + s.des.loop_cpu_nanos, w + s.wall_ns)
        });
        if wall > 0 {
            out.insert("region.parallelism", loop_cpu as f64 / wall as f64);
        }
    }
}
