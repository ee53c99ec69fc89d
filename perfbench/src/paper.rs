//! `paper_sweep`: the paper's Table IV mixes S1–S6, replicated to cluster
//! scale, each scheduled by ParvaGPU and by gpulet (the MPS-only shape)
//! and served through one long window under Poisson and MMPP arrivals.

use crate::oplist::{OpList, OpResult};
use crate::stats::{fnv1a, mix};
use crate::sys::RunDir;
use crate::trace::Tracer;
use crate::{Ctx, Size};
use parvagpu::baselines::Gpulet;
use parvagpu::core::ParvaGpu;
use parvagpu::deploy::{Scheduler, ServiceSpec};
use parvagpu::profile::ProfileBook;
use parvagpu::scenarios::Scenario;
use parvagpu::serve::{ArrivalProcess, ServingConfig, ServingReport, Simulation};

/// Table IV replication factor of the measured workload.
const FOLD: u32 = 4;

/// Measured serving window, simulated seconds.
const WINDOW_S: f64 = 2.0;

/// Arrival seeds per (mix, scheduler, arrival process).
const SEEDS: u64 = 3;

const MMPP: ArrivalProcess = ArrivalProcess::Mmpp {
    burst_factor: 2.0,
    mean_phase_s: 1.0,
};

struct Op {
    services: Vec<ServiceSpec>,
    /// 0: ParvaGPU, 1: gpulet.
    scheduler: usize,
    config: ServingConfig,
}

pub struct PaperSweep {
    parva: ParvaGpu,
    gpulet: Gpulet,
    ops: Vec<Op>,
}

impl OpList for PaperSweep {
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Self, String> {
        let book = tr.span("profile.book", 0, |_| ProfileBook::builtin());
        let (mixes, fold, arrivals, seeds): (&[Scenario], u32, &[ArrivalProcess], u64) =
            match ctx.size {
                Size::Full => (
                    &[
                        Scenario::S1,
                        Scenario::S2,
                        Scenario::S3,
                        Scenario::S4,
                        Scenario::S5,
                        Scenario::S6,
                    ],
                    FOLD,
                    &[ArrivalProcess::Poisson, MMPP],
                    SEEDS,
                ),
                Size::Probe => (&[Scenario::S2], 1, &[ArrivalProcess::Poisson], 1),
            };
        let mut ops = Vec::new();
        for mix_ in mixes {
            let services = mix_.scaled(fold);
            if services.is_empty() {
                return Err(format!("mix {mix_} has no services"));
            }
            for scheduler in 0..2 {
                for (&arrivals, _) in arrivals
                    .iter()
                    .flat_map(|a| (0..seeds).map(move |k| (a, k)))
                {
                    let salt = ops.len() as u64;
                    ops.push(Op {
                        services: services.clone(),
                        scheduler,
                        config: ServingConfig {
                            warmup_s: 0.5,
                            duration_s: WINDOW_S,
                            drain_s: 1.0,
                            seed: mix(ctx.seed, salt),
                            arrivals,
                        },
                    });
                }
            }
        }
        Ok(Self {
            parva: ParvaGpu::new(&book),
            gpulet: Gpulet::new(),
            ops,
        })
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    /// The serving report and the GPUs of the deployment it served.
    type Report = (ServingReport, usize);

    fn run(
        &mut self,
        i: usize,
        _dir: &RunDir,
        tr: &mut Tracer,
    ) -> Result<(OpResult, Self::Report), String> {
        let op = &self.ops[i];
        let scheduler: &dyn Scheduler = if op.scheduler == 0 {
            &self.parva
        } else {
            &self.gpulet
        };
        let op_id = i as u64;
        let deployment = tr
            .span("core.schedule", op_id, |_| scheduler.schedule(&op.services))
            .map_err(|e| format!("scheduling: {e}"))?;
        let report = tr.span("serve.run", op_id, |_| {
            Simulation::new(&deployment, &op.services)
                .config(&op.config)
                .run()
        });
        let offered: u64 = report.services.iter().map(|s| s.offered).sum();
        let within: u64 = report.services.iter().map(|s| s.completed_within_slo).sum();
        let gpus = deployment.gpu_count();
        let result = OpResult {
            offered: offered as f64,
            slo_num: within as f64,
            slo_den: offered as f64,
            gpu_sum: gpus as f64,
            windows: 1.0,
            ..OpResult::default()
        };
        Ok((result, (report, gpus)))
    }

    fn digest(&self, _i: usize, (report, gpus): Self::Report) -> Result<u64, String> {
        let json = serde_json::to_string(&report).map_err(|e| format!("report encoding: {e}"))?;
        let mut bytes = json.into_bytes();
        bytes.extend_from_slice(&gpus.to_le_bytes());
        Ok(fnv1a(&bytes))
    }
}
