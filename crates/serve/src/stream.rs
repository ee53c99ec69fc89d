//! Serving a never-ending request stream, one epoch at a time.
//!
//! [`StreamEngine`] is the epoch driver over the one serving engine
//! (`crate::sim`): the engine runs over an open measurement window, and
//! each [`StreamEngine::step_epoch`] runs it to the next epoch boundary,
//! turns the cumulative counters into the epoch's per-service
//! observations and emits the `parvad-epoch` and `parvad-service` gauge
//! rows. A long-running control plane (`parvad`) reads those observations
//! and may swap the deployment under the live traffic between epochs via
//! [`StreamEngine::reconfigure`] — paying the measured recovery cost
//! (re-flash serialization, FIFO PCIe weight copies) before any re-sliced
//! server launches a batch.
//!
//! The engine runs the health-checked frontend policy (dark servers are
//! drained from routing while they recover) and no timeouts, hedging or
//! shedding. Its whole state — calendar queue with its FIFO tie-break
//! sequence, server queues, in-flight batch slab, counters, latency
//! histograms, routers and RNG streams — is `serde`-serializable, so a run
//! can suspend at any epoch boundary, snapshot, and resume
//! **bit-identically**: an interrupted and resumed run produces byte-equal
//! gauge rows, trace lines and final report to an uninterrupted one.
//! Without reconfigures, N epochs count exactly what one window run over
//! `[0, N·epoch)` counts. Both properties are tested in
//! `tests/stream_resume.rs`.

use crate::recovery::RecoverySpec;
use crate::resilience::ResilienceSpec;
use crate::sim::{ArrivalProcess, Engine, IngressClass};
use crate::simulation::Simulation;
use parva_deploy::{Deployment, ServiceSpec};
use parva_des::{LatencyHistogram, SimTime};
use parva_obs::{Row, TraceSink};
use serde::{Deserialize, Serialize};

/// What one service did during the last completed epoch — the *observed*
/// demand signal the closed-loop autoscaler estimates from (never the
/// oracle spec rate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochObservation {
    /// Service id (the spec's `id`, not the engine index).
    pub service: u32,
    /// Requests that arrived during the epoch.
    pub offered: u64,
    /// Requests whose batch completed during the epoch.
    pub completed: u64,
    /// Completed requests that met the client SLO (network term included).
    pub within_slo: u64,
}

impl EpochObservation {
    /// SLO attainment among the epoch's completions (1.0 when idle).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.within_slo as f64 / self.completed as f64
        }
    }
}

/// Final report of a streamed run: cumulative per-service outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamReport {
    /// Epochs completed.
    pub epochs: u64,
    /// Simulation time reached, ms.
    pub sim_ms: f64,
    /// Per-service cumulative outcomes, in engine service order.
    pub services: Vec<StreamServiceReport>,
}

/// Cumulative outcome of one service across every completed epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamServiceReport {
    /// Service id.
    pub id: u32,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that met the client SLO.
    pub within_slo: u64,
    /// `within_slo / completed` (1.0 when nothing completed).
    pub attainment: f64,
    /// Mean measured latency, ms.
    pub mean_ms: f64,
    /// 99th-percentile measured latency, ms.
    pub p99_ms: f64,
}

/// The streaming engine. Construct with [`StreamEngine::new`], advance with
/// [`StreamEngine::step_epoch`], snapshot/restore through the `serde`
/// traits (the whole struct round-trips).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamEngine {
    core: Engine,
    deployment: Deployment,
    epoch_us: u64,
    epoch: u64,
    /// Cumulative per-service counts at the last boundary; an epoch's
    /// observations are the counts accrued since.
    at_boundary: Vec<EpochObservation>,
    last_epoch: Vec<EpochObservation>,
}

impl StreamEngine {
    /// Build an engine serving `specs` on `deployment`, advancing in epochs
    /// of `epoch_us` simulation microseconds.
    ///
    /// `ingress[i]` lists the arrival classes of `specs[i]`; missing
    /// services fall back to one local class at the spec rate — the same
    /// convention as [`Simulation::ingress`].
    ///
    /// # Panics
    /// Zero `epoch_us` or empty `specs`.
    #[must_use]
    pub fn new(
        deployment: Deployment,
        specs: Vec<ServiceSpec>,
        ingress: &[Vec<IngressClass>],
        arrivals: ArrivalProcess,
        seed: u64,
        epoch_us: u64,
    ) -> Self {
        assert!(epoch_us > 0, "epoch must be positive");
        assert!(!specs.is_empty(), "engine needs at least one service");
        // Health checks only: no timeouts, hedging or shedding.
        let policy = ResilienceSpec {
            health_checked: true,
            ..ResilienceSpec::default()
        };
        let sim = Simulation::new(&deployment, &specs)
            .ingress(ingress)
            .arrivals(arrivals)
            .seed(seed)
            .resilience(&policy);
        let core = Engine::new(&sim, SimTime::ZERO, SimTime(u64::MAX), epoch_us);
        Self {
            core,
            deployment,
            epoch_us,
            epoch: 0,
            at_boundary: Vec::new(),
            last_epoch: Vec::new(),
        }
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// One epoch's duration in seconds.
    #[must_use]
    pub fn epoch_seconds(&self) -> f64 {
        self.epoch_us as f64 * 1e-6
    }

    /// The services currently served, in engine order.
    #[must_use]
    pub fn specs(&self) -> &[ServiceSpec] {
        self.core.specs()
    }

    /// The live deployment.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Observed per-service gauges of the last completed epoch (empty
    /// before the first [`StreamEngine::step_epoch`]).
    #[must_use]
    pub fn last_epoch(&self) -> &[EpochObservation] {
        &self.last_epoch
    }

    /// Cumulative latency distribution of every service, in engine order.
    #[must_use]
    pub fn latency(&self) -> &[LatencyHistogram] {
        self.core.latency()
    }

    /// Servers currently dark (recovery outstanding on their GPU).
    #[must_use]
    pub fn dark_servers(&self) -> usize {
        self.core.dark_servers()
    }

    /// Scale every service's offered load: class rates become
    /// `base × multiplier[service]`. This is the *true demand* injection
    /// point (diurnal swings, flash crowds) — the autoscaler never sees it
    /// directly, only the resulting observed arrivals.
    ///
    /// # Panics
    /// Non-positive or non-finite multipliers (a dead arrival stream can
    /// never restart itself).
    pub fn set_demand_multiplier(&mut self, per_service: &[f64]) {
        self.core.set_demand_multiplier(per_service);
    }

    /// Advance exactly one epoch, emitting gauge rows (and, when the sink
    /// is enabled, request, arrival and batch spans) along the way. Returns
    /// the epoch's per-service observations.
    pub fn step_epoch<S: TraceSink>(&mut self, sink: &mut S) -> &[EpochObservation] {
        self.core
            .run_until(SimTime((self.epoch + 1) * self.epoch_us), sink);
        self.epoch += 1;
        let cumulative: Vec<EpochObservation> = self
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (offered, completed, within_slo) = self.core.totals(i);
                EpochObservation {
                    service: spec.id,
                    offered,
                    completed,
                    within_slo,
                }
            })
            .collect();
        self.last_epoch = cumulative
            .iter()
            .enumerate()
            .map(|(i, now)| {
                let before = self.at_boundary.get(i).copied().unwrap_or_default();
                EpochObservation {
                    service: now.service,
                    offered: now.offered - before.offered,
                    completed: now.completed - before.completed,
                    within_slo: now.within_slo - before.within_slo,
                }
            })
            .collect();
        self.at_boundary = cumulative;
        self.emit_epoch_rows(sink);
        &self.last_epoch
    }

    fn emit_epoch_rows<S: TraceSink>(&self, sink: &mut S) {
        let t_ms = self.now().micros() as f64 / 1000.0;
        let offered: u64 = self.last_epoch.iter().map(|o| o.offered).sum();
        let completed: u64 = self.last_epoch.iter().map(|o| o.completed).sum();
        let within: u64 = self.last_epoch.iter().map(|o| o.within_slo).sum();
        sink.sample(
            Row::new()
                .str("kind", "parvad-epoch")
                .u64("epoch", self.epoch)
                .f64("t_ms", t_ms)
                .u64("offered", offered)
                .u64("completed", completed)
                .u64("within_slo", within)
                .f64(
                    "slo_attainment",
                    if completed == 0 {
                        1.0
                    } else {
                        within as f64 / completed as f64
                    },
                )
                .u64("queue_depth", self.core.queue_depth())
                .u64("dark_servers", self.dark_servers() as u64)
                .u64("gpus", self.deployment.gpu_count() as u64),
        );
        let epoch_s = self.epoch_seconds();
        for (i, obs) in self.last_epoch.iter().enumerate() {
            sink.sample(
                Row::new()
                    .str("kind", "parvad-service")
                    .u64("epoch", self.epoch)
                    .u64("service", u64::from(obs.service))
                    .u64("offered", obs.offered)
                    .u64("completed", obs.completed)
                    .u64("within_slo", obs.within_slo)
                    .f64("slo_attainment", obs.attainment())
                    .f64("rate_obs_rps", obs.offered as f64 / epoch_s)
                    .u64("replicas", self.core.replicas(i) as u64),
            );
        }
    }

    /// Swap the live deployment (and service set) under the running
    /// traffic — the autoscaler's actuation path.
    ///
    /// Queued requests are parked, the serving fabric is rebuilt from the
    /// new deployment, servers on GPUs named by `recovery` go dark until
    /// their measured re-flash/copy completes, and the parked requests are
    /// re-routed through the new routers in arrival order. In-flight
    /// batches complete and count; their capacity dies with their old
    /// servers.
    ///
    /// `specs` must extend the current service list (same ids, same order,
    /// possibly more — newly admitted pods append; rate changes are
    /// allowed, they only alter the allocator's view, never the offered
    /// load).
    ///
    /// # Panics
    /// A `specs` list that drops or reorders existing services.
    pub fn reconfigure<S: TraceSink>(
        &mut self,
        deployment: Deployment,
        specs: Vec<ServiceSpec>,
        recovery: Option<&RecoverySpec>,
        sink: &mut S,
    ) {
        self.core.reconfigure(&deployment, specs, recovery, sink);
        self.deployment = deployment;
    }

    /// Cumulative report over every completed epoch.
    #[must_use]
    pub fn report(&self) -> StreamReport {
        StreamReport {
            epochs: self.epoch,
            sim_ms: self.now().micros() as f64 / 1000.0,
            services: self
                .specs()
                .iter()
                .zip(self.latency())
                .enumerate()
                .map(|(i, (spec, latency))| {
                    let (offered, completed, within_slo) = self.core.totals(i);
                    StreamServiceReport {
                        id: spec.id,
                        offered,
                        completed,
                        within_slo,
                        attainment: if completed == 0 {
                            1.0
                        } else {
                            within_slo as f64 / completed as f64
                        },
                        mean_ms: latency.mean_ms(),
                        p99_ms: latency.quantile_ms(0.99),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_core::ParvaGpu;
    use parva_deploy::{Scheduler as _, ServiceSpec};
    use parva_obs::NullSink;
    use parva_perf::Model;
    use parva_profile::ProfileBook;

    fn specs() -> Vec<ServiceSpec> {
        vec![
            ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
            ServiceSpec::new(2, Model::BertLarge, 150.0, 100.0),
        ]
    }

    fn engine(seed: u64) -> StreamEngine {
        let book = ProfileBook::builtin();
        let specs = specs();
        let deployment = ParvaGpu::new(&book).schedule(&specs).expect("schedulable");
        StreamEngine::new(
            deployment,
            specs,
            &[],
            ArrivalProcess::Poisson,
            seed,
            500_000,
        )
    }

    #[test]
    fn epochs_advance_and_serve() {
        let mut eng = engine(7);
        let mut sink = NullSink;
        for _ in 0..6 {
            eng.step_epoch(&mut sink);
        }
        assert_eq!(eng.epoch(), 6);
        let report = eng.report();
        assert!(report.services.iter().all(|s| s.offered > 0));
        assert!(report.services.iter().all(|s| s.completed > 0));
        assert!(report.services.iter().all(|s| s.attainment > 0.5));
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let mut sink = NullSink;
        let mut control = engine(42);
        for _ in 0..8 {
            control.step_epoch(&mut sink);
        }
        let mut interrupted = engine(42);
        for _ in 0..3 {
            interrupted.step_epoch(&mut sink);
        }
        let snap = interrupted.to_value();
        drop(interrupted);
        let mut resumed = StreamEngine::from_value(&snap).expect("round-trip");
        for _ in 0..5 {
            resumed.step_epoch(&mut sink);
        }
        assert_eq!(
            serde_json::to_string(&control.report()).unwrap(),
            serde_json::to_string(&resumed.report()).unwrap()
        );
        // The *full state* must agree, not just the report.
        assert_eq!(control.to_value(), resumed.to_value());
    }

    #[test]
    fn demand_multiplier_scales_observed_arrivals() {
        let mut sink = NullSink;
        let mut eng = engine(11);
        eng.step_epoch(&mut sink);
        let base: u64 = eng.last_epoch().iter().map(|o| o.offered).sum();
        eng.set_demand_multiplier(&[3.0, 3.0]);
        for _ in 0..2 {
            eng.step_epoch(&mut sink);
        }
        let scaled: u64 = eng.last_epoch().iter().map(|o| o.offered).sum();
        assert!(
            scaled as f64 > base as f64 * 2.0,
            "3x demand produced {scaled} vs base {base}"
        );
    }

    #[test]
    fn reconfigure_preserves_service_and_counts() {
        let mut sink = NullSink;
        let mut eng = engine(5);
        for _ in 0..2 {
            eng.step_epoch(&mut sink);
        }
        let before: u64 = eng.report().services.iter().map(|s| s.offered).sum();
        // Re-plan with a doubled first-service rate (more replicas).
        let book = ProfileBook::builtin();
        let mut scaled = specs();
        scaled[0].request_rate_rps *= 2.0;
        let deployment = ParvaGpu::new(&book).schedule(&scaled).expect("schedulable");
        eng.reconfigure(deployment, scaled, None, &mut sink);
        for _ in 0..3 {
            eng.step_epoch(&mut sink);
        }
        let after: u64 = eng.report().services.iter().map(|s| s.offered).sum();
        assert!(after > before, "traffic kept flowing across reconfigure");
        assert!(eng.report().services.iter().all(|s| s.completed > 0));
    }

    #[test]
    fn recovery_darkens_then_relights() {
        use crate::recovery::{RecoveryOp, RecoverySpec};
        let mut sink = NullSink;
        let mut eng = engine(3);
        eng.step_epoch(&mut sink);
        let deployment = eng.deployment().clone();
        let specs = eng.specs().to_vec();
        let gpus = deployment.gpu_count();
        let recovery = RecoverySpec {
            start_ms: 0.0,
            control_plane_ms: 50.0,
            reflash_ms: 400.0,
            link_gib_per_s: 16.0,
            ops: (0..gpus)
                .map(|g| RecoveryOp {
                    node: 0,
                    logical_gpu: Some(g),
                    reflash: true,
                    copy_gib: 1.0,
                    prepared: false,
                })
                .collect(),
        };
        eng.reconfigure(deployment, specs, Some(&recovery), &mut sink);
        assert!(eng.dark_servers() > 0, "all GPUs should start dark");
        for _ in 0..4 {
            eng.step_epoch(&mut sink);
        }
        assert_eq!(eng.dark_servers(), 0, "recovery completed");
        let last: u64 = eng.last_epoch().iter().map(|o| o.completed).sum();
        assert!(last > 0, "serving resumed after recovery");
    }
}
