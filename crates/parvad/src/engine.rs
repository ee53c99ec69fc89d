//! The daemon proper: streaming engine + closed-loop autoscaler.
//!
//! [`Daemon`] owns everything a running control plane is: the epoch-stepped
//! serving DES ([`parva_serve::StreamEngine`]), the observed-demand
//! estimator, the live deployment, the admitted pods and the autoscaling
//! policy. The whole struct is `serde`-serializable, which is what makes
//! [`crate::checkpoint`] trivial and *complete*: there is no daemon state
//! outside this struct, so a resumed daemon is the suspended daemon.
//!
//! The control loop (one call to [`Daemon::step`] per epoch):
//!
//! 1. advance the engine one epoch — requests arrive, batch, complete;
//! 2. feed the epoch's *observed* per-service arrival counts to the
//!    [`DemandEstimator`] (the autoscaler never sees the injected demand
//!    multipliers — only their consequences);
//! 3. every `decide_every` epochs, run [`Daemon::decide`]: turn estimates
//!    into target rates, skip services within the hysteresis band, re-plan
//!    the rest through the paper's §III-F incremental path
//!    ([`parva_core::reconfigure::update_service`]), and actuate through
//!    the fleet's migration model ([`parva_fleet::migration`]): a GPU
//!    whose MIG layout changed goes dark for a re-flash, and one that
//!    gains segments for their weight copy, before serving again.

use crate::pod::PodSpec;
use parva_autoscale::DemandEstimator;
use parva_core::{reconfigure, ParvaGpu, Service};
use parva_deploy::{physical_diff, Deployment, MigDeployment, ServiceSpec};
use parva_fleet::migration::{recovery_ops, recovery_spec_from_ops};
use parva_obs::{Row, TraceSink};
use parva_profile::ProfileBook;
use parva_serve::{ArrivalProcess, IngressClass, RecoverySpec, StreamEngine};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Closed-loop autoscaler policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Run a scaling decision every this many epochs (0 = never).
    pub decide_every: u64,
    /// Demand-estimator trailing window, epochs.
    pub window: usize,
    /// Provisioning headroom multiplied into every demand estimate.
    pub headroom: f64,
    /// Relative rate change (vs the last plan) below which a service is
    /// left alone — the anti-flapping band.
    pub hysteresis: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            decide_every: 4,
            window: 4,
            headroom: 1.1,
            hysteresis: 0.15,
        }
    }
}

/// Live per-service status, shaped for the control socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Daemon-assigned service id.
    pub id: u32,
    /// Pod name (or `svc-<id>` for services present at boot).
    pub name: String,
    /// Model display name.
    pub model: String,
    /// Current replica count (placed segments).
    pub replicas: u64,
    /// Headroom-free observed-demand estimate, req/s (0 until observed).
    pub demand_est_rps: f64,
    /// Rate the current deployment was last planned for, req/s.
    pub planned_rps: f64,
    /// Requests offered in the last completed epoch.
    pub offered: u64,
    /// Requests completed in the last completed epoch.
    pub completed: u64,
    /// SLO attainment over the last completed epoch.
    pub slo_attainment: f64,
}

/// Live daemon status, shaped for the control socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Completed epochs.
    pub epoch: u64,
    /// Simulation time, ms.
    pub sim_ms: f64,
    /// GPUs in the live deployment.
    pub gpus: u64,
    /// Servers currently dark (recovery in progress).
    pub dark_servers: u64,
    /// Whether the daemon is draining (no new admissions).
    pub draining: bool,
    /// Autoscale decisions taken.
    pub decisions: u64,
    /// Incremental reconfigurations applied (services re-planned).
    pub reconfigs: u64,
    /// GPUs physically re-sliced across all decisions.
    pub churned_gpus: u64,
    /// Σ (deployment size × epochs) — the provisioning bill, GPU-epochs.
    pub gpu_epochs: u64,
    /// Per-service rows.
    pub services: Vec<ServiceStatus>,
}

/// The serving daemon: engine, estimator, deployment and autoscaler in one
/// serializable state machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Daemon {
    /// Admission-time specs: the *true* base demand and SLOs. The engine's
    /// offered load is `base × multiplier`; the autoscaler must rediscover
    /// it from observations.
    base: Vec<ServiceSpec>,
    /// What the allocator last planned against (post-estimate rates).
    planned: Vec<ServiceSpec>,
    /// Pod name per service (boot services get `svc-<id>`).
    names: Vec<String>,
    /// Injected demand multiplier per service (the world, not the plan).
    multipliers: Vec<f64>,
    /// Configured services (Table II state for the incremental path).
    services: Vec<Service>,
    /// The live MIG deployment.
    deployment: MigDeployment,
    /// The epoch-streamed serving DES.
    engine: StreamEngine,
    /// Observed-demand estimator.
    estimator: DemandEstimator,
    /// Autoscaler policy.
    policy: AutoscalePolicy,
    /// Pods admitted over the control socket.
    pods: Vec<PodSpec>,
    decisions: u64,
    reconfigs: u64,
    churned_gpus: u64,
    gpu_epochs: u64,
    draining: bool,
    next_id: u32,
}

impl Daemon {
    /// Boot a daemon serving `specs` from epoch 0.
    ///
    /// # Errors
    /// Initial plan infeasibility, as a string.
    pub fn new(
        specs: &[ServiceSpec],
        arrivals: ArrivalProcess,
        seed: u64,
        epoch_us: u64,
        policy: AutoscalePolicy,
    ) -> Result<Self, String> {
        let (services, deployment) = Self::scheduler()
            .plan(specs)
            .map_err(|e| format!("initial plan infeasible: {e}"))?;
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| vec![IngressClass::local(s.request_rate_rps)])
            .collect();
        let engine = StreamEngine::new(
            Deployment::Mig(deployment.clone()),
            specs.to_vec(),
            &ingress,
            arrivals,
            seed,
            epoch_us,
        );
        let estimator =
            DemandEstimator::new(specs.len(), policy.window.max(1)).with_headroom(policy.headroom);
        let next_id = specs.iter().map(|s| s.id + 1).max().unwrap_or(0);
        Ok(Self {
            base: specs.to_vec(),
            planned: specs.to_vec(),
            names: specs.iter().map(|s| format!("svc-{}", s.id)).collect(),
            multipliers: vec![1.0; specs.len()],
            services,
            deployment,
            engine,
            estimator,
            policy,
            pods: Vec::new(),
            decisions: 0,
            reconfigs: 0,
            churned_gpus: 0,
            gpu_epochs: 0,
            draining: false,
            next_id,
        })
    }

    fn scheduler() -> &'static ParvaGpu {
        // Pure function of the builtin profile book: built once per process
        // rather than serialized into checkpoints.
        static SCHEDULER: OnceLock<ParvaGpu> = OnceLock::new();
        SCHEDULER.get_or_init(|| ParvaGpu::new(&ProfileBook::builtin()))
    }

    /// Completed epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Whether the daemon refuses new admissions.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Σ (deployment size × epochs): the provisioning bill so far.
    #[must_use]
    pub fn gpu_epochs(&self) -> u64 {
        self.gpu_epochs
    }

    /// The underlying streaming engine (read-only).
    #[must_use]
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// Cumulative serving report.
    #[must_use]
    pub fn report(&self) -> parva_serve::StreamReport {
        self.engine.report()
    }

    /// Advance one epoch and run the control loop.
    pub fn step<S: TraceSink>(&mut self, sink: &mut S) {
        self.engine.step_epoch(sink);
        let counts: Vec<u64> = self.engine.last_epoch().iter().map(|o| o.offered).collect();
        self.estimator
            .observe_counts(&counts, self.engine.epoch_seconds());
        self.gpu_epochs += self.deployment.gpu_count() as u64;
        if self.policy.decide_every > 0
            && self.engine.epoch().is_multiple_of(self.policy.decide_every)
        {
            self.decide(sink);
        }
    }

    /// One autoscale decision: estimate demand, re-plan out-of-band
    /// services incrementally, actuate with measured recovery.
    pub fn decide<S: TraceSink>(&mut self, sink: &mut S) {
        self.decisions += 1;
        let demand = self.estimator.demand_specs(&self.base);
        let scheduler = Self::scheduler();
        // The deployment this decision started from, once it changes.
        let mut before: Option<MigDeployment> = None;
        let mut applied: u64 = 0;
        let mut infeasible: u64 = 0;
        for (i, d) in demand.iter().enumerate() {
            let current = self.planned[i].request_rate_rps;
            let rel = (d.request_rate_rps - current).abs() / current.max(f64::MIN_POSITIVE);
            if rel <= self.policy.hysteresis {
                continue;
            }
            match reconfigure::update_service(scheduler, &self.deployment, &self.services, *d) {
                Ok(out) => {
                    let prev = std::mem::replace(&mut self.deployment, out.deployment);
                    before.get_or_insert(prev);
                    let slot = self
                        .services
                        .iter_mut()
                        .find(|s| s.spec.id == d.id)
                        .expect("planned service exists");
                    *slot = out.service;
                    self.planned[i] = *d;
                    applied += 1;
                }
                Err(_) => {
                    // Demand spike the fleet cannot absorb right now: keep
                    // serving on the old plan rather than dying.
                    infeasible += 1;
                }
            }
        }
        let mut churned = 0;
        if let Some(before) = before {
            self.reconfigs += applied;
            churned = self.actuate(&before, sink);
        }
        sink.sample(
            Row::new()
                .str("kind", "parvad-decision")
                .u64("epoch", self.engine.epoch())
                .u64("decision", self.decisions)
                .u64("applied", applied)
                .u64("infeasible", infeasible)
                .u64("churned_gpus", churned)
                .u64("gpus", self.deployment.gpu_count() as u64),
        );
    }

    /// Serve the live deployment, replacing `before`, through measured
    /// recovery. Returns the GPUs changed.
    fn actuate<S: TraceSink>(&mut self, before: &MigDeployment, sink: &mut S) -> u64 {
        let recovery = recovery_for(before, &self.deployment);
        let churned = recovery.as_ref().map_or(0, |r| r.ops.len() as u64);
        self.churned_gpus += churned;
        self.engine.reconfigure(
            Deployment::Mig(self.deployment.clone()),
            self.planned.clone(),
            recovery.as_ref(),
            sink,
        );
        churned
    }

    /// Admit a pod: validate, plan it incrementally into the live
    /// deployment, start serving it. Returns the assigned service id.
    ///
    /// # Errors
    /// Validation failures, duplicate names, a draining daemon, or an
    /// infeasible placement — all as strings, the daemon keeps serving.
    pub fn submit<S: TraceSink>(&mut self, pod: &PodSpec, sink: &mut S) -> Result<u32, String> {
        pod.validate()?;
        if self.draining {
            return Err("daemon is draining; not admitting new pods".to_string());
        }
        if self.names.iter().any(|n| n == &pod.name) {
            return Err(format!("pod name {:?} already admitted", pod.name));
        }
        let id = self.next_id;
        let spec = pod.to_service_spec(id)?;
        let out =
            reconfigure::update_service(Self::scheduler(), &self.deployment, &self.services, spec)
                .map_err(|e| format!("admission failed: {e}"))?;
        let before = std::mem::replace(&mut self.deployment, out.deployment);
        self.services.push(out.service);
        self.base.push(spec);
        self.planned.push(spec);
        self.names.push(pod.name.clone());
        self.multipliers.push(1.0);
        self.pods.push(pod.clone());
        self.next_id = id + 1;
        self.reconfigs += 1;
        self.actuate(&before, sink);
        Ok(id)
    }

    /// Inject a true-demand multiplier for one service (the world changing,
    /// not a control action — the autoscaler only sees the fallout).
    ///
    /// # Errors
    /// Unknown service or non-positive multiplier.
    pub fn scale(&mut self, service: u32, multiplier: f64) -> Result<(), String> {
        if !(multiplier.is_finite() && multiplier > 0.0) {
            return Err("multiplier must be positive".to_string());
        }
        let idx = self
            .base
            .iter()
            .position(|s| s.id == service)
            .ok_or_else(|| format!("unknown service {service}"))?;
        self.multipliers[idx] = multiplier;
        self.engine.set_demand_multiplier(&self.multipliers);
        Ok(())
    }

    /// Inject one multiplier across every service (diurnal drivers).
    ///
    /// # Panics
    /// Non-positive multiplier.
    pub fn scale_all(&mut self, multiplier: f64) {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "multiplier must be positive"
        );
        for m in &mut self.multipliers {
            *m = multiplier;
        }
        self.engine.set_demand_multiplier(&self.multipliers);
    }

    /// Stop admitting new pods; the engine keeps serving what it has.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Live status snapshot for the control socket.
    #[must_use]
    pub fn status(&self) -> DaemonStatus {
        let last = self.engine.last_epoch();
        DaemonStatus {
            epoch: self.engine.epoch(),
            sim_ms: self.engine.now().micros() as f64 / 1000.0,
            gpus: self.deployment.gpu_count() as u64,
            dark_servers: self.engine.dark_servers() as u64,
            draining: self.draining,
            decisions: self.decisions,
            reconfigs: self.reconfigs,
            churned_gpus: self.churned_gpus,
            gpu_epochs: self.gpu_epochs,
            services: self
                .base
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let obs = last.get(i);
                    let completed = obs.map_or(0, |o| o.completed);
                    let within = obs.map_or(0, |o| o.within_slo);
                    ServiceStatus {
                        id: s.id,
                        name: self.names[i].clone(),
                        model: s.model.name().to_string(),
                        replicas: self.deployment.segments_of(s.id).count() as u64,
                        demand_est_rps: self.estimator.estimate(i).unwrap_or(0.0),
                        planned_rps: self.planned[i].request_rate_rps,
                        offered: obs.map_or(0, |o| o.offered),
                        completed,
                        slo_attainment: if completed == 0 {
                            1.0
                        } else {
                            within as f64 / completed as f64
                        },
                    }
                })
                .collect(),
        }
    }
}

/// Price replacing `before` with `after` through the fleet's migration
/// model on 8-GPU nodes: a GPU whose MIG layout changed re-flashes, and
/// each segment new on a GPU copies its model's weights there. `None` when
/// no GPU changes.
fn recovery_for(before: &MigDeployment, after: &MigDeployment) -> Option<RecoverySpec> {
    let diff = physical_diff(before, Some, after, Some);
    let ops = recovery_ops(&diff, |g| g / 8, |_| true);
    (!ops.is_empty()).then(|| recovery_spec_from_ops(ops, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GaugeLog;
    use parva_obs::NullSink;
    use parva_perf::Model;
    use proptest::prelude::*;

    fn boot(policy: AutoscalePolicy) -> Daemon {
        let specs = vec![
            ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
            ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
        ];
        Daemon::new(&specs, ArrivalProcess::Poisson, 11, 500_000, policy).unwrap()
    }

    #[test]
    fn steps_serve_and_observe() {
        let mut d = boot(AutoscalePolicy::default());
        let mut sink = NullSink;
        for _ in 0..4 {
            d.step(&mut sink);
        }
        let st = d.status();
        assert_eq!(st.epoch, 4);
        assert!(st.services.iter().any(|s| s.completed > 0));
        assert!(st.services[0].demand_est_rps > 0.0);
        assert_eq!(st.gpu_epochs, 4 * st.gpus);
    }

    #[test]
    fn autoscaler_tracks_a_demand_drop() {
        let mut d = boot(AutoscalePolicy {
            decide_every: 2,
            window: 2,
            ..AutoscalePolicy::default()
        });
        let mut sink = NullSink;
        let gpus_before = d.status().gpus;
        d.scale_all(0.3);
        for _ in 0..8 {
            d.step(&mut sink);
        }
        let st = d.status();
        assert!(st.decisions > 0);
        assert!(
            st.gpus <= gpus_before,
            "shrinking demand must not grow the fleet"
        );
        assert!(st.reconfigs > 0, "a 70% demand drop must trigger re-plans");
    }

    #[test]
    fn submit_admits_and_serves_a_pod() {
        let mut d = boot(AutoscalePolicy::default());
        let mut log = GaugeLog::new();
        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 80.0);
        let id = d.submit(&pod, &mut log).unwrap();
        assert_eq!(id, 3);
        // Duplicate names are rejected; the daemon keeps serving.
        assert!(d.submit(&pod, &mut log).unwrap_err().contains("already"));
        for _ in 0..3 {
            d.step(&mut log);
        }
        let st = d.status();
        let bert = st.services.iter().find(|s| s.id == id).unwrap();
        assert_eq!(bert.name, "bert-qa");
        assert!(bert.replicas > 0);
        assert!(bert.offered > 0, "admitted pod must receive traffic");
    }

    #[test]
    fn admission_copies_each_new_segment_s_model_weights() {
        let mut d = boot(AutoscalePolicy::default());
        let before = d.deployment.clone();
        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 80.0);
        let id = d.submit(&pod, &mut NullSink).unwrap();
        let recovery = recovery_for(&before, &d.deployment).expect("admission changes a GPU");
        let bert = parva_perf::PerfParams::for_model(Model::BertLarge).weights_gib;
        assert_ne!(bert, 1.0);
        for op in &recovery.ops {
            let g = op.logical_gpu.expect("admission vacates no GPU");
            let new_bert = d
                .deployment
                .segments_on(g)
                .filter(|ps| ps.segment.service_id == id);
            assert_eq!(op.copy_gib, new_bert.count() as f64 * bert, "GPU {g}");
        }
        let copied: f64 = recovery.ops.iter().map(|o| o.copy_gib).sum();
        assert_eq!(copied, d.deployment.segments_of(id).count() as f64 * bert);
        assert_eq!(
            recovery.control_plane_ms,
            parva_fleet::migration::CONTROL_PLANE_MS
        );
    }

    #[test]
    fn drain_refuses_admission() {
        let mut d = boot(AutoscalePolicy::default());
        d.drain();
        let err = d
            .submit(
                &PodSpec::new("late", Model::ResNet50, 100.0, 10.0),
                &mut NullSink,
            )
            .unwrap_err();
        assert!(err.contains("draining"));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let policy = AutoscalePolicy {
            decide_every: 3,
            ..AutoscalePolicy::default()
        };
        let mut control = boot(policy);
        let mut interrupted = boot(policy);
        let mut control_log = GaugeLog::new();
        let mut resumed_log = GaugeLog::new();
        for _ in 0..4 {
            control.step(&mut control_log);
            interrupted.step(&mut resumed_log);
        }
        // Suspend mid-run: serialize, drop, decode, continue.
        let frozen = crate::checkpoint::encode_checkpoint(&interrupted).unwrap();
        drop(interrupted);
        let mut resumed: Daemon = crate::checkpoint::decode_checkpoint(&frozen).unwrap();
        for _ in 0..5 {
            control.step(&mut control_log);
            resumed.step(&mut resumed_log);
        }
        assert_eq!(control_log.to_jsonl(), resumed_log.to_jsonl());
        assert_eq!(
            serde_json::to_string(&control.status()).unwrap(),
            serde_json::to_string(&resumed.status()).unwrap()
        );
    }

    #[test]
    fn checkpoint_taken_mid_recovery_resumes() {
        // Admission re-slices GPUs, so the engine carries a live recovery
        // (its spec and timing) when the checkpoint is taken; the envelope
        // must pass its own checksum and resume into the same state.
        let mut d = boot(AutoscalePolicy::default());
        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 60.0);
        d.submit(&pod, &mut NullSink).unwrap();
        assert!(d.status().dark_servers > 0, "admission must re-slice a GPU");
        let frozen = crate::checkpoint::encode_checkpoint(&d).unwrap();
        let resumed: Daemon = crate::checkpoint::decode_checkpoint(&frozen).unwrap();
        assert_eq!(
            serde::Serialize::to_value(&d),
            serde::Serialize::to_value(&resumed)
        );
    }

    /// A real checkpoint envelope, encoded once for the corruption
    /// properties below.
    fn frozen() -> &'static str {
        static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        DOC.get_or_init(|| {
            let mut d = boot(AutoscalePolicy::default());
            for _ in 0..3 {
                d.step(&mut NullSink);
            }
            crate::checkpoint::encode_checkpoint(&d).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A truncated checkpoint is refused with an error, and a
        /// byte-flipped one decodes or is refused: neither panics.
        #[test]
        fn corrupt_checkpoints_never_panic(
            cut in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            byte in any::<u8>(),
        ) {
            let doc = frozen();
            if let Some(prefix) = doc.get(..cut.index(doc.len())) {
                prop_assert!(crate::checkpoint::decode_checkpoint::<Daemon>(prefix).is_err());
            }
            let mut bytes = doc.as_bytes().to_vec();
            let i = at.index(bytes.len());
            bytes[i] = byte;
            if let Ok(mutated) = String::from_utf8(bytes) {
                let _ = crate::checkpoint::decode_checkpoint::<Daemon>(&mutated);
            }
        }
    }
}
