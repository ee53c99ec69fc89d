//! The frozen pre-optimization serving simulator, kept verbatim as the
//! bit-identical oracle for the optimized hot path in [`crate::sim`].
//!
//! This module is compiled only for tests. It is a faithful copy of the
//! simulator as it stood before the zero-allocation rewrite — per-batch
//! `Vec` allocations, nested `Vec<Vec<u64>>` counters, binary-heap event
//! queue, cloned histograms and all — so the property test in `sim.rs`
//! can assert that the optimized engine produces byte-identical JSON
//! reports for arbitrary seeds, scenarios, ingress classes and recovery
//! specs. Do not "improve" this code: its value is that it does not
//! change.

use crate::recovery::{RecoverySimReport, RecoverySpec};
use crate::report::{ClassReport, ServerActivity, ServiceReport, ServingReport};
use crate::router::Router;
use crate::sim::{ArrivalProcess, IngressClass, ServingConfig};
use parva_deploy::{Deployment, ServiceSpec};
use parva_des::{EventQueue, LatencyHistogram, RngStream, SerialResource, SimTime};
use parva_perf::interference::total_interference;
use parva_perf::{ComputeShare, Model, PerfParams};
use std::collections::{BTreeMap, VecDeque};

/// One executable server: a MIG segment (p processes) or an MPS partition.
#[derive(Debug)]
struct Server {
    service: usize,
    /// Logical GPU hosting this server (MIG: the segment's GPU index; MPS:
    /// the partition's GPU index) — the unit recovery events darken.
    gpu: usize,
    model: Model,
    share: ComputeShare,
    batch: u32,
    procs: u32,
    /// True interference sum from heterogeneous MPS co-residents.
    interference: f64,
    /// Adaptive-batching deadline: a partial batch launches once its oldest
    /// request has waited this long (SLO/2 queue budget minus one full batch
    /// cycle — the standard batching-with-timeout of Clipper/GSLICE, which
    /// every scheduler in the paper's lineup assumes).
    batch_timeout: SimTime,
    /// Per-ingress-class deadlines: the class's network term is already
    /// spent before arrival, so remote classes get the base timeout minus
    /// their RTT (floored at zero) — holding a spilled request for queueing
    /// budget it no longer has would blow its SLO for free.
    class_timeouts: Vec<SimTime>,
    /// True while the server's GPU has recovery work outstanding (re-flash
    /// or weight copy): requests queue but no batch launches.
    dark: bool,
    /// Waiting requests: `(arrival time, ingress class)`.
    queue: VecDeque<(SimTime, u32)>,
    busy: u32,
    /// SM-occupancy microseconds accumulated inside the window.
    busy_comp_us: u64,
}

#[derive(Debug)]
enum Event {
    Arrival {
        service: usize,
        class: usize,
    },
    Done {
        server: usize,
        arrivals: Vec<(SimTime, u32)>,
        comp_us: u64,
    },
    /// Re-check `server`'s queue for an expired batch deadline.
    Deadline {
        server: usize,
    },
    /// The capacity loss hits: darken affected servers, start recovery.
    RecoveryBegin,
    /// Recovery op `op` is fully recovered (re-flash + weight copy done):
    /// its servers light back up.
    GpuRecovered {
        op: usize,
    },
}

/// Batching deadline for a server: the SLO/2 queuing budget minus one full
/// batch cycle, floored at 1 ms and capped at 250 ms (production batchers
/// cap the artificial delay regardless of how loose the SLO is).
fn batch_timeout(spec: &ServiceSpec, server: &Server) -> SimTime {
    let (full_cycle, _) = batch_times(server, server.batch, server.procs);
    let budget_us = SimTime::from_ms(spec.slo.internal_target_ms()).micros();
    SimTime(
        budget_us
            .saturating_sub(full_cycle.micros())
            .clamp(1_000, 250_000),
    )
}

fn build_servers(deployment: &Deployment, specs: &[ServiceSpec]) -> Vec<Server> {
    let idx_of = |id: u32| specs.iter().position(|s| s.id == id);
    let mut servers = Vec::new();
    match deployment {
        Deployment::Mig(d) => {
            for ps in d.segments() {
                let Some(service) = idx_of(ps.segment.service_id) else {
                    continue;
                };
                let mut server = Server {
                    service,
                    gpu: ps.gpu,
                    model: ps.segment.model,
                    share: ComputeShare::Mig(ps.segment.triplet.instance),
                    batch: ps.segment.triplet.batch,
                    procs: ps.segment.triplet.procs,
                    interference: 0.0, // MIG isolates (paper §II-B)
                    batch_timeout: SimTime::ZERO,
                    class_timeouts: Vec::new(),
                    dark: false,
                    queue: VecDeque::new(),
                    busy: 0,
                    busy_comp_us: 0,
                };
                server.batch_timeout = batch_timeout(&specs[service], &server);
                servers.push(server);
            }
        }
        Deployment::Mps(d) => {
            for (gi, gpu) in d.gpus.iter().enumerate() {
                for (pi, p) in gpu.partitions.iter().enumerate() {
                    let Some(service) = idx_of(p.service_id) else {
                        continue;
                    };
                    let co = d.gpus[gi].co_residents(pi);
                    let mut server = Server {
                        service,
                        gpu: gi,
                        model: p.model,
                        share: ComputeShare::Fraction(p.fraction),
                        batch: p.batch,
                        procs: p.procs.max(1),
                        interference: total_interference(p.model, &co),
                        batch_timeout: SimTime::ZERO,
                        class_timeouts: Vec::new(),
                        dark: false,
                        queue: VecDeque::new(),
                        busy: 0,
                        busy_comp_us: 0,
                    };
                    server.batch_timeout = batch_timeout(&specs[service], &server);
                    servers.push(server);
                }
            }
        }
    }
    servers
}

/// Routing weight of each server (its scheduler-predicted throughput).
fn predicted_weights(deployment: &Deployment, specs: &[ServiceSpec]) -> Vec<Vec<(usize, f64)>> {
    // For each service index: list of (server index, weight).
    let mut per_service: Vec<Vec<(usize, f64)>> = vec![Vec::new(); specs.len()];
    let mut si = 0usize;
    match deployment {
        Deployment::Mig(d) => {
            for ps in d.segments() {
                if let Some(s) = specs.iter().position(|x| x.id == ps.segment.service_id) {
                    per_service[s].push((si, ps.segment.throughput_rps));
                    si += 1;
                }
            }
        }
        Deployment::Mps(d) => {
            for (_, p) in d.partitions() {
                if let Some(s) = specs.iter().position(|x| x.id == p.service_id) {
                    per_service[s].push((si, p.throughput_rps));
                    si += 1;
                }
            }
        }
    }
    per_service
}

/// Service time and SM-occupancy of one batch starting now on `server` with
/// `n_busy` concurrently active processes.
fn batch_times(server: &Server, b_eff: u32, n_busy: u32) -> (SimTime, u64) {
    let params = PerfParams::for_model(server.model);
    let gpcs = server.share.effective_gpcs();
    let cycle_ms = parva_perf::math::cycle_ms_with_interference(
        &params,
        gpcs,
        b_eff,
        n_busy,
        server.interference,
    );
    let comp_ms = parva_perf::math::t_comp(&params, gpcs, b_eff) * (1.0 + server.interference);
    (
        SimTime::from_ms(cycle_ms),
        SimTime::from_ms(comp_ms).micros(),
    )
}

/// Book the deterministic recovery timeline: per op, the instant the GPU
/// is fully recovered. The control plane reacts first; re-flashes then
/// serialize on each node's NVML lock in op order; weight copies become
/// eligible when their GPU's re-flash completes (immediately for prepared
/// / no-re-flash ops) and are granted FIFO by eligibility on the node's
/// PCIe link.
fn recovery_timeline(spec: &RecoverySpec, t0: SimTime) -> Vec<SimTime> {
    let t_cp = t0 + SimTime::from_ms(spec.control_plane_ms);
    let mut reflash_locks: BTreeMap<usize, SerialResource> = BTreeMap::new();
    let mut ready: Vec<SimTime> = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        if !op.prepared && op.reflash {
            let (_, done) = reflash_locks
                .entry(op.node)
                .or_default()
                .acquire(t_cp, SimTime::from_ms(spec.reflash_ms));
            ready.push(done);
        } else {
            ready.push(t_cp);
        }
    }
    let mut requests: Vec<(usize, SimTime, usize)> = spec
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| !op.prepared && op.copy_gib > 0.0)
        .map(|(i, op)| (op.node, ready[i], i))
        .collect();
    requests.sort_unstable_by_key(|&(node, eligible, i)| (node, eligible, i));
    let mut links: BTreeMap<usize, SerialResource> = BTreeMap::new();
    for (node, eligible, i) in requests {
        let secs = spec.ops[i].copy_gib / spec.link_gib_per_s.max(1e-9);
        let (_, done) = links
            .entry(node)
            .or_default()
            .acquire(eligible, SimTime::from_secs(secs));
        ready[i] = done;
    }
    ready
}

/// Salt mixed into the arrival stream seed of ingress classes ≥ 1 so every
/// class has an independent sample path. Class 0 uses the raw seed, which
/// keeps single-class runs bit-identical to [`simulate`] from before
/// ingress classes existed.
fn class_seed(seed: u64, class: usize) -> u64 {
    seed ^ (class as u64).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Run the serving simulation with recovery work riding the same event
/// queue as the traffic.
///
/// `recovery` lowers a fleet migration into simulator events: at
/// [`RecoverySpec::start_ms`] the affected servers go **dark** (requests
/// keep arriving and queueing, batches stop launching), the control plane
/// reacts, MIG re-flashes serialize per node, and weight copies queue FIFO
/// on each node's PCIe link. Servers light back up as their GPU's op
/// completes, so the disruption-window compliance dip and the end-to-end
/// recovery latency are *measured* outcomes of the DES
/// ([`ServingReport::recovery`]), not closed-form estimates. `None` (or an
/// empty spec) is bit-identical to a recovery-free run.
///
/// Fully deterministic for a given `config.seed`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_with_recovery_reference(
    deployment: &Deployment,
    specs: &[ServiceSpec],
    ingress: &[Vec<IngressClass>],
    recovery: Option<&RecoverySpec>,
    config: &ServingConfig,
) -> ServingReport {
    let classes: Vec<Vec<IngressClass>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| match ingress.get(i) {
            Some(c) if !c.is_empty() => c.clone(),
            _ => vec![IngressClass::local(s.request_rate_rps)],
        })
        .collect();
    let mut servers = build_servers(deployment, specs);
    // A class's network term is queueing budget already spent before the
    // request reached the cluster: its batching deadline shrinks by the
    // RTT, floored at zero (class 0 keeps the base timeout bit-exactly).
    for s in &mut servers {
        s.class_timeouts = classes[s.service]
            .iter()
            .map(|c| {
                SimTime(
                    s.batch_timeout
                        .micros()
                        .saturating_sub(SimTime::from_ms(c.network_ms).micros()),
                )
            })
            .collect();
    }
    let weights = predicted_weights(deployment, specs);
    let mut routers: Vec<Option<Router>> = weights
        .iter()
        .map(|w| {
            if w.is_empty() {
                None
            } else {
                Some(Router::new(w.iter().map(|(_, t)| *t).collect()))
            }
        })
        .collect();

    let win_start = SimTime::from_secs(config.warmup_s);
    let win_end = SimTime::from_secs(config.warmup_s + config.duration_s);
    let sim_end = SimTime::from_secs(config.warmup_s + config.duration_s + config.drain_s);

    let mut q: EventQueue<Event> = EventQueue::new();
    // One arrival stream per (service, class); class 0 reuses the exact
    // pre-ingress stream derivation for backwards-identical sample paths.
    let mut arrival_rng: Vec<Vec<RngStream>> = specs
        .iter()
        .zip(&classes)
        .map(|(s, cls)| {
            (0..cls.len())
                .map(|c| RngStream::new(class_seed(config.seed, c), u64::from(s.id)))
                .collect()
        })
        .collect();

    // MMPP phase state per service (ignored by the other processes). Phase
    // streams are separate RNG streams so flipping the arrival process does
    // not perturb the arrival sample path structure.
    let mut bursting: Vec<bool> = vec![false; specs.len()];
    let mut phase_until: Vec<SimTime> = vec![SimTime::ZERO; specs.len()];
    let mut phase_rng: Vec<RngStream> = specs
        .iter()
        .map(|s| RngStream::new(config.seed ^ 0x9E37_79B9, u64::from(s.id)))
        .collect();

    // Draw the next interarrival gap for class `c` of service `i` as of
    // time `now`. The MMPP phase state is shared across a service's classes
    // (one demand process, several ingress paths).
    let next_gap = |i: usize,
                    c: usize,
                    now: SimTime,
                    rng: &mut Vec<Vec<RngStream>>,
                    bursting: &mut Vec<bool>,
                    phase_until: &mut Vec<SimTime>,
                    phase_rng: &mut Vec<RngStream>|
     -> SimTime {
        let rate = classes[i][c].rate_rps;
        match config.arrivals {
            ArrivalProcess::Poisson => rng[i][c].exp_interarrival(rate),
            ArrivalProcess::Deterministic => SimTime::from_secs(1.0 / rate),
            ArrivalProcess::Mmpp { mean_phase_s, .. } => {
                while now >= phase_until[i] {
                    bursting[i] = !bursting[i];
                    phase_until[i] += phase_rng[i].exp_interarrival(1.0 / mean_phase_s.max(1e-6));
                }
                let phase_rate = config.arrivals.phase_rate(rate, bursting[i]);
                rng[i][c].exp_interarrival(phase_rate)
            }
        }
    };

    // Per-service accounting, plus per-(service, class) accounting.
    let mut offered = vec![0u64; specs.len()];
    let mut completed = vec![0u64; specs.len()];
    let mut batches = vec![0u64; specs.len()];
    let mut violated = vec![0u64; specs.len()];
    let mut within_slo = vec![0u64; specs.len()];
    let mut latency: Vec<LatencyHistogram> =
        (0..specs.len()).map(|_| LatencyHistogram::new()).collect();
    let mut class_offered: Vec<Vec<u64>> = classes.iter().map(|c| vec![0; c.len()]).collect();
    let mut class_completed: Vec<Vec<u64>> = classes.iter().map(|c| vec![0; c.len()]).collect();
    let mut class_within: Vec<Vec<u64>> = classes.iter().map(|c| vec![0; c.len()]).collect();
    let mut class_latency: Vec<Vec<LatencyHistogram>> = classes
        .iter()
        .map(|c| (0..c.len()).map(|_| LatencyHistogram::new()).collect())
        .collect();

    // Seed first arrivals (zero-rate classes never generate traffic).
    // `next_gap` holds a shared borrow of `classes`, which coexists with
    // this shared iteration.
    for (i, cls) in classes.iter().enumerate() {
        for (c, class) in cls.iter().enumerate() {
            if class.rate_rps <= 0.0 {
                continue;
            }
            let t = next_gap(
                i,
                c,
                SimTime::ZERO,
                &mut arrival_rng,
                &mut bursting,
                &mut phase_until,
                &mut phase_rng,
            );
            q.schedule(
                t,
                Event::Arrival {
                    service: i,
                    class: c,
                },
            );
        }
    }

    // Recovery riding the same queue: the capacity loss fires at
    // `start_ms`; the op timeline (per-node serialized re-flashes, FIFO
    // PCIe copies) is booked when it fires. `None`/empty specs schedule
    // nothing, keeping the plain path bit-identical.
    let rec_spec = recovery.filter(|r| !r.is_empty());
    let mut rec_report: Option<RecoverySimReport> = None;
    if let Some(spec) = rec_spec {
        q.schedule(SimTime::from_ms(spec.start_ms), Event::RecoveryBegin);
    }

    // Launch one batch of `size` on `server` (caller checked feasibility).
    fn launch(q: &mut EventQueue<Event>, servers: &mut [Server], server: usize, size: u32) {
        let arrivals: Vec<(SimTime, u32)> = servers[server].queue.drain(..size as usize).collect();
        servers[server].busy += 1;
        let n_busy = servers[server].busy;
        let (cycle, comp_us) = batch_times(&servers[server], size, n_busy);
        q.schedule_in(
            cycle,
            Event::Done {
                server,
                arrivals,
                comp_us,
            },
        );
    }

    // Adaptive batching: launch full batches eagerly; for a partial queue,
    // launch once the head request's deadline expires, else arm a deadline.
    // Dark servers (recovery outstanding on their GPU) launch nothing —
    // their queues drain when the GPU's recovery op completes.
    fn try_start(q: &mut EventQueue<Event>, servers: &mut [Server], server: usize) {
        if servers[server].dark {
            return;
        }
        while servers[server].busy < servers[server].procs
            && servers[server].queue.len() >= servers[server].batch as usize
        {
            let full = servers[server].batch;
            launch(q, servers, server, full);
        }
        if servers[server].busy < servers[server].procs && !servers[server].queue.is_empty() {
            let (head, class) = *servers[server].queue.front().expect("non-empty");
            let timeout = servers[server]
                .class_timeouts
                .get(class as usize)
                .copied()
                .unwrap_or(servers[server].batch_timeout);
            let deadline = head + timeout;
            if q.now() >= deadline {
                let size = servers[server].queue.len() as u32;
                launch(q, servers, server, size.min(servers[server].batch));
            } else {
                q.schedule(deadline, Event::Deadline { server });
            }
        }
    }

    while let Some((t, ev)) = q.pop() {
        if t > sim_end {
            break;
        }
        match ev {
            Event::Arrival { service, class } => {
                // Schedule the next arrival while load generation is on.
                let next = t + next_gap(
                    service,
                    class,
                    t,
                    &mut arrival_rng,
                    &mut bursting,
                    &mut phase_until,
                    &mut phase_rng,
                );
                if next < win_end {
                    q.schedule(next, Event::Arrival { service, class });
                }
                if t >= win_start && t < win_end {
                    offered[service] += 1;
                    class_offered[service][class] += 1;
                }
                if let Some(router) = routers[service].as_mut() {
                    let k = router.route();
                    let (sidx, _) = weights[service][k];
                    servers[sidx].queue.push_back((t, class as u32));
                    try_start(&mut q, &mut servers, sidx);
                }
            }
            Event::Done {
                server,
                arrivals,
                comp_us,
            } => {
                servers[server].busy -= 1;
                let service = servers[server].service;
                let in_window = t >= win_start && t < win_end;
                if in_window {
                    servers[server].busy_comp_us += comp_us;
                    batches[service] += 1;
                    let slo_ms = specs[service].slo.latency_ms;
                    let mut worst = 0.0f64;
                    for &(a, class) in &arrivals {
                        let c = class as usize;
                        // The RTT term: network latency already spent by
                        // this ingress class counts against the SLO.
                        let lat_ms = t.since(a).as_ms() + classes[service][c].network_ms;
                        latency[service].record_ms(lat_ms);
                        class_latency[service][c].record_ms(lat_ms);
                        worst = worst.max(lat_ms);
                        completed[service] += 1;
                        class_completed[service][c] += 1;
                        if lat_ms <= slo_ms {
                            within_slo[service] += 1;
                            class_within[service][c] += 1;
                        }
                    }
                    if worst > slo_ms {
                        violated[service] += 1;
                    }
                }
                try_start(&mut q, &mut servers, server);
            }
            Event::Deadline { server } => {
                // Stale deadlines (batch already launched) fall through
                // harmlessly: try_start re-evaluates the queue state.
                try_start(&mut q, &mut servers, server);
            }
            Event::RecoveryBegin => {
                let spec = rec_spec.expect("recovery event without a spec");
                let mut dark = 0usize;
                for op in &spec.ops {
                    let Some(g) = op.logical_gpu else { continue };
                    for s in servers.iter_mut().filter(|s| s.gpu == g) {
                        if !s.dark {
                            s.dark = true;
                            dark += 1;
                        }
                    }
                }
                let timeline = recovery_timeline(spec, t);
                let mut last = t + SimTime::from_ms(spec.control_plane_ms);
                for (i, ready) in timeline.iter().enumerate() {
                    q.schedule(*ready, Event::GpuRecovered { op: i });
                    last = last.max(*ready);
                }
                rec_report = Some(RecoverySimReport {
                    started_ms: t.as_ms(),
                    latency_ms: last.since(t).as_ms(),
                    dark_servers: dark,
                    reflashes_done: spec.ops.iter().filter(|o| o.reflash && !o.prepared).count(),
                    copied_gib: spec.pending_copy_gib(),
                    precopied_gib: spec.prepared_gib(),
                });
            }
            Event::GpuRecovered { op } => {
                let spec = rec_spec.expect("recovery event without a spec");
                let Some(g) = spec.ops[op].logical_gpu else {
                    continue;
                };
                for si in 0..servers.len() {
                    if servers[si].gpu == g && servers[si].dark {
                        servers[si].dark = false;
                        try_start(&mut q, &mut servers, si);
                    }
                }
            }
        }
    }

    let window_us = win_end.since(win_start).micros() as f64;
    let server_reports = servers
        .iter()
        .map(|s| ServerActivity {
            service_id: specs[s.service].id,
            sms: s.share.sms(),
            activity: (s.busy_comp_us as f64 / window_us).clamp(0.0, 1.0),
        })
        .collect();

    let class_reports = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            classes[i]
                .iter()
                .enumerate()
                .map(|(c, cls)| ClassReport {
                    service_id: spec.id,
                    class: c,
                    network_ms: cls.network_ms,
                    offered: class_offered[i][c],
                    completed: class_completed[i][c],
                    completed_within_slo: class_within[i][c],
                    latency: class_latency[i][c].clone(),
                })
                .collect::<Vec<_>>()
        })
        .collect();

    ServingReport {
        duration_s: config.duration_s,
        services: specs
            .iter()
            .enumerate()
            .map(|(i, spec)| ServiceReport {
                service_id: spec.id,
                offered: offered[i],
                completed: completed[i],
                batches: batches[i],
                violated_batches: violated[i],
                completed_within_slo: within_slo[i],
                latency: latency[i].clone(),
                rejected: 0,
                timeouts: 0,
                retries: 0,
                shed: 0,
                hedges: 0,
                hedge_wins: 0,
            })
            .collect(),
        servers: server_reports,
        classes: class_reports,
        recovery: rec_report,
        tenants: Vec::new(),
    }
}
