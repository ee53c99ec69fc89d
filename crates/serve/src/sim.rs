//! The serving engine: one discrete-event core behind every serving run.
//!
//! `Engine` holds the whole mutable state of a serving simulation — the
//! calendar event queue, servers and their queues, routers, the in-flight
//! batch slab, per-service and per-class counters, arrival and MMPP phase
//! RNG streams, the resilience request table and the tenant admission
//! buckets — in one struct that serializes, so a run can be checkpointed
//! between events and resumed bit-identically. It has two drivers:
//!
//! * [`crate::Simulation`] serves one measurement window: build the
//!   engine, run it to the window's end, build the [`ServingReport`];
//! * [`crate::StreamEngine`] serves a never-ending stream over an open
//!   window, one epoch per run, and may reconfigure the deployment under
//!   the live request table between epochs.
//!
//! The event loop is allocation-free in steady state: events ride a
//! [`CalendarQueue`] as packed 128-bit keys, batch membership lives in a
//! recycled slab instead of per-batch `Vec`s, per-(service, class)
//! accounting is flat and contiguous, per-server batch timings are
//! memoized, and each server has at most one batching deadline pending
//! (see `Server::deadline_booked`). Window runs are property-tested to produce byte-identical
//! reports to the frozen pre-optimization simulator (`crate::reference`,
//! compiled for tests only).

use crate::recovery::{RecoverySimReport, RecoverySpec};
use crate::report::{ClassReport, ServerActivity, ServiceReport, ServingReport, TenantReport};
use crate::resilience::ResilienceSpec;
use crate::router::Router;
use crate::simulation::Simulation;
use parva_deploy::{Deployment, ServiceSpec, Tenant};
use parva_des::{CalendarQueue, LatencyHistogram, RngStream, SerialResource, SimTime};
use parva_obs::{Row, TraceEvent, TraceSink, PID_SERVE};
use parva_perf::interference::total_interference;
use parva_perf::{ComputeShare, Model, PerfParams};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One ingress class of a service's offered load.
///
/// A class is a sub-stream of a service's traffic that enters the cluster
/// with a fixed network latency already spent — the multi-region serving
/// model: class 0 is the region's local traffic (`network_ms == 0`), later
/// classes are traffic spilled from remote regions, each charged the
/// inter-region RTT. The network term rides through the DES request path:
/// every completed request's measured latency is `queue + service +
/// network_ms`, and the SLO check runs against that sum, so a spilled
/// request has a tighter effective queueing budget than a local one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngressClass {
    /// Offered rate of this class, req/s.
    pub rate_rps: f64,
    /// Network latency each request of this class has already paid before
    /// reaching the cluster, ms (charged against the SLO).
    pub network_ms: f64,
}

impl IngressClass {
    /// A purely local class at `rate_rps` (no network term).
    #[must_use]
    pub fn local(rate_rps: f64) -> Self {
        Self {
            rate_rps,
            network_ms: 0.0,
        }
    }
}

/// The request arrival process offered to each service.
///
/// The paper's load generator offers each service its Table IV rate; a
/// Poisson stream is the standard open-loop model (and what the SLO/2
/// queuing budget of §IV-A is sized for). The bursty variant stresses that
/// budget: a Markov-modulated Poisson process alternates calm and burst
/// phases around the same mean rate, fattening the queue-length tail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at the offered rate (the default).
    Poisson,
    /// Two-phase Markov-modulated Poisson process with the same mean rate:
    /// phases flip after exp-distributed durations, the burst phase runs at
    /// `burst_factor` × the calm phase's rate.
    Mmpp {
        /// Burst-to-calm rate ratio (> 1).
        burst_factor: f64,
        /// Mean phase duration, seconds.
        mean_phase_s: f64,
    },
    /// Evenly spaced arrivals (variance-free control case).
    Deterministic,
}

impl ArrivalProcess {
    /// Instantaneous rate multiplier of the current phase.
    pub(crate) fn phase_rate(self, rate_rps: f64, bursting: bool) -> f64 {
        match self {
            Self::Poisson | Self::Deterministic => rate_rps,
            Self::Mmpp { burst_factor, .. } => {
                // Mean preserved: (calm + burst)/2 = rate.
                let calm = 2.0 * rate_rps / (1.0 + burst_factor);
                if bursting {
                    calm * burst_factor
                } else {
                    calm
                }
            }
        }
    }
}

/// Serving-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Warm-up period excluded from measurement, seconds.
    pub warmup_s: f64,
    /// Measurement window, seconds.
    pub duration_s: f64,
    /// Post-window drain period (events beyond it are discarded), seconds.
    pub drain_s: f64,
    /// Master RNG seed (per-service arrival streams derive from it).
    pub seed: u64,
    /// Arrival process shape.
    pub arrivals: ArrivalProcess,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            warmup_s: 2.0,
            duration_s: 10.0,
            drain_s: 5.0,
            seed: 42,
            arrivals: ArrivalProcess::Poisson,
        }
    }
}

/// Sentinel marking an empty batch-timing memo slot.
const MEMO_EMPTY: SimTime = SimTime(u64::MAX);

/// Deterministic per-tenant admission gate: a token bucket refilled
/// continuously at the tenant's quota rate, with one second of burst
/// capacity (floored at one token so a tiny quota still admits). No RNG
/// is involved, so quota enforcement never perturbs any sample path — a
/// rejected arrival simply skips the routing stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TokenBucket {
    tokens: f64,
    last_us: u64,
    rate_per_us: f64,
    cap: f64,
}

impl TokenBucket {
    fn new(quota_rps: f64) -> Self {
        let cap = quota_rps.max(1.0);
        Self {
            tokens: cap,
            last_us: 0,
            rate_per_us: quota_rps * 1e-6,
            cap,
        }
    }

    /// Admit one request at simulation time `t`?
    fn admit(&mut self, t: SimTime) -> bool {
        let now = t.micros();
        let dt = now.saturating_sub(self.last_us) as f64;
        self.last_us = now;
        self.tokens = (self.tokens + dt * self.rate_per_us).min(self.cap);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One live request in the resilience request table. Unless the resilience
/// policy times out or hedges requests, the engine never materializes
/// request identity (queue entries are plain `(arrival, class)` pairs);
/// when it does, queue/slab entries carry a request id into this table so
/// timeouts, retries and hedge cancellation can find a request wherever it
/// sits.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ResReq {
    service: u32,
    class: u32,
    /// The *original* arrival: latency (and the SLO check) is always
    /// measured from here, so a retried request that finally completes
    /// still pays for every failed attempt — the accounting that makes
    /// retry storms visible instead of laundering them.
    first_arrival: SimTime,
    /// Failed attempts so far (bounds retries).
    attempts: u32,
    /// Staleness guard for pending timeout/retry/hedge events.
    epoch: u32,
    /// Server whose queue holds the primary copy.
    server: u32,
    /// Server whose queue holds the hedge copy (`-1` = not hedged).
    hedge_server: i64,
}

/// All mutable resilience state of one run: the request table (slab with a
/// free list — steady state allocates nothing), the cluster-wide retry
/// budget, the backoff-jitter RNG stream, and per-service counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResState {
    spec: ResilienceSpec,
    reqs: Vec<ResReq>,
    free: Vec<u32>,
    budget: Option<TokenBucket>,
    rng: RngStream,
    timeouts: Vec<u64>,
    retries: Vec<u64>,
    shed: Vec<u64>,
    hedges: Vec<u64>,
    hedge_wins: Vec<u64>,
}

impl ResState {
    fn new(spec: ResilienceSpec, seed: u64, services: usize) -> Self {
        Self {
            spec,
            reqs: Vec::new(),
            free: Vec::new(),
            budget: (spec.retry_budget_rps > 0.0).then(|| TokenBucket::new(spec.retry_budget_rps)),
            // A dedicated stream: backoff jitter draws must not perturb
            // any arrival stream's sample path.
            rng: RngStream::new(seed ^ 0x52E5_111E_4CE5_7A7E, 0xBAC0FF),
            timeouts: vec![0; services],
            retries: vec![0; services],
            shed: vec![0; services],
            hedges: vec![0; services],
            hedge_wins: vec![0; services],
        }
    }

    /// Do queue entries carry request ids into the table? Only timeouts
    /// (and the retries they spawn) and hedging need to find a request
    /// again; shedding and health checks act on queues and routers alone.
    fn tracks_requests(&self) -> bool {
        self.spec.timeout_ms > 0.0 || self.spec.hedge_quantile > 0.0
    }

    /// Open zeroed counters for one more service.
    fn add_service(&mut self) {
        for counter in [
            &mut self.timeouts,
            &mut self.retries,
            &mut self.shed,
            &mut self.hedges,
            &mut self.hedge_wins,
        ] {
            counter.push(0);
        }
    }

    fn alloc(&mut self, service: u32, class: u32, t: SimTime, server: u32) -> u32 {
        if let Some(rid) = self.free.pop() {
            let r = &mut self.reqs[rid as usize];
            r.service = service;
            r.class = class;
            r.first_arrival = t;
            r.attempts = 0;
            // The epoch survives recycling (bumped at free), so events
            // addressed to the previous occupant stay stale.
            r.server = server;
            r.hedge_server = -1;
            rid
        } else {
            self.reqs.push(ResReq {
                service,
                class,
                first_arrival: t,
                attempts: 0,
                epoch: 0,
                server,
                hedge_server: -1,
            });
            (self.reqs.len() - 1) as u32
        }
    }

    /// Retire a request id: bump its epoch (stale-ing every pending event
    /// addressed to it) and return it to the free list.
    fn free_req(&mut self, rid: u32) {
        let r = &mut self.reqs[rid as usize];
        r.epoch = r.epoch.wrapping_add(1);
        self.free.push(rid);
    }

    /// Is `epoch_bits` (an event's 20-bit payload field) current for `rid`?
    fn epoch_current(&self, rid: usize, epoch_bits: usize) -> bool {
        u64::from(self.reqs[rid].epoch) & B_MASK == epoch_bits as u64
    }
}

/// Drop one request id out of a server queue (timeout pull or hedge twin
/// cancellation). O(queue) — both paths are rare relative to arrivals.
fn remove_rid(queue: &mut VecDeque<(SimTime, u32)>, rid: u32) {
    if let Some(pos) = queue.iter().position(|&(_, x)| x == rid) {
        queue.remove(pos);
    }
}

/// One executable server: a MIG segment (p processes) or an MPS partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Server {
    service: usize,
    /// This server's slot in its service's router.
    slot: usize,
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
    /// Memoized `(cycle, comp_us)` per `(b_eff, n_busy)` point — the
    /// perf-model arithmetic is pure, so each point is computed at most
    /// once per server. Indexed `(b_eff - 1) * procs + (n_busy - 1)`;
    /// [`MEMO_EMPTY`] marks an unevaluated slot.
    perf_memo: Vec<(SimTime, u64)>,
    /// True while the server's GPU has recovery work outstanding (re-flash
    /// or weight copy): requests queue but no batch launches.
    dark: bool,
    /// Waiting requests: `(arrival time, ingress class)`, or `(attempt
    /// time, request id)` when the resilience policy tracks requests.
    queue: VecDeque<(SimTime, u32)>,
    busy: u32,
    /// SM-occupancy microseconds accumulated inside the window.
    busy_comp_us: u64,
    /// Time of the last batching deadline booked for this server
    /// ([`SimTime::ZERO`]: none); `try_start` books a deadline only when it
    /// differs. This is exact. Deadlines are only booked for times after
    /// now, so an equal value names an event that has not popped yet: same
    /// payload (tag, generation, server), booked earlier, so it pops first.
    /// A second copy would have had no effect: every handler that adds to
    /// a queue, frees capacity or lights a GPU ends with `try_start` on
    /// that server, so the copy found the server settled and only booked
    /// yet another copy. The one gap is a queue removal that skips
    /// `try_start` (a timeout pull, or the hedge twin cancelled in
    /// `launch`) on the deadline's microsecond, between the first copy
    /// and a later one: the later copy would have re-evaluated the queue
    /// there. A reconfigure builds new servers, so it resets this field
    /// along with the generation.
    deadline_booked: SimTime,
}

/// One in-flight batch in the recycled slab.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Batch {
    /// The queue entries the batch drafted.
    members: Vec<(SimTime, u32)>,
    /// SM-occupancy of the batch, µs.
    comp_us: u64,
    /// Service index the batch serves.
    service: u32,
    /// Fabric generation it launched under: a reconfigure may have replaced
    /// its server since, and then the completion returns no capacity.
    generation: u64,
}

// ---- packed event encoding (48-bit CalendarQueue payloads) ----
//
// tag (4 bits) | a (24 bits) | b (20 bits). Index widths are asserted at
// encode time in debug builds; real deployments sit orders of magnitude
// below them (b: up to ~1M servers / classes, a: up to ~16M services /
// in-flight batches / recovery ops).

const TAG_SHIFT: u32 = 44;
const A_SHIFT: u32 = 20;
const A_MASK: u64 = (1 << 24) - 1;
const B_MASK: u64 = (1 << 20) - 1;

const TAG_ARRIVAL: u64 = 0;
const TAG_DONE: u64 = 1;
// Fabric events carry the fabric generation they were booked under (the
// deadline in `a`, the recovery in `b`): a reconfigure bumps it, so events
// addressed to replaced servers fall through.
const TAG_DEADLINE: u64 = 2;
const TAG_RECOVERY_BEGIN: u64 = 3;
const TAG_GPU_RECOVERED: u64 = 4;
// Resilience lifecycle events (only scheduled when a non-inert
// `ResilienceSpec` is configured). Each carries `a` = request id into the
// resilience request table and `b` = the request's epoch (mod 2^20): any
// state change — launch, timeout, retry, completion — bumps the epoch, so
// stale events fall through without a lookup table of cancellations.
const TAG_TIMEOUT: u64 = 5;
const TAG_RETRY: u64 = 6;
const TAG_HEDGE: u64 = 7;
// Epoch boundary of a streamed run: `Engine::run_until` returns when one
// pops, after booking the next.
const TAG_EPOCH: u64 = 8;

#[inline]
fn ev(tag: u64, a: u64, b: u64) -> u64 {
    debug_assert!(a <= A_MASK, "event field a exceeds 24 bits");
    debug_assert!(b <= B_MASK, "event field b exceeds 20 bits");
    (tag << TAG_SHIFT) | (a << A_SHIFT) | b
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

/// Hedge-fire delay for one request: the service's observed in-window
/// latency at the configured quantile once enough completions exist, else
/// the SLO scaled by the quantile (the cold-start prior — before any
/// measurement the SLO is the only latency expectation the frontend has).
/// Deterministic: both inputs are pure functions of simulation state.
fn hedge_delay(hist: &LatencyHistogram, spec: &ServiceSpec, quantile: f64) -> SimTime {
    let ms = if hist.count() >= 50 {
        hist.quantile_ms(quantile)
    } else {
        spec.slo.latency_ms * quantile
    };
    SimTime::from_ms(ms)
}

/// The servers of `deployment` that serve one of `specs`, plus, per
/// service, its servers' indices and routing weights (their
/// scheduler-predicted throughput) in router-slot order.
fn build_fabric(
    deployment: &Deployment,
    specs: &[ServiceSpec],
) -> (Vec<Server>, Vec<Vec<(u32, f64)>>) {
    let idx_of = |id: u32| specs.iter().position(|s| s.id == id);
    let mut servers: Vec<Server> = Vec::new();
    let mut slots: Vec<Vec<(u32, f64)>> = vec![Vec::new(); specs.len()];
    let mut push = |service: usize,
                    gpu: usize,
                    model: Model,
                    share: ComputeShare,
                    batch: u32,
                    procs: u32,
                    interference: f64,
                    throughput: f64| {
        let mut server = Server {
            service,
            slot: slots[service].len(),
            gpu,
            model,
            share,
            batch,
            procs,
            interference,
            batch_timeout: SimTime::ZERO,
            class_timeouts: Vec::new(),
            perf_memo: vec![(MEMO_EMPTY, 0); (batch * procs) as usize],
            dark: false,
            queue: VecDeque::new(),
            busy: 0,
            busy_comp_us: 0,
            deadline_booked: SimTime::ZERO,
        };
        server.batch_timeout = batch_timeout(&specs[service], &server);
        slots[service].push((servers.len() as u32, throughput));
        servers.push(server);
    };
    match deployment {
        Deployment::Mig(d) => {
            for ps in d.segments() {
                let Some(service) = idx_of(ps.segment.service_id) else {
                    continue;
                };
                push(
                    service,
                    ps.gpu,
                    ps.segment.model,
                    ComputeShare::Mig(ps.segment.triplet.instance),
                    ps.segment.triplet.batch,
                    ps.segment.triplet.procs,
                    0.0, // MIG isolates (paper §II-B)
                    ps.segment.throughput_rps,
                );
            }
        }
        Deployment::Mps(d) => {
            for (gi, gpu) in d.gpus.iter().enumerate() {
                for (pi, p) in gpu.partitions.iter().enumerate() {
                    let Some(service) = idx_of(p.service_id) else {
                        continue;
                    };
                    push(
                        service,
                        gi,
                        p.model,
                        ComputeShare::Fraction(p.fraction),
                        p.batch,
                        p.procs.max(1),
                        total_interference(p.model, &gpu.co_residents(pi)),
                        p.throughput_rps,
                    );
                }
            }
        }
    }
    (servers, slots)
}

/// Service time and SM-occupancy of one batch of `b_eff` starting now on
/// `server` with `n_busy` concurrently active processes.
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

/// Memoized [`batch_times`]: one perf-model evaluation per distinct
/// `(b_eff, n_busy)` point per server.
#[inline]
fn batch_times_memo(
    servers: &mut [Server],
    server: usize,
    b_eff: u32,
    n_busy: u32,
) -> (SimTime, u64) {
    let idx = ((b_eff - 1) * servers[server].procs + (n_busy - 1)) as usize;
    let cached = servers[server].perf_memo[idx];
    if cached.0 != MEMO_EMPTY {
        return cached;
    }
    let computed = batch_times(&servers[server], b_eff, n_busy);
    servers[server].perf_memo[idx] = computed;
    computed
}

/// Book the deterministic recovery timeline: per op, the instant the GPU
/// is fully recovered. The control plane reacts first; re-flashes then
/// serialize on each node's NVML lock in op order; weight copies become
/// eligible when their GPU's re-flash completes (immediately for prepared
/// / no-re-flash ops) and are granted FIFO by eligibility on the node's
/// PCIe link.
fn recovery_timeline<S: TraceSink>(spec: &RecoverySpec, t0: SimTime, sink: &mut S) -> Vec<SimTime> {
    let t_cp = t0 + SimTime::from_ms(spec.control_plane_ms);
    let mut reflash_locks: BTreeMap<usize, SerialResource> = BTreeMap::new();
    let mut ready: Vec<SimTime> = Vec::with_capacity(spec.ops.len());
    for (i, op) in spec.ops.iter().enumerate() {
        if !op.prepared && op.reflash {
            let (start, done) = reflash_locks
                .entry(op.node)
                .or_default()
                .acquire(t_cp, SimTime::from_ms(spec.reflash_ms));
            if S::ENABLED {
                sink.emit(
                    TraceEvent::span("reflash", "recovery", start.micros(), spec_dur(start, done))
                        .pid(PID_SERVE)
                        .tid(op.node as u32)
                        .arg_u64("op", i as u64)
                        .arg_u64("node", op.node as u64),
                );
            }
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
        let (start, done) = links
            .entry(node)
            .or_default()
            .acquire(eligible, SimTime::from_secs(secs));
        if S::ENABLED {
            sink.emit(
                TraceEvent::span("copy", "recovery", start.micros(), spec_dur(start, done))
                    .pid(PID_SERVE)
                    .tid(node as u32)
                    .arg_u64("op", i as u64)
                    .arg_f64("gib", spec.ops[i].copy_gib),
            );
        }
        ready[i] = done;
    }
    ready
}

/// Span duration in µs between two booked instants (monotone by
/// construction of [`SerialResource::acquire`]).
#[inline]
fn spec_dur(start: SimTime, done: SimTime) -> u64 {
    done.micros().saturating_sub(start.micros())
}

/// Salt mixed into the arrival stream seed of ingress classes ≥ 1 so every
/// class has an independent sample path. Class 0 uses the raw seed, which
/// keeps single-class runs bit-identical to runs from before ingress
/// classes existed.
fn class_seed(seed: u64, class: usize) -> u64 {
    seed ^ (class as u64).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// The MMPP phase stream of the service with id `id`.
fn phase_stream(seed: u64, id: u32) -> RngStream {
    RngStream::new(seed ^ 0x9E37_79B9, u64::from(id))
}

/// The serving engine's whole mutable state (see the module docs).
///
/// Generic over the trace sink only per call: with
/// [`parva_obs::NullSink`] every instrumentation branch is `if false` and
/// monomorphizes away; a recording sink collects request/batch/recovery
/// spans and per-tick gauges without perturbing a single simulation
/// decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Engine {
    specs: Vec<ServiceSpec>,
    tenants: Vec<Tenant>,
    /// Master seed and default arrival process: a service appended by a
    /// reconfigure derives its streams from them.
    seed: u64,
    arrivals: ArrivalProcess,
    /// Every counter accumulates strictly inside `[win_start, win_end)`.
    win_start: SimTime,
    win_end: SimTime,
    /// Epoch length of a streamed run, µs (`0`: no epoch boundaries).
    epoch_us: u64,
    /// Fabric generation, bumped by every reconfigure.
    generation: u64,
    q: CalendarQueue,
    servers: Vec<Server>,
    /// Per service: the router over its servers (`None`: no capacity).
    routers: Vec<Option<Router>>,
    /// Per service: global indices of its servers, in router-slot order.
    service_servers: Vec<Vec<u32>>,
    /// The resilience layer, strictly inert (`None`) without a policy:
    /// every code path is then the pre-resilience one, bit-exactly.
    res: Option<ResState>,
    /// Per-(service, class) effective attempt timeout (empty without
    /// timeouts): the class's network term is budget already spent, so
    /// remote classes time out sooner (floored at zero — an attempt can be
    /// dead on arrival).
    res_timeout: Vec<SimTime>,
    /// Flat per-(service, class) layout: entries of service `i` live at
    /// `cbase[i] .. cbase[i + 1]` in every class-indexed array.
    cbase: Vec<usize>,
    /// Services with exactly one ingress class take a fast accounting path:
    /// the class-level row provably equals the service-level row (same
    /// increment conditions, same record sequence), so the hot loop
    /// maintains only the service row and the report derives the class row.
    single: Vec<bool>,
    class_net: Vec<f64>,
    /// Configured rate of each class, before any demand multiplier.
    class_base_rate: Vec<f64>,
    class_rate: Vec<f64>,
    /// Per-service arrival process: the configured default, unless an
    /// override targets the service (the noisy-neighbor axis).
    svc_proc: Vec<ArrivalProcess>,
    /// Memoryless arrivals everywhere: the hot loop draws the gap straight
    /// from the class's stream (identical draw to `next_gap`).
    poisson: bool,
    /// Tenant binding per service, one admission token bucket per limited
    /// tenant (shared across the tenant's services — the quota is a
    /// tenant-wide contract), and per-service rejection counters.
    svc_tenant_idx: Vec<Option<usize>>,
    quota: Vec<Option<TokenBucket>>,
    rejected: Vec<u64>,
    /// One arrival stream per (service, class).
    arrival_rng: Vec<RngStream>,
    /// MMPP phase state per service (ignored by the other processes),
    /// shared across a service's classes (one demand process, several
    /// ingress paths). Phase streams are separate RNG streams so flipping
    /// the arrival process does not perturb the arrival sample paths.
    bursting: Vec<bool>,
    phase_until: Vec<SimTime>,
    phase_rng: Vec<RngStream>,
    offered: Vec<u64>,
    completed: Vec<u64>,
    batches: Vec<u64>,
    violated: Vec<u64>,
    within_slo: Vec<u64>,
    latency: Vec<LatencyHistogram>,
    class_offered: Vec<u64>,
    class_completed: Vec<u64>,
    class_within: Vec<u64>,
    class_latency: Vec<LatencyHistogram>,
    /// The recovery whose ops the pending recovery events index.
    recovery: Option<RecoverySpec>,
    /// When it began, how many servers it darkened, and when its last op
    /// completes — what its report is built from.
    recovery_began: Option<(SimTime, usize, SimTime)>,
    /// The recycled batch slab and the ids open for reuse — steady-state
    /// launches allocate nothing.
    slab: Vec<Batch>,
    free: Vec<u32>,
    /// When each server went dark, so the traced `dark` span can be closed
    /// at its GPU's recovery instant.
    dark_since: Vec<SimTime>,
}

impl Engine {
    /// Build the engine for `sim`'s deployment, load and policies, counting
    /// inside `[win_start, win_end)`. A positive `epoch_us` books an epoch
    /// boundary every `epoch_us` µs, each ahead of any traffic at the same
    /// instant.
    pub(crate) fn new(
        sim: &Simulation<'_>,
        win_start: SimTime,
        win_end: SimTime,
        epoch_us: u64,
    ) -> Self {
        let specs = sim.specs;
        let seed = sim.config.seed;
        let classes: Vec<Vec<IngressClass>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| match sim.ingress.get(i) {
                Some(c) if !c.is_empty() => c.clone(),
                _ => vec![IngressClass::local(s.request_rate_rps)],
            })
            .collect();
        // An inert spec (all mechanisms disabled) is normalized to None.
        let res = sim
            .resilience
            .filter(|r| !r.is_inert())
            .map(|r| ResState::new(*r, seed, specs.len()));
        let res_timeout: Vec<SimTime> = match res.as_ref() {
            Some(rs) if rs.spec.timeout_ms > 0.0 => classes
                .iter()
                .flatten()
                .map(|c| {
                    SimTime(
                        SimTime::from_ms(rs.spec.timeout_ms)
                            .micros()
                            .saturating_sub(SimTime::from_ms(c.network_ms).micros()),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let mut cbase: Vec<usize> = Vec::with_capacity(specs.len() + 1);
        let mut total_classes = 0usize;
        for cls in &classes {
            cbase.push(total_classes);
            total_classes += cls.len();
        }
        cbase.push(total_classes);
        let class_rate: Vec<f64> = classes.iter().flatten().map(|c| c.rate_rps).collect();
        // With no overrides every entry equals the configured default, so
        // all draw sequences are bit-identical to the pre-override engine.
        let svc_proc: Vec<ArrivalProcess> = (0..specs.len())
            .map(|i| {
                sim.arrival_overrides
                    .get(i)
                    .copied()
                    .flatten()
                    .unwrap_or(sim.config.arrivals)
            })
            .collect();
        let mut eng = Self {
            specs: specs.to_vec(),
            tenants: sim.tenants.to_vec(),
            seed,
            arrivals: sim.config.arrivals,
            win_start,
            win_end,
            epoch_us,
            generation: 0,
            q: CalendarQueue::with_capacity(128),
            servers: Vec::new(),
            routers: Vec::new(),
            service_servers: Vec::new(),
            res,
            res_timeout,
            single: classes.iter().map(|c| c.len() == 1).collect(),
            class_net: classes.iter().flatten().map(|c| c.network_ms).collect(),
            class_base_rate: class_rate.clone(),
            class_rate,
            poisson: svc_proc
                .iter()
                .all(|p| matches!(p, ArrivalProcess::Poisson)),
            svc_proc,
            svc_tenant_idx: specs.iter().map(|s| tenant_index(sim.tenants, s)).collect(),
            quota: sim
                .tenants
                .iter()
                .map(|t| t.is_limited().then(|| TokenBucket::new(t.quota_rps)))
                .collect(),
            rejected: vec![0; specs.len()],
            // Class 0 reuses the exact pre-ingress stream derivation for
            // backwards-identical sample paths.
            arrival_rng: specs
                .iter()
                .zip(&classes)
                .flat_map(|(s, cls)| {
                    (0..cls.len()).map(|c| RngStream::new(class_seed(seed, c), u64::from(s.id)))
                })
                .collect(),
            bursting: vec![false; specs.len()],
            phase_until: vec![SimTime::ZERO; specs.len()],
            phase_rng: specs.iter().map(|s| phase_stream(seed, s.id)).collect(),
            offered: vec![0; specs.len()],
            completed: vec![0; specs.len()],
            batches: vec![0; specs.len()],
            violated: vec![0; specs.len()],
            within_slo: vec![0; specs.len()],
            latency: vec![LatencyHistogram::new(); specs.len()],
            class_offered: vec![0; total_classes],
            class_completed: vec![0; total_classes],
            class_within: vec![0; total_classes],
            class_latency: vec![LatencyHistogram::new(); total_classes],
            recovery: None,
            recovery_began: None,
            slab: Vec::new(),
            free: Vec::new(),
            dark_since: Vec::new(),
            cbase,
        };
        eng.rebuild_fabric(sim.deployment);
        if epoch_us > 0 {
            eng.q.schedule(SimTime(epoch_us), ev(TAG_EPOCH, 0, 0));
        }
        // Seed first arrivals (zero-rate classes never generate traffic).
        for (i, cls) in classes.iter().enumerate() {
            for c in 0..cls.len() {
                eng.seed_arrival(i, c);
            }
        }
        // Recovery riding the same queue: the capacity loss fires at
        // `start_ms`; the op timeline (per-node serialized re-flashes, FIFO
        // PCIe copies) is booked when it fires. `None`/empty specs schedule
        // nothing, keeping the plain path bit-identical.
        if let Some(spec) = sim.recovery.filter(|r| !r.is_empty()) {
            eng.q.schedule(
                SimTime::from_ms(spec.start_ms),
                ev(TAG_RECOVERY_BEGIN, 0, 0),
            );
            eng.recovery = Some(spec.clone());
        }
        eng
    }

    /// Rebuild servers, routers and the per-service server lists from
    /// `deployment` under the current specs and classes.
    fn rebuild_fabric(&mut self, deployment: &Deployment) {
        let (mut servers, slots) = build_fabric(deployment, &self.specs);
        // A class's network term is queueing budget already spent before
        // the request reached the cluster: its batching deadline shrinks by
        // the RTT, floored at zero (class 0 keeps the base timeout
        // bit-exactly).
        for s in &mut servers {
            let nets = &self.class_net[self.cbase[s.service]..self.cbase[s.service + 1]];
            s.class_timeouts = nets
                .iter()
                .map(|&net| {
                    SimTime(
                        s.batch_timeout
                            .micros()
                            .saturating_sub(SimTime::from_ms(net).micros()),
                    )
                })
                .collect();
        }
        self.routers = slots
            .iter()
            .map(|w| (!w.is_empty()).then(|| Router::new(w.iter().map(|&(_, t)| t).collect())))
            .collect();
        self.service_servers = slots
            .into_iter()
            .map(|w| w.into_iter().map(|(si, _)| si).collect())
            .collect();
        self.dark_since = vec![SimTime::ZERO; servers.len()];
        self.servers = servers;
    }

    /// Draw the first arrival of class `c` of service `i` (none for a
    /// zero-rate class).
    fn seed_arrival(&mut self, i: usize, c: usize) {
        if self.class_rate[self.cbase[i] + c] <= 0.0 {
            return;
        }
        let now = self.q.now();
        let t = now + self.next_gap(i, c, now);
        self.q.schedule(t, ev(TAG_ARRIVAL, i as u64, c as u64));
    }

    /// Draw the next interarrival gap for class `c` of service `i` as of
    /// time `now`, advancing the service's MMPP phase lazily.
    fn next_gap(&mut self, i: usize, c: usize, now: SimTime) -> SimTime {
        let flat = self.cbase[i] + c;
        let rate = self.class_rate[flat];
        match self.svc_proc[i] {
            ArrivalProcess::Poisson => self.arrival_rng[flat].exp_interarrival(rate),
            ArrivalProcess::Deterministic => SimTime::from_secs(1.0 / rate),
            ArrivalProcess::Mmpp { mean_phase_s, .. } => {
                while now >= self.phase_until[i] {
                    self.bursting[i] = !self.bursting[i];
                    self.phase_until[i] +=
                        self.phase_rng[i].exp_interarrival(1.0 / mean_phase_s.max(1e-6));
                }
                let phase_rate = self.svc_proc[i].phase_rate(rate, self.bursting[i]);
                self.arrival_rng[flat].exp_interarrival(phase_rate)
            }
        }
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.win_start && t < self.win_end
    }

    fn health_checked(&self) -> bool {
        self.res.as_ref().is_some_and(|rs| rs.spec.health_checked)
    }

    /// Process events in `(time, FIFO)` order until an epoch boundary pops
    /// (the next one is booked first), the first event past `stop` pops
    /// (it is consumed: past `stop` the run is over), or the queue dries.
    pub(crate) fn run_until<S: TraceSink>(&mut self, stop: SimTime, sink: &mut S) {
        while let Some((t, payload)) = self.q.pop() {
            if S::ENABLED {
                // Deliver any gauge boundaries the simulation clock just
                // crossed (state as of strictly before `t`), capped at the
                // window's end.
                while sink.next_sample_us() < t.micros()
                    && sink.next_sample_us() <= self.win_end.micros()
                {
                    let ts = sink.next_sample_us();
                    self.sample_gauges(sink, ts);
                }
            }
            if t > stop {
                break;
            }
            let a = ((payload >> A_SHIFT) & A_MASK) as usize;
            let b = (payload & B_MASK) as usize;
            match payload >> TAG_SHIFT {
                TAG_ARRIVAL => self.on_arrival(t, a, b, payload, sink),
                TAG_DONE => self.on_done(t, a, b, sink),
                TAG_DEADLINE => {
                    // A deadline whose batch already launched (full, or at a
                    // completion that found the head expired) falls through
                    // harmlessly: try_start re-evaluates the queue and books
                    // the new head's deadline unless it is already pending.
                    if a as u64 == self.generation & A_MASK {
                        self.try_start(b, sink);
                    }
                }
                TAG_RECOVERY_BEGIN => self.begin_recovery(t, sink),
                TAG_GPU_RECOVERED => {
                    if b as u64 == self.generation & B_MASK {
                        self.on_gpu_recovered(t, a, sink);
                    }
                }
                TAG_TIMEOUT => self.on_timeout(t, a, b, sink),
                TAG_RETRY => self.on_retry(t, a, b, sink),
                TAG_HEDGE => self.on_hedge(t, a, b, sink),
                TAG_EPOCH => {
                    self.q
                        .schedule_in(SimTime(self.epoch_us), ev(TAG_EPOCH, 0, 0));
                    return;
                }
                _ => unreachable!("unknown event tag"),
            }
        }
    }

    #[inline]
    fn on_arrival<S: TraceSink>(
        &mut self,
        t: SimTime,
        service: usize,
        class: usize,
        payload: u64,
        sink: &mut S,
    ) {
        // Schedule the next arrival while load generation is on.
        let flat = self.cbase[service] + class;
        let next = if self.poisson {
            t + self.arrival_rng[flat].exp_interarrival(self.class_rate[flat])
        } else {
            t + self.next_gap(service, class, t)
        };
        if next < self.win_end {
            self.q.schedule(next, payload);
        }
        let in_window = self.in_window(t);
        if in_window {
            self.offered[service] += 1;
            if !self.single[service] {
                self.class_offered[flat] += 1;
            }
        }
        let has_tenants = !self.tenants.is_empty();
        // Per-tenant admission quota: an over-quota request is rejected and
        // reported, never silently queued — it still counts as offered,
        // lands in the rejection counters, and leaves a traced arrival so
        // `trace audit` can recount per-tenant attainment exactly.
        if has_tenants {
            if let Some(ti) = self.svc_tenant_idx[service] {
                if let Some(bucket) = self.quota[ti].as_mut() {
                    if !bucket.admit(t) {
                        if in_window {
                            self.rejected[service] += 1;
                        }
                        if S::ENABLED {
                            sink.emit(
                                TraceEvent::instant("arrival", "request", t.micros())
                                    .pid(PID_SERVE)
                                    .tid(0)
                                    .arg_u64("service", u64::from(self.specs[service].id))
                                    .arg_u64("class", class as u64)
                                    .arg_u64("tenant", u64::from(self.specs[service].tenant))
                                    .arg_bool("rejected", true),
                            );
                        }
                        return;
                    }
                }
            }
        }
        let Some(router) = self.routers[service].as_mut() else {
            return;
        };
        let sidx = self.service_servers[service][router.route()] as usize;
        if S::ENABLED {
            let mut arrival = TraceEvent::instant("arrival", "request", t.micros())
                .pid(PID_SERVE)
                .tid(sidx as u32)
                .arg_u64("service", u64::from(self.specs[service].id))
                .arg_u64("class", class as u64);
            if has_tenants {
                arrival = arrival.arg_u64("tenant", u64::from(self.specs[service].tenant));
            }
            sink.emit(arrival);
        }
        // Queue-depth load shedding: an arrival routed to a server already
        // holding `shed_queue_depth` requests is dropped (counted as
        // offered, never served) — bounded queues instead of unbounded
        // latency.
        if let Some(rs) = self.res.as_mut() {
            let depth = rs.spec.shed_queue_depth as usize;
            if depth > 0 && self.servers[sidx].queue.len() >= depth {
                if in_window {
                    rs.shed[service] += 1;
                }
                if S::ENABLED {
                    sink.emit(
                        TraceEvent::instant("shed", "resilience", t.micros())
                            .pid(PID_SERVE)
                            .tid(sidx as u32)
                            .arg_u64("service", u64::from(self.specs[service].id)),
                    );
                }
                return;
            }
        }
        let entry = match self.res.as_mut().filter(|rs| rs.tracks_requests()) {
            Some(rs) => {
                let rid = rs.alloc(service as u32, class as u32, t, sidx as u32);
                let epoch = u64::from(rs.reqs[rid as usize].epoch) & B_MASK;
                if rs.spec.timeout_ms > 0.0 {
                    let fire = t + self.res_timeout[flat];
                    // Events past the window can never be observed (the
                    // loop breaks there) — skip booking them at all.
                    if fire <= self.win_end {
                        self.q
                            .schedule(fire, ev(TAG_TIMEOUT, u64::from(rid), epoch));
                    }
                }
                if rs.spec.hedge_quantile > 0.0 {
                    let fire = t + hedge_delay(
                        &self.latency[service],
                        &self.specs[service],
                        rs.spec.hedge_quantile,
                    );
                    if fire <= self.win_end {
                        self.q.schedule(fire, ev(TAG_HEDGE, u64::from(rid), epoch));
                    }
                }
                (t, rid)
            }
            None => (t, class as u32),
        };
        self.servers[sidx].queue.push_back(entry);
        self.try_start(sidx, sink);
    }

    /// A batch completed. It always counts, against the service stored in
    /// its slab entry; its capacity returns only to a server of the
    /// current generation (a reconfigure may have replaced it).
    #[inline]
    fn on_done<S: TraceSink>(&mut self, t: SimTime, batch_id: usize, server: usize, sink: &mut S) {
        let service = self.slab[batch_id].service as usize;
        let live = self.slab[batch_id].generation == self.generation;
        if live {
            self.servers[server].busy -= 1;
        }
        if S::ENABLED {
            // One request-lifecycle span per member: arrival → completion,
            // tagged ok/miss against the SLO (network RTT included, exactly
            // as accounted). With a resilience policy the span runs from
            // the request's *first* arrival — retried attempts pay for the
            // time their failed predecessors burned.
            let slo_ms = self.specs[service].slo.latency_ms;
            let base = self.cbase[service];
            let table = self.res.as_ref().filter(|rs| rs.tracks_requests());
            for &(enq, x) in &self.slab[batch_id].members {
                let (arrived, class) = match table {
                    Some(rs) => {
                        let r = &rs.reqs[x as usize];
                        (r.first_arrival, r.class)
                    }
                    None => (enq, x),
                };
                let lat_ms = t.since(arrived).as_ms() + self.class_net[base + class as usize];
                let mut span =
                    TraceEvent::span("request", "request", arrived.micros(), spec_dur(arrived, t))
                        .pid(PID_SERVE)
                        .tid(server as u32)
                        .arg_u64("service", u64::from(self.specs[service].id))
                        .arg_u64("class", u64::from(class))
                        .arg_f64("latency_ms", lat_ms)
                        .arg_bool("ok", lat_ms <= slo_ms);
                if !self.tenants.is_empty() {
                    span = span.arg_u64("tenant", u64::from(self.specs[service].tenant));
                }
                sink.emit(span);
            }
        }
        if self.in_window(t) {
            if live {
                self.servers[server].busy_comp_us += self.slab[batch_id].comp_us;
            }
            self.batches[service] += 1;
            let slo_ms = self.specs[service].slo.latency_ms;
            let base = self.cbase[service];
            let single_class = self.single[service];
            let hist = &mut self.latency[service];
            let table = self.res.as_ref().filter(|rs| rs.tracks_requests());
            let mut done_n = 0u64;
            let mut ok_n = 0u64;
            let mut worst = 0.0f64;
            for &(enq, x) in &self.slab[batch_id].members {
                let (arrived, class) = match table {
                    Some(rs) => {
                        let r = &rs.reqs[x as usize];
                        (r.first_arrival, r.class)
                    }
                    None => (enq, x),
                };
                let c = class as usize;
                // The RTT term: network latency already spent by this
                // ingress class counts against the SLO.
                let lat_ms = t.since(arrived).as_ms() + self.class_net[base + c];
                hist.record_ms(lat_ms);
                worst = worst.max(lat_ms);
                done_n += 1;
                let ok = lat_ms <= slo_ms;
                ok_n += u64::from(ok);
                if !single_class {
                    self.class_latency[base + c].record_ms(lat_ms);
                    self.class_completed[base + c] += 1;
                    if ok {
                        self.class_within[base + c] += 1;
                    }
                }
            }
            self.completed[service] += done_n;
            self.within_slo[service] += ok_n;
            if worst > slo_ms {
                self.violated[service] += 1;
            }
        }
        if let Some(rs) = self.res.as_mut().filter(|rs| rs.tracks_requests()) {
            // Completed requests retire: epoch bump stales any straggler
            // timeout/hedge events, the id recycles.
            for &(_, rid) in &self.slab[batch_id].members {
                rs.free_req(rid);
            }
        }
        self.free.push(batch_id as u32);
        if live {
            self.try_start(server, sink);
        }
    }

    /// Recovery begins at `t`: darken every server on a GPU the ops name
    /// (draining it from health-checked routing), book the op timeline and
    /// schedule each GPU's return.
    fn begin_recovery<S: TraceSink>(&mut self, t: SimTime, sink: &mut S) {
        let health_checked = self.health_checked();
        let spec = self
            .recovery
            .as_ref()
            .expect("recovery event without a spec");
        let mut dark = 0usize;
        for op in &spec.ops {
            let Some(g) = op.logical_gpu else { continue };
            for (si, s) in self.servers.iter_mut().enumerate() {
                if s.gpu == g && !s.dark {
                    s.dark = true;
                    dark += 1;
                    self.dark_since[si] = t;
                    // Health-checked routing: a dark server is drained —
                    // new arrivals go to its healthy siblings instead of
                    // queueing on a corpse.
                    if health_checked {
                        if let Some(r) = self.routers[s.service].as_mut() {
                            r.set_healthy(s.slot, false);
                        }
                    }
                }
            }
        }
        if S::ENABLED {
            sink.emit(
                TraceEvent::instant("recovery-begin", "recovery", t.micros())
                    .pid(PID_SERVE)
                    .arg_u64("dark_servers", dark as u64)
                    .arg_u64("ops", spec.ops.len() as u64),
            );
        }
        let timeline = recovery_timeline(spec, t, sink);
        let mut last = t + SimTime::from_ms(spec.control_plane_ms);
        for (i, ready) in timeline.iter().enumerate() {
            self.q.schedule(
                *ready,
                ev(TAG_GPU_RECOVERED, i as u64, self.generation & B_MASK),
            );
            last = last.max(*ready);
        }
        self.recovery_began = Some((t, dark, last));
    }

    /// Recovery op `op` finished: light its GPU up.
    fn on_gpu_recovered<S: TraceSink>(&mut self, t: SimTime, op: usize, sink: &mut S) {
        let spec = self
            .recovery
            .as_ref()
            .expect("recovery event without a spec");
        let Some(g) = spec.ops[op].logical_gpu else {
            return;
        };
        let health_checked = self.health_checked();
        for si in 0..self.servers.len() {
            if self.servers[si].gpu != g || !self.servers[si].dark {
                continue;
            }
            self.servers[si].dark = false;
            if S::ENABLED {
                // Close the server's dark window: capacity was offline from
                // recovery-begin to now.
                let since = self.dark_since[si];
                sink.emit(
                    TraceEvent::span("dark", "recovery", since.micros(), spec_dur(since, t))
                        .pid(PID_SERVE)
                        .tid(si as u32)
                        .arg_u64("gpu", g as u64),
                );
                sink.emit(
                    TraceEvent::instant("live", "recovery", t.micros())
                        .pid(PID_SERVE)
                        .tid(si as u32)
                        .arg_u64("gpu", g as u64),
                );
            }
            // Re-admit to health-checked routing: credit accumulated while
            // drained, so the recovered server catches up on its fair share.
            if health_checked {
                let s = &self.servers[si];
                if let Some(r) = self.routers[s.service].as_mut() {
                    r.set_healthy(s.slot, true);
                }
            }
            self.try_start(si, sink);
        }
    }

    /// Attempt timeout: pull the request (and its hedge twin) out of the
    /// queues, then retry if the attempt cap and the cluster-wide retry
    /// budget both allow — else give up.
    fn on_timeout<S: TraceSink>(&mut self, t: SimTime, a: usize, b: usize, sink: &mut S) {
        let in_window = self.in_window(t);
        let rs = self.res.as_mut().expect("resilience event without state");
        if !rs.epoch_current(a, b) {
            return; // already launched / completed / retired
        }
        let rid = a as u32;
        let (service, primary, hedge) = {
            let r = &rs.reqs[a];
            (r.service as usize, r.server as usize, r.hedge_server)
        };
        remove_rid(&mut self.servers[primary].queue, rid);
        if hedge >= 0 {
            remove_rid(&mut self.servers[hedge as usize].queue, rid);
        }
        if in_window {
            rs.timeouts[service] += 1;
        }
        if S::ENABLED {
            sink.emit(
                TraceEvent::instant("timeout", "resilience", t.micros())
                    .pid(PID_SERVE)
                    .tid(primary as u32)
                    .arg_u64("service", u64::from(self.specs[service].id)),
            );
        }
        let attempts = {
            let r = &mut rs.reqs[a];
            r.epoch = r.epoch.wrapping_add(1);
            r.hedge_server = -1;
            r.attempts
        };
        let can_retry = attempts < rs.spec.max_retries;
        // The budget is only consulted for retries that would actually
        // happen — a drained bucket is what breaks the metastable feedback
        // loop under overload.
        let admitted = can_retry && rs.budget.as_mut().is_none_or(|bk| bk.admit(t));
        if admitted {
            let mut delay_ms =
                rs.spec.backoff_base_ms * rs.spec.backoff_multiplier.powi(attempts as i32);
            if rs.spec.jitter > 0.0 {
                // Draw only when configured: zero-jitter runs share the
                // no-resilience RNG state bit-exactly.
                delay_ms *= 1.0 + rs.spec.jitter * rs.rng.uniform();
            }
            let fire = t + SimTime::from_ms(delay_ms);
            if fire <= self.win_end {
                let epoch = u64::from(rs.reqs[a].epoch) & B_MASK;
                self.q.schedule(fire, ev(TAG_RETRY, u64::from(rid), epoch));
            } else {
                rs.free_req(rid);
            }
        } else {
            rs.free_req(rid);
        }
    }

    /// Backoff expired: re-route the request as a fresh attempt (sheddable
    /// like any arrival — a shed retry is a shed, not a retry).
    fn on_retry<S: TraceSink>(&mut self, t: SimTime, a: usize, b: usize, sink: &mut S) {
        let in_window = self.in_window(t);
        let Some(rs) = self.res.as_mut() else { return };
        if !rs.epoch_current(a, b) {
            return;
        }
        let rid = a as u32;
        let service = rs.reqs[a].service as usize;
        let Some(router) = self.routers[service].as_mut() else {
            rs.free_req(rid);
            return;
        };
        let sidx = self.service_servers[service][router.route()] as usize;
        let depth = rs.spec.shed_queue_depth as usize;
        if depth > 0 && self.servers[sidx].queue.len() >= depth {
            if in_window {
                rs.shed[service] += 1;
            }
            if S::ENABLED {
                sink.emit(
                    TraceEvent::instant("shed", "resilience", t.micros())
                        .pid(PID_SERVE)
                        .tid(sidx as u32)
                        .arg_u64("service", u64::from(self.specs[service].id)),
                );
            }
            rs.free_req(rid);
            return;
        }
        {
            let r = &mut rs.reqs[a];
            r.attempts += 1;
            r.server = sidx as u32;
        }
        if in_window {
            rs.retries[service] += 1;
        }
        if S::ENABLED {
            sink.emit(
                TraceEvent::instant("retry", "resilience", t.micros())
                    .pid(PID_SERVE)
                    .tid(sidx as u32)
                    .arg_u64("service", u64::from(self.specs[service].id)),
            );
        }
        // Re-arm the attempt's timeout and hedge against the epoch set at
        // the timeout that spawned this retry.
        let epoch = u64::from(rs.reqs[a].epoch) & B_MASK;
        if rs.spec.timeout_ms > 0.0 {
            let class = rs.reqs[a].class as usize;
            let fire = t + self.res_timeout[self.cbase[service] + class];
            if fire <= self.win_end {
                self.q
                    .schedule(fire, ev(TAG_TIMEOUT, u64::from(rid), epoch));
            }
        }
        if rs.spec.hedge_quantile > 0.0 {
            let fire = t + hedge_delay(
                &self.latency[service],
                &self.specs[service],
                rs.spec.hedge_quantile,
            );
            if fire <= self.win_end {
                self.q.schedule(fire, ev(TAG_HEDGE, u64::from(rid), epoch));
            }
        }
        self.servers[sidx].queue.push_back((t, rid));
        self.try_start(sidx, sink);
    }

    /// Hedge-fire: the attempt outlived the service's p-quantile latency;
    /// enqueue a second copy on another server. First copy to launch wins;
    /// `launch` cancels the twin. Epoch discipline guarantees at most one
    /// pending hedge per attempt.
    fn on_hedge<S: TraceSink>(&mut self, t: SimTime, a: usize, b: usize, sink: &mut S) {
        let in_window = self.in_window(t);
        let Some(rs) = self.res.as_mut() else { return };
        if !rs.epoch_current(a, b) {
            return;
        }
        let rid = a as u32;
        let (service, primary) = {
            let r = &rs.reqs[a];
            (r.service as usize, r.server as usize)
        };
        let Some(router) = self.routers[service].as_mut() else {
            return;
        };
        let sidx = self.service_servers[service][router.route()] as usize;
        if sidx == primary {
            // No alternative server drawn — nothing to hedge to.
            return;
        }
        let depth = rs.spec.shed_queue_depth as usize;
        if depth > 0 && self.servers[sidx].queue.len() >= depth {
            return; // hedges are best-effort: full queue, no copy
        }
        rs.reqs[a].hedge_server = sidx as i64;
        if in_window {
            rs.hedges[service] += 1;
        }
        if S::ENABLED {
            sink.emit(
                TraceEvent::instant("hedge", "resilience", t.micros())
                    .pid(PID_SERVE)
                    .tid(sidx as u32)
                    .arg_u64("service", u64::from(self.specs[service].id)),
            );
        }
        self.servers[sidx].queue.push_back((t, rid));
        self.try_start(sidx, sink);
    }

    /// Launch one batch of `size` on `server` (caller checked feasibility).
    ///
    /// With a resilience policy, launching is the **commit point** of every
    /// drafted request: its epoch bumps (pending timeout/hedge events go
    /// stale) and, for hedged requests, first-wins cancellation pulls the
    /// twin copy out of the other server's queue — exactly one copy ever
    /// executes.
    #[inline]
    fn launch<S: TraceSink>(&mut self, server: usize, size: u32, sink: &mut S) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Batch::default());
            (self.slab.len() - 1) as u32
        }) as usize;
        let service = self.servers[server].service;
        let batch = &mut self.slab[id];
        batch.members.clear();
        batch
            .members
            .extend(self.servers[server].queue.drain(..size as usize));
        batch.service = service as u32;
        batch.generation = self.generation;
        if let Some(rs) = self.res.as_mut().filter(|rs| rs.tracks_requests()) {
            for &(_, rid) in &self.slab[id].members {
                let r = &mut rs.reqs[rid as usize];
                r.epoch = r.epoch.wrapping_add(1);
                let hedge_server = r.hedge_server;
                let primary = r.server as usize;
                r.hedge_server = -1;
                r.server = server as u32;
                if hedge_server >= 0 {
                    // First-wins: cancel whichever copy is still queued.
                    let hedge_won = hedge_server as usize == server;
                    let twin = if hedge_won {
                        primary
                    } else {
                        hedge_server as usize
                    };
                    remove_rid(&mut self.servers[twin].queue, rid);
                    if hedge_won {
                        let now = self.q.now();
                        if now >= self.win_start && now < self.win_end {
                            rs.hedge_wins[service] += 1;
                        }
                        if S::ENABLED {
                            sink.emit(
                                TraceEvent::instant("hedge-win", "resilience", now.micros())
                                    .pid(PID_SERVE)
                                    .tid(server as u32)
                                    .arg_u64("service", u64::from(self.specs[service].id)),
                            );
                        }
                    }
                }
            }
        }
        self.servers[server].busy += 1;
        let n_busy = self.servers[server].busy;
        let (cycle, comp_us) = batch_times_memo(&mut self.servers, server, size, n_busy);
        self.slab[id].comp_us = comp_us;
        if S::ENABLED {
            let now = self.q.now();
            // Batch formation: from the oldest member's arrival to launch.
            let head = self.slab[id]
                .members
                .iter()
                .map(|&(t, _)| t)
                .min()
                .unwrap_or(now);
            sink.emit(
                TraceEvent::span("batch-form", "batch", head.micros(), spec_dur(head, now))
                    .pid(PID_SERVE)
                    .tid(server as u32)
                    .arg_u64("service", service as u64)
                    .arg_u64("size", u64::from(size)),
            );
            sink.emit(
                TraceEvent::span("execute", "batch", now.micros(), cycle.micros())
                    .pid(PID_SERVE)
                    .tid(server as u32)
                    .arg_u64("service", service as u64)
                    .arg_u64("size", u64::from(size))
                    .arg_u64("n_busy", u64::from(n_busy)),
            );
        }
        self.q
            .schedule_in(cycle, ev(TAG_DONE, id as u64, server as u64));
    }

    /// Adaptive batching: launch full batches eagerly; for a partial queue,
    /// launch once the head request's deadline expires, else arm a
    /// deadline. Dark servers (recovery outstanding on their GPU) launch
    /// nothing — their queues drain when the GPU's recovery op completes.
    #[inline]
    fn try_start<S: TraceSink>(&mut self, server: usize, sink: &mut S) {
        loop {
            let s = &self.servers[server];
            if s.dark || s.busy >= s.procs {
                return;
            }
            let queued = s.queue.len();
            let full = s.batch;
            if queued >= full as usize {
                self.launch(server, full, sink);
                continue;
            }
            if queued == 0 {
                return;
            }
            let (head, x) = *s.queue.front().expect("non-empty");
            // Queue entries carry the ingress class directly, or (when the
            // resilience policy tracks requests) a request id the class is
            // looked up through.
            let class = match self.res.as_ref().filter(|rs| rs.tracks_requests()) {
                Some(rs) => rs.reqs[x as usize].class,
                None => x,
            };
            let timeout = s
                .class_timeouts
                .get(class as usize)
                .copied()
                .unwrap_or(s.batch_timeout);
            let deadline = head + timeout;
            if self.q.now() >= deadline {
                let size = (queued as u32).min(full);
                self.launch(server, size, sink);
            } else if s.deadline_booked != deadline {
                self.servers[server].deadline_booked = deadline;
                self.q.schedule(
                    deadline,
                    ev(TAG_DEADLINE, self.generation & A_MASK, server as u64),
                );
            }
            return;
        }
    }

    /// Swap the deployment (and service set) under the live request table.
    ///
    /// Queued requests are parked, the fabric is rebuilt under a new
    /// generation, recovery (if any) begins now — servers on the GPUs it
    /// names go dark until their measured re-flash/copy completes — and the
    /// parked requests are re-routed through the new routers in arrival
    /// order (a service left without capacity loses them). In-flight
    /// batches complete and count; their capacity dies with their old
    /// servers. Services in `specs` beyond the current ones are appended
    /// with one local ingress class at their spec rate.
    ///
    /// # Panics
    /// A `specs` list that drops or reorders existing services, or a
    /// resilience policy with timeouts or hedging (their pending events
    /// address servers by index).
    pub(crate) fn reconfigure<S: TraceSink>(
        &mut self,
        deployment: &Deployment,
        specs: Vec<ServiceSpec>,
        recovery: Option<&RecoverySpec>,
        sink: &mut S,
    ) {
        let old_n = self.specs.len();
        assert!(
            specs.len() >= old_n
                && specs
                    .iter()
                    .zip(&self.specs)
                    .all(|(new, old)| new.id == old.id),
            "reconfigure must preserve existing services (append-only)"
        );
        // Without timeouts or hedging no event addresses a request by its
        // server, and queue entries are plain `(arrival, class)` pairs.
        assert!(
            self.res.as_ref().is_none_or(|rs| !rs.tracks_requests()),
            "reconfigure under a timeout or hedge policy is unsupported"
        );
        // Park every queued request (in-flight batches ride the slab).
        let mut parked: Vec<(SimTime, usize, u32)> = Vec::new();
        for s in &mut self.servers {
            let service = s.service;
            parked.extend(s.queue.drain(..).map(|(t, x)| (t, service, x)));
        }
        parked.sort_by_key(|&(t, _, _)| t);

        self.generation += 1;
        for spec in &specs[old_n..] {
            self.add_service(*spec);
        }
        self.specs = specs;
        self.rebuild_fabric(deployment);
        self.recovery = recovery.filter(|r| !r.is_empty()).cloned();
        if self.recovery.is_some() {
            self.begin_recovery(self.q.now(), sink);
        }

        for (t, service, class) in parked {
            let Some(router) = self.routers[service].as_mut() else {
                continue; // no capacity anywhere: the request is lost
            };
            let sidx = self.service_servers[service][router.route()] as usize;
            self.servers[sidx].queue.push_back((t, class));
        }
        for si in 0..self.servers.len() {
            self.try_start(si, sink);
        }
        if S::ENABLED {
            sink.emit(
                TraceEvent::instant("reconfigure", "parvad", self.q.now().micros())
                    .pid(PID_SERVE)
                    .arg_u64("generation", self.generation)
                    .arg_u64("gpus", deployment.gpu_count() as u64)
                    .arg_u64("servers", self.servers.len() as u64),
            );
        }
    }

    /// Append one service with a single local ingress class at its spec
    /// rate, and book its first arrival.
    fn add_service(&mut self, spec: ServiceSpec) {
        let i = self.specs.len();
        self.specs.push(spec);
        for counter in [
            &mut self.offered,
            &mut self.completed,
            &mut self.batches,
            &mut self.violated,
            &mut self.within_slo,
            &mut self.rejected,
            &mut self.class_offered,
            &mut self.class_completed,
            &mut self.class_within,
        ] {
            counter.push(0);
        }
        self.latency.push(LatencyHistogram::new());
        self.class_latency.push(LatencyHistogram::new());
        if let Some(rs) = self.res.as_mut() {
            rs.add_service();
        }
        self.svc_tenant_idx.push(tenant_index(&self.tenants, &spec));
        self.cbase.push(self.cbase[i] + 1);
        self.single.push(true);
        self.class_net.push(0.0);
        self.class_base_rate.push(spec.request_rate_rps);
        self.class_rate.push(spec.request_rate_rps);
        self.arrival_rng
            .push(RngStream::new(class_seed(self.seed, 0), u64::from(spec.id)));
        self.svc_proc.push(self.arrivals);
        self.poisson &= matches!(self.arrivals, ArrivalProcess::Poisson);
        self.bursting.push(false);
        self.phase_until.push(SimTime::ZERO);
        self.phase_rng.push(phase_stream(self.seed, spec.id));
        self.seed_arrival(i, 0);
    }

    /// Scale every service's offered load: class rates become
    /// `configured × per_service[service]` (missing entries: 1) from each
    /// class's next arrival draw on.
    ///
    /// # Panics
    /// Non-positive or non-finite multipliers (a dead arrival stream can
    /// never restart itself).
    pub(crate) fn set_demand_multiplier(&mut self, per_service: &[f64]) {
        for i in 0..self.specs.len() {
            let m = per_service.get(i).copied().unwrap_or(1.0);
            assert!(m.is_finite() && m > 0.0, "demand multiplier must be > 0");
            for f in self.cbase[i]..self.cbase[i + 1] {
                self.class_rate[f] = self.class_base_rate[f] * m;
            }
        }
    }

    /// Current simulation time.
    pub(crate) fn now(&self) -> SimTime {
        self.q.now()
    }

    /// The event queue (for its counters).
    pub(crate) fn queue(&self) -> &CalendarQueue {
        &self.q
    }

    /// The services served, in engine order.
    pub(crate) fn specs(&self) -> &[ServiceSpec] {
        &self.specs
    }

    /// Servers currently dark (recovery outstanding on their GPU).
    pub(crate) fn dark_servers(&self) -> usize {
        self.servers.iter().filter(|s| s.dark).count()
    }

    /// Requests waiting in server queues.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.servers.iter().map(|s| s.queue.len() as u64).sum()
    }

    /// Servers of service `i`.
    pub(crate) fn replicas(&self, i: usize) -> usize {
        self.service_servers[i].len()
    }

    /// In-window `(offered, completed, within_slo)` of service `i`.
    pub(crate) fn totals(&self, i: usize) -> (u64, u64, u64) {
        (self.offered[i], self.completed[i], self.within_slo[i])
    }

    /// In-window latency distribution of every service.
    pub(crate) fn latency(&self) -> &[LatencyHistogram] {
        &self.latency
    }

    /// Deliver the gauge rows for one sampling boundary: an aggregate
    /// `tick` row (queue depth, in-flight batches, GPU busy fraction, dark
    /// servers) followed by one `service` row per service with its
    /// cumulative in-window SLO attainment, and — only when tenants are
    /// configured — a `tenant` column on the service rows plus one `tenant`
    /// row per tenant with its admission/attainment rollup. All values
    /// derive from simulation state only, so sampled series are
    /// byte-identical across runs, and tenant-free runs emit rows
    /// byte-identical to the pre-tenant schema.
    fn sample_gauges<S: TraceSink>(&self, sink: &mut S, ts_us: u64) {
        let t_ms = ts_us as f64 / 1_000.0;
        let mut queue_depth = 0u64;
        let mut inflight = 0u64;
        let mut busy_procs = 0u64;
        let mut total_procs = 0u64;
        let mut dark = 0u64;
        for s in &self.servers {
            queue_depth += s.queue.len() as u64;
            inflight += u64::from(s.busy);
            busy_procs += u64::from(s.busy);
            total_procs += u64::from(s.procs);
            dark += u64::from(s.dark);
        }
        let all_completed: u64 = self.completed.iter().sum();
        let all_within: u64 = self.within_slo.iter().sum();
        let attainment = |within: u64, done: u64| {
            if done == 0 {
                1.0
            } else {
                within as f64 / done as f64
            }
        };
        let mut tick = Row::new()
            .str("kind", "tick")
            .f64("t_ms", t_ms)
            .u64("queue_depth", queue_depth)
            .u64("inflight_batches", inflight)
            .f64(
                "gpu_busy_frac",
                if total_procs == 0 {
                    0.0
                } else {
                    busy_procs as f64 / total_procs as f64
                },
            )
            .u64("dark_servers", dark)
            .u64("offered", self.offered.iter().sum())
            .u64("completed", all_completed)
            .u64("within_slo", all_within)
            .f64("slo_attainment", attainment(all_within, all_completed));
        // Resilience columns ride the tick row only when a policy is
        // active, so resilience-free runs keep the pre-resilience gauge
        // schema byte-exactly. Values are cumulative in-window counts, like
        // the offered/completed columns beside them.
        if let Some(rs) = self.res.as_ref() {
            tick = tick
                .u64("timeouts", rs.timeouts.iter().sum())
                .u64("retries", rs.retries.iter().sum())
                .u64("shed", rs.shed.iter().sum())
                .u64("hedges", rs.hedges.iter().sum())
                .u64("hedge_wins", rs.hedge_wins.iter().sum());
        }
        sink.sample(tick);
        let has_tenants = !self.tenants.is_empty();
        for (i, spec) in self.specs.iter().enumerate() {
            let mut row = Row::new()
                .str("kind", "service")
                .f64("t_ms", t_ms)
                .u64("service", u64::from(spec.id))
                .u64("offered", self.offered[i])
                .u64("completed", self.completed[i])
                .u64("within_slo", self.within_slo[i])
                .f64(
                    "slo_attainment",
                    attainment(self.within_slo[i], self.completed[i]),
                );
            if has_tenants {
                row = row.u64("tenant", u64::from(spec.tenant));
            }
            sink.sample(row);
        }
        for t in &self.tenants {
            let mut t_offered = 0u64;
            let mut t_rejected = 0u64;
            let mut t_completed = 0u64;
            let mut t_within = 0u64;
            for (i, spec) in self.specs.iter().enumerate() {
                if spec.tenant == t.id {
                    t_offered += self.offered[i];
                    t_rejected += self.rejected[i];
                    t_completed += self.completed[i];
                    t_within += self.within_slo[i];
                }
            }
            sink.sample(
                Row::new()
                    .str("kind", "tenant")
                    .f64("t_ms", t_ms)
                    .u64("tenant", u64::from(t.id))
                    .u64("offered", t_offered)
                    .u64("rejected", t_rejected)
                    .u64("completed", t_completed)
                    .u64("within_slo", t_within)
                    .f64("slo_attainment", attainment(t_within, t_completed)),
            );
        }
        sink.advance_sampler();
    }

    /// Close a measurement window run to `win_end` and build its report.
    ///
    /// The event queue can drain before `win_end`, so the remaining gauge
    /// boundaries are delivered from final state first. A recovery whose
    /// begin lands in the drain tail `(win_end, sim_end]` never fired in
    /// the loop, but its report was always fully determined at the begin
    /// event — the timeline is booked analytically there, and no server
    /// can already be dark (the one begin event is this one) — so it is
    /// reproduced exactly as a drained loop would have computed it.
    pub(crate) fn into_report<S: TraceSink>(
        mut self,
        duration_s: f64,
        sim_end: SimTime,
        sink: &mut S,
    ) -> ServingReport {
        if S::ENABLED {
            while sink.next_sample_us() <= self.win_end.micros() {
                let ts = sink.next_sample_us();
                self.sample_gauges(sink, ts);
            }
        }
        if self.recovery_began.is_none() {
            if let Some(spec) = self.recovery.as_ref() {
                let fire = SimTime::from_ms(spec.start_ms);
                if fire > self.win_end && fire <= sim_end {
                    let mut dark = 0usize;
                    let mut darkened = vec![false; self.servers.len()];
                    for op in &spec.ops {
                        let Some(g) = op.logical_gpu else { continue };
                        for (si, s) in self.servers.iter().enumerate() {
                            if s.gpu == g && !darkened[si] {
                                darkened[si] = true;
                                dark += 1;
                            }
                        }
                    }
                    let timeline = recovery_timeline(spec, fire, sink);
                    let mut last = fire + SimTime::from_ms(spec.control_plane_ms);
                    for ready in &timeline {
                        last = last.max(*ready);
                    }
                    self.recovery_began = Some((fire, dark, last));
                }
            }
        }

        let window_us = self.win_end.since(self.win_start).micros() as f64;
        let server_reports = self
            .servers
            .iter()
            .map(|s| ServerActivity {
                service_id: self.specs[s.service].id,
                sms: s.share.sms(),
                activity: (s.busy_comp_us as f64 / window_us).clamp(0.0, 1.0),
            })
            .collect();

        // Class rows first: single-class rows copy the service-level data
        // before the service rows take ownership of the histograms below;
        // multi-class rows move their own histograms out of the flat array.
        let mut class_reports = Vec::with_capacity(self.class_net.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let base = self.cbase[i];
            if self.single[i] {
                class_reports.push(ClassReport {
                    service_id: spec.id,
                    class: 0,
                    network_ms: self.class_net[base],
                    offered: self.offered[i],
                    completed: self.completed[i],
                    completed_within_slo: self.within_slo[i],
                    latency: self.latency[i].clone(),
                });
            } else {
                for f in base..self.cbase[i + 1] {
                    class_reports.push(ClassReport {
                        service_id: spec.id,
                        class: f - base,
                        network_ms: self.class_net[f],
                        offered: self.class_offered[f],
                        completed: self.class_completed[f],
                        completed_within_slo: self.class_within[f],
                        latency: std::mem::take(&mut self.class_latency[f]),
                    });
                }
            }
        }

        // Tenant rollups before the service rows take ownership of the
        // histograms: each tenant's row sums its services' counters and
        // merges their latency distributions. Empty when no tenants are
        // configured, which the report serializer omits entirely.
        let tenant_reports: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| {
                let mut t_offered = 0u64;
                let mut t_rejected = 0u64;
                let mut t_completed = 0u64;
                let mut t_within = 0u64;
                let mut hist = LatencyHistogram::new();
                for (i, spec) in self.specs.iter().enumerate() {
                    if spec.tenant == t.id {
                        t_offered += self.offered[i];
                        t_rejected += self.rejected[i];
                        t_completed += self.completed[i];
                        t_within += self.within_slo[i];
                        hist.merge(&self.latency[i]);
                    }
                }
                TenantReport {
                    tenant: t.id,
                    name: t.name.clone(),
                    offered: t_offered,
                    admitted: t_offered - t_rejected,
                    rejected: t_rejected,
                    completed: t_completed,
                    completed_within_slo: t_within,
                    latency: hist,
                }
            })
            .collect();

        let recovery = self.recovery_began.map(|(start, dark, last)| {
            let spec = self.recovery.as_ref().expect("a begun recovery has a spec");
            RecoverySimReport {
                started_ms: start.as_ms(),
                latency_ms: last.since(start).as_ms(),
                dark_servers: dark,
                reflashes_done: spec.ops.iter().filter(|o| o.reflash && !o.prepared).count(),
                copied_gib: spec.pending_copy_gib(),
                precopied_gib: spec.prepared_gib(),
            }
        });
        let res = self.res.as_ref();
        ServingReport {
            duration_s,
            services: self
                .specs
                .iter()
                .enumerate()
                .map(|(i, spec)| ServiceReport {
                    service_id: spec.id,
                    offered: self.offered[i],
                    completed: self.completed[i],
                    batches: self.batches[i],
                    violated_batches: self.violated[i],
                    completed_within_slo: self.within_slo[i],
                    latency: std::mem::take(&mut self.latency[i]),
                    rejected: self.rejected[i],
                    timeouts: res.map_or(0, |r| r.timeouts[i]),
                    retries: res.map_or(0, |r| r.retries[i]),
                    shed: res.map_or(0, |r| r.shed[i]),
                    hedges: res.map_or(0, |r| r.hedges[i]),
                    hedge_wins: res.map_or(0, |r| r.hedge_wins[i]),
                })
                .collect(),
            servers: server_reports,
            classes: class_reports,
            recovery,
            tenants: tenant_reports,
        }
    }
}

/// Index into `tenants` of the tenant `spec` is bound to (`None` for the
/// default tenant 0 or an unknown one).
fn tenant_index(tenants: &[Tenant], spec: &ServiceSpec) -> Option<usize> {
    if spec.tenant == 0 {
        None
    } else {
        tenants.iter().position(|t| t.id == spec.tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local shorthand for the builder chain.
    fn sim(
        d: &Deployment,
        specs: &[ServiceSpec],
        cfg: &ServingConfig,
    ) -> crate::report::ServingReport {
        crate::Simulation::new(d, specs).config(cfg).run()
    }

    fn sim_ingress(
        d: &Deployment,
        specs: &[ServiceSpec],
        ingress: &[Vec<IngressClass>],
        cfg: &ServingConfig,
    ) -> crate::report::ServingReport {
        crate::Simulation::new(d, specs)
            .ingress(ingress)
            .config(cfg)
            .run()
    }

    fn sim_recovery(
        d: &Deployment,
        specs: &[ServiceSpec],
        ingress: &[Vec<IngressClass>],
        recovery: Option<&RecoverySpec>,
        cfg: &ServingConfig,
    ) -> crate::report::ServingReport {
        crate::Simulation::new(d, specs)
            .ingress(ingress)
            .recovery_opt(recovery)
            .config(cfg)
            .run()
    }

    use parva_core::ParvaGpu;
    use parva_deploy::Scheduler;
    use parva_profile::ProfileBook;
    use parva_scenarios::Scenario;

    fn quick_config() -> ServingConfig {
        ServingConfig {
            warmup_s: 1.0,
            duration_s: 4.0,
            drain_s: 2.0,
            seed: 7,
            ..Default::default()
        }
    }

    fn parva_s2() -> (Deployment, Vec<ServiceSpec>) {
        let book = ProfileBook::builtin();
        let specs = Scenario::S2.services();
        let d = ParvaGpu::new(&book).schedule(&specs).unwrap();
        (d, specs)
    }

    #[test]
    fn parvagpu_s2_no_slo_violations() {
        let (d, specs) = parva_s2();
        let report = sim(&d, &specs, &quick_config());
        assert!(
            (report.overall_compliance_rate() - 1.0).abs() < 1e-9,
            "compliance {:.4}",
            report.overall_compliance_rate()
        );
    }

    #[test]
    fn parvagpu_s2_bounded_internal_slack() {
        // S2's configured demand (~17 GPCs) is padded to 3 full GPUs for 0%
        // fragmentation, which physically bounds slack from below at ~20%
        // on this substrate (see EXPERIMENTS.md); the paper's 3-5% regime
        // is reproduced at the larger scenarios (tested in end_to_end).
        let (d, specs) = parva_s2();
        let report = sim(&d, &specs, &quick_config());
        let slack = report.internal_slack();
        assert!(slack < 0.35, "slack {slack:.3} too high");
        assert!(slack >= 0.0);
    }

    #[test]
    fn conservation_laws() {
        let (d, specs) = parva_s2();
        let report = sim(&d, &specs, &quick_config());
        for s in &report.services {
            // Completions within the window may exceed window arrivals only
            // by what was queued at window start; bound loosely.
            assert!(s.completed <= s.offered + 1_000, "service {}", s.service_id);
            assert!(s.violated_batches <= s.batches);
            assert_eq!(s.latency.count(), s.completed);
        }
    }

    #[test]
    fn throughput_matches_offered_rate() {
        let (d, specs) = parva_s2();
        let report = sim(&d, &specs, &quick_config());
        for (spec, s) in specs.iter().zip(&report.services) {
            let measured_rps = s.completed as f64 / report.duration_s;
            assert!(
                measured_rps > spec.request_rate_rps * 0.85,
                "service {} served only {measured_rps:.0}/{:.0} req/s",
                spec.id,
                spec.request_rate_rps
            );
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let (d, specs) = parva_s2();
        let a = sim(&d, &specs, &quick_config());
        let b = sim(&d, &specs, &quick_config());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn different_seed_different_sample_path() {
        let (d, specs) = parva_s2();
        let a = sim(&d, &specs, &quick_config());
        let b = sim(
            &d,
            &specs,
            &ServingConfig {
                seed: 1234,
                ..quick_config()
            },
        );
        let oa: u64 = a.services.iter().map(|s| s.offered).sum();
        let ob: u64 = b.services.iter().map(|s| s.offered).sum();
        assert_ne!(oa, ob);
    }

    #[test]
    fn activities_bounded() {
        let (d, specs) = parva_s2();
        let report = sim(&d, &specs, &quick_config());
        for s in &report.servers {
            assert!((0.0..=1.0).contains(&s.activity));
            assert!(s.sms > 0.0);
        }
    }

    #[test]
    fn undersized_deployment_violates_slo() {
        // Serve S2's ResNet-50 (829 req/s) with a single 1-GPC segment of
        // roughly a third the capacity: the queue must blow through the SLO.
        use parva_deploy::{MigDeployment, Segment};
        use parva_mig::InstanceProfile;
        use parva_profile::Triplet;
        let triplet = Triplet::new(InstanceProfile::G1, 2, 1);
        let point = parva_perf::math::evaluate(
            parva_perf::Model::ResNet50,
            parva_perf::ComputeShare::Mig(InstanceProfile::G1),
            2,
            1,
        );
        let mut mig = MigDeployment::new();
        mig.place_first_fit(Segment {
            service_id: 0,
            model: parva_perf::Model::ResNet50,
            triplet,
            throughput_rps: point.throughput_rps,
            latency_ms: point.latency_ms,
        });
        assert!(point.throughput_rps < 500.0, "segment unexpectedly large");
        let real = vec![ServiceSpec::new(
            0,
            parva_perf::Model::ResNet50,
            829.0,
            205.0,
        )];
        let report = sim(&Deployment::Mig(mig), &real, &quick_config());
        assert!(
            report.overall_compliance_rate() < 0.9,
            "compliance {:.3} despite ~2× overload",
            report.overall_compliance_rate()
        );
    }

    /// `segments` 1-GPC ResNet-50 segments (~290 req/s each) against the
    /// full 829 req/s spec rate: the knob for overload factor in the
    /// resilience tests below.
    fn undersized_resnet(segments: usize) -> (Deployment, Vec<ServiceSpec>) {
        use parva_deploy::{MigDeployment, Segment};
        use parva_mig::InstanceProfile;
        use parva_profile::Triplet;
        let triplet = Triplet::new(InstanceProfile::G1, 2, 1);
        let point = parva_perf::math::evaluate(
            parva_perf::Model::ResNet50,
            parva_perf::ComputeShare::Mig(InstanceProfile::G1),
            2,
            1,
        );
        let mut mig = MigDeployment::new();
        for _ in 0..segments {
            mig.place_first_fit(Segment {
                service_id: 0,
                model: parva_perf::Model::ResNet50,
                triplet,
                throughput_rps: point.throughput_rps,
                latency_ms: point.latency_ms,
            });
        }
        let specs = vec![ServiceSpec::new(
            0,
            parva_perf::Model::ResNet50,
            829.0,
            205.0,
        )];
        (Deployment::Mig(mig), specs)
    }

    #[test]
    fn timeouts_fire_and_retry_budget_caps_amplification() {
        let (d, specs) = undersized_resnet(1);
        let policy = ResilienceSpec {
            timeout_ms: 205.0,
            max_retries: 3,
            retry_budget_rps: 50.0,
            health_checked: false,
            ..ResilienceSpec::default()
        };
        let report = crate::Simulation::new(&d, &specs)
            .resilience(&policy)
            .config(&quick_config())
            .run();
        let s = &report.services[0];
        assert!(s.timeouts > 0, "~3× overload never timed out");
        assert!(s.retries > 0, "budget admitted no retries");
        // The budget bound: rate × window plus one bucket of burst. This
        // is the whole point — timeouts may number in the thousands, but
        // retry *injection* cannot exceed the budget.
        assert!(
            (s.retries as f64) <= 50.0 * 4.0 + 50.0 + 1.0,
            "retries {} blow the 50 rps budget",
            s.retries
        );
        assert!(s.retries <= s.timeouts);
        let totals = report.resilience_totals().expect("non-zero counters");
        assert_eq!(totals.timeouts, s.timeouts);
        assert_eq!(totals.retries, s.retries);
    }

    #[test]
    fn unbudgeted_retries_amplify_far_beyond_budgeted() {
        let (d, specs) = undersized_resnet(1);
        let budgeted = ResilienceSpec {
            timeout_ms: 205.0,
            max_retries: 3,
            retry_budget_rps: 50.0,
            health_checked: false,
            ..ResilienceSpec::default()
        };
        let unbudgeted = ResilienceSpec {
            retry_budget_rps: 0.0,
            ..budgeted
        };
        let cfg = quick_config();
        let with_budget = crate::Simulation::new(&d, &specs)
            .resilience(&budgeted)
            .config(&cfg)
            .run();
        let without = crate::Simulation::new(&d, &specs)
            .resilience(&unbudgeted)
            .config(&cfg)
            .run();
        // Same seed, same overload: removing the budget lets every
        // timeout re-inject, so retry traffic explodes.
        assert!(
            without.services[0].retries > 4 * with_budget.services[0].retries,
            "unbudgeted {} vs budgeted {}",
            without.services[0].retries,
            with_budget.services[0].retries
        );
    }

    #[test]
    fn shedding_bounds_tail_latency_under_overload() {
        let (d, specs) = undersized_resnet(1);
        let policy = ResilienceSpec {
            shed_queue_depth: 32,
            health_checked: false,
            ..ResilienceSpec::default()
        };
        let cfg = quick_config();
        let shed = crate::Simulation::new(&d, &specs)
            .resilience(&policy)
            .config(&cfg)
            .run();
        let open = sim(&d, &specs, &cfg);
        let s = &shed.services[0];
        assert!(s.shed > 0, "overloaded server never shed");
        // A bounded queue bounds queueing delay: the shedding run's p99
        // must sit far below the unbounded run's.
        let shed_p99 = s.latency.quantile_ms(0.99);
        let open_p99 = open.services[0].latency.quantile_ms(0.99);
        assert!(
            shed_p99 < open_p99 / 2.0,
            "shed p99 {shed_p99:.0} ms vs open {open_p99:.0} ms"
        );
    }

    #[test]
    fn hedges_fire_under_queueing_and_first_win_cancels_twin() {
        // ~10% overload across 3 segments: enough queueing for hedges to
        // fire, enough capacity for hedge copies to launch and win.
        let (d, specs) = undersized_resnet(3);
        let policy = ResilienceSpec {
            hedge_quantile: 0.5,
            health_checked: false,
            ..ResilienceSpec::default()
        };
        let report = crate::Simulation::new(&d, &specs)
            .resilience(&policy)
            .config(&quick_config())
            .run();
        let s = &report.services[0];
        assert!(s.hedges > 0, "no hedges under sustained queueing");
        assert!(s.hedge_wins > 0, "a hedge copy never launched first");
        assert!(s.hedge_wins <= s.hedges);
        // First-wins cancellation: every request completes at most once.
        assert!(
            s.completed <= s.offered + 100,
            "completed {} vs offered {} — hedges double-counted?",
            s.completed,
            s.offered
        );
    }

    #[test]
    fn health_checked_routing_improves_attainment_during_recovery() {
        let (d, specs) = parva_s2();
        // In the S2 MIG layout service 1 is the only multi-segment
        // service (one segment on GPU 1, one on GPU 2) — the only
        // service with a healthy sibling to drain toward. Dark GPU 1
        // mid-window; recovery holds it down for seconds.
        let recovery = RecoverySpec {
            start_ms: 1500.0,
            control_plane_ms: 150.0,
            reflash_ms: 2000.0,
            link_gib_per_s: 22.0,
            ops: vec![crate::recovery::RecoveryOp {
                node: 0,
                logical_gpu: Some(1),
                reflash: true,
                copy_gib: 24.0,
                prepared: false,
            }],
        };
        let cfg = quick_config();
        let health_on = ResilienceSpec {
            health_checked: true,
            ..ResilienceSpec::default()
        };
        let drained = crate::Simulation::new(&d, &specs)
            .recovery(&recovery)
            .resilience(&health_on)
            .config(&cfg)
            .run();
        let blind = crate::Simulation::new(&d, &specs)
            .recovery(&recovery)
            .config(&cfg)
            .run();
        // Requests routed around the dark segment complete within SLO;
        // requests queued on it blow their latency budget waiting.
        let att = |r: &crate::report::ServingReport| {
            let s = r.services.iter().find(|s| s.service_id == 1).unwrap();
            s.completed_within_slo as f64 / s.offered.max(1) as f64
        };
        assert!(
            att(&drained) > att(&blind),
            "health-checked {:.4} <= blind {:.4}",
            att(&drained),
            att(&blind)
        );
    }

    #[test]
    fn mmpp_preserves_mean_rate() {
        let (d, specs) = parva_s2();
        let cfg = ServingConfig {
            duration_s: 8.0,
            arrivals: ArrivalProcess::Mmpp {
                burst_factor: 4.0,
                mean_phase_s: 0.5,
            },
            ..quick_config()
        };
        let report = sim(&d, &specs, &cfg);
        let offered: f64 = report
            .services
            .iter()
            .map(|s| s.offered as f64)
            .sum::<f64>()
            / cfg.duration_s;
        let nominal: f64 = specs.iter().map(|s| s.request_rate_rps).sum();
        assert!(
            (offered - nominal).abs() / nominal < 0.15,
            "MMPP mean drifted: offered {offered:.0} vs nominal {nominal:.0}"
        );
    }

    #[test]
    fn bursts_fatten_the_latency_tail() {
        let (d, specs) = parva_s2();
        let calm = sim(&d, &specs, &quick_config());
        let bursty = sim(
            &d,
            &specs,
            &ServingConfig {
                arrivals: ArrivalProcess::Mmpp {
                    burst_factor: 6.0,
                    mean_phase_s: 0.5,
                },
                ..quick_config()
            },
        );
        // Aggregate p99 across services must degrade under bursts.
        let p99 = |r: &crate::report::ServingReport| {
            r.services
                .iter()
                .map(|s| s.latency.quantile_ms(0.99))
                .fold(0.0, f64::max)
        };
        assert!(
            p99(&bursty) > p99(&calm),
            "bursty p99 {:.1} ms not above calm {:.1} ms",
            p99(&bursty),
            p99(&calm)
        );
    }

    #[test]
    fn deterministic_arrivals_have_thinner_tails_than_poisson() {
        let (d, specs) = parva_s2();
        let poisson = sim(&d, &specs, &quick_config());
        let uniform = sim(
            &d,
            &specs,
            &ServingConfig {
                arrivals: ArrivalProcess::Deterministic,
                ..quick_config()
            },
        );
        let p99_sum = |r: &crate::report::ServingReport| {
            r.services
                .iter()
                .map(|s| s.latency.quantile_ms(0.99))
                .sum::<f64>()
        };
        assert!(p99_sum(&uniform) <= p99_sum(&poisson) * 1.05);
        // And the offered counts are exact (rate × window ± rounding).
        for (spec, s) in specs.iter().zip(&uniform.services) {
            let expect = spec.request_rate_rps * 4.0;
            assert!((s.offered as f64 - expect).abs() <= 2.0, "svc {}", spec.id);
        }
    }

    #[test]
    fn mps_deployment_runs_with_interference() {
        let specs = Scenario::S2.services();
        let d = parva_baselines::Gpulet::new().schedule(&specs).unwrap();
        let report = sim(&d, &specs, &quick_config());
        // gpulet must at least broadly serve the load.
        let total: u64 = report.services.iter().map(|s| s.completed).sum();
        assert!(total > 0);
        // And cannot beat perfect compliance.
        assert!(report.overall_compliance_rate() <= 1.0);
    }

    #[test]
    fn explicit_local_class_matches_plain_simulate() {
        // One local class per service at the spec rate is the defaulting
        // rule; spelling it out must not change a single sample path.
        let (d, specs) = parva_s2();
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| vec![IngressClass::local(s.request_rate_rps)])
            .collect();
        let plain = sim(&d, &specs, &quick_config());
        let classed = sim_ingress(&d, &specs, &ingress, &quick_config());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&classed).unwrap()
        );
        assert_eq!(plain.classes.len(), specs.len());
        for c in &plain.classes {
            assert_eq!(c.network_ms, 0.0);
            assert_eq!(c.class, 0);
        }
    }

    #[test]
    fn class_totals_conserve_service_totals() {
        let (d, specs) = parva_s2();
        // Split every service 70/30 between a local and a remote class.
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| {
                vec![
                    IngressClass::local(s.request_rate_rps * 0.7),
                    IngressClass {
                        rate_rps: s.request_rate_rps * 0.3,
                        network_ms: 40.0,
                    },
                ]
            })
            .collect();
        let report = sim_ingress(&d, &specs, &ingress, &quick_config());
        for (spec, svc) in specs.iter().zip(&report.services) {
            let classes = report.classes_of(spec.id);
            assert_eq!(classes.len(), 2, "service {}", spec.id);
            let offered: u64 = classes.iter().map(|c| c.offered).sum();
            let completed: u64 = classes.iter().map(|c| c.completed).sum();
            let within: u64 = classes.iter().map(|c| c.completed_within_slo).sum();
            assert_eq!(offered, svc.offered);
            assert_eq!(completed, svc.completed);
            assert_eq!(within, svc.completed_within_slo);
            // Both classes actually carried traffic.
            assert!(classes.iter().all(|c| c.offered > 0));
        }
    }

    #[test]
    fn network_term_shifts_latency_and_costs_compliance() {
        // A remote class whose RTT eats most of the SLO budget must show an
        // RTT-shifted latency distribution and strictly worse compliance.
        let (d, specs) = parva_s2();
        let rtt = 150.0;
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| {
                vec![
                    IngressClass::local(s.request_rate_rps * 0.8),
                    IngressClass {
                        rate_rps: s.request_rate_rps * 0.2,
                        network_ms: rtt,
                    },
                ]
            })
            .collect();
        let report = sim_ingress(&d, &specs, &ingress, &quick_config());
        let mut remote_worse = 0usize;
        for spec in &specs {
            let classes = report.classes_of(spec.id);
            let (local, remote) = (classes[0], classes[1]);
            // The remote distribution sits at least one RTT up.
            assert!(
                remote.latency.quantile_ms(0.5) >= rtt,
                "service {}: remote p50 {:.1} below the RTT floor",
                spec.id,
                remote.latency.quantile_ms(0.5)
            );
            assert!(remote.latency.quantile_ms(0.99) > local.latency.quantile_ms(0.99));
            if remote.request_compliance_rate() < local.request_compliance_rate() {
                remote_worse += 1;
            }
        }
        // Services with SLOs near the RTT must lose compliance remotely
        // (S2 has several sub-220 ms SLOs; 150 ms leaves them < 70 ms of
        // queueing budget).
        assert!(remote_worse >= 3, "only {remote_worse} services degraded");
    }

    #[test]
    fn zero_rate_class_is_inert() {
        let (d, specs) = parva_s2();
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| {
                vec![
                    IngressClass::local(s.request_rate_rps),
                    IngressClass {
                        rate_rps: 0.0,
                        network_ms: 500.0,
                    },
                ]
            })
            .collect();
        let report = sim_ingress(&d, &specs, &ingress, &quick_config());
        for spec in &specs {
            let classes = report.classes_of(spec.id);
            assert_eq!(classes[1].offered, 0);
            assert_eq!(classes[1].completed, 0);
        }
    }

    fn recovery_spec(ops: Vec<crate::recovery::RecoveryOp>) -> RecoverySpec {
        RecoverySpec {
            start_ms: 1_000.0, // the window start of quick_config()
            control_plane_ms: 150.0,
            reflash_ms: 800.0,
            link_gib_per_s: 22.0,
            ops,
        }
    }

    fn op(
        node: usize,
        gpu: Option<usize>,
        reflash: bool,
        copy_gib: f64,
    ) -> crate::recovery::RecoveryOp {
        crate::recovery::RecoveryOp {
            node,
            logical_gpu: gpu,
            reflash,
            copy_gib,
            prepared: false,
        }
    }

    #[test]
    fn empty_recovery_is_bit_identical_to_plain() {
        let (d, specs) = parva_s2();
        let plain = sim(&d, &specs, &quick_config());
        let empty = recovery_spec(vec![]);
        let with = sim_recovery(&d, &specs, &[], Some(&empty), &quick_config());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&with).unwrap()
        );
        assert!(with.recovery.is_none());
    }

    #[test]
    fn dark_window_dips_and_recovery_is_measured() {
        let (d, specs) = parva_s2();
        let control = sim(&d, &specs, &quick_config());
        // Knock out GPUs 0 and 1 at window start: re-flash plus a hefty
        // weight copy each, both on the same node (serialized).
        let spec = recovery_spec(vec![op(0, Some(0), true, 8.0), op(0, Some(1), true, 8.0)]);
        let hit = sim_recovery(&d, &specs, &[], Some(&spec), &quick_config());
        let rec = hit.recovery.as_ref().expect("recovery simulated");
        assert!(rec.dark_servers > 0, "ops must darken servers");
        assert_eq!(rec.reflashes_done, 2);
        // Same node: the two re-flashes serialize, then both copies queue
        // on one PCIe link — the analytic floor is control + 1 re-flash +
        // one copy; the measured latency must sit above it and below the
        // fully-serialized ceiling.
        let copy_ms = 8.0 / 22.0 * 1_000.0;
        let floor = 150.0 + 800.0 + copy_ms;
        let ceiling = 150.0 + 2.0 * 800.0 + 2.0 * copy_ms + 1.0;
        assert!(
            rec.latency_ms >= floor - 1e-6 && rec.latency_ms <= ceiling,
            "latency {:.0} outside [{floor:.0}, {ceiling:.0}]",
            rec.latency_ms
        );
        // And the dip is real: compliance over the window drops below the
        // undisturbed run.
        assert!(
            hit.overall_request_compliance_rate() < control.overall_request_compliance_rate(),
            "dark window did not dip: {:.4} vs {:.4}",
            hit.overall_request_compliance_rate(),
            control.overall_request_compliance_rate()
        );
    }

    #[test]
    fn reflashes_serialize_per_node_but_not_across_nodes() {
        let same_node = recovery_spec(vec![
            op(0, Some(0), true, 0.0),
            op(0, Some(1), true, 0.0),
            op(0, None, true, 0.0),
        ]);
        let spread = recovery_spec(vec![
            op(0, Some(0), true, 0.0),
            op(1, Some(1), true, 0.0),
            op(2, None, true, 0.0),
        ]);
        let t0 = SimTime::from_ms(0.0);
        let serial = recovery_timeline(&same_node, t0, &mut parva_obs::NullSink);
        let parallel = recovery_timeline(&spread, t0, &mut parva_obs::NullSink);
        assert_eq!(
            serial.iter().max().copied().unwrap(),
            SimTime::from_ms(150.0 + 3.0 * 800.0)
        );
        assert_eq!(
            parallel.iter().max().copied().unwrap(),
            SimTime::from_ms(150.0 + 800.0)
        );
    }

    #[test]
    fn copies_queue_fifo_on_the_node_link() {
        // Two copies to one node: the second waits for the first.
        let spec = recovery_spec(vec![
            op(0, Some(0), false, 11.0),
            op(0, Some(1), false, 11.0),
        ]);
        let ready = recovery_timeline(&spec, SimTime::ZERO, &mut parva_obs::NullSink);
        let copy = SimTime::from_secs(11.0 / 22.0);
        assert_eq!(ready[0], SimTime::from_ms(150.0) + copy);
        assert_eq!(ready[1], SimTime::from_ms(150.0) + copy + copy);
    }

    #[test]
    fn prepared_ops_cost_only_the_control_plane() {
        let (d, specs) = parva_s2();
        let spec = recovery_spec(vec![op(0, Some(0), true, 8.0), op(0, Some(1), true, 8.0)]);
        let cold = sim_recovery(&d, &specs, &[], Some(&spec), &quick_config());
        let warm_spec = spec.clone().prepared();
        let warm = sim_recovery(&d, &specs, &[], Some(&warm_spec), &quick_config());
        let (cold_rec, warm_rec) = (
            cold.recovery.clone().unwrap(),
            warm.recovery.clone().unwrap(),
        );
        assert!((warm_rec.latency_ms - 150.0).abs() < 1e-9);
        assert!(warm_rec.latency_ms < cold_rec.latency_ms);
        assert_eq!(warm_rec.reflashes_done, 0);
        assert_eq!(warm_rec.copied_gib, 0.0);
        assert!((warm_rec.precopied_gib - 16.0).abs() < 1e-9);
        // Pre-copy strictly shrinks the measured dip.
        assert!(
            warm.overall_request_compliance_rate() >= cold.overall_request_compliance_rate(),
            "prepared {:.4} vs cold {:.4}",
            warm.overall_request_compliance_rate(),
            cold.overall_request_compliance_rate()
        );
    }

    /// One single-process ResNet-50 MIG server of `profile` and `batch` for
    /// a service at `rate_rps` under a 400 ms SLO.
    fn resnet_server(
        profile: parva_mig::InstanceProfile,
        batch: u32,
        rate_rps: f64,
    ) -> (Deployment, Vec<ServiceSpec>) {
        use parva_deploy::{MigDeployment, Segment};
        let point =
            parva_perf::math::evaluate(Model::ResNet50, ComputeShare::Mig(profile), batch, 1);
        let mut mig = MigDeployment::new();
        mig.place_first_fit(Segment {
            service_id: 0,
            model: Model::ResNet50,
            triplet: parva_profile::Triplet::new(profile, batch, 1),
            throughput_rps: point.throughput_rps,
            latency_ms: point.latency_ms,
        });
        let specs = vec![ServiceSpec::new(0, Model::ResNet50, rate_rps, 400.0)];
        (Deployment::Mig(mig), specs)
    }

    /// One 7g server with batch 32 at 100 req/s: about 20 requests arrive
    /// per batching timeout, so no batch ever fills and every launch waits
    /// out a deadline.
    fn partial_batch_fixture() -> (Deployment, Vec<ServiceSpec>) {
        resnet_server(parva_mig::InstanceProfile::G7, 32, 100.0)
    }

    #[test]
    fn remote_class_deadline_subtracts_network_budget() {
        // A low-rate service whose batches never fill is deadline-
        // dominated: every request waits out the batching timeout. The old
        // batcher held remote requests for the full SLO/2 queue budget
        // although their RTT had already spent most of it; the fix launches
        // them once their *residual* budget expires. Old behavior is
        // exactly a zero-RTT class with the RTT added after the fact, so
        // compare against that.
        let (d, specs) = resnet_server(parva_mig::InstanceProfile::G2, 8, 20.0);
        let rtt = 150.0;
        let charged = vec![vec![
            IngressClass::local(10.0),
            IngressClass {
                rate_rps: 10.0,
                network_ms: rtt,
            },
        ]];
        let uncharged = vec![vec![
            IngressClass::local(10.0),
            IngressClass {
                rate_rps: 10.0,
                network_ms: 0.0,
            },
        ]];
        let new = sim_ingress(&d, &specs, &charged, &quick_config());
        let old = sim_ingress(&d, &specs, &uncharged, &quick_config());
        let remote_new = new.classes_of(0)[1].latency.quantile_ms(0.99);
        let remote_old = old.classes_of(0)[1].latency.quantile_ms(0.99) + rtt;
        assert!(
            remote_new < remote_old - rtt * 0.2,
            "remote p99 {remote_new:.0} not well below old behavior {remote_old:.0}"
        );
        // The mean is exact (no histogram bucketing): the residual-budget
        // deadline must shave a solid slice of the RTT off every
        // deadline-dominated remote request.
        let mean_new = new.classes_of(0)[1].latency.mean_ms();
        let mean_old = old.classes_of(0)[1].latency.mean_ms() + rtt;
        assert!(
            mean_new < mean_old - rtt * 0.2,
            "remote mean {mean_new:.1} not well below old behavior {mean_old:.1}"
        );
        // And remote compliance benefits too.
        assert!(
            new.classes_of(0)[1].request_compliance_rate()
                >= old.classes_of(0)[1].request_compliance_rate() - 1e-9
        );
    }

    #[test]
    fn partial_batches_book_one_deadline_per_server() {
        // Every arrival into a partial queue re-derives the same head
        // deadline; booking it each time would grow pending events with the
        // arrivals inside one batch timeout (25 at peak here). One booking
        // per server bounds the queue by an arrival, a deadline and a
        // completion per server.
        let (d, specs) = partial_batch_fixture();
        let cfg = quick_config();
        let sim = crate::Simulation::new(&d, &specs).config(&cfg);
        let end = SimTime::from_secs(cfg.warmup_s + cfg.duration_s);
        let mut engine = Engine::new(&sim, SimTime::from_secs(cfg.warmup_s), end, 0);
        engine.run_until(end, &mut parva_obs::NullSink);
        let (batches, completed) = (engine.batches[0], engine.completed[0]);
        assert!(batches >= 10, "only {batches} batches");
        assert!(
            completed < batches * 32,
            "{completed} requests in {batches} batches: some batch filled"
        );
        let servers = engine.servers.len();
        let peak = engine.queue().peak_pending();
        assert!(
            peak <= 3 * servers,
            "{peak} events pending at peak for {servers} server(s)"
        );
    }

    #[test]
    fn reconfigure_launches_parked_partial_batches_at_their_deadlines() {
        // A reconfigure builds servers with no deadline booked: the partial
        // batch it parks and re-routes must still launch when its head's
        // batching timeout expires, not wait for the batch to fill.
        let (d, specs) = partial_batch_fixture();
        let sim = crate::Simulation::new(&d, &specs).config(&quick_config());
        let mut engine = Engine::new(&sim, SimTime::ZERO, SimTime(u64::MAX), 1_000);
        let step =
            |engine: &mut Engine| engine.run_until(SimTime(u64::MAX), &mut parva_obs::NullSink);
        // Past warm-up, to a boundary where a partial batch waits on an
        // idle server (its deadline is then still ahead).
        while engine.now() < SimTime::from_secs(1.0)
            || engine.servers[0].busy > 0
            || engine.servers[0].queue.is_empty()
        {
            step(&mut engine);
        }
        let parked = engine.servers[0].queue.len();
        engine.reconfigure(&d, specs.clone(), None, &mut parva_obs::NullSink);
        let s = &engine.servers[0];
        assert_eq!(s.queue.len(), parked, "the parked batch was re-routed");
        let (head, _) = s.queue[0];
        let deadline = head + s.batch_timeout;
        assert!(engine.now() < deadline);
        // Boundaries are 1 ms apart: the batch still waits at the last one
        // before its deadline and has launched by the first one past it.
        while engine.now() + SimTime(1_000) < deadline {
            step(&mut engine);
        }
        assert_eq!(engine.servers[0].queue.front().map(|e| e.0), Some(head));
        while engine.now() <= deadline {
            step(&mut engine);
        }
        let s = &engine.servers[0];
        assert_eq!(s.busy, 1, "no batch launched at the deadline");
        assert!(
            s.queue.iter().all(|&(t, _)| t >= deadline),
            "parked requests still queued past their deadline"
        );
    }

    #[test]
    fn empty_deployment_serves_nothing() {
        let specs = vec![ServiceSpec::new(
            0,
            parva_perf::Model::ResNet50,
            100.0,
            200.0,
        )];
        let d = Deployment::Mig(parva_deploy::MigDeployment::new());
        let report = sim(&d, &specs, &quick_config());
        assert_eq!(report.services[0].completed, 0);
        assert!(report.services[0].offered > 0);
    }

    mod reference_equivalence {
        //! The optimized engine against the frozen pre-optimization
        //! simulator: full-JSON bit identity over arbitrary seeds,
        //! window shapes, arrival processes, deployment kinds (MIG and
        //! MPS), ingress class splits and recovery specs.

        use super::*;
        use crate::recovery::RecoveryOp;
        use crate::reference::simulate_with_recovery_reference;
        use proptest::prelude::*;

        fn mig_deployment() -> (Deployment, Vec<ServiceSpec>) {
            parva_s2()
        }

        fn mps_deployment() -> (Deployment, Vec<ServiceSpec>) {
            let specs = Scenario::S2.services();
            let d = parva_baselines::Gpulet::new().schedule(&specs).unwrap();
            (d, specs)
        }

        fn arrivals_of(pick: usize) -> ArrivalProcess {
            match pick {
                0 => ArrivalProcess::Poisson,
                1 => ArrivalProcess::Deterministic,
                _ => ArrivalProcess::Mmpp {
                    burst_factor: 4.0,
                    mean_phase_s: 0.4,
                },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            #[test]
            fn optimized_engine_is_bit_identical_to_reference(
                seed in 0u64..1_000_000,
                duration_tenths in 5u32..25,
                mps in 0u32..2,
                arrivals_pick in 0usize..3,
                remote_share in 0u32..=5,       // x10% of traffic remote
                rtt in 1.0f64..180.0,
                recovery_pick in 0u32..3,       // 0: no recovery
                prepared in 0u32..2,
                start_pick in 0u32..3,          // window start / mid / drain tail
            ) {
                let (d, specs) = if mps == 1 {
                    mps_deployment()
                } else {
                    mig_deployment()
                };
                let config = ServingConfig {
                    warmup_s: 0.4,
                    duration_s: f64::from(duration_tenths) / 10.0,
                    drain_s: 0.5,
                    seed,
                    arrivals: arrivals_of(arrivals_pick),
                };
                // Ingress: either default single-class or a two-class
                // local/remote split per service.
                let ingress: Vec<Vec<IngressClass>> = if remote_share == 0 {
                    Vec::new()
                } else {
                    let share = f64::from(remote_share) / 10.0;
                    specs
                        .iter()
                        .map(|s| {
                            vec![
                                IngressClass::local(s.request_rate_rps * (1.0 - share)),
                                IngressClass {
                                    rate_rps: s.request_rate_rps * share,
                                    network_ms: rtt,
                                },
                            ]
                        })
                        .collect()
                };
                // Exercise the whole recovery-start space, including a
                // begin event landing in the drain tail (where the
                // optimized loop's post-window fixup must reproduce the
                // drained loop's report exactly).
                let start_ms = match start_pick {
                    0 => 400.0,
                    1 => 400.0 + f64::from(duration_tenths) * 50.0,
                    _ => 400.0 + f64::from(duration_tenths) * 100.0 + 200.0,
                };
                let recovery = (recovery_pick > 0).then(|| RecoverySpec {
                    start_ms,
                    control_plane_ms: 150.0,
                    reflash_ms: 800.0,
                    link_gib_per_s: 22.0,
                    ops: (0..recovery_pick as usize + 1)
                        .map(|i| RecoveryOp {
                            node: i / 2,
                            logical_gpu: Some(i),
                            reflash: i % 2 == 0,
                            copy_gib: 4.0 * (i + 1) as f64,
                            prepared: prepared == 1,
                        })
                        .collect(),
                });
                // The builder is the real entry point under test; the
                // frozen reference must match it byte for byte.
                let fast = crate::Simulation::new(&d, &specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .config(&config)
                    .run();
                let slow = simulate_with_recovery_reference(
                    &d,
                    &specs,
                    &ingress,
                    recovery.as_ref(),
                    &config,
                );
                let fast_json = serde_json::to_string(&fast).expect("serializable");
                prop_assert_eq!(
                    &fast_json,
                    &serde_json::to_string(&slow).expect("serializable")
                );
                // Observation is behavior-neutral: the same run under a
                // recording sink (tracing + gauge sampling on) must
                // produce the identical report — pinned through the same
                // frozen-reference harness — and two traced runs must
                // produce byte-identical artifacts.
                let mut rec_a = parva_obs::Recorder::new(50_000);
                let traced = crate::Simulation::new(&d, &specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .config(&config)
                    .run_with(&mut rec_a);
                prop_assert_eq!(
                    &fast_json,
                    &serde_json::to_string(&traced).expect("serializable")
                );
                let mut rec_b = parva_obs::Recorder::new(50_000);
                let _ = crate::Simulation::new(&d, &specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .config(&config)
                    .run_with(&mut rec_b);
                prop_assert_eq!(rec_a.chrome_trace(), rec_b.chrome_trace());
                prop_assert_eq!(rec_a.metrics_jsonl(), rec_b.metrics_jsonl());
                // Default tenant wrapping is behavior-neutral: bind every
                // service to one unlimited passthrough tenant. The engine
                // now walks every tenant code path (binding resolution,
                // admission gate wiring, rollup assembly), yet the report
                // must carry every pre-tenant byte unchanged — only the
                // `tenants` rollup is added, and stripping it restores
                // bit identity with the frozen reference.
                let tenant_specs: Vec<ServiceSpec> =
                    specs.iter().map(|s| s.with_tenant(1)).collect();
                let passthrough = [Tenant::new(1, "all")];
                let mut wrapped = crate::Simulation::new(&d, &tenant_specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .tenants(&passthrough)
                    .config(&config)
                    .run();
                prop_assert_eq!(wrapped.tenants.len(), 1);
                prop_assert!(wrapped.services.iter().all(|s| s.rejected == 0));
                wrapped.tenants.clear();
                prop_assert_eq!(
                    &fast_json,
                    &serde_json::to_string(&wrapped).expect("serializable")
                );
                // Resilience neutrality, two flavors. First: `None` spec
                // is exactly the plain path (same entry point the
                // dispatcher uses for specs without a resilience block).
                let none_path = crate::Simulation::new(&d, &specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .resilience_opt(None)
                    .config(&config)
                    .run();
                prop_assert_eq!(
                    &fast_json,
                    &serde_json::to_string(&none_path).expect("serializable")
                );
                // Second, the sharp one: a *non-inert* spec whose
                // mechanisms can never trigger — a timeout far past the
                // window, no hedging/shedding, health checks off. The
                // engine now runs the whole request-table path (id
                // allocation, epoch bookkeeping, res-aware launch and
                // completion accounting), yet no timeout can fire, no
                // RNG draw happens, and zero counters are omitted from
                // serialization — so the report must carry every
                // pre-resilience byte unchanged.
                let never_fires = ResilienceSpec {
                    timeout_ms: 1e7,
                    max_retries: 3,
                    health_checked: false,
                    ..ResilienceSpec::default()
                };
                prop_assert!(!never_fires.is_inert());
                let rid_path = crate::Simulation::new(&d, &specs)
                    .ingress(&ingress)
                    .recovery_opt(recovery.as_ref())
                    .resilience(&never_fires)
                    .config(&config)
                    .run();
                prop_assert_eq!(
                    &fast_json,
                    &serde_json::to_string(&rid_path).expect("serializable")
                );
            }
        }
    }

    #[test]
    fn quota_rejections_conserve_and_bound_admissions() {
        let (d, specs) = parva_s2();
        // Tenant 1 owns ResNet-50 (829 req/s, service id 8) under a
        // 100 req/s quota; tenant 2 owns the rest, unlimited.
        let specs: Vec<ServiceSpec> = specs
            .iter()
            .map(|s| s.with_tenant(if s.id == 8 { 1 } else { 2 }))
            .collect();
        let tenants = [
            Tenant::new(1, "capped").with_quota_rps(100.0),
            Tenant::new(2, "free"),
        ];
        let report = crate::Simulation::new(&d, &specs)
            .tenants(&tenants)
            .config(&quick_config())
            .run();
        assert_eq!(report.tenants.len(), 2);
        let capped = &report.tenants[0];
        assert!(capped.rejected > 0, "8× over-quota tenant never rejected");
        assert_eq!(capped.admitted + capped.rejected, capped.offered);
        // Admissions bounded by quota × window plus one bucket of burst.
        assert!(
            (capped.admitted as f64) <= 100.0 * 4.0 + 100.0 + 1.0,
            "admitted {} blows the quota bound",
            capped.admitted
        );
        let free = &report.tenants[1];
        assert_eq!(free.rejected, 0);
        assert_eq!(free.admitted, free.offered);
        // Service-level rejection counters sum to the tenant rollups.
        for t in &report.tenants {
            let svc_rejected: u64 = specs
                .iter()
                .zip(&report.services)
                .filter(|(spec, _)| spec.tenant == t.tenant)
                .map(|(_, s)| s.rejected)
                .sum();
            assert_eq!(svc_rejected, t.rejected);
        }
        // And the merged latency histogram counts every completion.
        for t in &report.tenants {
            let svc_completed: u64 = specs
                .iter()
                .zip(&report.services)
                .filter(|(spec, _)| spec.tenant == t.tenant)
                .map(|(_, s)| s.completed)
                .sum();
            assert_eq!(t.completed, svc_completed);
            assert_eq!(t.latency.count(), t.completed);
        }
    }

    #[test]
    fn arrival_override_only_perturbs_the_targeted_service() {
        // MIG isolates: services share no servers and draw from
        // per-service RNG streams, so switching one service to a bursty
        // MMPP must leave every other service's report byte-identical —
        // the structural lemma behind the noisy-neighbor isolation
        // property.
        let (d, specs) = parva_s2();
        let mut overrides: Vec<Option<ArrivalProcess>> = vec![None; specs.len()];
        overrides[0] = Some(ArrivalProcess::Mmpp {
            burst_factor: 6.0,
            mean_phase_s: 0.5,
        });
        let plain = sim(&d, &specs, &quick_config());
        let bursty = crate::Simulation::new(&d, &specs)
            .arrival_overrides(&overrides)
            .config(&quick_config())
            .run();
        assert_ne!(
            serde_json::to_string(&plain.services[0]).unwrap(),
            serde_json::to_string(&bursty.services[0]).unwrap(),
            "override had no effect on its target"
        );
        for i in 1..specs.len() {
            assert_eq!(
                serde_json::to_string(&plain.services[i]).unwrap(),
                serde_json::to_string(&bursty.services[i]).unwrap(),
                "service {i} perturbed by another service's burst"
            );
        }
        // All-None overrides are bit-identical to no overrides at all.
        let none: Vec<Option<ArrivalProcess>> = vec![None; specs.len()];
        let with_none = crate::Simulation::new(&d, &specs)
            .arrival_overrides(&none)
            .config(&quick_config())
            .run();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&with_none).unwrap()
        );
    }

    #[test]
    fn traced_run_emits_lifecycle_spans_and_gauges() {
        let (d, specs) = parva_s2();
        let mut rec = parva_obs::Recorder::new(100_000); // 100 ms cadence
        let report = crate::Simulation::new(&d, &specs)
            .config(&quick_config())
            .run_with(&mut rec);
        assert!(report.services.iter().any(|s| s.completed > 0));
        let names: Vec<&str> = rec.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"arrival"));
        assert!(names.contains(&"batch-form"));
        assert!(names.contains(&"execute"));
        assert!(names.contains(&"request"));
        // quick_config: 1 s warmup + 4 s window at 100 ms cadence → 50
        // boundaries, each one tick row plus one row per service.
        let ticks = rec
            .metrics
            .rows()
            .iter()
            .filter(|r| matches!(r.get("kind"), Some(parva_obs::ArgValue::Str(s)) if s == "tick"))
            .count();
        assert_eq!(ticks, 50);
        assert_eq!(rec.metrics.len(), 50 * (1 + specs.len()));
        // The Chrome export is loadable-shaped: document wrapper present.
        let doc = rec.chrome_trace();
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.contains("\"process_name\""));
    }

    #[test]
    fn traced_recovery_emits_dark_reflash_copy_live() {
        let (d, specs) = parva_s2();
        let spec = recovery_spec(vec![op(0, Some(0), true, 8.0), op(0, Some(1), true, 8.0)]);
        let mut rec = parva_obs::Recorder::new(0);
        let report = crate::Simulation::new(&d, &specs)
            .recovery(&spec)
            .config(&quick_config())
            .run_with(&mut rec);
        assert!(report.recovery.is_some());
        let names: Vec<&str> = rec.events.iter().map(|e| e.name).collect();
        for expected in ["recovery-begin", "reflash", "copy", "dark", "live"] {
            assert!(names.contains(&expected), "missing {expected} span");
        }
        // No sampling was armed: no gauge rows.
        assert!(rec.metrics.is_empty());
    }
}
