//! DES performance sweep: time the discrete-event engine on three scenario
//! scales — a single serving simulation (`small`), a fleet chaos run
//! (`fleet`), and a multi-region federation run (`federation`) — and write
//! `results/BENCH_des.json` with the engine's measured throughput.
//!
//! Per scenario the harness reports:
//!
//! * `events` — DES events processed across every simulation of the run
//!   (memoized sims deliver their cached reports without re-processing
//!   events, so cache hits lower both `events` and the wall time),
//! * `events_per_sec` — events divided by the scenario's end-to-end wall
//!   time. Informational only: an engine change that removes cheap events
//!   (say, duplicate batching deadlines) lowers it even when the run gets
//!   faster, so it is not what the gate reads,
//! * `loop_wall_ms` — wall time spent inside event loops, summed across
//!   threads (under parallel fan-out this exceeds the scenario wall and
//!   over-counts when threads time-slice one core),
//! * `loop_cpu_ms` — per-thread CPU time inside event loops
//!   (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`): the engine metric that
//!   stays exact under fan-out; 0 on platforms without the clock,
//! * `wall_ms` — end-to-end wall time of the whole scenario: each
//!   scenario's work is fixed, so this is the gated metric,
//! * `peak_queue_depth` — the largest pending-event count any sim reached,
//! * `cache_hit_rate` — the fleet orchestrator's simulation-cache hit rate
//!   (identical steady states simulated once per report).
//!
//! Simulation *outputs* are unaffected by the instrumentation: every run
//! here produces byte-identical reports to the untimed paths.
//!
//! Usage: `perf_sweep [--quick] [--check <baseline.json>] [--out <file>]`
//!
//! `--quick` shrinks repetition counts for CI; `--check` exits non-zero if
//! any scenario's `wall_ms` exceeds twice the given baseline's (a >2x
//! regression gate). The baseline must have been recorded with the same
//! `--quick` setting, since only then is the work the same.

use parva_deploy::Scheduler;
use parva_profile::ProfileBook;
use parva_serve::{ServingConfig, Simulation};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One scenario's measured row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioPerf {
    name: String,
    sims: u64,
    events: u64,
    events_per_sec: f64,
    loop_wall_ms: f64,
    /// Absent from pre-PR baselines; defaults to 0 when checking old files.
    #[serde(default)]
    loop_cpu_ms: f64,
    wall_ms: f64,
    peak_queue_depth: u64,
    cache_hit_rate: f64,
}

/// The whole `BENCH_des.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchDoc {
    schema: String,
    quick: bool,
    scenarios: Vec<ScenarioPerf>,
}

impl BenchDoc {
    fn scenario(&self, name: &str) -> Option<&ScenarioPerf> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Run `body`, attributing counter deltas and wall time to `name`.
///
/// Scope-safe: snapshots the global counters before and after and
/// reports [`parva_des::counters::Snapshot::delta`], so concurrent or
/// later `measure` calls never clobber each other the way the old
/// reset-then-read pattern could. `peak_queue_depth` is the one
/// high-water mark (not a monotone counter): the delta reports the
/// run's peak only when it exceeds every earlier scenario's, so main
/// still resets the globals once up front to keep the first peak exact.
fn measure(name: &str, body: impl FnOnce()) -> ScenarioPerf {
    let before = parva_des::counters::snapshot();
    let (hits0, misses0) = parva_fleet::simcache::global_stats();
    let started = Instant::now();
    body();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let snap = parva_des::counters::snapshot().delta(&before);
    let (hits1, misses1) = parva_fleet::simcache::global_stats();
    let (hits, misses) = (hits1.saturating_sub(hits0), misses1.saturating_sub(misses0));
    let lookups = hits + misses;
    ScenarioPerf {
        name: name.to_string(),
        sims: snap.sims,
        events: snap.events,
        events_per_sec: if wall_ms <= 0.0 {
            0.0
        } else {
            snap.events as f64 / (wall_ms / 1e3)
        },
        loop_wall_ms: snap.loop_nanos as f64 / 1e6,
        loop_cpu_ms: snap.loop_cpu_nanos as f64 / 1e6,
        wall_ms,
        peak_queue_depth: snap.peak_queue_depth,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_des.json".to_string());

    let book = ProfileBook::builtin();

    // One reset up front so the first scenario's queue-depth high-water
    // mark starts from zero; everything else is delta-attributed.
    parva_des::counters::reset();
    parva_fleet::simcache::reset_global_stats();

    // -- small: one cluster-scale serving simulation, repeated --
    let s2 = parva_scenarios::Scenario::S2.services();
    let d2 = parva_core::ParvaGpu::new(&book)
        .schedule(&s2)
        .expect("S2 schedules");
    let small_reps = if quick { 3 } else { 10 };
    let small = measure("small", || {
        for _ in 0..small_reps {
            let r = Simulation::new(&d2, &s2).run();
            assert!(r.overall_compliance_rate() > 0.0);
        }
    });

    // -- fleet: chaos runs over the mixed heterogeneous fleet --
    let fleet_seeds = if quick { 2 } else { 5 };
    let fleet_spec = parva_fleet::FleetSpec::mixed_demo(2);
    let fleet_services = parva_fleet::demo_services();
    let fleet = measure("fleet", || {
        for seed in 0..fleet_seeds {
            let config = parva_fleet::FleetConfig {
                seed,
                intervals: 8,
                ..parva_fleet::FleetConfig::default()
            };
            parva_fleet::run_chaos(&book, &fleet_services, &fleet_spec, &config)
                .expect("fleet chaos runs");
        }
    });

    // -- federation: three-region federation with serving-heavy windows --
    let fed_seeds = if quick { 1 } else { 3 };
    let fed_spec = parva_region::FederationSpec::three_region_demo();
    let fed_services = parva_region::demo_services();
    let federation = measure("federation", || {
        for seed in 0..fed_seeds {
            let config = parva_region::FederationConfig {
                seed,
                intervals: 8,
                serving: ServingConfig {
                    warmup_s: 0.5,
                    duration_s: 6.0,
                    drain_s: 1.0,
                    ..ServingConfig::default()
                },
                ..parva_region::FederationConfig::default()
            };
            parva_region::run_federation(&book, &fed_services, &fed_spec, &config)
                .expect("federation runs");
        }
    });

    let doc = BenchDoc {
        schema: "parva-bench/des-perf/v1".to_string(),
        quick,
        scenarios: vec![small, fleet, federation],
    };
    for s in &doc.scenarios {
        println!(
            "{:<11} {:>9} events in {:>8.1} ms loop ({:>8.1} ms cpu, {:>10.0} events/s) | \
             wall {:>8.1} ms, {:>3} sims, peak queue {:>5}, cache hit {:>5.1}%",
            s.name,
            s.events,
            s.loop_wall_ms,
            s.loop_cpu_ms,
            s.events_per_sec,
            s.wall_ms,
            s.sims,
            s.peak_queue_depth,
            s.cache_hit_rate * 100.0
        );
    }

    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    parva_bench::write_csv(&out, &json);

    if let Some(baseline_path) = check {
        let base = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let base: BenchDoc = serde_json::from_str(&base).expect("valid baseline JSON");
        if base.quick != doc.quick {
            eprintln!(
                "perf_sweep: {baseline_path} was recorded with quick={}, this run has quick={}; \
                 wall times compare only for the same work",
                base.quick, doc.quick
            );
            std::process::exit(2);
        }
        let mut failed = false;
        for s in &doc.scenarios {
            if let Some(b) = base.scenario(&s.name) {
                let ceiling = b.wall_ms * 2.0;
                let ok = s.wall_ms <= ceiling;
                println!(
                    "check {:<11} {:>8.1} ms wall vs baseline {:>8.1} ms (ceiling {:>8.1} ms): {}",
                    s.name,
                    s.wall_ms,
                    b.wall_ms,
                    ceiling,
                    if ok { "ok" } else { "REGRESSED" }
                );
                failed |= !ok;
            }
        }
        if failed {
            eprintln!("perf_sweep: wall time regressed >2x against {baseline_path}");
            std::process::exit(1);
        }
    }
}
