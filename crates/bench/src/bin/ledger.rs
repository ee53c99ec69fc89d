//! The perf ledger: one row per layer, written to `results/BENCH_ledger.json`
//! (schema `parva-bench/ledger/v1`), which is also the baseline of the
//! ledger's own regression gate.
//!
//! Each row in [`ROWS`] runs one untimed warm-up iteration, then [`SAMPLES`]
//! samples of a fixed iteration count, enough for a sample to last at least
//! 2 ms on a 2-vCPU host. It records the median and quartiles of the
//! samples' process CPU time (every thread, so the fleet's and region's
//! scoped workers count) and wall time, plus facts: DES counters per
//! iteration, the fleet sim-cache hit rate, and per-operation figures
//! derived from the median CPU sample. Timing never changes what a
//! simulation outputs.
//!
//! Usage: `ledger [--out FILE] [--check BASELINE]`. Without `--check` it
//! writes `results/BENCH_ledger.json`; `--out` names another file under
//! `results/`. `--check` writes only with `--out`, and exits 1 when a row's
//! median CPU exceeds twice the baseline's and 2 when the baseline has
//! another schema, lacks a row, or ran a row with another iteration count.

use parva_core::allocator::{allocate, AllocatorConfig};
use parva_deploy::{Scheduler, ServiceSpec};
use parva_des::counters::{self, process_cpu_nanos};
use parva_des::{CalendarQueue, SimTime};
use parva_obs::NullSink;
use parva_perf::Model;
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;
use parva_serve::{ArrivalProcess, Simulation};
use parvad::{AutoscalePolicy, Daemon};
use serde::{Deserialize, Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

const SCHEMA: &str = "parva-bench/ledger/v1";
const SAMPLES: usize = 11;
/// A row regresses when its median CPU exceeds this multiple of the
/// baseline's.
const CEILING: f64 = 2.0;
/// Hold-model operations in one `des.calendar_queue` iteration.
const HOLD_OPS: u32 = 10_000;
/// Every row the ledger emits, in order.
const ROWS: [&str; 12] = [
    "des.calendar_queue",
    "serve.small",
    "core.allocator_s5x4",
    "fleet.chaos",
    "region.federation",
    "parvad.steady",
    "parvad.checkpoint_encode",
    "parvad.checkpoint_decode",
    "parvad.decision",
    "obs.quickstart_off",
    "obs.quickstart_recorder",
    "obs.quickstart_stream",
];

/// Median and quartiles of one row's samples, in ms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    /// Order statistics: of 11 samples, the 3rd, 6th and 9th smallest.
    fn of(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Self {
            median: xs[n / 2],
            q1: xs[n / 4],
            q3: xs[3 * n / 4],
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    name: String,
    /// Iterations per sample: fixed, so every run's sample is the same work.
    iters: u32,
    cpu_ms: Spread,
    wall_ms: Spread,
    /// Row-specific counts and per-operation figures.
    facts: Value,
}

impl Row {
    fn fact(&mut self, key: &str, value: f64) {
        if let Value::Map(facts) = &mut self.facts {
            facts.push((key.to_string(), Value::Float(value)));
        }
    }

    /// CPU ms of one iteration of the median sample.
    fn cpu_ms_per_iter(&self) -> f64 {
        self.cpu_ms.median / f64::from(self.iters)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Ledger {
    schema: String,
    samples: usize,
    rows: Vec<Row>,
}

/// Process-CPU and wall nanoseconds over the timed parts of one sample.
#[derive(Default)]
struct Clock {
    cpu: u64,
    wall: u64,
}

impl Clock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu0, wall0) = (process_cpu_nanos(), Instant::now());
        let out = f();
        self.cpu += process_cpu_nanos().saturating_sub(cpu0);
        self.wall += u64::try_from(wall0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

impl Ledger {
    /// Measure and append one row: `body` gets the sample's clock, through
    /// which it times what the row measures, and the iteration's index
    /// within its sample.
    fn row(&mut self, name: &str, iters: u32, mut body: impl FnMut(&mut Clock, u32)) -> &mut Row {
        body(&mut Clock::default(), 0);
        counters::reset();
        parva_fleet::simcache::reset_global_stats();
        let (mut cpu, mut wall) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            let mut clock = Clock::default();
            for i in 0..iters {
                body(&mut clock, i);
            }
            cpu.push(clock.cpu as f64 / 1e6);
            wall.push(clock.wall as f64 / 1e6);
        }
        let mut row = Row {
            name: name.to_string(),
            iters,
            cpu_ms: Spread::of(cpu),
            wall_ms: Spread::of(wall),
            facts: Value::Map(Vec::new()),
        };
        let des = counters::snapshot();
        if des.sims > 0 {
            let runs = SAMPLES as f64 * f64::from(iters);
            let events = des.events as f64 / runs;
            row.fact("events", events);
            row.fact("sims", des.sims as f64 / runs);
            row.fact("peak_queue_depth", des.peak_queue_depth as f64);
            row.fact("cpu_ns_per_event", row.cpu_ms_per_iter() * 1e6 / events);
        }
        let (hits, misses) = parva_fleet::simcache::global_stats();
        if hits + misses > 0 {
            row.fact("cache_hit_rate", hits as f64 / (hits + misses) as f64);
        }
        let (c, w) = (row.cpu_ms, row.wall_ms);
        println!(
            "{name:<26} x{iters:<3} cpu {:>8.3} ms [{:.3}, {:.3}]  wall {:>8.3} ms [{:.3}, {:.3}]",
            c.median, c.q1, c.q3, w.median, w.q1, w.q3
        );
        self.rows.push(row);
        self.rows.last_mut().expect("a row was just pushed")
    }
}

/// A per-process scratch directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot_daemon(seed: u64, policy: AutoscalePolicy) -> Daemon {
    let catalogue = [
        ServiceSpec::new(1, Model::ResNet50, 1200.0, 205.0),
        ServiceSpec::new(2, Model::MobileNetV2, 1000.0, 167.0),
        ServiceSpec::new(3, Model::DenseNet121, 450.0, 183.0),
    ];
    Daemon::new(&catalogue, ArrivalProcess::Poisson, seed, 500_000, policy)
        .expect("the catalogue plans")
}

fn measure(ledger: &mut Ledger) {
    let book = ProfileBook::builtin();
    let spec = |name: &str| {
        parvagpu::scenarios::spec_by_name(name).unwrap_or_else(|| panic!("{name} is registered"))
    };

    let mut queue = CalendarQueue::new();
    for p in 0..1024 {
        queue.schedule(SimTime(p), p);
    }
    let mut lcg = 1u64;
    let r = ledger.row("des.calendar_queue", 4, |clock, _| {
        clock.time(|| {
            for _ in 0..HOLD_OPS {
                let (now, payload) = queue.pop().expect("the hold model keeps the queue full");
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                queue.schedule(SimTime(now.micros() + 1 + (lcg >> 54)), black_box(payload));
            }
        });
    });
    let ns = r.cpu_ms_per_iter() * 1e6 / f64::from(HOLD_OPS);
    r.fact("ns_per_push_pop", ns);

    let s2 = Scenario::S2.services();
    let d2 = parva_core::ParvaGpu::new(&book)
        .schedule(&s2)
        .expect("S2 schedules");
    ledger.row("serve.small", 1, |clock, _| {
        let report = clock.time(|| Simulation::new(&d2, &s2).run());
        assert!(report.overall_compliance_rate() > 0.0);
    });

    let s5x4 = parva_core::configurator::configure(&Scenario::S5.scaled(4), &book, 3)
        .expect("S5x4 configures");
    let mut gpus = 0;
    ledger
        .row("core.allocator_s5x4", 32, |clock, _| {
            let deployment = clock.time(|| allocate(black_box(&s5x4), &AllocatorConfig::default()));
            gpus = deployment.gpu_count();
        })
        .fact("gpus", gpus as f64);

    for (name, spec_name, iters) in [
        ("fleet.chaos", "fleet_chaos", 2),
        ("region.federation", "region_failover", 1),
    ] {
        let spec = spec(spec_name);
        ledger.row(name, iters, |clock, _| {
            clock.time(|| spec.run()).expect("the spec runs");
        });
    }

    let mut daemon = boot_daemon(42, AutoscalePolicy::default());
    let r = ledger.row("parvad.steady", 40, |clock, _| {
        clock.time(|| daemon.step(&mut NullSink));
    });
    r.fact("epochs_per_sec", 1e3 / r.cpu_ms_per_iter());

    let envelope = parvad::encode_checkpoint(&daemon).expect("the daemon serializes");
    let r = ledger.row("parvad.checkpoint_encode", 4, |clock, _| {
        let encoded = clock.time(|| parvad::encode_checkpoint(&daemon));
        black_box(encoded.expect("the daemon serializes"));
    });
    r.fact("bytes", envelope.len() as f64);
    r.fact("encode_ms", r.cpu_ms_per_iter());
    let r = ledger.row("parvad.checkpoint_decode", 4, |clock, _| {
        let thawed = clock.time(|| parvad::decode_checkpoint::<Daemon>(&envelope));
        assert_eq!(
            thawed.map(|d| d.epoch()),
            Ok(daemon.epoch()),
            "resumes on-epoch"
        );
    });
    r.fact("decode_ms", r.cpu_ms_per_iter());

    // With a two-epoch estimator window, every decide() sees the whole
    // swing, crosses the hysteresis band and re-plans incrementally.
    let policy = AutoscalePolicy {
        decide_every: 0,
        window: 2,
        ..AutoscalePolicy::default()
    };
    let mut daemon = boot_daemon(7, policy);
    let mut max_ns = 0;
    let r = ledger.row("parvad.decision", 48, |clock, i| {
        // Each sample replays the same decisions on a fresh daemon: the
        // queue backlog, and with it the cost of a re-plan, grows while
        // re-plans keep servers dark.
        if i == 0 {
            daemon = boot_daemon(7, policy);
        }
        daemon.scale_all(if i % 2 == 0 { 1.4 } else { 0.6 });
        daemon.step(&mut NullSink);
        daemon.step(&mut NullSink);
        let before = clock.wall;
        clock.time(|| daemon.decide(&mut NullSink));
        max_ns = max_ns.max(clock.wall - before);
    });
    let status = daemon.status();
    assert!(status.reconfigs > 0, "no re-plans to time");
    r.fact("decisions", status.decisions as f64);
    r.fact("reconfigs", status.reconfigs as f64);
    r.fact("mean_ms", r.cpu_ms_per_iter());
    r.fact("max_wall_ms", max_ns as f64 / 1e6);

    let quickstart = spec("quickstart").quick();
    let off_ms = ledger
        .row("obs.quickstart_off", 9, |clock, _| {
            clock.time(|| quickstart.run()).expect("the spec runs");
        })
        .cpu_ms_per_iter();
    let mut events = 0;
    ledger.row("obs.quickstart_recorder", 9, |clock, _| {
        let observed = clock.time(|| quickstart.run_observed());
        events = observed.expect("the spec runs").1.events.len();
    });
    let dir = TempDir(std::env::temp_dir().join(format!("parva-ledger-{}", std::process::id())));
    ledger.row("obs.quickstart_stream", 9, |clock, _| {
        // A fresh directory each time, so shard creation is timed too.
        let _ = std::fs::remove_dir_all(&dir.0);
        let streamed = clock.time(|| quickstart.run_streamed(&dir.0));
        streamed.expect("the spec streams");
    });
    for r in ledger.rows.iter_mut().rev().take(2) {
        let traced_ms = r.cpu_ms_per_iter() - off_ms;
        r.fact("trace_events", events as f64);
        r.fact("ns_per_traced_event", traced_ms * 1e6 / events as f64);
        r.fact("over_off", r.cpu_ms_per_iter() / off_ms);
    }
}

/// Parse a ledger, refusing any other schema.
fn read_ledger(text: &str) -> Result<Ledger, String> {
    let ledger: Ledger = serde_json::from_str(text).map_err(|e| format!("not a ledger: {e}"))?;
    if ledger.schema != SCHEMA {
        return Err(format!("schema {} is not {SCHEMA}", ledger.schema));
    }
    Ok(ledger)
}

/// The rows of `current` whose median CPU exceeds [`CEILING`] times the
/// baseline's; an error when `base` cannot judge a row of `current`.
fn regressions(current: &Ledger, base: &Ledger) -> Result<Vec<String>, String> {
    let mut regressed = Vec::new();
    for row in &current.rows {
        let Some(b) = base.rows.iter().find(|b| b.name == row.name) else {
            return Err(format!("the baseline has no row {}", row.name));
        };
        if b.iters != row.iters {
            return Err(format!("{}: the baseline ran other iterations", row.name));
        }
        let (now, ceiling) = (row.cpu_ms.median, b.cpu_ms.median * CEILING);
        let verdict = if now <= ceiling { "ok" } else { "REGRESSED" };
        println!(
            "check {:<26} cpu {now:>8.3} ms, ceiling {ceiling:>8.3} ms: {verdict}",
            row.name
        );
        if now > ceiling {
            regressed.push(row.name.clone());
        }
    }
    Ok(regressed)
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("ledger: {msg}");
    std::process::exit(code);
}

fn main() {
    let (mut out, mut check) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--out", Some(file)) => out = Some(file),
            ("--check", Some(file)) => check = Some(file),
            _ => fail(2, "usage: ledger [--out FILE] [--check BASELINE]"),
        }
    }
    // Read the baseline first: a run it cannot judge is not worth making.
    let base = check.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| read_ledger(&text))
            .unwrap_or_else(|e| fail(2, &e))
    });
    let started = Instant::now();
    let mut ledger = Ledger {
        schema: SCHEMA.to_string(),
        samples: SAMPLES,
        rows: Vec::new(),
    };
    measure(&mut ledger);
    let names: Vec<&str> = ledger.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ROWS, "ROWS must list every emitted row");
    println!("ledger: {:.1} s", started.elapsed().as_secs_f64());
    if let Some(out) = out.or_else(|| check.is_none().then(|| "BENCH_ledger.json".to_string())) {
        let json = serde_json::to_string_pretty(&ledger).expect("the ledger serializes");
        parva_bench::write_csv(&out, &json);
    }
    match base.map(|base| regressions(&ledger, &base)) {
        Some(Ok(regressed)) if !regressed.is_empty() => fail(
            1,
            &format!("median CPU regressed >{CEILING}x: {}", regressed.join(", ")),
        ),
        Some(Err(e)) => fail(2, &e),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_ledger_has_every_row_and_gates_both_ways() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let text = std::fs::read_to_string(format!("{path}/BENCH_ledger.json")).expect("committed");
        let base = read_ledger(&text).expect("the committed ledger parses");
        assert_eq!(base.samples, SAMPLES);
        for name in ROWS {
            let recorded = base.rows.iter().any(|r| r.name == name);
            assert!(recorded, "BENCH_ledger.json lacks {name}: re-record it");
        }

        assert_eq!(regressions(&base, &base), Ok(Vec::new()));
        let mut slow = base.clone();
        for r in &mut slow.rows {
            r.cpu_ms.median *= 3.0;
        }
        assert_eq!(regressions(&slow, &base).map(|r| r.len()), Ok(ROWS.len()));
        let mut partial = base.clone();
        partial.rows.pop();
        assert!(regressions(&base, &partial).is_err());
        let mut retuned = base.clone();
        retuned.rows[0].iters += 1;
        assert!(regressions(&base, &retuned).is_err());
        let other = Ledger {
            schema: "parva-bench/des-perf/v1".to_string(),
            ..base
        };
        assert!(read_ledger(&serde_json::to_string(&other).expect("serializes")).is_err());
    }
}
