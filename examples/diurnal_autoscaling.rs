//! Autoscaling under a diurnal load curve: the paper's runtime story
//! (§III-F) end to end. The `parvad` daemon serves a catalogue while the
//! true demand swings over a simulated day; its autoscaler only sees the
//! observed arrivals, re-plans drifting services incrementally, and pays
//! measured recovery for every GPU it re-slices. We watch fleet size, SLO
//! attainment and reconfiguration churn hour by hour.
//!
//! Run: `cargo run --release --example diurnal_autoscaling`

use parvagpu::obs::NullSink;
use parvagpu::prelude::*;
use parvagpu::scenarios::diurnal_multiplier;

/// Simulated length of one epoch, µs; each epoch stands for one hour.
const EPOCH_US: u64 = 30_000_000;
const HOURS: u64 = 24;

/// Share of completed requests within their SLO (1.0 when idle).
fn attainment(completed: u64, within: u64) -> f64 {
    if completed == 0 {
        1.0
    } else {
        within as f64 / completed as f64
    }
}

fn main() {
    // A mid-size catalogue: half of scenario S3's load as the daily mean.
    let base: Vec<ServiceSpec> = Scenario::S3
        .services()
        .into_iter()
        .map(|s| ServiceSpec::new(s.id, s.model, s.request_rate_rps * 0.5, s.slo.latency_ms))
        .collect();
    let policy = AutoscalePolicy {
        decide_every: 1,
        window: 1,
        headroom: 1.25,
        ..AutoscalePolicy::default()
    };
    let mut daemon =
        Daemon::new(&base, ArrivalProcess::Poisson, 42, EPOCH_US, policy).expect("feasible");

    println!("serving {HOURS} hours of diurnal load (0.4x-1.8x) …\n");
    println!(
        "{:>5} {:>6} {:>5} {:>9} {:>8} {:>11}",
        "hour", "load", "GPUs", "reconfigs", "churned", "attainment"
    );
    let mut peak_gpus = 0;
    let mut worst = 1.0f64;
    for hour in 0..HOURS {
        let load = diurnal_multiplier(hour as f64, 0.4, 1.8, 0.0);
        daemon.scale_all(load);
        daemon.step(&mut NullSink);
        let st = daemon.status();
        let last = daemon.engine().last_epoch();
        let hourly = attainment(
            last.iter().map(|o| o.completed).sum(),
            last.iter().map(|o| o.within_slo).sum(),
        );
        peak_gpus = peak_gpus.max(st.gpus);
        worst = worst.min(hourly);
        println!(
            "{:>5} {:>5.2}x {:>5} {:>9} {:>8} {:>10.2}%",
            hour,
            load,
            st.gpus,
            st.reconfigs,
            st.churned_gpus,
            hourly * 100.0
        );
    }
    let st = daemon.status();
    let report = daemon.report();
    let overall = attainment(
        report.services.iter().map(|s| s.completed).sum(),
        report.services.iter().map(|s| s.within_slo).sum(),
    );
    println!(
        "\npeak fleet {peak_gpus} GPUs, {} GPU-hours; worst hour {:.2}%, whole day {:.2}%; \
         {} re-plans re-sliced {} GPUs",
        daemon.gpu_epochs(),
        worst * 100.0,
        overall * 100.0,
        st.reconfigs,
        st.churned_gpus
    );
    assert!(st.reconfigs > 0, "a 4.5x swing must trigger re-plans");
    assert!(overall > 0.95, "SLOs must mostly hold through the day");
}
