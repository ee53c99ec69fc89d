//! The complete Table I — all six frameworks' capability rows and the
//! behavioural claims behind them, exercised cross-crate.

use parvagpu::baselines::{Gpulet, Gslice, IGniter, MigServing, ParisElsa};
use parvagpu::deploy::{OverheadClass, SpatialScheduling};
use parvagpu::prelude::*;

fn low_rate_specs() -> Vec<ServiceSpec> {
    // Rates every framework (including the single-GPU/single-instance ones)
    // can serve.
    vec![
        ServiceSpec::new(0, Model::ResNet50, 200.0, 205.0),
        ServiceSpec::new(1, Model::MobileNetV2, 300.0, 167.0),
        ServiceSpec::new(2, Model::DenseNet169, 120.0, 217.0),
    ]
}

fn all_schedulers(book: &ProfileBook) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Gslice::new()),
        Box::new(Gpulet::new()),
        Box::new(IGniter::new()),
        Box::new(ParisElsa::new()),
        Box::new(MigServing::new(book)),
        Box::new(ParvaGpu::new(book)),
    ]
}

#[test]
fn six_rows_match_the_paper() {
    let book = ProfileBook::builtin();
    let expect: Vec<(&str, [&str; 7])> = vec![
        // Paper Table I rows: MPS, MIG, slack prev., frag prev., spatial,
        // high rate, overhead.
        ("GSLICE", ["yes", "no", "yes", "no", "yes", "no", "Low"]),
        ("gpulet", ["yes", "no", "no", "N/A", "2", "yes", "Medium"]),
        ("iGniter", ["yes", "no", "no", "no", "yes", "no", "Low"]),
        ("PARIS+ELSA", ["no", "yes", "no", "no", "N/A", "no", "N/A"]),
        (
            "MIG-serving",
            ["no", "yes", "no", "yes", "yes", "yes", "VeryHigh"],
        ),
        (
            "ParvaGPU",
            ["yes", "yes", "yes", "yes", "yes", "yes", "Low"],
        ),
    ];
    for (sched, (name, row)) in all_schedulers(&book).iter().zip(expect) {
        assert_eq!(sched.name(), name);
        assert_eq!(sched.capabilities().row(), row.map(String::from), "{name}");
    }
}

#[test]
fn every_framework_schedules_the_low_rate_set() {
    let book = ProfileBook::builtin();
    let specs = low_rate_specs();
    for sched in all_schedulers(&book) {
        let d = sched
            .schedule(&specs)
            .unwrap_or_else(|e| panic!("{} failed: {e}", sched.name()));
        assert!(
            d.validate(),
            "{} produced an invalid deployment",
            sched.name()
        );
        for s in &specs {
            assert!(
                d.capacity_of(s.id) > 0.0,
                "{} left service {} without capacity",
                sched.name(),
                s.id
            );
        }
    }
}

#[test]
fn high_rate_column_is_behavioural_not_declarative() {
    // Frameworks whose Table I row says "high request rate: no" must
    // actually reject S5; the others must schedule it.
    let book = ProfileBook::builtin();
    let s5 = Scenario::S5.services();
    for sched in all_schedulers(&book) {
        let outcome = sched.schedule(&s5);
        if sched.capabilities().high_request_rate {
            assert!(
                outcome.is_ok(),
                "{} should handle S5: {:?}",
                sched.name(),
                outcome.err()
            );
        } else {
            assert!(
                matches!(outcome, Err(ScheduleError::RateTooHigh { .. })),
                "{} should reject S5's rates",
                sched.name()
            );
        }
    }
}

#[test]
fn mig_column_determines_deployment_kind() {
    let book = ProfileBook::builtin();
    let specs = low_rate_specs();
    for sched in all_schedulers(&book) {
        let caps = sched.capabilities();
        let d = sched.schedule(&specs).unwrap();
        match d {
            Deployment::Mig(_) => assert!(caps.mig_support, "{}", sched.name()),
            Deployment::Mps(_) => {
                assert!(caps.mps_support && !caps.mig_support, "{}", sched.name())
            }
        }
    }
}

#[test]
fn overhead_classes_reflect_measured_delay_order() {
    // MIG-serving's "very high" overhead must show up as the slowest
    // scheduler on a workload all frameworks accept. The rounds interleave
    // the schedulers, so a stretch of host contention lands on all of them
    // alike, and a median of 21 calls cannot be moved by one preempted call
    // the way a mean of a few can.
    let book = ProfileBook::builtin();
    let specs = low_rate_specs();
    let schedulers = all_schedulers(&book);
    let mut delays = vec![Vec::new(); schedulers.len()];
    for _ in 0..21 {
        for (sched, delay) in schedulers.iter().zip(&mut delays) {
            let t0 = std::time::Instant::now();
            sched.schedule(&specs).unwrap();
            delay.push(t0.elapsed());
        }
    }
    let medians = delays.into_iter().map(|mut d| {
        d.sort();
        d[d.len() / 2]
    });
    let (slowest, median) = schedulers
        .iter()
        .zip(medians)
        .max_by_key(|(_, median)| *median)
        .unwrap();
    assert_eq!(
        slowest.capabilities().overhead,
        Some(OverheadClass::VeryHigh),
        "slowest scheduler was {} (median {:?}), expected the VeryHigh row",
        slowest.name(),
        median
    );
}

#[test]
fn paris_elsa_is_the_only_na_spatial_row() {
    let book = ProfileBook::builtin();
    let na: Vec<&str> = all_schedulers(&book)
        .iter()
        .filter(|s| s.capabilities().spatial_scheduling == SpatialScheduling::NotApplicable)
        .map(|s| s.name())
        .collect();
    assert_eq!(na, vec!["PARIS+ELSA"]);
}
