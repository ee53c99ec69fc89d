//! Property tests for `physical_diff` over arbitrary deployment pairs.

use parva_deploy::{physical_diff, MigDeployment, Segment};
use parva_mig::{InstanceProfile, Placement};
use parva_perf::{Model, PerfParams};
use parva_profile::Triplet;
use proptest::prelude::*;

fn segment(svc: u32, profile: InstanceProfile, batch: u32, procs: u32) -> Segment {
    Segment {
        service_id: svc,
        model: Model::ALL[(svc as usize) % Model::ALL.len()],
        triplet: Triplet::new(profile, batch, procs),
        throughput_rps: 50.0 * f64::from(profile.gpcs()),
        latency_ms: 12.0,
    }
}

/// Strategy: a sequence of (service id, profile, batch, procs) placed
/// first-fit — every generated map is valid by construction.
fn arb_deployment(max_segments: usize) -> impl Strategy<Value = MigDeployment> {
    prop::collection::vec(
        (
            0u32..6,
            0usize..5,
            prop::sample::select(vec![1u32, 4, 16, 64]),
            1u32..=3,
        ),
        0..max_segments,
    )
    .prop_map(|items| {
        let mut d = MigDeployment::new();
        for (svc, prof_idx, batch, procs) in items {
            d.place_first_fit(segment(svc, InstanceProfile::ALL[prof_idx], batch, procs));
        }
        d
    })
}

/// Strategy: a deployment and an edit of it — some segments removed, some
/// placed first-fit, and maybe compacted — so the pair shares most GPUs.
fn arb_edit() -> impl Strategy<Value = (MigDeployment, MigDeployment)> {
    (
        arb_deployment(20),
        prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        prop::collection::vec((0u32..6, 0usize..5), 0..4),
        any::<bool>(),
    )
        .prop_map(|(before, removals, additions, compact)| {
            let mut after = before.clone();
            for i in removals {
                if !after.segments().is_empty() {
                    let ps = after.segments()[i.index(after.segments().len())];
                    after.remove(ps.gpu, ps.placement);
                }
            }
            for (svc, prof_idx) in additions {
                after.place_first_fit(segment(svc, InstanceProfile::ALL[prof_idx], 8, 1));
            }
            if compact {
                after.compact();
            }
            (before, after)
        })
}

/// Sorted `(service, placement)` segments on one GPU.
fn segments_on(d: &MigDeployment, gpu: usize) -> Vec<(u32, Placement)> {
    let mut v: Vec<_> = d
        .segments_on(gpu)
        .map(|ps| (ps.segment.service_id, ps.placement))
        .collect();
    v.sort_unstable();
    v
}

/// Sorted placements on one GPU.
fn layout(d: &MigDeployment, gpu: usize) -> Vec<Placement> {
    let mut v: Vec<_> = d.segments_on(gpu).map(|ps| ps.placement).collect();
    v.sort_unstable();
    v
}

fn check_pair(before: &MigDeployment, after: &MigDeployment) -> Result<(), TestCaseError> {
    let diff = physical_diff(before, Some, after, Some);
    let mut keys: Vec<usize> = diff.changes.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "duplicate keys");

    let n = before.gpu_count().max(after.gpu_count());
    // The key set is the GPUs whose (service, placement) multiset
    // differs; every other GPU keeps its segments.
    let changed: Vec<usize> = (0..n)
        .filter(|&g| segments_on(before, g) != segments_on(after, g))
        .collect();
    prop_assert_eq!(&keys, &changed);

    let mut new_segments = 0;
    for c in &diff.changes {
        // Re-flash exactly when the placement multiset changed.
        prop_assert_eq!(c.reflash, layout(before, c.key) != layout(after, c.key));
        // A vacated GPU hosts nothing afterwards; a hosting one keeps its
        // logical index under the identity map.
        match c.gpu {
            None => prop_assert!(after.segments_on(c.key).next().is_none()),
            Some(g) => prop_assert_eq!(g, c.key),
        }
        // The copy is the weights of the segments new on this GPU.
        let mut old = segments_on(before, c.key);
        let mut copy = 0.0;
        for ps in after.segments_on(c.key) {
            match old
                .iter()
                .position(|&s| s == (ps.segment.service_id, ps.placement))
            {
                Some(i) => {
                    old.swap_remove(i);
                }
                None => {
                    copy += PerfParams::for_model(ps.segment.model).weights_gib;
                    new_segments += 1;
                }
            }
        }
        prop_assert!((c.copy_gib - copy).abs() < 1e-9);
    }
    prop_assert_eq!(diff.new_segments, new_segments);
    let total: f64 = diff.changes.iter().map(|c| c.copy_gib).sum();
    prop_assert!((diff.copy_gib - total).abs() < 1e-9);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn self_diff_is_empty(d in arb_deployment(24)) {
        let diff = physical_diff(&d, Some, &d, Some);
        prop_assert!(diff.changes.is_empty());
        prop_assert_eq!(diff.new_segments, 0);
        prop_assert_eq!(diff.copy_gib, 0.0);
    }

    #[test]
    fn diff_of_any_pair_matches_the_per_gpu_rule(
        before in arb_deployment(16),
        after in arb_deployment(16),
    ) {
        check_pair(&before, &after)?;
    }

    #[test]
    fn diff_of_an_edit_matches_the_per_gpu_rule(pair in arb_edit()) {
        check_pair(&pair.0, &pair.1)?;
    }
}

#[test]
fn unplaced_gpus_are_left_out() {
    let mut d = MigDeployment::new();
    d.place_first_fit(segment(0, InstanceProfile::G7, 8, 1));
    d.place_first_fit(segment(1, InstanceProfile::G7, 8, 1));
    // Only GPU 1 has a physical key, and it moves to key 10.
    let diff = physical_diff(
        &d,
        |g| (g == 1).then_some(1),
        &d,
        |g| (g == 1).then_some(10),
    );
    let keys: Vec<(usize, Option<usize>)> = diff.changes.iter().map(|c| (c.key, c.gpu)).collect();
    assert_eq!(keys, vec![(10, Some(1)), (1, None)]);
    assert!(diff.changes.iter().all(|c| c.reflash));
    assert_eq!(diff.new_segments, 1);
    assert_eq!(
        diff.copy_gib,
        PerfParams::for_model(Model::ALL[1]).weights_gib
    );
}
