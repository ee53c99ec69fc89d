//! The streaming engine's suspend/resume contract, property-tested: a run
//! interrupted at any epoch boundary — full engine state serialized,
//! dropped, deserialized — must be **byte-identical** to an uninterrupted
//! run at the same seed, in all three artifacts: the gauge shard
//! (`metrics_jsonl`), the trace shard (`chrome_trace`) and the final
//! cumulative report. Coverage spans seeds × suspension points × MIG/MPS
//! deployments × ingress splits × arrival processes, with workloads drawn
//! from the paper's Table IV scenario registry.
//!
//! The same generators pin the streaming engine to the window engine: N
//! epochs without reconfigures count exactly what one `Simulation` window
//! over `[0, N·epoch)` counts.

use parva_deploy::{Deployment, Scheduler, ServiceSpec};
use parva_obs::Recorder;
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;
use parva_serve::{ArrivalProcess, IngressClass, ResilienceSpec, Simulation, StreamEngine};
use proptest::prelude::*;

/// Epochs are short (0.2 s of simulated traffic) so a case stays cheap
/// while still crossing many batch/timeout boundaries per epoch.
const EPOCH_US: u64 = 200_000;
const TOTAL_EPOCHS: u64 = 6;

/// Schedule one Table IV scenario on the requested scheduler family.
/// `None` when that scheduler cannot host the mix (the property is about
/// resume fidelity, not feasibility).
fn deployment(scenario: Scenario, mps: bool) -> Option<(Deployment, Vec<ServiceSpec>)> {
    let specs = scenario.services();
    let d = if mps {
        parva_baselines::Gpulet::new().schedule(&specs).ok()?
    } else {
        let book = ProfileBook::builtin();
        parva_core::ParvaGpu::new(&book).schedule(&specs).ok()?
    };
    Some((d, specs))
}

fn ingress_for(specs: &[ServiceSpec], remote_share: f64, rtt_ms: f64) -> Vec<Vec<IngressClass>> {
    specs
        .iter()
        .map(|s| {
            if remote_share == 0.0 {
                vec![IngressClass::local(s.request_rate_rps)]
            } else {
                vec![
                    IngressClass::local(s.request_rate_rps * (1.0 - remote_share)),
                    IngressClass {
                        rate_rps: s.request_rate_rps * remote_share,
                        network_ms: rtt_ms,
                    },
                ]
            }
        })
        .collect()
}

fn arrivals_of(pick: usize) -> ArrivalProcess {
    match pick {
        0 => ArrivalProcess::Poisson,
        1 => ArrivalProcess::Deterministic,
        _ => ArrivalProcess::Mmpp {
            burst_factor: 3.0,
            mean_phase_s: 0.3,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resumed_stream_is_byte_identical_to_uninterrupted(
        seed in 0u64..1_000_000,
        scenario_idx in 0usize..6,
        mps in 0u32..2,
        suspend_at in 1u64..TOTAL_EPOCHS,
        remote_tenths in 0u32..=5,
        rtt in 1.0f64..120.0,
        arrivals_pick in 0usize..3,
    ) {
        let scenario = Scenario::ALL[scenario_idx];
        let Some((d, specs)) = deployment(scenario, mps == 1) else {
            return Ok(());
        };
        let ingress = ingress_for(&specs, f64::from(remote_tenths) / 10.0, rtt);
        let arrivals = arrivals_of(arrivals_pick);

        // Control: one uninterrupted run.
        let mut control = StreamEngine::new(
            d.clone(), specs.clone(), &ingress, arrivals, seed, EPOCH_US,
        );
        let mut control_rec = Recorder::new(0);
        for _ in 0..TOTAL_EPOCHS {
            control.step_epoch(&mut control_rec);
        }

        // Interrupted: suspend at an arbitrary epoch boundary, freeze the
        // whole engine to JSON, drop it, thaw, continue. The recorder
        // persists — its shards are append-only artifacts, exactly like
        // the daemon's gauge log across a process restart.
        let mut live = StreamEngine::new(d, specs, &ingress, arrivals, seed, EPOCH_US);
        let mut resumed_rec = Recorder::new(0);
        for _ in 0..suspend_at {
            live.step_epoch(&mut resumed_rec);
        }
        let frozen = serde_json::to_string(&live).expect("engine serializes");
        drop(live);
        let mut resumed: StreamEngine =
            serde_json::from_str(&frozen).expect("engine deserializes");
        for _ in suspend_at..TOTAL_EPOCHS {
            resumed.step_epoch(&mut resumed_rec);
        }

        prop_assert_eq!(control_rec.metrics_jsonl(), resumed_rec.metrics_jsonl());
        prop_assert_eq!(control_rec.chrome_trace(), resumed_rec.chrome_trace());
        prop_assert_eq!(
            serde_json::to_string(&control.report()).expect("report serializes"),
            serde_json::to_string(&resumed.report()).expect("report serializes")
        );
    }

    #[test]
    fn stream_epochs_equal_one_batch_window(
        seed in 0u64..1_000_000,
        scenario_idx in 0usize..6,
        mps in 0u32..2,
        remote_tenths in 0u32..=5,
        rtt in 1.0f64..120.0,
        arrivals_pick in 0usize..3,
    ) {
        let scenario = Scenario::ALL[scenario_idx];
        let Some((d, specs)) = deployment(scenario, mps == 1) else {
            return Ok(());
        };
        let ingress = ingress_for(&specs, f64::from(remote_tenths) / 10.0, rtt);
        let arrivals = arrivals_of(arrivals_pick);

        let mut stream = StreamEngine::new(
            d.clone(), specs.clone(), &ingress, arrivals, seed, EPOCH_US,
        );
        for _ in 0..TOTAL_EPOCHS {
            stream.step_epoch(&mut parva_obs::NullSink);
        }

        // The streaming engine's policy: health checks, nothing else.
        let policy = ResilienceSpec { health_checked: true, ..ResilienceSpec::default() };
        let batch = Simulation::new(&d, &specs)
            .ingress(&ingress)
            .arrivals(arrivals)
            .seed(seed)
            .window(0.0, (TOTAL_EPOCHS * EPOCH_US) as f64 * 1e-6, 0.0)
            .resilience(&policy)
            .run();

        let streamed = stream.report();
        prop_assert_eq!(streamed.services.len(), batch.services.len());
        for ((s, b), hist) in streamed.services.iter().zip(&batch.services).zip(stream.latency()) {
            prop_assert_eq!(s.id, b.service_id);
            prop_assert_eq!(s.offered, b.offered);
            prop_assert_eq!(s.completed, b.completed);
            prop_assert_eq!(s.within_slo, b.completed_within_slo);
            prop_assert_eq!(
                serde_json::to_string(hist).expect("histogram serializes"),
                serde_json::to_string(&b.latency).expect("histogram serializes")
            );
        }
    }
}
