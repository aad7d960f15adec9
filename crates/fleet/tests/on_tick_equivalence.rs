//! Engine-level coverage of the warm-start incremental `on_tick` solver.
//! In debug builds (the test profile) the policy checks its dirty-set
//! fleet mirror against a from-scratch fleet snapshot every tick, and
//! re-runs the refactor walk's per-instance decision over the off-target
//! set whenever the calm-tick plan cache skips the walk, so each run below
//! fails at the first decision the mirror or the cache gets wrong. The
//! proptest drives randomized demand swings, background fragmentation
//! churn and disruption interleavings — the regime where the control
//! plane actually refactors, scales out under pressure, retires under
//! patience, and rebuilds after revocations. Two pinned standing fleets
//! cover the other regimes: a `FlexPipeFleet` deployment under light
//! traffic, and a calm, off-target `FlexPipeCalm` fleet where the plan
//! cache replaces the refactor-pass walk.

use std::sync::OnceLock;

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_fleet::{
    profile_spec, run_cell, BackgroundShape, CellMetrics, ClusterShape, DisruptionShape,
    PolicySpec, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_workload::LengthProfile;
use proptest::prelude::*;

fn llama_setup() -> &'static PaperSetup {
    static SETUP: OnceLock<PaperSetup> = OnceLock::new();
    SETUP.get_or_init(|| PaperSetup::for_model(ModelId::Llama2_7B))
}

/// A control-plane-heavy sweep around one randomized coordinate: bursty
/// arrivals (high cv), fragmentation churn, and a mid-run preemption +
/// return that forces inflight recovery decisions.
fn churn_spec(cv: f64, rate: f64, at_secs: f64, grace_secs: f64, seed: u64) -> SweepSpec {
    SweepSpec {
        name: "on-tick-equivalence".into(),
        model: ModelId::Llama2_7B,
        seed,
        horizon_secs: 40.0,
        warmup_secs: 5.0,
        slo_secs: 4.0,
        slo_per_output_token_ms: 100.0,
        // Background tenants churn fragmentation every step, feeding the
        // policy's placement inputs with constant low-level change.
        background: BackgroundShape::TestbedLike,
        lengths: LengthProfile::fixed(128, 8),
        max_events: 20_000_000,
        cvs: vec![cv],
        rates: vec![rate],
        clusters: vec![ClusterShape::Custom {
            nodes: 8,
            total_gpus: 16,
            servers_per_rack: 4,
        }],
        policies: vec![PolicySpec::Paper(SystemId::FlexPipe)],
        disruptions: vec![DisruptionShape::Script(DisruptionScript {
            name: "churned-interleaving".into(),
            events: vec![
                DisruptionEvent {
                    at_secs,
                    kind: Disruption::HotServerPreempt {
                        rank: 0,
                        grace_secs,
                    },
                },
                DisruptionEvent {
                    at_secs: at_secs + 6.0,
                    kind: Disruption::CapacityReturn {
                        gpus: Vec::new(),
                        servers: vec![0],
                    },
                },
            ],
        })],
        replicas: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Every decision the warm-start mirror and the plan cache make under
    /// randomized churn and disruption interleavings is checked by the
    /// policy's debug-build validators as it is made.
    #[test]
    fn warm_start_on_tick_matches_from_scratch(
        cv in 1.0f64..6.0,
        rate in 5.0f64..25.0,
        at_secs in 8.0f64..25.0,
        grace_secs in 0.0f64..5.0,
        seed in 1u64..1000,
    ) {
        let spec = churn_spec(cv, rate, at_secs, grace_secs, seed);
        prop_assert!(spec.validate().is_ok());
        let setup = llama_setup();
        let mut completed = 0usize;
        for cell in spec.expand() {
            completed += run_cell(&spec, &cell, setup).completed;
        }
        // The runs did real work (otherwise the validators checked
        // nothing).
        prop_assert!(completed > 0, "no cell served anything");
    }
}

/// A standing fleet of `replicas` pinned by `policy` on a cluster with
/// `gpus_per_replica` GPUs each plus headroom, under `rate` req/s of
/// light traffic for two simulated minutes.
fn standing_fleet_spec(
    policy: PolicySpec,
    replicas: u32,
    gpus_per_replica: u32,
    rate: f64,
) -> SweepSpec {
    let total_gpus = replicas * gpus_per_replica + 64;
    SweepSpec {
        name: format!("standing-fleet-{}", policy.label()),
        policies: vec![policy],
        clusters: vec![ClusterShape::Custom {
            nodes: total_gpus.div_ceil(8),
            total_gpus,
            servers_per_rack: 8,
        }],
        horizon_secs: 120.0,
        rates: vec![rate],
        ..profile_spec(replicas).expect("small fleets are in range")
    }
}

/// Runs the spec's single cell, returning its metrics.
fn run_single_cell(spec: &SweepSpec) -> CellMetrics {
    assert!(spec.validate().is_ok());
    let cell = spec.expand().remove(0);
    run_cell(spec, &cell, llama_setup())
}

#[test]
fn flexpipe_fleet_pins_at_exactly_n_replicas() {
    let spec = standing_fleet_spec(PolicySpec::FlexPipeFleet { replicas: 6 }, 6, 4, 20.0);
    let metrics = run_single_cell(&spec);
    assert!(!metrics.truncated);
    // The standing fleet holds at exactly the pinned replica count:
    // nothing retires, nothing re-spawns.
    assert_eq!(metrics.spawns, 6, "fleet must pin at 6 replicas");
    assert!(metrics.completed > 0, "the fleet must serve");
}

#[test]
fn calm_off_target_fleet_never_refactors_and_matches_naive() {
    // Near-zero traffic (validation requires a positive rate): the ~1
    // expected arrival leaves all but a couple of ticks delta-free, so
    // the policy re-proves the walk a no-op from its plan cache, and the
    // debug build re-runs the walk's decision for every instance on each
    // of those skips.
    let spec = standing_fleet_spec(
        PolicySpec::FlexPipeCalm {
            replicas: 4,
            stages: 8,
        },
        4,
        8,
        0.01,
    );
    let metrics = run_single_cell(&spec);
    assert!(!metrics.truncated);
    assert_eq!(metrics.spawns, 4, "fleet must pin at 4 replicas");
    assert_eq!(
        metrics.refactors, 0,
        "unwinnable hysteresis must keep the walk action-free"
    );
}
