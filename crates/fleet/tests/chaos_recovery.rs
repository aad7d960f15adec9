//! The chaos subsystem's acceptance contract (ISSUE 2):
//!
//! 1. determinism holds under disruption — the same spec + disruption
//!    script produces byte-identical fleet reports at any thread count;
//! 2. a `ServerPreempt` mid-run makes FlexPipe recover via inflight
//!    refactor (no full respawn, nothing replayed) while the static
//!    pipeline cold-respawns — asserted by comparing recovery-time and
//!    aborted-request metrics against disruption-free counterfactual runs
//!    of the *same* seed.

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript, RandomDisruptions};
use flexpipe_fleet::{
    run_cell, run_sweep, BackgroundShape, CellMetrics, ClusterShape, DisruptionShape, PolicySpec,
    RunOptions, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_workload::LengthProfile;

/// The preemption trace: the busiest server gets a 15 s grace notice at
/// t = 15 s, well inside the measured window.
fn preempt_script() -> DisruptionScript {
    DisruptionScript {
        name: "preempt".into(),
        events: vec![DisruptionEvent {
            at_secs: 15.0,
            kind: Disruption::HotServerPreempt {
                rank: 0,
                grace_secs: 15.0,
            },
        }],
    }
}

/// A small fragmented cluster under steady traffic: FlexPipe vs. the
/// static pipeline, with and without the preemption.
fn spec() -> SweepSpec {
    SweepSpec {
        name: "chaos-recovery".into(),
        model: ModelId::Llama2_7B,
        seed: 20_260_731,
        horizon_secs: 30.0,
        warmup_secs: 8.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        lengths: LengthProfile::fixed(128, 128),
        max_events: 50_000_000,
        cvs: vec![1.0],
        rates: vec![4.0],
        clusters: vec![ClusterShape::Custom {
            nodes: 8,
            total_gpus: 12,
            servers_per_rack: 4,
        }],
        policies: vec![
            PolicySpec::Paper(SystemId::FlexPipe),
            PolicySpec::Static {
                stages: 2,
                replicas: 1,
            },
        ],
        disruptions: vec![DisruptionShape::Script(preempt_script())],
        replicas: 1,
    }
}

/// Runs one expanded cell plus its disruption-free counterfactual: the
/// same derived seed (so byte-identical traffic) with the script removed.
fn disrupted_and_counterfactual(policy_label: &str) -> (CellMetrics, CellMetrics) {
    let spec = spec();
    let setup = PaperSetup::for_model(spec.model);
    let cell = spec
        .expand()
        .into_iter()
        .find(|c| c.policy.label() == policy_label)
        .expect("policy in grid");
    let disrupted = run_cell(&spec, &cell, &setup);
    let mut calm_cell = cell.clone();
    calm_cell.disruption = DisruptionShape::None; // seed stays fixed
    let calm = run_cell(&spec, &calm_cell, &setup);
    (disrupted, calm)
}

#[test]
fn flexpipe_recovers_inflight_while_static_cold_respawns() {
    let (flex, flex_calm) = disrupted_and_counterfactual("FlexPipe");
    let (stat, stat_calm) = disrupted_and_counterfactual("Static-2x1");

    // Both policies faced exactly one revocation.
    assert_eq!(flex.revocations, 1, "flex revocations");
    assert_eq!(stat.revocations, 1, "static revocations");
    assert_eq!(flex_calm.revocations, 0);
    assert_eq!(stat_calm.revocations, 0);

    // FlexPipe used the grace window: stages migrated off the doomed
    // server inflight, so the revocation hit idle devices — nothing was
    // aborted and no new instance was spawned.
    assert_eq!(
        flex.requests_replayed, 0,
        "FlexPipe should migrate before the deadline, not replay"
    );
    assert_eq!(
        flex.spawns, flex_calm.spawns,
        "inflight recovery must not respawn"
    );
    assert!(
        flex.refactors > flex_calm.refactors,
        "the rescue is a refactor: {} vs calm {}",
        flex.refactors,
        flex_calm.refactors
    );
    assert!(
        flex.mean_ttr_secs < 0.5,
        "FlexPipe TTR {} should be ~0",
        flex.mean_ttr_secs
    );

    // The static pipeline ignored the notice: the preemption destroyed its
    // in-flight work and it paid a full cold respawn.
    assert!(
        stat.requests_replayed > 0,
        "static must lose in-flight work to the preemption"
    );
    assert!(stat.tokens_lost > 0);
    assert_eq!(
        stat.spawns,
        stat_calm.spawns + 1,
        "static recovery is a respawn"
    );
    assert!(
        stat.mean_ttr_secs > 1.0,
        "static TTR {} should include provisioning + reload",
        stat.mean_ttr_secs
    );

    // The headline comparison: inflight refactoring beats cold respawn on
    // both recovery time and lost work.
    assert!(
        flex.mean_ttr_secs < stat.mean_ttr_secs,
        "flex TTR {} !< static TTR {}",
        flex.mean_ttr_secs,
        stat.mean_ttr_secs
    );
    assert!(flex.requests_replayed < stat.requests_replayed);
}

#[test]
fn disrupted_sweeps_are_byte_identical_across_thread_counts() {
    // Exercise all three shapes: scripted preemption + surge, an MTBF
    // generator (realized from cell seeds), and the default None.
    let mut spec = spec();
    let mut surge_script = preempt_script();
    surge_script.name = "preempt-surge".into();
    surge_script.events.push(DisruptionEvent {
        at_secs: 20.0,
        kind: Disruption::RateSurge {
            factor: 2.0,
            duration_secs: 6.0,
        },
    });
    spec.disruptions = vec![
        DisruptionShape::None,
        DisruptionShape::Script(surge_script),
        DisruptionShape::Random(RandomDisruptions {
            label: "mtbf".into(),
            gpu_fail_mtbf_secs: 40.0,
            server_preempt_mtbf_secs: 0.0,
            grace_secs: 0.0,
            restore_delay_secs: 10.0,
            start_secs: 10.0,
            max_events: 8,
        }),
        // No grace: the revocation wounds FlexPipe's serving instance
        // while decode micro-batches are in flight, and FlexPipe rebuilds
        // it inflight, so every decode launch after the rebuild checks
        // that the wound emptied the instance's decode-slot count.
        DisruptionShape::Script(DisruptionScript {
            name: "hard-preempt".into(),
            events: vec![DisruptionEvent {
                at_secs: 15.0,
                kind: Disruption::HotServerPreempt {
                    rank: 0,
                    grace_secs: 0.0,
                },
            }],
        }),
    ];
    let quiet = |threads| RunOptions {
        threads,
        quiet: true,
        ..Default::default()
    };
    let parallel = run_sweep(&spec, &quiet(4)).unwrap();
    // The runner records a panicking cell as failed instead of aborting,
    // so two artifacts can agree while both failed the same cell.
    for c in &parallel.cells {
        assert!(!c.metrics.failed, "cell {} panicked", c.cell.id());
    }
    let parallel = parallel.to_json();
    let serial = run_sweep(&spec, &quiet(1)).unwrap().to_json();
    assert_eq!(parallel, serial, "thread count leaked into the artifact");
    let again = run_sweep(&spec, &quiet(4)).unwrap().to_json();
    assert_eq!(parallel, again, "rerun not reproducible");

    // The disruption traces actually fired somewhere in the grid.
    let report = flexpipe_fleet::FleetReport::from_json(&parallel).unwrap();
    assert!(
        report.cells.iter().any(|c| c.metrics.revocations > 0),
        "no revocation executed anywhere in the disrupted grid"
    );
    // The hard preemption cost FlexPipe in-flight work that had already
    // decoded tokens (more tokens lost than the replayed prompts hold),
    // and FlexPipe recovered by refactoring.
    let hard = report
        .cells
        .iter()
        .find(|c| c.cell.id().ends_with("FlexPipe-s-hard-preempt"))
        .expect("hard-preempt FlexPipe cell in the grid");
    assert_eq!(hard.metrics.revocations, 1);
    assert!(hard.metrics.requests_replayed > 0, "nothing was in flight");
    assert!(
        hard.metrics.tokens_lost > 128 * u64::from(hard.metrics.requests_replayed),
        "no decoded tokens were lost: {} tokens over {} replayed requests",
        hard.metrics.tokens_lost,
        hard.metrics.requests_replayed
    );
    assert!(
        hard.metrics.refactors > 0,
        "FlexPipe did not rebuild inflight"
    );
    // Identical-trace contract: policies sharing a disrupted coordinate
    // report the same revocation count.
    for pair in report.cells.chunks(2) {
        if let [a, b] = pair {
            if a.cell.seed == b.cell.seed {
                assert_eq!(
                    a.metrics.revocations,
                    b.metrics.revocations,
                    "policies {} vs {} saw different traces",
                    a.cell.id(),
                    b.cell.id()
                );
            }
        }
    }
}
