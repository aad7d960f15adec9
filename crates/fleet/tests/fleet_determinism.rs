//! The fleet's reproducibility contract: the same spec produces a
//! byte-identical JSON report on every run, at any thread count — and the
//! regression gate catches injected degradations.

use flexpipe_bench::SystemId;
use flexpipe_fleet::{
    gate::gate, run_sweep, BackgroundShape, ClusterShape, GateConfig, PolicySpec, RunOptions,
    SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_workload::LengthProfile;

/// A small but real grid: 2 policies × 4 workload cells = 8 cells on a
/// fragmented 12-GPU cluster with background churn.
fn grid_spec() -> SweepSpec {
    SweepSpec {
        name: "determinism-grid".into(),
        model: ModelId::Llama2_7B,
        seed: 20_260_731,
        horizon_secs: 20.0,
        warmup_secs: 5.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::TestbedLike,
        lengths: LengthProfile::fixed(128, 8),
        max_events: 20_000_000,
        cvs: vec![1.0, 4.0],
        rates: vec![3.0, 6.0],
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
        disruptions: vec![flexpipe_fleet::DisruptionShape::None],
        replicas: 1,
    }
}

#[test]
fn rerun_is_byte_identical_across_thread_counts() {
    let spec = grid_spec();
    let quiet = |threads| RunOptions {
        threads,
        quiet: true,
        ..Default::default()
    };
    let first = run_sweep(&spec, &quiet(4)).unwrap();
    // The runner records a panicking cell as failed instead of aborting,
    // so two artifacts can agree while both failed the same cell.
    for c in &first.cells {
        assert!(!c.metrics.failed, "cell {} panicked", c.cell.id());
    }
    let first = first.to_json();
    let second = run_sweep(&spec, &quiet(4)).unwrap().to_json();
    assert_eq!(
        first, second,
        "two runs of the same spec must serialize identically"
    );
    // Parallelism must not leak into results: serial run, same bytes.
    let serial = run_sweep(&spec, &quiet(1)).unwrap().to_json();
    assert_eq!(first, serial, "thread count changed the artifact");
}

#[test]
fn grid_actually_serves_and_covers_both_policies() {
    let report = run_sweep(
        &grid_spec(),
        &RunOptions {
            threads: 4,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.cells.len(), 8);
    assert_eq!(report.policies.len(), 2);
    for cell in &report.cells {
        assert!(
            cell.metrics.offered > 0,
            "{} offered nothing",
            cell.cell.id()
        );
        assert!(
            cell.metrics.completed > 0,
            "{} completed nothing",
            cell.cell.id()
        );
        assert!(!cell.metrics.truncated, "{} truncated", cell.cell.id());
    }
    // Different workload coordinates must not share request streams: the
    // cells' latency percentiles should not all be identical.
    let p99s: std::collections::BTreeSet<String> = report
        .cells
        .iter()
        .map(|c| format!("{:.9}", c.metrics.p99_latency))
        .collect();
    assert!(p99s.len() > 1, "all cells produced identical latencies");
}

#[test]
fn gate_passes_self_and_fails_injected_regression() {
    let report = run_sweep(
        &grid_spec(),
        &RunOptions {
            threads: 4,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = GateConfig::default();

    // Self-comparison passes.
    let self_outcome = gate(&report, &report, &cfg);
    assert!(
        self_outcome.passed(&cfg),
        "self gate failed: {:?}",
        self_outcome.regressions
    );
    assert_eq!(self_outcome.compared, 8);

    // An injected 20% SLO-attainment drop fails.
    let mut degraded = report.clone();
    degraded.cells[0].metrics.slo_attainment *= 0.8;
    degraded.cells[0].metrics.goodput_per_sec *= 0.8;
    let outcome = gate(&report, &degraded, &cfg);
    assert!(!outcome.passed(&cfg), "gate missed an injected regression");
    assert!(outcome
        .regressions
        .iter()
        .any(|r| r.metric == "slo_attainment"));

    // The JSON artifact round-trips for gate consumption.
    let json = report.to_json();
    let reparsed = flexpipe_fleet::FleetReport::from_json(&json).unwrap();
    assert_eq!(reparsed, report);
    assert!(gate(&reparsed, &report, &cfg).passed(&cfg));
}
