//! Engine-level coverage of the indexed admission fast path: byte-identical
//! fleet reports at any thread count on the repo's committed specs, and
//! proptest-randomized arrival/disruption interleavings (preemptions with
//! and without grace, capacity returns, inflight FlexPipe recovery), which
//! is where a stale index entry would first diverge. The engine's
//! debug-build validators compare the index with instance state on every
//! gateway drain (and every other hot-path structure with its naive scan
//! on every consultation), so these runs fail at the first wrong decision.

use std::sync::OnceLock;

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_fleet::{
    parse_spec, run_cell, run_sweep, BackgroundShape, ClusterShape, DisruptionShape, PolicySpec,
    RunOptions, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_workload::LengthProfile;
use proptest::prelude::*;

/// The committed chaos spec, loaded from the repo's `specs/` directory
/// (tests run with the crate as CWD).
fn disruption_recovery_spec() -> SweepSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/disruption-recovery.json"
    );
    let text = std::fs::read_to_string(path).expect("committed spec readable");
    parse_spec(path, &text).expect("committed spec parses")
}

#[test]
fn committed_spec_reports_are_byte_identical_across_modes_and_threads() {
    let spec = disruption_recovery_spec();
    let opts = |threads| RunOptions {
        threads,
        quiet: true,
        ..Default::default()
    };
    let one = run_sweep(&spec, &opts(1)).unwrap();
    // The runner records a panicking cell as failed instead of aborting,
    // so a validator that fires inside a cell shows up only here.
    for c in &one.cells {
        assert!(!c.metrics.failed, "cell {} panicked", c.cell.id());
    }
    let four = run_sweep(&spec, &opts(4)).unwrap();
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "thread count leaked into the report"
    );
}

fn llama_setup() -> &'static PaperSetup {
    static SETUP: OnceLock<PaperSetup> = OnceLock::new();
    SETUP.get_or_init(|| PaperSetup::for_model(ModelId::Llama2_7B))
}

/// A tiny disrupted sweep around one randomized coordinate.
fn random_spec(cv: f64, rate: f64, at_secs: f64, grace_secs: f64, fail_gpu: u32) -> SweepSpec {
    SweepSpec {
        name: "admission-equivalence".into(),
        model: ModelId::Llama2_7B,
        seed: 23,
        horizon_secs: 12.0,
        warmup_secs: 3.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        lengths: LengthProfile::fixed(96, 6),
        max_events: 20_000_000,
        cvs: vec![cv],
        rates: vec![rate],
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
        disruptions: vec![DisruptionShape::Script(DisruptionScript {
            name: "random-interleaving".into(),
            events: vec![
                DisruptionEvent {
                    at_secs,
                    kind: Disruption::HotServerPreempt {
                        rank: 0,
                        grace_secs,
                    },
                },
                DisruptionEvent {
                    at_secs: at_secs + 1.0,
                    kind: Disruption::GpuFail { gpu: fail_gpu },
                },
                DisruptionEvent {
                    at_secs: at_secs + 4.0,
                    kind: Disruption::CapacityReturn {
                        gpus: vec![fail_gpu],
                        servers: Vec::new(),
                    },
                },
            ],
        })],
        replicas: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (request → instance) assignment the indexed path makes under
    /// a random arrival/disruption interleaving is checked by the engine's
    /// debug-build validators as it is made.
    #[test]
    fn random_interleavings_yield_identical_metrics(
        cv in 0.5f64..6.0,
        rate in 2.0f64..8.0,
        at_secs in 3.0f64..8.0,
        grace_secs in 0.0f64..3.0,
    ) {
        let fail_gpu = (at_secs * 1e3) as u32 % 12;
        let spec = random_spec(cv, rate, at_secs, grace_secs, fail_gpu);
        prop_assert!(spec.validate().is_ok());
        let setup = llama_setup();
        let mut completed = 0usize;
        for cell in spec.expand() {
            completed += run_cell(&spec, &cell, setup).completed;
        }
        // The runs did real work (otherwise the validators checked
        // nothing). A single cell may legitimately complete nothing
        // in-window — a preempted static replica takes longer than the
        // horizon to cold respawn — but the case as a whole must serve
        // traffic.
        prop_assert!(completed > 0, "no cell served anything");
    }
}
