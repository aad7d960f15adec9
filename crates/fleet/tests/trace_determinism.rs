//! The observability contract, pinned: tracing is *semantics-neutral*
//! (reports byte-identical with the recorder off, ring or full) and
//! traces themselves are *deterministic artifacts*
//! (byte-identical JSONL no matter how many threads record concurrently),
//! including under proptest-randomized disruption churn. This is what
//! makes `fleet trace diff` a meaningful equivalence check.

use std::sync::OnceLock;

use flexpipe_bench::{PaperSetup, SystemId};
use flexpipe_chaos::{Disruption, DisruptionEvent, DisruptionScript};
use flexpipe_fleet::{
    parse_spec, record_cell_trace, run_cell, run_cell_observed, run_sweep, BackgroundShape,
    CellResult, ClusterShape, DisruptionShape, FleetReport, PolicySpec, RunOptions, SweepSpec,
};
use flexpipe_model::ModelId;
use flexpipe_obs::{first_divergence, parse_jsonl, TraceSummary};
use flexpipe_serving::TraceMode;
use flexpipe_workload::LengthProfile;
use proptest::prelude::*;

fn llama_setup() -> &'static PaperSetup {
    static SETUP: OnceLock<PaperSetup> = OnceLock::new();
    SETUP.get_or_init(|| PaperSetup::for_model(ModelId::Llama2_7B))
}

/// A small churny sweep: FlexPipe + a static baseline under a preemption
/// → failure → capacity-return script, so traces carry the full request,
/// instance and disruption-episode vocabularies.
fn churn_spec(cv: f64, rate: f64, at_secs: f64, grace_secs: f64, fail_gpu: u32) -> SweepSpec {
    SweepSpec {
        name: "trace-determinism".into(),
        model: ModelId::Llama2_7B,
        seed: 31,
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
            name: "trace-churn".into(),
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

fn default_churn_spec() -> SweepSpec {
    churn_spec(2.0, 5.0, 5.0, 1.5, 3)
}

#[test]
fn trace_modes_never_perturb_metrics_in_either_engine_mode() {
    let spec = default_churn_spec();
    let setup = llama_setup();
    for cell in spec.expand() {
        let plain = run_cell(&spec, &cell, setup);
        for mode in [TraceMode::Off, TraceMode::Ring(64), TraceMode::Full] {
            let (metrics, observed) = run_cell_observed(&spec, &cell, setup, mode);
            assert_eq!(
                plain,
                metrics,
                "trace mode {mode} perturbed cell {}",
                cell.id()
            );
            match mode {
                TraceMode::Off => assert!(observed.trace.is_empty()),
                TraceMode::Ring(cap) => {
                    assert!(observed.trace.len() <= cap);
                    assert_eq!(
                        observed.trace.len() as u64 + observed.trace.evicted(),
                        observed.trace.total_seen(),
                        "ring accounting broke"
                    );
                    // The registry counts everything, evicted or not.
                    assert_eq!(
                        observed.trace.registry().total(),
                        observed.trace.total_seen()
                    );
                }
                TraceMode::Full => {
                    assert!(!observed.trace.is_empty(), "full mode recorded nothing");
                    assert_eq!(observed.trace.evicted(), 0);
                }
            }
        }
    }
}

#[test]
fn traces_are_byte_identical_across_concurrent_recorders() {
    let spec = default_churn_spec();
    let cell = spec.expand().remove(0);
    let reference = record_cell_trace(&spec, &cell, TraceMode::Full)
        .1
        .trace
        .to_jsonl();
    assert!(!reference.is_empty());

    // Four threads recording the same cell simultaneously — each engine
    // run is single-threaded and deterministic, so concurrency (and by
    // extension the fleet runner's thread count) cannot perturb a trace.
    let traces: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    record_cell_trace(&spec, &cell, TraceMode::Full)
                        .1
                        .trace
                        .to_jsonl()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for t in &traces {
        assert!(
            first_divergence(&reference, t).is_none(),
            "concurrent recording diverged"
        );
    }

    // The JSONL round-trips and carries the expected vocabularies:
    // request lifecycle, instance lifecycle, and the disruption episode.
    let records = parse_jsonl(&reference).expect("trace parses");
    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.records, records.len());
    for kind in [
        "request_arrival",
        "request_admit",
        "request_complete",
        "instance_spawn",
        "instance_ready",
        "revocation",
        "control_tick",
    ] {
        assert!(
            summary.registry.count(kind) > 0,
            "trace is missing `{kind}` events"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized churn: whatever the arrival shape and disruption
    /// interleaving, full tracing leaves the metrics untouched, and two
    /// recordings of the same cell are byte-identical.
    #[test]
    fn random_churn_traces_are_neutral_and_stable(
        cv in 0.5f64..6.0,
        rate in 2.0f64..8.0,
        at_secs in 3.0f64..8.0,
        grace_secs in 0.0f64..3.0,
    ) {
        let fail_gpu = (at_secs * 1e3) as u32 % 12;
        let spec = churn_spec(cv, rate, at_secs, grace_secs, fail_gpu);
        prop_assert!(spec.validate().is_ok());
        let setup = llama_setup();
        for cell in spec.expand() {
            let plain = run_cell(&spec, &cell, setup);
            let (traced, first) = run_cell_observed(&spec, &cell, setup, TraceMode::Full);
            prop_assert_eq!(&plain, &traced, "tracing perturbed cell {}", cell.id());
            let (_, second) = run_cell_observed(&spec, &cell, setup, TraceMode::Full);
            prop_assert!(
                first_divergence(&first.trace.to_jsonl(), &second.trace.to_jsonl()).is_none(),
                "re-recording cell {} diverged", cell.id()
            );
        }
    }
}

/// The committed sweep specs, loaded from the repo's `specs/` directory.
fn committed_spec(file: &str) -> SweepSpec {
    let path = format!("{}/../../specs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed spec readable");
    parse_spec(&path, &text).expect("committed spec parses")
}

/// Acceptance sweep (heavy — run with `cargo test -- --ignored`): the
/// committed sweep specs produce byte-identical reports whether cells run
/// untraced on N threads or traced (off/ring/full) sequentially.
#[test]
#[ignore = "acceptance: full committed-spec grids under three trace modes"]
fn committed_spec_reports_are_byte_identical_in_every_trace_mode() {
    for file in ["cv-rate-sensitivity.json", "disruption-recovery.json"] {
        let spec = committed_spec(file);
        let setup = PaperSetup::for_model(spec.model);
        let baseline = run_sweep(
            &spec,
            &RunOptions {
                threads: 4,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap()
        .to_json();
        for mode in [TraceMode::Off, TraceMode::Ring(512), TraceMode::Full] {
            let results: Vec<CellResult> = spec
                .expand()
                .into_iter()
                .map(|cell| {
                    let (metrics, _) = run_cell_observed(&spec, &cell, &setup, mode);
                    CellResult { cell, metrics }
                })
                .collect();
            let traced = FleetReport::assemble(spec.clone(), results).to_json();
            assert_eq!(baseline, traced, "trace mode {mode} perturbed {file}");
        }
    }
}
