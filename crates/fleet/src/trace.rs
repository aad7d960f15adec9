//! `fleet trace`: structured engine traces as a first-class fleet
//! artifact — record a cell's trace, summarize a trace file, and profile
//! the engine's dispatch per event kind.
//!
//! Traces are virtual-time-stamped JSONL (see [`flexpipe_obs`]): byte
//! stable for a given (spec, cell) at any thread count, which is what
//! lets `fleet check equiv` compare two of them meaningfully. Profiling
//! is the one deliberately wall-clock piece: it times the engine from
//! outside, one step at a time, and stays outside every artifact, like
//! bench timings.

use std::ops::RangeInclusive;
use std::time::Instant;

use flexpipe_bench::PaperSetup;
use flexpipe_model::ModelId;
use flexpipe_obs::Profiler;
use flexpipe_serving::{ObservedRun, SteppedEngine, TraceMode};
use flexpipe_workload::LengthProfile;

use crate::report::{summarize_cell, CellMetrics};
use crate::runner::{build_cell_engine, run_cell_observed, FleetError};
use crate::spec::{BackgroundShape, Cell, ClusterShape, DisruptionShape, PolicySpec, SweepSpec};

/// Finds the cell of `spec` with the given [`Cell::id`], if any.
pub fn find_cell(spec: &SweepSpec, id: &str) -> Option<Cell> {
    spec.expand().into_iter().find(|c| c.id() == id)
}

/// Runs one cell with the trace recorder armed in `mode`. Metrics are
/// identical to the untraced run — recording is observation-only.
pub fn record_cell_trace(
    spec: &SweepSpec,
    cell: &Cell,
    mode: TraceMode,
) -> (CellMetrics, ObservedRun) {
    let setup = PaperSetup::for_model(spec.model);
    run_cell_observed(spec, cell, &setup, mode)
}

/// The fleet sizes [`profile_spec`] accepts: at least one replica, and
/// few enough that the profile's cluster (`instances + 64` GPUs) stays
/// far from `u32` overflow.
pub const PROFILE_INSTANCES: RangeInclusive<u32> = 1..=100_000;

/// The dispatch-profile scenario: `instances` single-stage Llama2-7B
/// replicas (the model's lattice has a 1-stage level, so one GPU each)
/// on a cluster sized with headroom, under light traffic so control
/// ticks and admission dominate the event mix. Fails when `instances`
/// lies outside [`PROFILE_INSTANCES`].
pub fn profile_spec(instances: u32) -> Result<SweepSpec, FleetError> {
    if !PROFILE_INSTANCES.contains(&instances) {
        return Err(FleetError(format!(
            "the profile needs between {} and {} instances, got {instances}",
            PROFILE_INSTANCES.start(),
            PROFILE_INSTANCES.end()
        )));
    }
    let total_gpus = instances + 64;
    Ok(SweepSpec {
        name: format!("ontick-profile-{instances}"),
        model: ModelId::Llama2_7B,
        seed: 7,
        horizon_secs: 10.0,
        warmup_secs: 2.0,
        slo_secs: 2.0,
        slo_per_output_token_ms: 100.0,
        background: BackgroundShape::Idle,
        lengths: LengthProfile::fixed(64, 4),
        max_events: 200_000_000,
        cvs: vec![2.0],
        rates: vec![20.0],
        clusters: vec![ClusterShape::Custom {
            nodes: total_gpus.div_ceil(8),
            total_gpus,
            servers_per_rack: 8,
        }],
        policies: vec![PolicySpec::Static {
            stages: 1,
            replicas: instances,
        }],
        disruptions: vec![DisruptionShape::None],
        replicas: 1,
    })
}

/// Profiles engine dispatch on the [`profile_spec`] scenario from
/// outside the engine. The cell is built exactly as
/// [`crate::run_cell`] builds it and driven one event at a time through
/// [`SteppedEngine::step`] in canonical order (bit-identical to
/// `Engine::run`); each step's wall time, read from the end of the
/// previous step, is charged to the event kind the step returns.
/// Returns the cell's deterministic metrics — equal to `run_cell`'s —
/// and the per-kind wall-clock profile.
pub fn profile_dispatch(instances: u32) -> Result<(CellMetrics, Profiler), FleetError> {
    let spec = profile_spec(instances)?;
    let cell = spec.expand().remove(0);
    let setup = PaperSetup::for_model(spec.model);
    let (engine, offered) = build_cell_engine(&spec, &cell, &setup);
    let mut stepped = SteppedEngine::new(engine);
    let mut profiler = Profiler::default();
    let mut last = Instant::now();
    while let Some(kind) = stepped.step(0) {
        let now = Instant::now();
        profiler.observe(kind, (now - last).as_secs_f64());
        last = now;
    }
    let observed = stepped.finish();
    let metrics = summarize_cell(
        &observed.report,
        spec.warmup_secs,
        spec.horizon_secs,
        offered,
    );
    Ok((metrics, profiler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;

    #[test]
    fn profile_spec_validates_and_has_one_cell() {
        let spec = profile_spec(8).unwrap();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn profile_spec_rejects_empty_and_overflowing_fleets() {
        for instances in [0, PROFILE_INSTANCES.end() + 1, u32::MAX - 63, u32::MAX] {
            let err = profile_spec(instances).unwrap_err();
            assert!(err.0.contains(&instances.to_string()), "{err}");
        }
        assert!(profile_spec(*PROFILE_INSTANCES.end()).is_ok());
    }

    #[test]
    fn find_cell_matches_ids_exactly() {
        let spec = profile_spec(8).unwrap();
        let cells = spec.expand();
        let id = cells[0].id();
        assert_eq!(find_cell(&spec, &id), Some(cells[0].clone()));
        assert_eq!(find_cell(&spec, "no-such-cell"), None);
    }

    #[test]
    fn small_profile_matches_run_cell_and_charges_every_step() {
        let (metrics, profiler) = profile_dispatch(4).unwrap();
        assert!(!metrics.truncated);
        assert!(metrics.completed > 0, "profile scenario must serve traffic");
        // Stepping from outside is observation-only: the cell's metrics
        // equal the production runner's for the same cell.
        let spec = profile_spec(4).unwrap();
        let setup = PaperSetup::for_model(spec.model);
        assert_eq!(metrics, run_cell(&spec, &spec.expand()[0], &setup));
        // Every fired event is charged to exactly one kind.
        let charged: u64 = profiler.scopes().map(|(_, s)| s.calls).sum();
        assert_eq!(charged, metrics.events);
        for kind in ["arrival", "control_tick", "stage_arrive", "stage_done"] {
            assert!(profiler.calls(kind) > 0, "no `{kind}` row");
        }
    }
}
