//! The parallel fleet runner: executes an expanded scenario grid on a
//! worker thread pool over the serving engine.
//!
//! Each worker pulls the next unclaimed cell from a shared atomic cursor,
//! constructs the cell's workload / scenario / policy from the spec
//! (generation is seeded per cell, so construction order across threads
//! cannot perturb results), runs the engine, and writes its metrics into
//! the cell's pre-allocated result slot. Model artefacts (graph +
//! granularity lattice) are built once and shared via `Arc` — lattice
//! construction costs more than a short cell run.
//!
//! Robustness: every cell body runs under `catch_unwind`, so one
//! pathological cell reports as failed instead of tearing down the grid,
//! and the engine's step budget (`SweepSpec::max_events`) bounds runaway
//! cells, which surface with `truncated = true`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use flexpipe_bench::PaperSetup;
use flexpipe_chaos::{virtual_horizon, warp_arrivals, DisruptionScript};
use flexpipe_serving::{Engine, EngineConfig, ObservedRun, Scenario, TraceMode};
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{ArrivalSpec, WorkloadSpec};

use crate::report::{summarize_cell, CellMetrics, CellResult, FleetReport};
use crate::spec::{Cell, DisruptionShape, SweepSpec};

/// Runner configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker threads; 0 means one per available core (capped by the cell
    /// count).
    pub threads: usize,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// Structured per-cell progress on stderr: one `start` line and one
    /// `finish` line (wall ms, truncation flag) per cell. Wall-clock
    /// detail stays on stderr only — it never enters any artifact.
    pub verbose: bool,
}

/// A failed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetError(pub String);

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FleetError {}

/// Realizes a cell's disruption trace. Scripts pass through verbatim;
/// stochastic generators draw from a stream derived from the cell seed —
/// which excludes the policy axis — so every policy in the cell group
/// faces the identical trace.
pub fn realize_disruptions(spec: &SweepSpec, cell: &Cell) -> DisruptionScript {
    match &cell.disruption {
        DisruptionShape::None => DisruptionScript::default(),
        DisruptionShape::Script(s) => s.clone(),
        DisruptionShape::Random(gen) => {
            let cluster = cell.cluster.cluster();
            gen.realize(
                &SimRng::seed(cell.seed).stream_named("chaos"),
                spec.warmup_secs + spec.horizon_secs,
                cluster.total_gpus(),
                cluster.servers.len() as u32,
            )
        }
    }
}

/// Executes one cell to its metrics. Deterministic given (spec, cell).
pub fn run_cell(spec: &SweepSpec, cell: &Cell, setup: &PaperSetup) -> CellMetrics {
    let (engine, offered) = build_cell_engine(spec, cell, setup);
    let report = engine.run();
    summarize_cell(&report, spec.warmup_secs, spec.horizon_secs, offered)
}

/// Executes one cell with the engine recording a structured trace under
/// `trace`. Returns the same deterministic metrics as [`run_cell`] —
/// tracing is observation-only — plus the full [`ObservedRun`].
pub fn run_cell_observed(
    spec: &SweepSpec,
    cell: &Cell,
    setup: &PaperSetup,
    trace: TraceMode,
) -> (CellMetrics, ObservedRun) {
    let (mut engine, offered) = build_cell_engine(spec, cell, setup);
    engine.set_trace(trace);
    let observed = engine.run_observed();
    let metrics = summarize_cell(
        &observed.report,
        spec.warmup_secs,
        spec.horizon_secs,
        offered,
    );
    (metrics, observed)
}

/// Builds a cell's fully-configured engine plus its offered-load count
/// (post-warmup arrivals). Shared by the plain, observed and profiled
/// cell runners so all three execute the identical scenario.
pub(crate) fn build_cell_engine(
    spec: &SweepSpec,
    cell: &Cell,
    setup: &PaperSetup,
) -> (Engine, usize) {
    let warmup = spec.warmup_secs;
    let span = warmup + spec.horizon_secs;
    let script = realize_disruptions(spec, cell);
    // Rate surges densify arrivals via the chaos time-warp: generate over
    // the stretched virtual horizon, then map back onto the real axis.
    // Without surges both steps are identity.
    let mut workload = WorkloadSpec {
        arrivals: ArrivalSpec::GammaRenewal {
            rate: cell.rate,
            cv: cell.cv,
        },
        lengths: spec.lengths,
        slo: SimDuration::from_secs_f64(spec.slo_secs),
        slo_per_output_token: SimDuration::from_secs_f64(spec.slo_per_output_token_ms / 1e3),
        horizon_secs: virtual_horizon(span, &script),
    }
    .generate(&mut SimRng::seed(cell.seed));
    warp_arrivals(&mut workload, &script, span);

    let cut = SimTime::from_secs_f64(warmup);
    let offered = workload
        .requests
        .iter()
        .filter(|r| r.arrival >= cut)
        .count();

    let scenario = Scenario {
        config: EngineConfig {
            max_events: spec.max_events,
            ..EngineConfig::default()
        },
        cluster: cell.cluster.cluster(),
        background: spec.background.profile(),
        tier: Default::default(),
        cost: setup.cost,
        workload,
        disruptions: script,
        // Grace window past the horizon so in-flight requests drain.
        horizon: SimTime::from_secs_f64(span + 30.0),
        seed: cell.seed,
    };
    let policy = cell.policy.build(cell.rate);
    let engine = Engine::new(scenario, setup.graph.clone(), setup.lattice.clone(), policy);
    (engine, offered)
}

/// Metrics recorded for a cell whose engine run panicked: all-zero, with
/// `failed` set so tables, rollups and gates flag it distinctly from
/// step-budget truncation.
pub(crate) fn failed_cell_metrics() -> CellMetrics {
    CellMetrics {
        offered: 0,
        completed: 0,
        within_slo: 0,
        slo_attainment: 0.0,
        goodput_per_sec: 0.0,
        p50_ttft: 0.0,
        p99_ttft: 0.0,
        p50_tpot: 0.0,
        p99_tpot: 0.0,
        p50_latency: 0.0,
        p99_latency: 0.0,
        refactors: 0,
        refactor_pause_secs: 0.0,
        mean_gpus_held: 0.0,
        spawns: 0,
        revocations: 0,
        requests_replayed: 0,
        tokens_lost: 0,
        mean_ttr_secs: 0.0,
        max_ttr_secs: 0.0,
        disrupted_completed: 0,
        disrupted_within_slo: 0,
        events: 0,
        truncated: false,
        failed: true,
    }
}

/// Runs `n` index-addressed jobs on a pool of `threads` workers and
/// returns the results in index order. The shared backbone of
/// [`run_sweep`], [`crate::bench::run_bench`] and
/// [`crate::campaign::run_campaign`]: workers pull the next unclaimed
/// index from an atomic cursor and write into pre-assigned slots, so
/// thread interleaving can never reorder (or drop) results. `f` is
/// responsible for its own panic containment.
pub(crate) fn parallel_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every job executed")
        })
        .collect()
}

/// Runs the full sweep, in parallel, and assembles the report.
pub fn run_sweep(spec: &SweepSpec, opts: &RunOptions) -> Result<FleetReport, FleetError> {
    spec.validate().map_err(FleetError)?;
    let cells = spec.expand();
    let n = cells.len();
    let started = Instant::now();
    if !opts.quiet {
        eprintln!(
            "fleet `{}`: {} cells ({} cvs x {} rates x {} clusters x {} disruptions x {} replicas x {} policies), model {}",
            spec.name,
            n,
            spec.cvs.len(),
            spec.rates.len(),
            spec.clusters.len(),
            spec.disruptions.len(),
            spec.replicas.max(1),
            spec.policies.len(),
            spec.model.name(),
        );
    }

    // Shared model artefacts (graph + lattice): built once, read-only.
    let setup = PaperSetup::for_model(spec.model);
    if !opts.quiet {
        eprintln!(
            "fleet `{}`: lattice ready ({} levels) in {:.1}s",
            spec.name,
            setup.levels.len(),
            started.elapsed().as_secs_f64()
        );
    }

    let threads = effective_threads(opts.threads, n);
    let finished = AtomicUsize::new(0);
    let metrics = parallel_indexed(n, threads, |i| {
        let cell = &cells[i];
        if opts.verbose && !opts.quiet {
            eprintln!("fleet cell={} event=start", cell.id());
        }
        let cell_started = Instant::now();
        let metrics = match catch_unwind(AssertUnwindSafe(|| run_cell(spec, cell, &setup))) {
            Ok(m) => m,
            Err(_) => {
                eprintln!("fleet cell {} PANICKED; recorded as failed", cell.id());
                failed_cell_metrics()
            }
        };
        if opts.verbose && !opts.quiet {
            eprintln!(
                "fleet cell={} event=finish wall_ms={:.1} truncated={} failed={}",
                cell.id(),
                cell_started.elapsed().as_secs_f64() * 1e3,
                metrics.truncated,
                metrics.failed,
            );
        }
        let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
        if !opts.quiet {
            eprintln!(
                "fleet [{done}/{n}] {} done in {:.1}s (SLO att. {:.1}%{})",
                cell.id(),
                cell_started.elapsed().as_secs_f64(),
                metrics.slo_attainment * 100.0,
                if metrics.truncated { ", TRUNCATED" } else { "" },
            );
        }
        metrics
    });

    let results: Vec<CellResult> = cells
        .into_iter()
        .zip(metrics)
        .map(|(cell, metrics)| CellResult { cell, metrics })
        .collect();
    if !opts.quiet {
        eprintln!(
            "fleet `{}`: {} cells on {} threads in {:.1}s",
            spec.name,
            n,
            threads,
            started.elapsed().as_secs_f64()
        );
    }
    Ok(FleetReport::assemble(spec.clone(), results))
}

/// Resolves the worker count: explicit, else one per core, always within
/// `[1, cells]`.
pub fn effective_threads(requested: usize, cells: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let t = if requested == 0 { auto } else { requested };
    t.clamp(1, cells.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackgroundShape, ClusterShape, PolicySpec};
    use flexpipe_bench::SystemId;
    use flexpipe_model::ModelId;
    use flexpipe_workload::LengthProfile;

    /// A tiny, fast sweep for unit tests: small model, short horizon.
    pub(crate) fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            model: ModelId::Llama2_7B,
            seed: 7,
            horizon_secs: 20.0,
            warmup_secs: 5.0,
            slo_secs: 2.0,
            slo_per_output_token_ms: 100.0,
            background: BackgroundShape::Idle,
            lengths: LengthProfile::fixed(128, 8),
            max_events: 20_000_000,
            cvs: vec![1.0, 4.0],
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
            disruptions: vec![crate::spec::DisruptionShape::None],
            replicas: 1,
        }
    }

    #[test]
    fn parallel_indexed_preserves_order_at_any_thread_count() {
        let want: Vec<usize> = (0..100).map(|i| i * 2).collect();
        for threads in [1, 4, 64] {
            assert_eq!(parallel_indexed(100, threads, |i| i * 2), want);
        }
        assert!(parallel_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn thread_resolution_is_clamped() {
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(16, 4), 4);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn single_cell_runs_and_serves_traffic() {
        let spec = tiny_spec();
        let setup = PaperSetup::for_model(spec.model);
        let cells = spec.expand();
        let m = run_cell(&spec, &cells[0], &setup);
        assert!(m.offered > 0, "no offered load");
        assert!(m.completed > 0, "nothing completed");
        assert!(!m.truncated);
    }

    #[test]
    fn sweep_runs_all_cells_in_parallel() {
        let spec = tiny_spec();
        let report = run_sweep(
            &spec,
            &RunOptions {
                threads: 4,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.policies.len(), 2);
        assert!(report.cells.iter().all(|c| c.metrics.completed > 0));
    }

    #[test]
    fn tight_step_budget_truncates_instead_of_aborting() {
        let mut spec = tiny_spec();
        spec.max_events = 500; // far below what 20 s of traffic needs
        let setup = PaperSetup::for_model(spec.model);
        let cells = spec.expand();
        let m = run_cell(&spec, &cells[0], &setup);
        assert!(m.truncated, "watchdog should have fired");
    }
}
