//! `fleet bench`: engine-tunable sweeps for the high-rate fast path.
//!
//! Where a [`crate::spec::SweepSpec`] compares *policies* across workload
//! grids, a [`BenchSpec`] holds the policy fixed and sweeps the *engine
//! tunables* — decode micro-batch size, chunked-prefill token cap,
//! admission (prefill) batch — crossed with request rates up to 10× the
//! paper's 20 QPS. Every cell reports the usual steady-state quality
//! metrics plus informational *wall-clock* columns (events per
//! wall-second, simulated-seconds per wall-second); performance itself is
//! measured by the repository benchmark (`perfbench/`).
//!
//! Determinism contract: the JSON artifact ([`BenchReport`]) contains
//! only simulation-derived values and is byte-stable across runs and
//! thread counts. Wall-clock measurements are the executor's
//! [`CellTiming`] rows, which feed the rendered table and never enter
//! the artifact. Cell seeds derive from the *rate alone* (not the
//! tunables), so every configuration at a rate faces byte-identical
//! traffic.

use flexpipe_bench::PaperSetup;
use flexpipe_chaos::DisruptionScript;
use flexpipe_metrics::{fmt_f, fmt_pct, Table};
use flexpipe_model::ModelId;
use flexpipe_serving::{Engine, EngineConfig, Scenario};
use flexpipe_sim::{SimDuration, SimRng, SimTime};
use flexpipe_workload::{ArrivalSpec, LengthProfile, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::campaign::{execute_uncached, CellTiming, LoadedSpec, SpecReport};
use crate::report::{summarize_cell, CellMetrics};
use crate::runner::{FleetError, RunOptions};
use crate::spec::{
    fmt_axis, mix64, validate_run_window, BackgroundShape, ClusterShape, PolicySpec,
};

/// A declarative engine-tunable bench: one model, cluster, policy and
/// arrival CV; four tunable axes (rate × ubatch × prefill cap × admission
/// batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Bench name (report headers, artifact names).
    pub name: String,
    /// Model under test.
    pub model: ModelId,
    /// Root seed; per-rate workload seeds derive from it.
    pub seed: u64,
    /// Measured horizon per cell, seconds.
    pub horizon_secs: f64,
    /// Warmup excluded from steady-state metrics, seconds.
    pub warmup_secs: f64,
    /// Base latency SLO, seconds.
    pub slo_secs: f64,
    /// Additional SLO budget per generated token, milliseconds.
    pub slo_per_output_token_ms: f64,
    /// Background fragmentation profile.
    pub background: BackgroundShape,
    /// Request length distribution.
    pub lengths: LengthProfile,
    /// Per-cell event step budget (runaway watchdog).
    pub max_events: u64,
    /// Arrival coefficient of variation (one value: the bench stresses
    /// rate, not burst shape).
    pub cv: f64,
    /// Cluster shape.
    pub cluster: ClusterShape,
    /// The policy serving every cell.
    pub policy: PolicySpec,
    /// Request-rate axis, requests/second.
    pub rates: Vec<f64>,
    /// Decode micro-batch size axis.
    pub ubatch_sizes: Vec<u32>,
    /// Chunked-prefill token cap axis.
    pub prefill_token_caps: Vec<u64>,
    /// Admission (prefill) batch axis.
    pub admission_batches: Vec<u32>,
}

/// One expanded bench cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Index in expansion order (also the table row order).
    pub index: usize,
    /// Mean request rate, requests/second.
    pub rate: f64,
    /// Decode micro-batch size.
    pub ubatch_size: u32,
    /// Chunked-prefill token cap.
    pub prefill_token_cap: u64,
    /// Admission (prefill) batch.
    pub admission_batch: u32,
    /// Workload seed — derived from the rate alone, so every tunable
    /// configuration faces identical traffic.
    pub seed: u64,
}

impl BenchCell {
    /// Stable cell id, e.g. `r100-ub128-pc1024-ab16`.
    pub fn id(&self) -> String {
        format!(
            "r{}-ub{}-pc{}-ab{}",
            fmt_axis(self.rate),
            self.ubatch_size,
            self.prefill_token_cap,
            self.admission_batch,
        )
    }
}

/// Derives a bench cell's workload seed from the spec seed and the rate.
pub fn derive_bench_seed(root: u64, rate: f64) -> u64 {
    mix64(mix64(root ^ 0xBE7C_BE7C_BE7C_BE7C) ^ rate.to_bits())
}

impl BenchSpec {
    /// Expands the bench into its cell grid, in deterministic order:
    /// rates (outer) × ubatch × prefill cap × admission batch (inner).
    pub fn expand(&self) -> Vec<BenchCell> {
        let mut cells = Vec::new();
        for &rate in &self.rates {
            let seed = derive_bench_seed(self.seed, rate);
            for &ubatch_size in &self.ubatch_sizes {
                for &prefill_token_cap in &self.prefill_token_caps {
                    for &admission_batch in &self.admission_batches {
                        cells.push(BenchCell {
                            index: cells.len(),
                            rate,
                            ubatch_size,
                            prefill_token_cap,
                            admission_batch,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The canonical semantic content of one bench cell, for the campaign
    /// cache ([`crate::cache::cell_key`]). Mirrors
    /// [`crate::spec::SweepSpec::cell_semantics`]: `name` and `max_events`
    /// are excluded (cosmetic / watchdog), and the axis vectors are
    /// captured by the cell coordinate.
    pub fn cell_semantics(&self, cell: &BenchCell) -> serde::Value {
        let field = |k: &str, v: serde::Value| (k.to_string(), v);
        serde::Value::Map(vec![
            field("experiment", serde::Value::Str("bench".into())),
            field("model", self.model.to_value()),
            field("horizon_secs", self.horizon_secs.to_value()),
            field("warmup_secs", self.warmup_secs.to_value()),
            field("slo_secs", self.slo_secs.to_value()),
            field(
                "slo_per_output_token_ms",
                self.slo_per_output_token_ms.to_value(),
            ),
            field("background", self.background.to_value()),
            field("lengths", self.lengths.to_value()),
            field("cv", self.cv.to_value()),
            field("cluster", self.cluster.to_value()),
            field("policy", self.policy.to_value()),
            field("rate", cell.rate.to_value()),
            field("ubatch_size", cell.ubatch_size.to_value()),
            field("prefill_token_cap", cell.prefill_token_cap.to_value()),
            field("admission_batch", cell.admission_batch.to_value()),
            field("seed", cell.seed.to_value()),
        ])
    }

    /// Validates axis sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.rates.is_empty()
            || self.ubatch_sizes.is_empty()
            || self.prefill_token_caps.is_empty()
            || self.admission_batches.is_empty()
        {
            return Err("every bench axis needs at least one entry".into());
        }
        if self.rates.iter().any(|&r| !(r.is_finite() && r > 0.0)) {
            return Err("rates must be finite and positive".into());
        }
        if !(self.cv.is_finite() && self.cv > 0.0) {
            return Err("cv must be finite and positive".into());
        }
        if self.ubatch_sizes.contains(&0) || self.admission_batches.contains(&0) {
            return Err("batch sizes must be positive".into());
        }
        validate_run_window(
            self.horizon_secs,
            self.warmup_secs,
            self.slo_secs,
            self.slo_per_output_token_ms,
        )?;
        self.cluster.validate()?;
        if self.max_events == 0 {
            return Err("max_events watchdog budget must be positive".into());
        }
        Ok(())
    }

    /// The default high-rate bench (`fleet bench init`): FlexPipe on the
    /// paper testbed at CV 4, rates up to 10× the paper's 20 QPS,
    /// 2×2×2 tunable grid.
    pub fn template() -> BenchSpec {
        BenchSpec {
            name: "engine-bench".into(),
            model: ModelId::Opt66B,
            seed: 42,
            horizon_secs: 45.0,
            warmup_secs: 10.0,
            slo_secs: 2.0,
            slo_per_output_token_ms: 100.0,
            background: BackgroundShape::TestbedLike,
            lengths: LengthProfile::splitwise_like(),
            max_events: 200_000_000,
            cv: 4.0,
            cluster: ClusterShape::PaperTestbed,
            policy: PolicySpec::Paper(flexpipe_bench::SystemId::FlexPipe),
            rates: vec![20.0, 50.0, 100.0, 200.0],
            ubatch_sizes: vec![64, 128],
            prefill_token_caps: vec![512, 1024],
            admission_batches: vec![8, 16],
        }
    }
}

/// One executed bench cell inside the byte-stable artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCellResult {
    /// The tunable coordinate.
    pub cell: BenchCell,
    /// Steady-state simulation metrics (deterministic).
    pub metrics: CellMetrics,
}

/// The byte-stable bench artifact: spec + per-cell simulation metrics.
/// Wall-clock never enters this structure — see [`BenchReport::table`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Artifact format version.
    pub version: u32,
    /// The bench that produced this report.
    pub spec: BenchSpec,
    /// Per-cell results in expansion order.
    pub cells: Vec<BenchCellResult>,
}

/// Current [`BenchReport::version`].
pub const BENCH_REPORT_VERSION: u32 = 1;

impl BenchReport {
    /// The byte-stable JSON artifact.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Parses a JSON artifact, rejecting version mismatches explicitly.
    pub fn from_json(s: &str) -> Result<BenchReport, serde_json::Error> {
        let report: BenchReport = serde_json::from_str(s)?;
        if u64::from(report.version) != u64::from(BENCH_REPORT_VERSION) {
            return Err(serde_json::Error(format!(
                "bench report is format version {}, this build expects {BENCH_REPORT_VERSION} — \
                 regenerate the artifact",
                report.version
            )));
        }
        Ok(report)
    }

    /// The per-cell table, joining deterministic metrics with wall-clock
    /// throughput columns (events per wall-second, simulated seconds per
    /// wall-second) from `timings`, the executor's rows in cell order
    /// (empty: `-`). A row's wall time is the whole cell job: workload
    /// set-up, engine run and summary. It appears on stdout only.
    pub fn table(&self, timings: &[CellTiming]) -> Table {
        let sim_span = self.spec.warmup_secs + self.spec.horizon_secs;
        let mut t = Table::new(
            &format!("Bench `{}`: engine tunables × rate", self.spec.name),
            &[
                "rate",
                "ubatch",
                "prefill cap",
                "adm batch",
                "offered",
                "completed",
                "SLO att.",
                "goodput/s",
                "events",
                "wall(s)",
                "Mev/s wall",
                "sim-x",
                "status",
            ],
        );
        for (i, c) in self.cells.iter().enumerate() {
            let m = &c.metrics;
            let (wall, mev, simx) = match timings.get(i).map(|t| t.wall_ms / 1e3) {
                Some(w) if w > 0.0 => (
                    fmt_f(w, 2),
                    fmt_f(m.events as f64 / w / 1e6, 2),
                    fmt_f(sim_span / w, 1),
                ),
                _ => ("-".into(), "-".into(), "-".into()),
            };
            t.row(vec![
                fmt_axis(c.cell.rate),
                c.cell.ubatch_size.to_string(),
                c.cell.prefill_token_cap.to_string(),
                c.cell.admission_batch.to_string(),
                m.offered.to_string(),
                m.completed.to_string(),
                fmt_pct(m.slo_attainment),
                fmt_f(m.goodput_per_sec, 2),
                m.events.to_string(),
                wall,
                mev,
                simx,
                if m.failed {
                    "FAIL"
                } else if m.truncated {
                    "TRUNC"
                } else {
                    "-"
                }
                .to_string(),
            ]);
        }
        t
    }
}

/// Executes one bench cell to its metrics. Deterministic given (spec,
/// cell).
pub fn run_bench_cell(spec: &BenchSpec, cell: &BenchCell, setup: &PaperSetup) -> CellMetrics {
    let warmup = spec.warmup_secs;
    let span = warmup + spec.horizon_secs;
    let workload = WorkloadSpec {
        arrivals: ArrivalSpec::GammaRenewal {
            rate: cell.rate,
            cv: spec.cv,
        },
        lengths: spec.lengths,
        slo: SimDuration::from_secs_f64(spec.slo_secs),
        slo_per_output_token: SimDuration::from_secs_f64(spec.slo_per_output_token_ms / 1e3),
        horizon_secs: span,
    }
    .generate(&mut SimRng::seed(cell.seed));

    let cut = SimTime::from_secs_f64(warmup);
    let offered = workload
        .requests
        .iter()
        .filter(|r| r.arrival >= cut)
        .count();

    let scenario = Scenario {
        config: EngineConfig {
            ubatch_size: cell.ubatch_size,
            prefill_token_cap: cell.prefill_token_cap,
            prefill_batch: cell.admission_batch,
            max_events: spec.max_events,
            ..EngineConfig::default()
        },
        cluster: spec.cluster.cluster(),
        background: spec.background.profile(),
        tier: Default::default(),
        cost: setup.cost,
        workload,
        disruptions: DisruptionScript::default(),
        horizon: SimTime::from_secs_f64(span + 30.0),
        seed: cell.seed,
    };
    let policy = spec.policy.build(cell.rate);
    let report = Engine::new(scenario, setup.graph.clone(), setup.lattice.clone(), policy).run();
    summarize_cell(&report, warmup, spec.horizon_secs, offered)
}

/// Runs the full bench grid on the worker pool. The report is
/// deterministic; the timings are not (and never enter the artifact).
pub fn run_bench(
    spec: &BenchSpec,
    opts: &RunOptions,
) -> Result<(BenchReport, Vec<CellTiming>), FleetError> {
    let entry = LoadedSpec::bench(spec.clone()).map_err(FleetError)?;
    if !opts.quiet {
        eprintln!(
            "bench `{}`: {} cells ({} rates x {} ubatch x {} prefill caps x {} adm batches), model {}",
            spec.name,
            entry.cells(),
            spec.rates.len(),
            spec.ubatch_sizes.len(),
            spec.prefill_token_caps.len(),
            spec.admission_batches.len(),
            spec.model.name(),
        );
    }
    match execute_uncached(entry, opts) {
        (SpecReport::Bench(report), timings) => Ok((report, timings)),
        (SpecReport::Sweep(_), _) => unreachable!("a bench entry assembles a bench report"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast bench grid for unit tests.
    fn tiny_bench() -> BenchSpec {
        BenchSpec {
            name: "tiny-bench".into(),
            model: ModelId::Llama2_7B,
            seed: 7,
            horizon_secs: 10.0,
            warmup_secs: 2.0,
            slo_secs: 2.0,
            slo_per_output_token_ms: 100.0,
            background: BackgroundShape::Idle,
            lengths: LengthProfile::fixed(64, 4),
            max_events: 20_000_000,
            cv: 1.0,
            cluster: ClusterShape::Custom {
                nodes: 4,
                total_gpus: 6,
                servers_per_rack: 4,
            },
            policy: PolicySpec::Static {
                stages: 2,
                replicas: 1,
            },
            rates: vec![4.0, 8.0],
            ubatch_sizes: vec![32],
            prefill_token_caps: vec![256],
            admission_batches: vec![8],
        }
    }

    #[test]
    fn expansion_is_deterministic_with_rate_only_seeds() {
        let spec = BenchSpec::template();
        let a = spec.expand();
        assert_eq!(a, spec.expand());
        assert_eq!(a.len(), 4 * 2 * 2 * 2);
        // All tunable configs at one rate share the workload seed...
        let r20: Vec<&BenchCell> = a.iter().filter(|c| c.rate == 20.0).collect();
        assert!(r20.iter().all(|c| c.seed == r20[0].seed));
        // ...and rates decorrelate.
        let r50 = a.iter().find(|c| c.rate == 50.0).unwrap();
        assert_ne!(r20[0].seed, r50.seed);
        // Ids are unique.
        let ids: std::collections::BTreeSet<String> = a.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), a.len());
        assert_eq!(a[0].id(), "r20-ub64-pc512-ab8");
    }

    #[test]
    fn validation_catches_bad_axes() {
        let mut s = BenchSpec::template();
        s.rates.clear();
        assert!(s.validate().is_err());
        let mut s = BenchSpec::template();
        s.ubatch_sizes = vec![0];
        assert!(s.validate().is_err());
        let mut s = BenchSpec::template();
        s.cv = -1.0;
        assert!(s.validate().is_err());
        assert!(BenchSpec::template().validate().is_ok());
        // The cluster and run-window checks sweep specs use apply too.
        let mut s = BenchSpec::template();
        s.cluster = ClusterShape::Custom {
            nodes: 8,
            total_gpus: 4,
            servers_per_rack: 4,
        };
        assert!(s.validate().unwrap_err().contains("custom-8n-4g-4r"));
        let mut s = BenchSpec::template();
        s.horizon_secs = f64::INFINITY;
        assert!(s.validate().unwrap_err().starts_with("horizon_secs"));
        let mut s = BenchSpec::template();
        s.slo_secs = 0.0;
        assert!(s.validate().unwrap_err().starts_with("slo_secs"));
        let mut s = BenchSpec::template();
        s.warmup_secs = f64::NAN;
        assert!(s.validate().unwrap_err().starts_with("warmup_secs"));
        let mut s = BenchSpec::template();
        s.slo_per_output_token_ms = -1.0;
        assert!(s
            .validate()
            .unwrap_err()
            .starts_with("slo_per_output_token_ms"));
    }

    #[test]
    fn spec_and_report_round_trip_through_json() {
        let spec = BenchSpec::template();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: BenchSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        let report = BenchReport {
            version: BENCH_REPORT_VERSION,
            spec,
            cells: Vec::new(),
        };
        let json = report.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);

        // Version mismatches are named explicitly.
        let old = json.replacen("\"version\": 1", "\"version\": 0", 1);
        let err = BenchReport::from_json(&old).unwrap_err();
        assert!(err.to_string().contains("format version 0"), "{err}");
    }

    #[test]
    fn bench_runs_deterministically_and_modes_agree() {
        let spec = tiny_bench();
        let opts = RunOptions {
            threads: 2,
            quiet: true,
            ..Default::default()
        };
        let (a, timings) = run_bench(&spec, &opts).unwrap();
        let (b, _) = run_bench(
            &spec,
            &RunOptions {
                threads: 1,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        // Byte-stable artifact at any thread count.
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(timings.len(), a.cells.len());
        // Cells actually served traffic.
        assert!(a.cells.iter().all(|c| c.metrics.completed > 0));
        // The table renders.
        assert!(!a.table(&timings).is_empty());
    }
}
