//! `fleet campaign`: resumable multi-spec campaigns over the
//! content-addressed per-cell cache.
//!
//! A [`CampaignSpec`] (a JSON file, like [`SweepSpec`]) lists sweep
//! and bench spec files plus a shared cache directory. Running it expands
//! every listed spec into its cell grid, flattens all grids into one job
//! list on a single worker pool, and consults the [`crate::cache`] before
//! each cell: a hit replays the persisted deterministic metrics, a miss
//! runs the engine and persists the result. Because the engine is
//! deterministic and incomplete (truncated / panicked) cells are never
//! cached, the assembled artifacts are **byte-identical whether every
//! cell was computed, every cell was cached, or a killed run resumed
//! half-way — at any thread count**. That is the property CI's cold/warm
//! `cmp` steps and the resume integration tests pin down.
//!
//! Each entry's artifact is exactly what `fleet run` / `fleet bench`
//! would have produced for that spec (same bytes), so `fleet gate` and
//! `fleet compare` keep working on campaign outputs unchanged. The
//! campaign additionally writes a `campaign.json` manifest recording
//! every cell's content key under the engine-fingerprint salt.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use flexpipe_bench::PaperSetup;
use flexpipe_model::ModelId;
use serde::{Deserialize, Serialize};

use crate::bench::{run_bench_cell, BenchCell, BenchCellResult, BenchReport, BENCH_REPORT_VERSION};
use crate::cache::{cache_salt, cell_key, CellCache};
use crate::report::{CellMetrics, CellResult, FleetReport};
use crate::runner::{
    effective_threads, failed_cell_metrics, parallel_indexed, run_cell, FleetError, RunOptions,
};
use crate::spec::{Cell, SweepSpec};
use crate::store::StoreKind;
use crate::BenchSpec;

/// Campaign manifest format version.
pub const CAMPAIGN_FORMAT_VERSION: u32 = 1;

/// What kind of experiment a campaign entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// A [`SweepSpec`] file (policy grids, including chaos sweeps).
    Sweep,
    /// A [`BenchSpec`] file (engine-tunable grids).
    Bench,
}

impl EntryKind {
    /// Lowercase label used in cache entries and progress lines.
    pub fn label(self) -> &'static str {
        match self {
            EntryKind::Sweep => "sweep",
            EntryKind::Bench => "bench",
        }
    }
}

/// One spec file listed by a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignEntry {
    /// Experiment kind (selects the spec parser).
    pub kind: EntryKind,
    /// Spec file path, resolved relative to the campaign file.
    pub path: String,
}

/// A declarative multi-spec campaign: named spec files sharing one
/// per-cell artifact cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (manifest header, default output directory).
    pub name: String,
    /// Shared cell-cache directory, resolved relative to the campaign
    /// file (override with `--cache`, disable with `--no-cache`).
    pub cache_dir: String,
    /// The specs to run, in order.
    pub entries: Vec<CampaignEntry>,
}

impl CampaignSpec {
    /// Structural sanity checks (spec files are validated after loading).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("campaign name must be non-empty".into());
        }
        if self.cache_dir.is_empty() {
            return Err("cache_dir must be non-empty".into());
        }
        if self.entries.is_empty() {
            return Err("a campaign needs at least one entry".into());
        }
        let mut paths = std::collections::BTreeSet::new();
        for e in &self.entries {
            if !paths.insert(&e.path) {
                return Err(format!("duplicate campaign entry `{}`", e.path));
            }
        }
        Ok(())
    }

    /// The committed CI campaign (`fleet campaign init`): the three
    /// standing spec files sharing one cache.
    pub fn template() -> CampaignSpec {
        CampaignSpec {
            name: "campaign-ci".into(),
            cache_dir: ".fleet-cache".into(),
            entries: vec![
                CampaignEntry {
                    kind: EntryKind::Sweep,
                    path: "cv-rate-sensitivity.json".into(),
                },
                CampaignEntry {
                    kind: EntryKind::Sweep,
                    path: "disruption-recovery.json".into(),
                },
                CampaignEntry {
                    kind: EntryKind::Bench,
                    path: "engine-bench.json".into(),
                },
            ],
        }
    }
}

/// A parsed, validated campaign entry.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadedSpec {
    /// A sweep (or chaos sweep) with its expanded grid.
    Sweep(SweepSpec, Vec<Cell>),
    /// A bench with its expanded grid.
    Bench(BenchSpec, Vec<BenchCell>),
}

impl LoadedSpec {
    /// The spec's own name (artifact file stem).
    pub fn name(&self) -> &str {
        match self {
            LoadedSpec::Sweep(s, _) => &s.name,
            LoadedSpec::Bench(s, _) => &s.name,
        }
    }

    /// Cell count.
    pub fn cells(&self) -> usize {
        match self {
            LoadedSpec::Sweep(_, cells) => cells.len(),
            LoadedSpec::Bench(_, cells) => cells.len(),
        }
    }

    fn model(&self) -> ModelId {
        match self {
            LoadedSpec::Sweep(s, _) => s.model,
            LoadedSpec::Bench(s, _) => s.model,
        }
    }
}

/// Loads, validates and expands every entry of `spec`, resolving paths
/// against `base_dir` (the campaign file's directory).
pub fn load_entries(spec: &CampaignSpec, base_dir: &Path) -> Result<Vec<LoadedSpec>, FleetError> {
    spec.validate().map_err(FleetError)?;
    let mut loaded = Vec::new();
    let mut names = std::collections::BTreeSet::new();
    for e in &spec.entries {
        let path = base_dir.join(&e.path);
        let text = std::fs::read_to_string(&path)
            .map_err(|err| FleetError(format!("cannot read {}: {err}", path.display())))?;
        let path_str = path.to_string_lossy().to_string();
        let entry = match e.kind {
            EntryKind::Sweep => {
                let s = crate::parse_spec(&path_str, &text)?;
                s.validate()
                    .map_err(|err| FleetError(format!("{}: {err}", e.path)))?;
                let cells = s.expand();
                LoadedSpec::Sweep(s, cells)
            }
            EntryKind::Bench => {
                let s = crate::parse_bench(&path_str, &text)?;
                s.validate()
                    .map_err(|err| FleetError(format!("{}: {err}", e.path)))?;
                let cells = s.expand();
                LoadedSpec::Bench(s, cells)
            }
        };
        if !names.insert(entry.name().to_string()) {
            return Err(FleetError(format!(
                "two campaign entries share the spec name `{}` (their artifacts would collide)",
                entry.name()
            )));
        }
        loaded.push(entry);
    }
    Ok(loaded)
}

/// The expanded execution plan of a campaign: every entry loaded and
/// validated, every cell content-keyed, and the flat job list. This is
/// the shared substrate of `fleet campaign` (one process), `fleet
/// worker` (N processes against a shared cache), and `fleet campaign
/// assemble` (cache-only artifact assembly): all three derive the same
/// plan from the same campaign file, which is what lets them cooperate
/// with no coordination channel beyond the cache itself.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Loaded, validated, expanded entries, in campaign order.
    pub entries: Vec<LoadedSpec>,
    /// Content keys under the current salt, parallel to each entry's
    /// cell grid.
    pub keys: Vec<Vec<String>>,
    /// The flat job list: `(entry index, cell index)` across every grid.
    pub jobs: Vec<(usize, usize)>,
}

/// A borrowed view of one planned cell job.
#[derive(Debug, Clone)]
pub struct CellJob<'a> {
    /// Owning spec's name.
    pub entry_name: &'a str,
    /// Cache entry kind label (`sweep` / `bench`).
    pub kind: &'static str,
    /// Human-readable cell id.
    pub id: String,
    /// The owning spec's step budget (`max_events`).
    pub budget: u64,
    /// The cell's content key.
    pub key: &'a str,
}

impl CampaignPlan {
    /// Loads and expands `spec` into its full plan. Keys are computed
    /// unconditionally — the manifest records them even when the cache
    /// is disabled.
    pub fn load(spec: &CampaignSpec, base_dir: &Path) -> Result<CampaignPlan, FleetError> {
        let entries = load_entries(spec, base_dir)?;
        let keys: Vec<Vec<String>> = entries
            .iter()
            .map(|e| match e {
                LoadedSpec::Sweep(s, cells) => cells
                    .iter()
                    .map(|c| cell_key(&s.cell_semantics(c)))
                    .collect(),
                LoadedSpec::Bench(s, cells) => cells
                    .iter()
                    .map(|c| cell_key(&s.cell_semantics(c)))
                    .collect(),
            })
            .collect();
        let jobs: Vec<(usize, usize)> = entries
            .iter()
            .enumerate()
            .flat_map(|(ei, e)| (0..e.cells()).map(move |ci| (ei, ci)))
            .collect();
        Ok(CampaignPlan {
            entries,
            keys,
            jobs,
        })
    }

    /// Total cell count across all entries.
    pub fn total_cells(&self) -> usize {
        self.jobs.len()
    }

    /// The metadata of flat job `i`.
    pub fn job(&self, i: usize) -> CellJob<'_> {
        let (ei, ci) = self.jobs[i];
        let entry = &self.entries[ei];
        let (kind, id, budget) = match entry {
            LoadedSpec::Sweep(s, cells) => ("sweep", cells[ci].id(), s.max_events),
            LoadedSpec::Bench(s, cells) => ("bench", cells[ci].id(), s.max_events),
        };
        CellJob {
            entry_name: entry.name(),
            kind,
            id,
            budget,
            key: &self.keys[ei][ci],
        }
    }

    /// Builds the shared model artefacts, one per distinct model across
    /// all entries.
    pub fn setups(&self) -> Vec<(ModelId, PaperSetup)> {
        let mut setups: Vec<(ModelId, PaperSetup)> = Vec::new();
        for e in &self.entries {
            if !setups.iter().any(|(m, _)| *m == e.model()) {
                setups.push((e.model(), PaperSetup::for_model(e.model())));
            }
        }
        setups
    }

    /// Executes flat job `i` with panic containment: a panicking cell
    /// becomes a failed-cell metrics record (never cached, visible in
    /// the artifact) instead of taking down the worker.
    pub fn compute(&self, i: usize, setups: &[(ModelId, PaperSetup)]) -> CellMetrics {
        let (ei, ci) = self.jobs[i];
        let entry = &self.entries[ei];
        let setup = setups
            .iter()
            .find(|(m, _)| *m == entry.model())
            .map(|(_, s)| s)
            .expect("setup prebuilt for every model in the plan");
        match catch_unwind(AssertUnwindSafe(|| match entry {
            LoadedSpec::Sweep(s, cells) => run_cell(s, &cells[ci], setup),
            LoadedSpec::Bench(s, cells) => run_bench_cell(s, &cells[ci], setup).0,
        })) {
            Ok(m) => m,
            Err(_) => {
                eprintln!(
                    "campaign cell {}:{} PANICKED; recorded as failed",
                    entry.name(),
                    self.job(i).id
                );
                failed_cell_metrics()
            }
        }
    }
}

/// Campaign runner configuration.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker pool / progress options (shared with sweeps).
    pub run: RunOptions,
    /// Cache directory; `None` disables both lookups and stores
    /// (`--no-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Storage backend preference for a fresh cache directory
    /// (`--store`); an initialized directory keeps its detected backend.
    pub store: Option<StoreKind>,
}

/// Cache interaction counters of one campaign run. Deliberately **not**
/// part of any byte-compared artifact — a warm run must produce the same
/// bytes as a cold one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignStats {
    /// Cells executed or replayed.
    pub cells: usize,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed this run.
    pub misses: usize,
    /// Of the misses, results persisted (complete, non-truncated).
    pub stored: usize,
}

impl CampaignStats {
    /// Hit rate in percent (100.0 when there were no cells).
    pub fn hit_rate_pct(&self) -> f64 {
        if self.cells == 0 {
            100.0
        } else {
            self.hits as f64 * 100.0 / self.cells as f64
        }
    }

    /// The one-line summary the CLI prints (and CI asserts on).
    pub fn render(&self, cache_enabled: bool) -> String {
        if cache_enabled {
            format!(
                "campaign cache: {} hits, {} misses over {} cells ({:.1}% hit rate, {} stored)",
                self.hits,
                self.misses,
                self.cells,
                self.hit_rate_pct(),
                self.stored
            )
        } else {
            format!("campaign cache: disabled ({} cells computed)", self.cells)
        }
    }
}

/// Wall-clock + cache-status record for one campaign cell. Lives in the
/// `campaign.timing.json` sidecar next to the manifest — deliberately
/// **outside** every content-keyed / byte-compared artifact, mirroring how
/// bench wall-clock timings ride beside (never inside) bench reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Owning spec's name.
    pub entry: String,
    /// Human-readable cell id.
    pub id: String,
    /// Whether the cell was served from the cache.
    pub cache_hit: bool,
    /// Wall time for the cell job (lookup + compute + store), in ms.
    pub wall_ms: f64,
    /// Whether the cell hit its step budget.
    pub truncated: bool,
}

/// The non-deterministic timing sidecar of a campaign run
/// (`campaign.timing.json`): per-cell wall time and cache status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignTiming {
    /// Per-cell rows, in flat job order.
    pub cells: Vec<CellTiming>,
    /// Whole-campaign wall time in ms.
    pub total_ms: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl CampaignTiming {
    /// The sidecar JSON. Not byte-stable across runs (wall clock) — never
    /// `cmp` this file.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("timing serializes");
        s.push('\n');
        s
    }
}

/// One assembled per-entry artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecReport {
    /// A full fleet report, byte-identical to `fleet run` on the spec.
    Sweep(FleetReport),
    /// A bench report, byte-identical to `fleet bench` on the spec
    /// (wall-clock timings never enter bench artifacts).
    Bench(BenchReport),
}

impl SpecReport {
    /// The artifact JSON.
    pub fn to_json(&self) -> String {
        match self {
            SpecReport::Sweep(r) => r.to_json(),
            SpecReport::Bench(r) => r.to_json(),
        }
    }
}

/// One cell row of the campaign manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestCell {
    /// Human-readable cell id.
    pub id: String,
    /// Content-address under the engine-fingerprint salt.
    pub key: String,
}

/// One entry row of the campaign manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The spec path as listed in the campaign file.
    pub path: String,
    /// Experiment kind.
    pub kind: EntryKind,
    /// The spec's own name.
    pub name: String,
    /// Artifact file name within the output directory.
    pub report: String,
    /// Every cell with its content key, in expansion order.
    pub cells: Vec<ManifestCell>,
}

/// The deterministic campaign manifest (`campaign.json`): what ran, under
/// which salt, addressed by which keys. Cache hit counts stay out — see
/// [`CampaignStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Manifest format version.
    pub version: u32,
    /// Campaign name.
    pub name: String,
    /// The full cache salt (engine fingerprint + format versions).
    pub salt: String,
    /// Per-entry rows, in campaign order.
    pub entries: Vec<ManifestEntry>,
}

impl CampaignManifest {
    /// The byte-stable JSON artifact.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("manifest serializes");
        s.push('\n');
        s
    }

    /// Parses a manifest, rejecting version mismatches explicitly.
    pub fn from_json(s: &str) -> Result<CampaignManifest, serde_json::Error> {
        let m: CampaignManifest = serde_json::from_str(s)?;
        if m.version != CAMPAIGN_FORMAT_VERSION {
            return Err(serde_json::Error(format!(
                "campaign manifest is format version {}, this build expects \
                 {CAMPAIGN_FORMAT_VERSION} — regenerate the artifact",
                m.version
            )));
        }
        Ok(m)
    }
}

/// Everything a campaign run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The deterministic manifest.
    pub manifest: CampaignManifest,
    /// Per-entry artifacts, parallel to `manifest.entries`.
    pub reports: Vec<SpecReport>,
    /// Cache counters (never byte-compared).
    pub stats: CampaignStats,
    /// Per-cell wall-clock sidecar (never byte-compared).
    pub timing: CampaignTiming,
}

impl CampaignResult {
    /// Writes every artifact into `dir` (`<spec-name>.report.json` per
    /// entry, `campaign.json`, and the `campaign.timing.json` wall-clock
    /// sidecar), returning the written paths. Only the timing sidecar is
    /// run-dependent; everything else is byte-stable.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (entry, report) in self.manifest.entries.iter().zip(&self.reports) {
            let path = dir.join(&entry.report);
            std::fs::write(&path, report.to_json())?;
            written.push(path);
        }
        let path = dir.join("campaign.json");
        std::fs::write(&path, self.manifest.to_json())?;
        written.push(path);
        let path = dir.join("campaign.timing.json");
        std::fs::write(&path, self.timing.to_json())?;
        written.push(path);
        Ok(written)
    }
}

/// Runs a campaign: loads and expands every entry, executes the flat
/// cell list on one worker pool with cache lookups, and assembles the
/// per-entry artifacts plus the manifest. Deterministic output at any
/// thread count, any cache state, any interruption history.
pub fn run_campaign(
    spec: &CampaignSpec,
    base_dir: &Path,
    opts: &CampaignOptions,
) -> Result<CampaignResult, FleetError> {
    let started = Instant::now();
    let plan = CampaignPlan::load(spec, base_dir)?;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(
            CellCache::open_kind(dir, opts.store)
                .map_err(|e| FleetError(format!("cannot open cache {}: {e}", dir.display())))?,
        ),
        None => None,
    };

    let setups = plan.setups();
    let n = plan.total_cells();
    if !opts.run.quiet {
        eprintln!(
            "campaign `{}`: {} cells across {} specs{}",
            spec.name,
            n,
            plan.entries.len(),
            match &cache {
                Some(c) => format!(", cache at {}", c.dir().display()),
                None => ", cache disabled".into(),
            }
        );
    }

    let threads = effective_threads(opts.run.threads, n);
    let finished = AtomicUsize::new(0);
    let outcomes: Vec<(CellMetrics, bool, bool, f64)> = parallel_indexed(n, threads, |i| {
        let job = plan.job(i);
        let (name, id, key) = (job.entry_name, &job.id, job.key);
        let job_started = Instant::now();
        if opts.run.verbose && !opts.run.quiet {
            eprintln!("campaign cell={name}:{id} event=start");
        }
        // Budget-aware hit: only replay entries that demonstrably fit
        // the current step budget (see [`CellCache::load`]).
        if let Some(metrics) = cache.as_ref().and_then(|c| c.load(key, job.budget)) {
            let wall_ms = job_started.elapsed().as_secs_f64() * 1e3;
            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
            if !opts.run.quiet {
                if opts.run.verbose {
                    eprintln!(
                        "campaign cell={name}:{id} event=finish cache=hit wall_ms={wall_ms:.1} \
                         truncated={}",
                        metrics.truncated,
                    );
                }
                eprintln!("campaign [{done}/{n}] {name}:{id} HIT {key}");
            }
            return (metrics, true, false, wall_ms);
        }
        let metrics = plan.compute(i, &setups);
        let stored = match &cache {
            Some(c) => c.store(key, job.kind, id, &metrics).unwrap_or_else(|e| {
                eprintln!("campaign cache store failed for {id}: {e} (continuing uncached)");
                false
            }),
            None => false,
        };
        let wall_ms = job_started.elapsed().as_secs_f64() * 1e3;
        let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
        if !opts.run.quiet {
            if opts.run.verbose {
                eprintln!(
                    "campaign cell={name}:{id} event=finish cache=miss wall_ms={wall_ms:.1} \
                     truncated={}",
                    metrics.truncated,
                );
            }
            eprintln!(
                "campaign [{done}/{n}] {name}:{id} done in {:.1}s{}",
                job_started.elapsed().as_secs_f64(),
                if metrics.truncated {
                    ", TRUNCATED (not cached)"
                } else {
                    ""
                },
            );
        }
        (metrics, false, stored, wall_ms)
    });

    let stats = CampaignStats {
        cells: n,
        hits: outcomes.iter().filter(|(_, hit, _, _)| *hit).count(),
        misses: outcomes.iter().filter(|(_, hit, _, _)| !*hit).count(),
        stored: outcomes.iter().filter(|(_, _, s, _)| *s).count(),
    };

    // The wall-clock sidecar rows, in flat job order.
    let timing_cells: Vec<CellTiming> = (0..n)
        .zip(&outcomes)
        .map(|(i, (m, hit, _, wall_ms))| {
            let job = plan.job(i);
            CellTiming {
                entry: job.entry_name.to_string(),
                id: job.id,
                cache_hit: *hit,
                wall_ms: *wall_ms,
                truncated: m.truncated,
            }
        })
        .collect();

    // Split the flat results back into per-entry artifacts.
    let mut metrics_by_entry: Vec<Vec<CellMetrics>> = plan
        .entries
        .iter()
        .map(|e| Vec::with_capacity(e.cells()))
        .collect();
    for (&(ei, _), (m, _, _, _)) in plan.jobs.iter().zip(outcomes) {
        metrics_by_entry[ei].push(m);
    }

    let (manifest, reports) = assemble_reports(spec, plan, metrics_by_entry);

    if !opts.run.quiet {
        eprintln!(
            "campaign `{}`: {} cells on {} threads in {:.1}s ({})",
            spec.name,
            n,
            threads,
            started.elapsed().as_secs_f64(),
            stats.render(opts.cache_dir.is_some()),
        );
    }
    Ok(CampaignResult {
        manifest,
        reports,
        stats,
        timing: CampaignTiming {
            cells: timing_cells,
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            threads,
        },
    })
}

/// Folds per-entry metrics into the final artifacts: one [`SpecReport`]
/// per entry (byte-identical to what `fleet run` / `fleet bench` would
/// produce) plus the [`CampaignManifest`]. Shared by [`run_campaign`]
/// and [`assemble_campaign`] so the two paths cannot drift.
fn assemble_reports(
    spec: &CampaignSpec,
    plan: CampaignPlan,
    metrics_by_entry: Vec<Vec<CellMetrics>>,
) -> (CampaignManifest, Vec<SpecReport>) {
    let mut reports = Vec::new();
    let mut manifest_entries = Vec::new();
    for (((entry, listed), keys), metrics) in plan
        .entries
        .into_iter()
        .zip(&spec.entries)
        .zip(plan.keys)
        .zip(metrics_by_entry)
    {
        let name = entry.name().to_string();
        let (report, ids): (SpecReport, Vec<String>) = match entry {
            LoadedSpec::Sweep(s, cells) => {
                let ids = cells.iter().map(Cell::id).collect();
                let results: Vec<CellResult> = cells
                    .into_iter()
                    .zip(metrics)
                    .map(|(cell, metrics)| CellResult { cell, metrics })
                    .collect();
                (SpecReport::Sweep(FleetReport::assemble(s, results)), ids)
            }
            LoadedSpec::Bench(s, cells) => {
                let ids = cells.iter().map(BenchCell::id).collect();
                let results: Vec<BenchCellResult> = cells
                    .into_iter()
                    .zip(metrics)
                    .map(|(cell, metrics)| BenchCellResult { cell, metrics })
                    .collect();
                (
                    SpecReport::Bench(BenchReport {
                        version: BENCH_REPORT_VERSION,
                        spec: s,
                        cells: results,
                    }),
                    ids,
                )
            }
        };
        manifest_entries.push(ManifestEntry {
            path: listed.path.clone(),
            kind: listed.kind,
            name: name.clone(),
            report: format!("{name}.report.json"),
            cells: ids
                .into_iter()
                .zip(keys)
                .map(|(id, key)| ManifestCell { id, key })
                .collect(),
        });
        reports.push(report);
    }
    (
        CampaignManifest {
            version: CAMPAIGN_FORMAT_VERSION,
            name: spec.name.clone(),
            salt: cache_salt(),
            entries: manifest_entries,
        },
        reports,
    )
}

/// A cell `fleet campaign assemble` could not serve from the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingCell {
    /// Owning spec's name.
    pub entry: String,
    /// Human-readable cell id.
    pub id: String,
    /// The content key the cache was asked for.
    pub key: String,
}

/// What [`assemble_campaign`] found in the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum AssembleOutcome {
    /// Every cell was present and budget-fit: the full artifact set,
    /// byte-identical to a `fleet campaign` run of the same spec.
    Complete(Box<CampaignResult>),
    /// At least one cell is absent (never computed, evicted, truncated,
    /// stored under a different salt, or over the current budget). The
    /// CLI turns this into exit code 2, naming every key.
    Incomplete {
        /// Every absent cell, in plan order.
        missing: Vec<MissingCell>,
    },
}

/// Assembles a campaign's artifacts **from the cache alone** — the
/// push-button "did the fleet finish?" check after `fleet worker`
/// processes drained the cell list. No cell is ever computed here: either
/// every key resolves (under the same budget-aware rule as
/// [`run_campaign`]) and the complete artifact set comes back, or the
/// full list of missing cells does.
pub fn assemble_campaign(
    spec: &CampaignSpec,
    base_dir: &Path,
    cache_dir: &Path,
) -> Result<AssembleOutcome, FleetError> {
    let started = Instant::now();
    let plan = CampaignPlan::load(spec, base_dir)?;
    let cache = CellCache::open(cache_dir)
        .map_err(|e| FleetError(format!("cannot open cache {}: {e}", cache_dir.display())))?;

    let n = plan.total_cells();
    let mut metrics_by_entry: Vec<Vec<CellMetrics>> = plan
        .entries
        .iter()
        .map(|e| Vec::with_capacity(e.cells()))
        .collect();
    let mut missing = Vec::new();
    for i in 0..n {
        let job = plan.job(i);
        match cache.load(job.key, job.budget) {
            Some(m) => metrics_by_entry[plan.jobs[i].0].push(m),
            None => missing.push(MissingCell {
                entry: job.entry_name.to_string(),
                id: job.id,
                key: job.key.to_string(),
            }),
        }
    }
    if !missing.is_empty() {
        return Ok(AssembleOutcome::Incomplete { missing });
    }

    // Assembly is pure bookkeeping: every cell is a hit, no wall-clock
    // enters any byte-compared artifact (the timing sidecar is already
    // excluded from every cmp).
    let timing_cells: Vec<CellTiming> = (0..n)
        .map(|i| {
            let job = plan.job(i);
            let (ei, ci) = plan.jobs[i];
            CellTiming {
                entry: job.entry_name.to_string(),
                id: job.id,
                cache_hit: true,
                wall_ms: 0.0,
                truncated: metrics_by_entry[ei][ci].truncated,
            }
        })
        .collect();
    let stats = CampaignStats {
        cells: n,
        hits: n,
        misses: 0,
        stored: 0,
    };
    let (manifest, reports) = assemble_reports(spec, plan, metrics_by_entry);
    Ok(AssembleOutcome::Complete(Box::new(CampaignResult {
        manifest,
        reports,
        stats,
        timing: CampaignTiming {
            cells: timing_cells,
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            threads: 0,
        },
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flexpipe-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn tiny_sweep_json() -> String {
        r#"{
  "name": "tiny-sweep",
  "model": "Llama2_7B",
  "seed": 11,
  "horizon_secs": 8.0,
  "warmup_secs": 2.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 128.0, "prompt_sigma": 0.0, "prompt_range": [128, 128],
    "output_mean": 8.0, "output_range": [8, 8]
  },
  "max_events": 20000000,
  "cvs": [1.0],
  "rates": [3.0],
  "clusters": [{"Custom": {"nodes": 6, "total_gpus": 8, "servers_per_rack": 3}}],
  "policies": [{"Paper": "FlexPipe"}, {"Static": {"stages": 2, "replicas": 1}}]
}
"#
        .to_string()
    }

    fn tiny_bench_json() -> String {
        r#"{
  "name": "tiny-bench",
  "model": "Llama2_7B",
  "seed": 7,
  "horizon_secs": 6.0,
  "warmup_secs": 2.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 64.0, "prompt_sigma": 0.0, "prompt_range": [64, 64],
    "output_mean": 4.0, "output_range": [4, 4]
  },
  "max_events": 20000000,
  "cv": 1.0,
  "cluster": {"Custom": {"nodes": 4, "total_gpus": 6, "servers_per_rack": 4}},
  "policy": {"Static": {"stages": 2, "replicas": 1}},
  "rates": [3.0],
  "ubatch_sizes": [32],
  "prefill_token_caps": [256],
  "admission_batches": [8]
}
"#
        .to_string()
    }

    fn write_campaign(dir: &Path) -> CampaignSpec {
        std::fs::write(dir.join("sweep.json"), tiny_sweep_json()).unwrap();
        std::fs::write(dir.join("bench.json"), tiny_bench_json()).unwrap();
        CampaignSpec {
            name: "tiny-campaign".into(),
            cache_dir: "cells".into(),
            entries: vec![
                CampaignEntry {
                    kind: EntryKind::Sweep,
                    path: "sweep.json".into(),
                },
                CampaignEntry {
                    kind: EntryKind::Bench,
                    path: "bench.json".into(),
                },
            ],
        }
    }

    fn opts(dir: &Path, threads: usize) -> CampaignOptions {
        CampaignOptions {
            run: RunOptions {
                threads,
                quiet: true,
                ..Default::default()
            },
            cache_dir: Some(dir.join("cells")),
            store: None,
        }
    }

    #[test]
    fn template_validates_and_round_trips() {
        let spec = CampaignSpec::template();
        assert!(spec.validate().is_ok());
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_catches_structural_problems() {
        let mut spec = CampaignSpec::template();
        spec.entries.clear();
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::template();
        spec.entries.push(spec.entries[0].clone());
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::template();
        spec.cache_dir.clear();
        assert!(spec.validate().is_err());
        // A missing spec file errors cleanly at load time.
        let dir = tmp("missing");
        let spec = CampaignSpec {
            name: "x".into(),
            cache_dir: "cells".into(),
            entries: vec![CampaignEntry {
                kind: EntryKind::Sweep,
                path: "nope.json".into(),
            }],
        };
        assert!(load_entries(&spec, &dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_warm_and_uncached_runs_are_byte_identical() {
        let dir = tmp("coldwarm");
        let spec = write_campaign(&dir);

        let cold = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(cold.stats.hits, 0);
        assert_eq!(cold.stats.misses, 3);
        assert_eq!(cold.stats.stored, 3);

        // Warm run (single-threaded to also cross thread counts): every
        // cell hits, artifacts match byte-for-byte.
        let warm = run_campaign(&spec, &dir, &opts(&dir, 1)).unwrap();
        assert_eq!(warm.stats.hits, 3);
        assert_eq!(warm.stats.misses, 0);
        assert!((warm.stats.hit_rate_pct() - 100.0).abs() < 1e-9);
        assert_eq!(warm.manifest.to_json(), cold.manifest.to_json());
        for (a, b) in cold.reports.iter().zip(&warm.reports) {
            assert_eq!(a.to_json(), b.to_json());
        }

        // Cache disabled: same bytes, nothing consulted or stored.
        let uncached = run_campaign(
            &spec,
            &dir,
            &CampaignOptions {
                run: RunOptions {
                    threads: 2,
                    quiet: true,
                    ..Default::default()
                },
                cache_dir: None,
                store: None,
            },
        )
        .unwrap();
        assert_eq!(uncached.stats.hits, 0);
        assert_eq!(uncached.stats.stored, 0);
        assert_eq!(uncached.manifest.to_json(), cold.manifest.to_json());
        for (a, b) in cold.reports.iter().zip(&uncached.reports) {
            assert_eq!(a.to_json(), b.to_json());
        }

        // The sweep artifact matches what `fleet run` produces directly.
        let sweep = crate::parse_spec("sweep.json", &tiny_sweep_json()).unwrap();
        let direct = crate::run_sweep(
            &sweep,
            &RunOptions {
                threads: 1,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(cold.reports[0].to_json(), direct.to_json());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_a_spec_only_recomputes_dirty_cells() {
        let dir = tmp("dirty");
        let spec = write_campaign(&dir);
        let cold = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(cold.stats.misses, 3);

        // Append an arrival-CV value: the original coordinate's cells
        // stay warm, only the new coordinate computes.
        let edited = tiny_sweep_json().replace("\"cvs\": [1.0]", "\"cvs\": [1.0, 4.0]");
        std::fs::write(dir.join("sweep.json"), edited).unwrap();
        let warm = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(warm.stats.cells, 5);
        assert_eq!(warm.stats.hits, 3, "clean cells must stay cached");
        assert_eq!(warm.stats.misses, 2, "exactly the new coordinate reruns");

        // Cosmetic edits (spec rename) keep every cell warm.
        let renamed = tiny_sweep_json().replace("tiny-sweep", "renamed-sweep");
        std::fs::write(dir.join("sweep.json"), renamed).unwrap();
        let cosmetic = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(cosmetic.stats.hits, 3);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lowering_the_budget_recomputes_instead_of_replaying() {
        let dir = tmp("budget");
        std::fs::write(dir.join("sweep.json"), tiny_sweep_json()).unwrap();
        let spec = CampaignSpec {
            name: "budget-campaign".into(),
            cache_dir: "cells".into(),
            entries: vec![CampaignEntry {
                kind: EntryKind::Sweep,
                path: "sweep.json".into(),
            }],
        };
        let cold = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(cold.stats.stored, 2);
        let SpecReport::Sweep(report) = &cold.reports[0] else {
            panic!()
        };
        let min_events = report.cells.iter().map(|c| c.metrics.events).min().unwrap();

        // Lower the budget below every cached cell's event count: the
        // cells' keys are unchanged (budgets don't re-key), but the
        // entries no longer fit — every cell recomputes (and truncates,
        // so nothing stale is stored either).
        let tight = tiny_sweep_json().replace(
            "\"max_events\": 20000000",
            &format!("\"max_events\": {min_events}"),
        );
        std::fs::write(dir.join("sweep.json"), tight).unwrap();
        let tightened = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(
            tightened.stats.hits, 0,
            "a cached result must not replay under a budget it exceeds"
        );
        assert_eq!(tightened.stats.stored, 0);
        let SpecReport::Sweep(report) = &tightened.reports[0] else {
            panic!()
        };
        assert!(report.cells.iter().all(|c| c.metrics.truncated));

        // Restoring the budget finds the original complete entries warm.
        std::fs::write(dir.join("sweep.json"), tiny_sweep_json()).unwrap();
        let restored = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        assert_eq!(restored.stats.hits, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_lays_out_reports_and_manifest() {
        let dir = tmp("write");
        let spec = write_campaign(&dir);
        let result = run_campaign(&spec, &dir, &opts(&dir, 2)).unwrap();
        let out = dir.join("out");
        let written = result.write(&out).unwrap();
        assert_eq!(written.len(), 4);
        assert!(out.join("tiny-sweep.report.json").is_file());
        assert!(out.join("tiny-bench.report.json").is_file());
        // The wall-clock sidecar rides beside the manifest, one row per
        // cell, all misses on a cold run.
        let timing_text = std::fs::read_to_string(out.join("campaign.timing.json")).unwrap();
        let timing: CampaignTiming = serde_json::from_str(&timing_text).unwrap();
        assert_eq!(timing.cells.len(), 3);
        assert!(timing.cells.iter().all(|c| !c.cache_hit));
        assert!(timing.cells.iter().all(|c| c.wall_ms >= 0.0));
        let manifest_text = std::fs::read_to_string(out.join("campaign.json")).unwrap();
        let manifest = CampaignManifest::from_json(&manifest_text).unwrap();
        assert_eq!(manifest, result.manifest);
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].cells.len(), 2);
        assert!(manifest.entries[0].cells.iter().all(|c| c.key.len() == 32));
        // Version mismatches are named explicitly.
        let old = manifest_text.replacen("\"version\": 1", "\"version\": 0", 1);
        let err = CampaignManifest::from_json(&old).unwrap_err();
        assert!(err.to_string().contains("format version 0"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
