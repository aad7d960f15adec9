//! `flexpipe-fleet`: parallel scenario-fleet orchestration for the
//! FlexPipe reproduction.
//!
//! The paper's claims — inflight refactoring beating static and
//! restart-based serving across *dynamic* workloads and *fragmented*
//! clusters — only hold up when validated over a grid of scenarios, not a
//! single run. This crate turns the one-shot simulator into an experiment
//! orchestration subsystem:
//!
//! - [`spec`] — the declarative sweep DSL ([`SweepSpec`], a JSON file):
//!   arrival CV × request rate × cluster shape × policy, expanded
//!   deterministically with per-cell seed derivation that gives every
//!   policy in a cell group byte-identical traffic;
//! - [`runner`] — sweep cells over `flexpipe_serving::Engine` and the
//!   worker pool every grid runs on, with the step-budget watchdog;
//! - [`report`] — steady-state aggregation (TTFT/TPOT percentiles, SLO
//!   attainment, goodput, refactor pauses) into per-cell and per-policy
//!   tables plus a byte-stable JSON artifact;
//! - [`mod@gate`] — regression detection against a committed baseline
//!   report (quality metrics plus chaos recovery: mean TTR, replay
//!   counts);
//! - [`mod@bench`] — engine-tunable sweeps (`fleet bench`): ubatch size ×
//!   prefill caps × admission batch × rates up to 10× the paper's 20 QPS,
//!   with informational wall-clock throughput columns;
//! - [`campaign`] — the cell executor, with per-cell panic containment
//!   and progress reporting, and resumable multi-spec campaigns (`fleet
//!   campaign`): sweep + bench spec lists over one shared worker pool,
//!   with every cell persisted in the content-addressed cache;
//! - [`cache`] — the per-cell artifact cache: keys hash each cell's
//!   canonicalized semantics under the engine-fingerprint salt, entries
//!   write atomically, truncated cells never persist (the resume
//!   mechanism), `stats`/`gc` bound the directory;
//! - [`store`] — the storage layer under the cache
//!   ([`LocalDiskStore`]): the sharded, NFS-shareable one-file-per-entry
//!   layout plus the atomic worker-claim protocol;
//! - [`worker`] — the distributed campaign worker (`fleet worker`):
//!   drain one campaign's cell list from N processes/machines against a
//!   shared cache dir, by deterministic shard (`--shard i/n`) or by
//!   claim-file coordination with heartbeats and stale-claim reaping;
//! - [`trace`] — structured engine traces as fleet artifacts
//!   (`fleet trace`): record a cell's virtual-time JSONL trace,
//!   summarize trace files, and profile the engine's dispatch per event
//!   kind at fleet scale, timed from outside the engine.
//!
//! One executor (in [`campaign`]) runs every cell that `fleet run`,
//! `fleet bench` and `fleet campaign` compute, so a spec's artifact is
//! the same bytes whichever verb produced it. The `flexpipe-fleet`
//! binary wraps it all into `init` / `run` / `bench` / `campaign` /
//! `worker` / `serve` / `trace` / `check` / `cache` / `fingerprint` /
//! `compare` / `gate` subcommands, declared in one verb table.
//!
//! # Determinism contract
//!
//! Running the same spec twice — at any thread count — produces
//! byte-identical JSON reports: cells derive their seeds from spec
//! coordinates (never from execution order), workers write into
//! pre-assigned slots, map serialization is order-stable, and wall-clock
//! measurements go to stderr only, never into the artifact.

#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod campaign;
pub mod gate;
pub mod report;
pub mod runner;
pub mod spec;
pub mod store;
pub mod trace;
pub mod worker;

pub use bench::{
    derive_bench_seed, run_bench, run_bench_cell, BenchCell, BenchCellResult, BenchReport,
    BenchSpec,
};
pub use cache::{
    cache_salt, canonical_json, canonicalize, cell_key, key_shard, CacheStats, CellCache,
};
pub use campaign::{
    assemble_campaign, load_entries, run_campaign, AssembleOutcome, CampaignEntry,
    CampaignManifest, CampaignOptions, CampaignPlan, CampaignResult, CampaignSpec, CampaignStats,
    CampaignTiming, CellTiming, EntryKind, MissingCell, SpecReport,
};
pub use gate::{gate, GateConfig, GateOutcome, Regression};
pub use report::{summarize_cell, CellMetrics, CellResult, FleetReport, PolicySummary};
pub use runner::{
    realize_disruptions, run_cell, run_cell_observed, run_sweep, FleetError, RunOptions,
};
pub use spec::{
    derive_cell_seed, replica_seed, BackgroundShape, Cell, ClusterShape, DisruptionShape,
    PolicySpec, SweepSpec,
};
pub use store::{
    ClaimInfo, ClaimOutcome, GcOutcome, LocalDiskStore, StoredObject, DEFAULT_CLAIM_TTL,
};
pub use trace::{find_cell, profile_dispatch, profile_spec, record_cell_trace};
pub use worker::{run_worker, WorkerOptions, WorkerOutcome};

use serde::Deserialize;

/// Loads a [`SweepSpec`] from JSON text. `path` names the file in
/// messages only: every spec is JSON, whatever its extension.
pub fn parse_spec(path: &str, text: &str) -> Result<SweepSpec, FleetError> {
    parse_json(path, text, "spec")
}

/// Loads a [`BenchSpec`] from JSON text (see [`parse_spec`]).
pub fn parse_bench(path: &str, text: &str) -> Result<BenchSpec, FleetError> {
    parse_json(path, text, "bench spec")
}

/// Loads a [`CampaignSpec`] from JSON text (see [`parse_spec`]).
pub fn parse_campaign(path: &str, text: &str) -> Result<CampaignSpec, FleetError> {
    parse_json(path, text, "campaign spec")
}

fn parse_json<T: Deserialize>(path: &str, text: &str, what: &str) -> Result<T, FleetError> {
    serde_json::from_str(text).map_err(|e| FleetError(format!("{what} {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_toml_specs_agree() {
        let spec = SweepSpec::template();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let from_json = parse_spec("sweep.json", &json).unwrap();
        assert_eq!(from_json, spec);
    }

    #[test]
    fn bad_specs_error_cleanly() {
        assert!(parse_spec("x.json", "{").is_err());
        assert!(parse_spec("x.toml", "= broken").is_err());
        assert!(parse_spec("x.json", "{}").is_err());
        assert!(parse_bench("x.json", "{}").is_err());
        assert!(parse_campaign("x.json", "{}").is_err());
    }

    #[test]
    fn campaign_specs_parse_from_json_and_toml() {
        let spec = CampaignSpec::template();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert_eq!(parse_campaign("c.json", &json).unwrap(), spec);
    }

    #[test]
    fn bench_specs_parse_from_toml_too() {
        let spec = BenchSpec::template();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert_eq!(parse_bench("b.json", &json).unwrap(), spec);
    }
}
