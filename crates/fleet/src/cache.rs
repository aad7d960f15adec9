//! The content-addressed per-cell artifact cache behind `fleet campaign`
//! and the distributed `fleet worker` protocol.
//!
//! Every campaign cell persists its [`CellMetrics`] under a key derived
//! from three things:
//!
//! 1. the **canonicalized semantic content** of the cell — the spec fields
//!    and cell coordinates that can change the cell's metrics, and nothing
//!    that cannot (`SweepSpec::cell_semantics` /
//!    `BenchSpec::cell_semantics`). Canonicalization sorts map keys
//!    recursively and serializes through the typed spec structs, so JSON
//!    key order, whitespace and numeric spelling (`120` vs `120.0`) all
//!    hash identically while any semantically meaningful edit re-keys
//!    exactly the dirty cells;
//! 2. the **cell id**, folded in via the semantics' seed/coordinates (two
//!    cells with identical semantics *are* the same experiment — sharing
//!    the entry is correct, not a collision);
//! 3. the **engine fingerprint salt** ([`cache_salt`]):
//!    `flexpipe_serving::engine_fingerprint()` plus the fleet's report and
//!    cache format versions, so engine-semantics bumps, metric-definition
//!    changes and cache-layout changes each invalidate the whole cache.
//!    The salt is also what makes mixed-version *fleets* safe: workers
//!    built from different engine semantics address disjoint keys, so a
//!    stale binary can never poison a newer campaign's cells.
//!
//! Storage is pluggable behind the [`CacheStore`] trait
//! ([`crate::store`]): the default [`crate::store::LocalDiskStore`] keeps
//! one atomically-renamed JSON file per entry under
//! `<dir>/<key[0..2]>/<key>.json` (safe to share over NFS or rsync), and
//! the single-file [`crate::store::LogStore`] append log proves the seam.
//! Whatever the backend, entries land atomically — a killed run never
//! leaves a torn entry, and a resumed run either sees a complete result
//! or recomputes. Truncated and panicked cells are **never** cached — an
//! interrupted (step-budget-truncated) cell must be recomputed, which is
//! what makes kill-and-resume byte-identical to an uninterrupted run.
//!
//! Worker claims (`<key>.claim` files / log claim records) ride in the
//! same store but are bookkeeping, not results: `stats` counts them
//! separately from cell entries, and `gc` **never** removes a live claim
//! — stale claims are reaped only explicitly, by TTL.
//!
//! Nothing wall-clock enters entry *contents*; `stats` / `gc` age entries
//! by storage mtime, which stays outside every byte-compared artifact.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};

use crate::report::{CellMetrics, REPORT_VERSION};
use crate::store::{open_store, CacheStore, ClaimInfo, ClaimOutcome, GcOutcome, StoreKind};

/// Cache on-disk format version; bump on entry-layout changes.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The salt folded into every cell key: engine semantics fingerprint +
/// the fleet's metric (report) and cache format versions.
pub fn cache_salt() -> String {
    format!(
        "{}|report-v{REPORT_VERSION}|cache-v{CACHE_FORMAT_VERSION}",
        flexpipe_serving::engine_fingerprint()
    )
}

/// Recursively sorts map keys, leaving sequence order (which is
/// semantic: axis order defines cell order) untouched.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Map(m) => {
            let mut entries: Vec<(String, Value)> = m
                .iter()
                .map(|(k, x)| (k.clone(), canonicalize(x)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(entries)
        }
        Value::Seq(xs) => Value::Seq(xs.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// The canonical compact JSON of a value (sorted keys, deterministic
/// float formatting) — the byte string cell keys hash.
pub fn canonical_json(v: &Value) -> String {
    serde_json::to_string(&canonicalize(v)).expect("canonical serialization")
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv64(offset: u64, bytes: &[u8]) -> u64 {
    let mut h = offset;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit content key (32 hex chars) of `semantics` under [`cache_salt`]:
/// two independent FNV-1a streams over `salt \0 canonical-json`.
pub fn cell_key(semantics: &Value) -> String {
    let mut bytes = cache_salt().into_bytes();
    bytes.push(0);
    bytes.extend_from_slice(canonical_json(semantics).as_bytes());
    let h1 = fnv64(0xCBF2_9CE4_8422_2325, &bytes);
    let h2 = fnv64(0x6C62_272E_07BB_0142, &bytes);
    format!("{h1:016x}{h2:016x}")
}

/// The shard a key belongs to under an `i/n` deterministic partition:
/// the key's leading 64 bits modulo `n`. Stateless — every worker
/// computes the same answer from the campaign spec alone, which is what
/// makes `fleet worker --shard i/n` coordination-free.
pub fn key_shard(key: &str, n: usize) -> usize {
    let h = u64::from_str_radix(key.get(0..16).unwrap_or("0"), 16).unwrap_or(0);
    (h % n.max(1) as u64) as usize
}

/// One persisted cell result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// On-disk format version ([`CACHE_FORMAT_VERSION`]).
    pub version: u32,
    /// The full content key (also the file stem; verified on load).
    pub key: String,
    /// The salt the key was derived under (diagnostic; the key already
    /// commits to it).
    pub salt: String,
    /// Experiment kind: `sweep` or `bench`.
    pub kind: String,
    /// Human-readable cell id of the first producer (diagnostic only —
    /// identical semantics under different ids legitimately share).
    pub id: String,
    /// The cached deterministic metrics.
    pub metrics: CellMetrics,
}

/// Aggregate cache statistics (`fleet cache stats`). Cell entries and
/// worker claims are counted strictly separately: a claim is protocol
/// bookkeeping, never a result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheStats {
    /// Readable, well-formed entries.
    pub entries: usize,
    /// Of those, sweep cells.
    pub sweep_cells: usize,
    /// Of those, bench cells.
    pub bench_cells: usize,
    /// Entries whose salt differs from this build's (stale: unreachable
    /// until `gc` removes them).
    pub stale_salt: usize,
    /// Objects that failed to parse as entries (junk files, orphaned
    /// temp files). Claims are **not** foreign — see
    /// [`CacheStats::claims`].
    pub foreign: usize,
    /// Live worker claims.
    pub claims: usize,
    /// Of those, claims whose heartbeat is older than the TTL passed to
    /// [`CellCache::stats_with_ttl`] (likely dead workers; reapable).
    pub stale_claims: usize,
    /// Total bytes across all entry objects considered.
    pub bytes: u64,
    /// Age of the oldest entry, seconds (0 when empty).
    pub oldest_secs: u64,
    /// Age of the newest entry, seconds (0 when empty).
    pub newest_secs: u64,
}

/// A content-addressed cell cache over a pluggable [`CacheStore`].
#[derive(Debug, Clone)]
pub struct CellCache {
    store: Arc<dyn CacheStore>,
}

impl CellCache {
    /// Opens (creating if needed) a cache at `dir` with backend
    /// autodetection: an existing `cells.log` selects the append-log
    /// store, anything else the localdisk layout.
    pub fn open(dir: &Path) -> io::Result<CellCache> {
        CellCache::open_kind(dir, None)
    }

    /// Opens a cache at `dir` with an explicit backend preference. An
    /// already-initialized directory keeps its detected backend (mixing
    /// engines in one directory would split the cache invisibly).
    pub fn open_kind(dir: &Path, kind: Option<StoreKind>) -> io::Result<CellCache> {
        Ok(CellCache {
            store: open_store(dir, kind)?,
        })
    }

    /// Wraps an already-open storage engine.
    pub fn with_store(store: Arc<dyn CacheStore>) -> CellCache {
        CellCache { store }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        self.store.root()
    }

    /// The underlying storage engine.
    pub fn backend(&self) -> &dyn CacheStore {
        self.store.as_ref()
    }

    /// Loads the metrics cached under `key`, if a complete, matching
    /// entry exists that is replayable under the caller's current step
    /// budget. Any mismatch (version, key, truncated/failed payload,
    /// parse error) reads as a miss — the cache is purely an accelerator
    /// and must never change results.
    ///
    /// The budget check is what keeps `max_events`' exclusion from cell
    /// keys sound in *both* directions: a cached cell replays only when
    /// it demonstrably fits the current budget (`events < max_events`),
    /// so lowering a spec's budget below what a cell needed recomputes
    /// the cell (which now truncates) instead of replaying a result the
    /// engine could no longer produce. Strict `<` is deliberate: a run
    /// that consumed exactly the budget is indistinguishable from a
    /// truncated one without re-running.
    pub fn load(&self, key: &str, max_events: u64) -> Option<CellMetrics> {
        let text = self.store.get(key).ok()??;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        if entry.version != CACHE_FORMAT_VERSION
            || entry.key != key
            || entry.metrics.truncated
            || entry.metrics.failed
            || entry.metrics.events >= max_events
        {
            return None;
        }
        Some(entry.metrics)
    }

    /// Persists `metrics` under `key`, atomically. Truncated and failed
    /// cells are refused (returns `false`): an incomplete result must be
    /// recomputed on resume, never replayed.
    pub fn store(
        &self,
        key: &str,
        kind: &str,
        id: &str,
        metrics: &CellMetrics,
    ) -> io::Result<bool> {
        if metrics.truncated || metrics.failed {
            return Ok(false);
        }
        let entry = CacheEntry {
            version: CACHE_FORMAT_VERSION,
            key: key.to_string(),
            salt: cache_salt(),
            kind: kind.to_string(),
            id: id.to_string(),
            metrics: metrics.clone(),
        };
        let mut json = serde_json::to_string_pretty(&entry).expect("entry serializes");
        json.push('\n');
        self.store.put(key, &json)?;
        Ok(true)
    }

    /// Attempts to claim `key` for `worker` (see [`CacheStore::try_claim`]).
    pub fn try_claim(&self, key: &str, worker: &str) -> io::Result<ClaimOutcome> {
        self.store.try_claim(key, worker)
    }

    /// Heartbeats a held claim (see [`CacheStore::refresh_claim`]).
    pub fn refresh_claim(&self, key: &str, worker: &str) -> io::Result<bool> {
        self.store.refresh_claim(key, worker)
    }

    /// Releases `worker`'s claim on `key`.
    pub fn release_claim(&self, key: &str, worker: &str) -> io::Result<bool> {
        self.store.release_claim(key, worker)
    }

    /// Every live claim.
    pub fn list_claims(&self) -> io::Result<Vec<ClaimInfo>> {
        self.store.list_claims()
    }

    /// Releases every claim older than `ttl`; returns the count reaped.
    pub fn reap_stale_claims(&self, ttl: Duration) -> io::Result<usize> {
        self.store.reap_stale_claims(ttl)
    }

    /// Walks the cache and aggregates [`CacheStats`], judging claim
    /// staleness against [`crate::store::DEFAULT_CLAIM_TTL`].
    pub fn stats(&self) -> io::Result<CacheStats> {
        self.stats_with_ttl(crate::store::DEFAULT_CLAIM_TTL)
    }

    /// [`CellCache::stats`] with an explicit staleness TTL for claims.
    pub fn stats_with_ttl(&self, claim_ttl: Duration) -> io::Result<CacheStats> {
        let salt = cache_salt();
        let mut s = CacheStats::default();
        let mut oldest: Option<u64> = None;
        let mut newest: Option<u64> = None;
        for obj in self.store.list()? {
            s.bytes += obj.bytes;
            let parsed = obj
                .payload
                .as_deref()
                .and_then(|t| serde_json::from_str::<CacheEntry>(t).ok());
            let Some(entry) = parsed else {
                s.foreign += 1;
                continue;
            };
            s.entries += 1;
            match entry.kind.as_str() {
                "sweep" => s.sweep_cells += 1,
                "bench" => s.bench_cells += 1,
                _ => {}
            }
            if entry.salt != salt {
                s.stale_salt += 1;
            }
            let age = obj.age.as_secs();
            oldest = Some(oldest.map_or(age, |o| o.max(age)));
            newest = Some(newest.map_or(age, |n| n.min(age)));
        }
        for claim in self.store.list_claims()? {
            s.claims += 1;
            if claim.age >= claim_ttl {
                s.stale_claims += 1;
            }
        }
        s.oldest_secs = oldest.unwrap_or(0);
        s.newest_secs = newest.unwrap_or(0);
        Ok(s)
    }

    /// Removes every entry older than `max_age`. Live claims are never
    /// touched (see [`CacheStore::gc`]).
    pub fn gc(&self, max_age: Duration) -> io::Result<GcOutcome> {
        self.store.gc(Some(max_age), None)
    }

    /// LRU size cap: evicts oldest entries first until the cache fits
    /// under `max_bytes`. The newest entries always survive (unless a
    /// single entry alone exceeds the cap). Live claims are never
    /// touched.
    pub fn gc_max_bytes(&self, max_bytes: u64) -> io::Result<GcOutcome> {
        self.store.gc(None, Some(max_bytes))
    }

    /// Combined gc pass: the age bound (if any) applies first, then the
    /// size cap (if any) evicts oldest-first among the survivors. Ties
    /// break deterministically. Live claims are never touched.
    pub fn gc_bounded(
        &self,
        max_age: Option<Duration>,
        max_bytes: Option<u64>,
    ) -> io::Result<GcOutcome> {
        self.store.gc(max_age, max_bytes)
    }
}

/// Parses a human duration: bare seconds or `s`/`m`/`h`/`d` suffixed
/// (`0`, `90s`, `15m`, `12h`, `7d`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, mult) = match s.as_bytes().last() {
        Some(b's') => (&s[..s.len() - 1], 1.0),
        Some(b'm') => (&s[..s.len() - 1], 60.0),
        Some(b'h') => (&s[..s.len() - 1], 3600.0),
        Some(b'd') => (&s[..s.len() - 1], 86_400.0),
        _ => (s, 1.0),
    };
    let x: f64 = num
        .parse()
        .map_err(|_| format!("bad duration `{s}` (expected e.g. 90s, 15m, 12h, 7d)"))?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(format!("bad duration `{s}` (must be non-negative)"));
    }
    // try_: an astronomically large value must stay an Err, not a panic.
    Duration::try_from_secs_f64(x * mult).map_err(|_| format!("bad duration `{s}` (out of range)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::SystemTime;

    fn tiny_metrics() -> CellMetrics {
        let mut m = crate::runner::failed_cell_metrics();
        m.failed = false;
        m.offered = 10;
        m.completed = 9;
        m.within_slo = 8;
        m.slo_attainment = 0.8;
        m.goodput_per_sec = 1.25;
        m.p99_ttft = 0.75;
        m.events = 1234;
        m
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flexpipe-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every cache-semantics test runs against both backends: the cache
    /// layer must be backend-agnostic by construction.
    fn both_backends(tag: &str, f: impl Fn(&CellCache)) {
        for kind in [StoreKind::LocalDisk, StoreKind::Log] {
            let dir = tmp(&format!("{tag}-{}", kind.name()));
            let cache = CellCache::open_kind(&dir, Some(kind)).unwrap();
            assert_eq!(cache.backend().kind(), kind.name());
            f(&cache);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn canonicalization_sorts_maps_but_keeps_seq_order() {
        let a = serde_json::parse_value(r#"{"b": 1, "a": [2, 1], "c": {"y": 1, "x": 2}}"#).unwrap();
        let b = serde_json::parse_value(r#"{"c": {"x": 2, "y": 1}, "a": [2, 1], "b": 1}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(cell_key(&a), cell_key(&b));
        // Sequence order is semantic and must not collapse.
        let c = serde_json::parse_value(r#"{"a": [1, 2], "b": 1, "c": {"x": 2, "y": 1}}"#).unwrap();
        assert_ne!(cell_key(&a), cell_key(&c));
    }

    #[test]
    fn numeric_spelling_hashes_identically_after_typed_round_trip() {
        // Raw `120` vs `120.0` differ as Values, but keys are computed
        // from typed structs, whose f64 fields serialize uniformly.
        #[derive(Serialize, Deserialize)]
        struct S {
            x: f64,
        }
        let a: S = serde_json::from_str(r#"{"x": 120}"#).unwrap();
        let b: S = serde_json::from_str(r#"{"x": 120.0}"#).unwrap();
        assert_eq!(cell_key(&a.to_value()), cell_key(&b.to_value()));
    }

    #[test]
    fn keys_commit_to_the_salt() {
        let v = serde_json::parse_value(r#"{"a": 1}"#).unwrap();
        let key = cell_key(&v);
        assert_eq!(key.len(), 32);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(cache_salt().contains("engine-v"));
        assert!(cache_salt().contains(&format!("report-v{REPORT_VERSION}")));
    }

    #[test]
    fn key_shards_partition_and_cover() {
        let keys: Vec<String> = (0..64)
            .map(|i| cell_key(&serde_json::parse_value(&format!("{{\"i\": {i}}}")).unwrap()))
            .collect();
        for n in [1, 2, 3, 5] {
            let mut seen = vec![0usize; n];
            for k in &keys {
                let s = key_shard(k, n);
                assert!(s < n);
                seen[s] += 1;
            }
            // Every shard gets work (64 keys over ≤5 shards).
            assert!(
                seen.iter().all(|&c| c > 0),
                "empty shard at n={n}: {seen:?}"
            );
            assert_eq!(seen.iter().sum::<usize>(), keys.len());
        }
        // Deterministic: the partition is a pure function of the key.
        assert_eq!(key_shard(&keys[0], 3), key_shard(&keys[0], 3));
        assert_eq!(key_shard("zz", 4), 0); // non-hex prefix degrades safely
    }

    #[test]
    fn store_load_round_trips_and_refuses_incomplete_cells() {
        both_backends("roundtrip", |cache| {
            let m = tiny_metrics();
            assert!(cache.load("0123", u64::MAX).is_none());
            assert!(cache.store("0123", "sweep", "cell-a", &m).unwrap());
            assert_eq!(cache.load("0123", u64::MAX), Some(m.clone()));
            // A different key misses even if the shard exists.
            assert!(cache.load("0124", u64::MAX).is_none());
            // Truncated / failed results are never persisted.
            let mut t = m.clone();
            t.truncated = true;
            assert!(!cache.store("0999", "sweep", "cell-b", &t).unwrap());
            assert!(cache.load("0999", u64::MAX).is_none());
            let mut f = m.clone();
            f.failed = true;
            assert!(!cache.store("0998", "sweep", "cell-c", &f).unwrap());
            assert!(cache.load("0998", u64::MAX).is_none());
        });
    }

    #[test]
    fn entries_only_replay_under_budgets_they_fit() {
        both_backends("budget", |cache| {
            let m = tiny_metrics(); // events = 1234
            cache.store("b001", "sweep", "cell", &m).unwrap();
            // A budget the cached run demonstrably fits: hit.
            assert_eq!(cache.load("b001", 2000), Some(m.clone()));
            // A budget at or below the cached event count: the cell would
            // truncate (or is ambiguous) under the current spec — recompute.
            assert!(cache.load("b001", 1234).is_none());
            assert!(cache.load("b001", 1000).is_none());
        });
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let dir = tmp("corrupt");
        let cache = CellCache::open(&dir).unwrap();
        let m = tiny_metrics();
        cache.store("abcd", "sweep", "cell", &m).unwrap();
        let path = dir.join("ab").join("abcd.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.load("abcd", u64::MAX).is_none());
        // Key mismatch inside the entry (moved file) is a miss too.
        cache.store("abce", "sweep", "cell", &m).unwrap();
        std::fs::rename(dir.join("ab").join("abce.json"), &path).unwrap();
        assert!(cache.load("abcd", u64::MAX).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_autodetection_is_sticky() {
        let dir = tmp("detect");
        // First open as log; a later open with no (or a conflicting)
        // preference must keep finding the log.
        let cache = CellCache::open_kind(&dir, Some(StoreKind::Log)).unwrap();
        cache.store("aa11", "sweep", "s", &tiny_metrics()).unwrap();
        let re = CellCache::open(&dir).unwrap();
        assert_eq!(re.backend().kind(), "log");
        assert!(re.load("aa11", u64::MAX).is_some());
        let conflicted = CellCache::open_kind(&dir, Some(StoreKind::LocalDisk)).unwrap();
        assert_eq!(conflicted.backend().kind(), "log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_gc_bound_the_cache() {
        let dir = tmp("gc");
        let cache = CellCache::open(&dir).unwrap();
        let m = tiny_metrics();
        cache.store("aa11", "sweep", "s", &m).unwrap();
        cache.store("bb22", "bench", "b", &m).unwrap();
        std::fs::write(dir.join("aa").join("junk.txt"), "x").unwrap();
        let s = cache.stats().unwrap();
        assert_eq!(s.entries, 2);
        assert_eq!(s.sweep_cells, 1);
        assert_eq!(s.bench_cells, 1);
        assert_eq!(s.foreign, 1);
        assert_eq!(s.claims, 0);
        assert!(s.bytes > 0);
        // Nothing is older than a day: gc keeps everything.
        let kept = cache.gc(Duration::from_secs(86_400)).unwrap();
        assert_eq!(kept.removed, 0);
        assert_eq!(kept.kept, 3);
        // Age 0 removes everything and prunes shards.
        let swept = cache.gc(Duration::ZERO).unwrap();
        assert_eq!(swept.removed, 3);
        assert!(swept.bytes_freed > 0);
        assert_eq!(cache.stats().unwrap().entries, 0);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_claims_separately_and_gc_spares_them() {
        both_backends("claimstats", |cache| {
            let m = tiny_metrics();
            cache.store("aa11", "sweep", "s", &m).unwrap();
            cache.try_claim("bb22", "w1").unwrap();
            cache.try_claim("cc33", "w2").unwrap();
            let s = cache.stats().unwrap();
            assert_eq!(s.entries, 1, "claims must not count as entries");
            assert_eq!(s.claims, 2);
            assert_eq!(s.stale_claims, 0, "fresh claims are not stale");
            assert_eq!(s.foreign, 0, "claims must not count as foreign");
            // The most aggressive entry gc possible: every entry goes,
            // every live claim survives.
            let swept = cache.gc_bounded(Some(Duration::ZERO), Some(0)).unwrap();
            assert_eq!(swept.removed, 1);
            let s = cache.stats().unwrap();
            assert_eq!(s.entries, 0);
            assert_eq!(s.claims, 2, "gc must never reap live claims");
            // Zero-TTL stats read them as stale; zero-TTL reap clears.
            let s = cache.stats_with_ttl(Duration::ZERO).unwrap();
            assert_eq!(s.stale_claims, 2);
            assert_eq!(cache.reap_stale_claims(Duration::ZERO).unwrap(), 2);
            assert_eq!(cache.stats().unwrap().claims, 0);
        });
    }

    #[test]
    fn gc_max_bytes_evicts_oldest_first_and_newest_survive() {
        let dir = tmp("lru");
        let cache = CellCache::open(&dir).unwrap();
        let m = tiny_metrics();
        let keys = ["aa01", "bb02", "cc03", "dd04"];
        for (i, key) in keys.iter().enumerate() {
            cache.store(key, "sweep", &format!("cell-{i}"), &m).unwrap();
            // Strictly increasing mtimes, robust to coarse clocks.
            let when = SystemTime::now() - Duration::from_secs(60 * (keys.len() - i) as u64);
            let f = std::fs::File::options()
                .write(true)
                .open(dir.join(&key[0..2]).join(format!("{key}.json")))
                .unwrap();
            f.set_modified(when).unwrap();
        }
        let entry_bytes = std::fs::metadata(dir.join("aa").join("aa01.json"))
            .unwrap()
            .len();
        // Cap to roughly two entries: the two oldest go, the two newest
        // stay readable.
        let out = cache.gc_max_bytes(2 * entry_bytes + 1).unwrap();
        assert_eq!(out.removed, 2);
        assert_eq!(out.kept, 2);
        assert_eq!(out.bytes_freed, 2 * entry_bytes);
        assert!(cache.load("aa01", u64::MAX).is_none());
        assert!(cache.load("bb02", u64::MAX).is_none());
        assert!(cache.load("cc03", u64::MAX).is_some());
        assert!(cache.load("dd04", u64::MAX).is_some());
        // A generous cap is a no-op.
        let out = cache.gc_max_bytes(u64::MAX).unwrap();
        assert_eq!(out.removed, 0);
        assert_eq!(out.kept, 2);
        // Combined pass: age bound and size cap together clear the rest.
        let out = cache.gc_bounded(Some(Duration::ZERO), Some(0)).unwrap();
        assert_eq!(out.removed, 2);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("0").unwrap(), Duration::ZERO);
        assert_eq!(parse_duration("90s").unwrap(), Duration::from_secs(90));
        assert_eq!(parse_duration("15m").unwrap(), Duration::from_secs(900));
        assert_eq!(parse_duration("2h").unwrap(), Duration::from_secs(7200));
        assert_eq!(parse_duration("7d").unwrap(), Duration::from_secs(604_800));
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("week").is_err());
    }
}
