//! The campaign cache's storage: [`LocalDiskStore`].
//!
//! [`crate::cache::CellCache`] owns the *semantics* of the campaign cache
//! — content keys, budget-aware replay, the refusal to persist truncated
//! cells. This module owns the *bytes*: how entries and worker claims
//! actually land on storage. Each entry is one file at
//! `<dir>/<key[0..2]>/<key>.json`, written atomically via temp file +
//! rename. Claims are sibling `<key>.claim` files acquired with a
//! hard-link publish (write temp, `link(2)` into place), the classic
//! NFS-safe mutual-exclusion primitive: `rename` silently replaces but
//! `link` fails with `EEXIST`, so exactly one worker wins. Claim
//! freshness is the file's mtime, refreshed by the owner's heartbeat.
//! This layout is safe for N workers sharing the directory over NFS or
//! syncing it with rsync; the `store_conformance` integration tests hold
//! it to its claim and gc contract.
//!
//! # Claims are an optimization, not a lock
//!
//! The worker protocol stays correct even if mutual exclusion fails
//! (e.g. a reaped-then-resurrected claim): cells are deterministic and
//! entry writes are atomic last-writer-wins with byte-identical payloads,
//! so duplicated computation wastes time but can never corrupt results.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Claims older than this read as stale in `cache stats` and in worker
/// default configuration (override per command with `--claim-ttl`).
pub const DEFAULT_CLAIM_TTL: Duration = Duration::from_secs(60);

/// One stored object as seen by `stats` / `gc`: its key (the file stem),
/// payload (when readable), size and mtime age.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// The key the object is stored under. For foreign files in a cache
    /// directory this is the file name.
    pub key: String,
    /// The stored payload; `None` when unreadable (counted as foreign).
    pub payload: Option<String>,
    /// Object size in bytes.
    pub bytes: u64,
    /// Age since last write.
    pub age: Duration,
}

/// Result of a claim attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// This worker now holds the claim.
    Acquired,
    /// Another worker holds it.
    Held {
        /// The holder's worker id.
        worker: String,
        /// Time since the holder's last heartbeat.
        age: Duration,
    },
}

/// One live claim, as listed by `stats` and the reaper.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimInfo {
    /// Claimed cell key.
    pub key: String,
    /// Holding worker id.
    pub worker: String,
    /// Time since the holder's last heartbeat.
    pub age: Duration,
}

/// Result of a `gc` pass (entries only; live claims are never touched).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GcOutcome {
    /// Entries removed.
    pub removed: usize,
    /// Entries kept.
    pub kept: usize,
    /// Bytes freed.
    pub bytes_freed: u64,
}

fn age_of(meta: &std::fs::Metadata) -> Duration {
    meta.modified()
        .ok()
        .and_then(|m| SystemTime::now().duration_since(m).ok())
        .unwrap_or(Duration::ZERO)
}

/// Tie-breaker for concurrent same-key writers' temp file names.
static STORE_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_name(tag: &str) -> String {
    format!(
        ".tmp-{tag}-{}-{}",
        std::process::id(),
        STORE_NONCE.fetch_add(1, Ordering::Relaxed)
    )
}

/// The cache's storage engine: one `<key[0..2]>/<key>.json` file per
/// entry, `<key>.claim` sibling files for the worker protocol. See the
/// module docs for the concurrency story.
///
/// Safe for concurrent use from multiple threads *and* multiple
/// processes sharing the same root: [`LocalDiskStore::put`] is atomic
/// last-writer-wins (concurrent same-key writers may interleave but a
/// reader never observes a torn payload), and
/// [`LocalDiskStore::try_claim`] grants each key to at most one worker
/// at a time among racers.
///
/// Claim freshness is wall-clock based (file mtime): holders heartbeat
/// via [`LocalDiskStore::refresh_claim`] and anyone may reap claims
/// older than a TTL via [`LocalDiskStore::reap_stale_claims`]. Wall
/// clocks never enter entry payloads — only claim bookkeeping — so
/// cached *results* stay byte-deterministic.
#[derive(Debug, Clone)]
pub struct LocalDiskStore {
    dir: PathBuf,
}

impl LocalDiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<LocalDiskStore> {
        std::fs::create_dir_all(dir)?;
        Ok(LocalDiskStore {
            dir: dir.to_path_buf(),
        })
    }

    fn shard_of(&self, key: &str) -> PathBuf {
        self.dir.join(key.get(0..2).unwrap_or("xx"))
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.shard_of(key).join(format!("{key}.json"))
    }

    fn claim_path(&self, key: &str) -> PathBuf {
        self.shard_of(key).join(format!("{key}.claim"))
    }

    /// Every file under the shard directories, sorted; claims excluded
    /// when `claims` is false, everything else (entries, foreign junk,
    /// orphaned temp files) included so `stats`/`gc` can account for it.
    fn files(&self, claims: bool) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for shard in std::fs::read_dir(&self.dir)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(&shard)? {
                let path = f?.path();
                let is_claim = path.extension().is_some_and(|e| e == "claim");
                if is_claim == claims {
                    files.push(path);
                }
            }
        }
        files.sort();
        Ok(files)
    }

    fn prune_empty_shards(&self) -> io::Result<()> {
        for shard in std::fs::read_dir(&self.dir)? {
            let shard = shard?.path();
            if shard.is_dir() && std::fs::read_dir(&shard)?.next().is_none() {
                std::fs::remove_dir(&shard)?;
            }
        }
        Ok(())
    }

    /// The root directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.dir
    }

    /// Fetches the payload stored under `key`, if any. Unreadable or
    /// torn objects read as absent — the cache layer treats any miss as
    /// "recompute".
    pub fn get(&self, key: &str) -> io::Result<Option<String>> {
        match std::fs::read_to_string(self.entry_path(key)) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Persists `payload` under `key` atomically (last writer wins).
    pub fn put(&self, key: &str, payload: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let shard = path.parent().expect("sharded path");
        std::fs::create_dir_all(shard)?;
        let tmp = shard.join(temp_name(key));
        std::fs::write(&tmp, payload)?;
        // Rename is atomic within a filesystem: concurrent same-key
        // writers race benignly (identical bytes), and a kill mid-write
        // leaves only a temp file that the next gc sweeps up.
        std::fs::rename(&tmp, &path)
    }

    /// Every stored object, sorted by key. Includes foreign files (and
    /// orphaned temp files); never includes claims.
    pub fn list(&self) -> io::Result<Vec<StoredObject>> {
        let mut out = Vec::new();
        for path in self.files(false)? {
            let meta = std::fs::metadata(&path)?;
            let key = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push(StoredObject {
                key,
                payload: std::fs::read_to_string(&path).ok(),
                bytes: meta.len(),
                age: age_of(&meta),
            });
        }
        Ok(out)
    }

    /// Removes the object stored under `key`; returns whether it existed.
    pub fn remove(&self, key: &str) -> io::Result<bool> {
        match std::fs::remove_file(self.entry_path(key)) {
            Ok(()) => {
                let _ = self.prune_empty_shards();
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Attempts to claim `key` for `worker`. At most one concurrent
    /// caller per key acquires; re-claiming a key this worker already
    /// holds refreshes the heartbeat and acquires.
    pub fn try_claim(&self, key: &str, worker: &str) -> io::Result<ClaimOutcome> {
        let claim = self.claim_path(key);
        let shard = claim.parent().expect("sharded path");
        std::fs::create_dir_all(shard)?;
        // Publish via hard link: write the worker id to a temp file, then
        // link it to the claim name. Unlike rename, link fails with
        // EEXIST when the target exists — atomic mutual exclusion that
        // also holds over NFS.
        let tmp = shard.join(temp_name(&format!("{key}-claim")));
        std::fs::write(&tmp, format!("{worker}\n"))?;
        let linked = std::fs::hard_link(&tmp, &claim);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => Ok(ClaimOutcome::Acquired),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&claim)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default();
                if holder == worker {
                    // Our own claim (a previous pass, or a crashed
                    // incarnation under the same id): refresh and keep it.
                    self.refresh_claim(key, worker)?;
                    return Ok(ClaimOutcome::Acquired);
                }
                let age = std::fs::metadata(&claim).map(|m| age_of(&m)).unwrap_or(
                    // Claim vanished between link failure and stat: the
                    // holder released. Report it as freshly held; the
                    // next pass will acquire.
                    Duration::ZERO,
                );
                Ok(ClaimOutcome::Held {
                    worker: holder,
                    age,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Heartbeats a held claim. Returns `false` when the claim is no
    /// longer this worker's (reaped, or lost to a raced reacquisition) —
    /// the holder should treat its work as potentially duplicated but
    /// may still publish (puts are idempotent for deterministic cells).
    pub fn refresh_claim(&self, key: &str, worker: &str) -> io::Result<bool> {
        let claim = self.claim_path(key);
        match std::fs::read_to_string(&claim) {
            Ok(holder) if holder.trim() == worker => {
                if let Ok(f) = std::fs::File::options().write(true).open(&claim) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Ok(true)
            }
            Ok(_) => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Releases `worker`'s claim on `key`; other workers' claims are
    /// untouched. Returns whether a claim by this worker was present.
    pub fn release_claim(&self, key: &str, worker: &str) -> io::Result<bool> {
        let claim = self.claim_path(key);
        match std::fs::read_to_string(&claim) {
            Ok(holder) if holder.trim() == worker => {
                let _ = std::fs::remove_file(&claim);
                Ok(true)
            }
            Ok(_) => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Every live claim.
    pub fn list_claims(&self) -> io::Result<Vec<ClaimInfo>> {
        let mut out = Vec::new();
        for path in self.files(true)? {
            let Ok(meta) = std::fs::metadata(&path) else {
                continue; // released while listing
            };
            out.push(ClaimInfo {
                key: path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                worker: std::fs::read_to_string(&path)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default(),
                age: age_of(&meta),
            });
        }
        Ok(out)
    }

    /// Releases every claim whose heartbeat is older than `ttl`,
    /// returning how many were reaped. Fresh claims are never touched.
    pub fn reap_stale_claims(&self, ttl: Duration) -> io::Result<usize> {
        let mut reaped = 0;
        for c in self.list_claims()? {
            if c.age >= ttl && std::fs::remove_file(self.claim_path(&c.key)).is_ok() {
                reaped += 1;
            }
        }
        let _ = self.prune_empty_shards();
        Ok(reaped)
    }

    /// Entry garbage collection: drops entries older than `max_age`
    /// and/or LRU-evicts (oldest first) down to `max_bytes` total.
    /// **Never** removes live claims — stale-claim reaping is only ever
    /// explicit, via [`LocalDiskStore::reap_stale_claims`].
    pub fn gc(&self, max_age: Option<Duration>, max_bytes: Option<u64>) -> io::Result<GcOutcome> {
        let mut out = GcOutcome::default();
        // (age, path, size) of every non-claim file, oldest first. Claim
        // files are invisible here by construction: a live claim must
        // survive any entry gc, however aggressive.
        let mut files: Vec<(Duration, PathBuf, u64)> = Vec::new();
        for path in self.files(false)? {
            let meta = std::fs::metadata(&path)?;
            files.push((age_of(&meta), path, meta.len()));
        }
        files.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut total: u64 = files.iter().map(|f| f.2).sum();
        for (age, path, size) in files {
            let too_old = max_age.is_some_and(|cap| age >= cap);
            let too_big = max_bytes.is_some_and(|cap| total > cap);
            if too_old || too_big {
                std::fs::remove_file(&path)?;
                out.removed += 1;
                out.bytes_freed += size;
                total -= size;
            } else {
                out.kept += 1;
            }
        }
        self.prune_empty_shards()?;
        Ok(out)
    }
}
