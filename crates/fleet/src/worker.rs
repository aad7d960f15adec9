//! `fleet worker`: drain one campaign's cell list from N independent
//! processes — or machines — against a shared cache directory.
//!
//! A worker loads the same campaign file as `fleet campaign`, derives
//! the same [`CampaignPlan`] (same cells, same content keys, same salt),
//! and then computes cells *into the cache* without assembling any
//! artifacts. Assembly is a separate, cache-only step
//! ([`crate::campaign::assemble_campaign`], `fleet campaign assemble`)
//! run once the fleet has drained. Two coordination modes:
//!
//! - **Shard mode** (`--shard i/n`): the deterministic partitioner.
//!   Every worker computes [`key_shard`]`(key, n)` from the campaign
//!   file alone and takes exactly the cells whose keys land in its
//!   shard — stateless, coordination-free, no shared-filesystem
//!   semantics required beyond the atomic cache writes themselves.
//!   The cost: a dead worker's shard simply doesn't get done until a
//!   replacement with the same `i/n` is started.
//! - **Claim mode** (default): workers race over the full cell list,
//!   coordinating through atomic claim markers in the cache
//!   ([`crate::store::LocalDiskStore::try_claim`]). A claim holds the
//!   worker id and is heartbeated (mtime refresh) while the cell
//!   computes; claims whose heartbeat is older than `--claim-ttl` are
//!   presumed dead and reaped by any live worker. Workers visit pending
//!   cells in a per-worker shuffled order to keep contention low.
//!
//! Claims are an **optimization, not a lock**: if two workers ever
//! compute the same cell (a reaped-but-alive worker, claim races on
//! non-POSIX filesystems), both produce byte-identical entries and the
//! atomic last-writer-wins put keeps the cache consistent. Correctness
//! never depends on mutual exclusion — only efficiency does.
//!
//! Mixed-version fleets are rejected by construction: the cell keys are
//! salted with the engine fingerprint, so a worker built from different
//! engine semantics addresses disjoint keys and can neither poison nor
//! satisfy this campaign's cells.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cache::{key_shard, CellCache};
use crate::campaign::{CampaignPlan, CampaignSpec};
use crate::runner::{effective_threads, parallel_indexed, FleetError};
use crate::store::{ClaimOutcome, DEFAULT_CLAIM_TTL};
use crate::RunOptions;

/// Configuration of one `fleet worker` process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker pool / progress options (shared with sweeps).
    pub run: RunOptions,
    /// This worker's identity, recorded in every claim it takes.
    /// Defaults to `w<pid>`; give each machine a stable, unique id when
    /// running over a shared filesystem.
    pub worker_id: String,
    /// `Some((i, n))` selects shard mode: take exactly the cells whose
    /// [`key_shard`] under `n` equals `i`. `None` selects claim mode.
    pub shard: Option<(usize, usize)>,
    /// Claim-mode heartbeat TTL: claims not refreshed within this window
    /// are presumed abandoned and reaped.
    pub claim_ttl: Duration,
    /// Stop after computing this many cells (chunked draining; also how
    /// tests simulate a worker killed mid-campaign). `None` drains.
    pub max_cells: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            run: RunOptions::default(),
            worker_id: format!("w{}", std::process::id()),
            shard: None,
            claim_ttl: DEFAULT_CLAIM_TTL,
            max_cells: None,
        }
    }
}

/// What one worker process did. Purely informational (stderr summary):
/// the cache is the only artifact a worker produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerOutcome {
    /// Cells in this worker's scope (its shard, or the whole campaign).
    pub assigned: usize,
    /// Cells this worker computed and stored.
    pub computed: usize,
    /// Cells already in the cache (here before us, or raced to us).
    pub hits: usize,
    /// Cells that computed truncated/failed and therefore could not be
    /// cached — `assemble` will report these as missing.
    pub uncacheable: usize,
    /// Stale claims this worker reaped from presumed-dead peers.
    pub reaped: usize,
    /// Cells left for other workers when `max_cells` stopped us early.
    pub abandoned: usize,
}

impl WorkerOutcome {
    /// The one-line stderr summary.
    pub fn render(&self, worker_id: &str) -> String {
        format!(
            "worker {worker_id}: {} assigned, {} computed, {} cache hits, {} uncacheable, \
             {} stale claims reaped, {} left to peers",
            self.assigned, self.computed, self.hits, self.uncacheable, self.reaped, self.abandoned
        )
    }
}

/// Runs one worker process over `spec`'s cell list against the cache at
/// `cache_dir`, in shard or claim mode (see the module docs). Returns
/// when every assigned cell is resolved — cached (by anyone), computed,
/// or proven uncacheable — or when `max_cells` stops it early.
pub fn run_worker(
    spec: &CampaignSpec,
    base_dir: &Path,
    cache_dir: &Path,
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, FleetError> {
    if let Some((i, n)) = opts.shard {
        if n == 0 || i >= n {
            return Err(FleetError(format!(
                "bad shard {i}/{n}: expected 0 <= i < n"
            )));
        }
    }
    let plan = CampaignPlan::load(spec, base_dir)?;
    let cache = CellCache::open(cache_dir)
        .map_err(|e| FleetError(format!("cannot open cache {}: {e}", cache_dir.display())))?;
    let setups = plan.setups();

    // This worker's scope within the flat job list.
    let assigned: Vec<usize> = match opts.shard {
        Some((i, n)) => (0..plan.total_cells())
            .filter(|&j| key_shard(plan.job(j).key, n) == i)
            .collect(),
        None => (0..plan.total_cells()).collect(),
    };
    if !opts.run.quiet {
        eprintln!(
            "worker {} on campaign `{}`: {} of {} cells in scope ({}), cache at {}",
            opts.worker_id,
            spec.name,
            assigned.len(),
            plan.total_cells(),
            match opts.shard {
                Some((i, n)) => format!("shard {i}/{n}"),
                None => format!("claim mode, ttl {:?}", opts.claim_ttl),
            },
            cache.dir().display(),
        );
    }

    let outcome = match opts.shard {
        Some(_) => run_sharded(&plan, &cache, &setups, &assigned, opts),
        None => run_claiming(&plan, &cache, &setups, &assigned, opts),
    };
    if !opts.run.quiet {
        if let Ok(o) = &outcome {
            eprintln!("{}", o.render(&opts.worker_id));
        }
    }
    outcome
}

/// Shard mode: compute every assigned cell not already cached. No
/// claims, no waiting on peers — the partition is the coordination.
fn run_sharded(
    plan: &CampaignPlan,
    cache: &CellCache,
    setups: &[(flexpipe_model::ModelId, flexpipe_bench::PaperSetup)],
    assigned: &[usize],
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, FleetError> {
    let n = assigned.len();
    let threads = effective_threads(opts.run.threads, n);
    let computed_cap = opts.max_cells.unwrap_or(usize::MAX);
    let computed_count = AtomicUsize::new(0);
    // 0 = hit, 1 = computed, 2 = uncacheable, 3 = abandoned (over cap).
    let results: Vec<u8> = parallel_indexed(n, threads, |slot| {
        let i = assigned[slot];
        let job = plan.job(i);
        if cache.load(job.key, job.budget).is_some() {
            progress(opts, job.entry_name, &job.id, "HIT");
            return 0;
        }
        if computed_count.fetch_add(1, Ordering::Relaxed) >= computed_cap {
            return 3;
        }
        let metrics = plan.compute(i, setups);
        let stored = store_logged(cache, &job, &metrics);
        progress(
            opts,
            job.entry_name,
            &job.id,
            if stored { "computed" } else { "UNCACHEABLE" },
        );
        if stored {
            1
        } else {
            2
        }
    });
    Ok(WorkerOutcome {
        assigned: n,
        computed: results.iter().filter(|&&r| r == 1).count(),
        hits: results.iter().filter(|&&r| r == 0).count(),
        uncacheable: results.iter().filter(|&&r| r == 2).count(),
        reaped: 0,
        abandoned: results.iter().filter(|&&r| r == 3).count(),
    })
}

/// Claim mode: repeated passes over the pending set in a per-worker
/// shuffled order, claiming before computing, heartbeating held claims,
/// reaping stale ones between passes.
fn run_claiming(
    plan: &CampaignPlan,
    cache: &CellCache,
    setups: &[(flexpipe_model::ModelId, flexpipe_bench::PaperSetup)],
    assigned: &[usize],
    opts: &WorkerOptions,
) -> Result<WorkerOutcome, FleetError> {
    let mut outcome = WorkerOutcome {
        assigned: assigned.len(),
        ..Default::default()
    };
    let mut pending: Vec<usize> = assigned.to_vec();
    let computed_cap = opts.max_cells.unwrap_or(usize::MAX);

    // Heartbeat thread: refresh every claim this worker currently holds,
    // well inside the TTL, so long cells are never reaped from under us.
    let held: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = heartbeat_interval(opts.claim_ttl);
    let heartbeat = {
        let held = Arc::clone(&held);
        let stop = Arc::clone(&stop);
        let cache = cache.clone();
        let worker = opts.worker_id.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(beat);
                let keys: Vec<String> = held.lock().unwrap().iter().cloned().collect();
                for key in keys {
                    // A failed refresh (claim reaped by a peer) is not
                    // fatal: the cell's put is still atomic and
                    // byte-identical either way.
                    let _ = cache.refresh_claim(&key, &worker);
                }
            }
        })
    };

    let mut pass = 0u64;
    while !pending.is_empty() && outcome.computed < computed_cap {
        pass += 1;
        let order = shuffled(&pending, &opts.worker_id, pass);
        let n = order.len();
        let threads = effective_threads(opts.run.threads, n);
        let computed_before = outcome.computed;
        let computed_count = AtomicUsize::new(computed_before);
        // Per-item outcome: 0 hit, 1 computed, 2 uncacheable, 3 pending
        // (held elsewhere or over the compute cap).
        let results: Vec<u8> = parallel_indexed(n, threads, |slot| {
            let i = order[slot];
            let job = plan.job(i);
            if cache.load(job.key, job.budget).is_some() {
                progress(opts, job.entry_name, &job.id, "HIT");
                return 0;
            }
            if computed_count.load(Ordering::Relaxed) >= computed_cap {
                return 3;
            }
            match cache.try_claim(job.key, &opts.worker_id) {
                Ok(ClaimOutcome::Acquired) => {}
                Ok(ClaimOutcome::Held { worker, .. }) => {
                    progress(opts, job.entry_name, &job.id, &format!("held by {worker}"));
                    return 3;
                }
                Err(e) => {
                    // Claiming is best-effort; an unreadable claim file
                    // just defers the cell to a later pass.
                    eprintln!("worker {}: claim {} failed: {e}", opts.worker_id, job.key);
                    return 3;
                }
            }
            // Between our cache probe and the claim, a peer may have
            // finished this cell and released: re-check before burning
            // compute.
            if cache.load(job.key, job.budget).is_some() {
                let _ = cache.release_claim(job.key, &opts.worker_id);
                progress(opts, job.entry_name, &job.id, "HIT");
                return 0;
            }
            if computed_count.fetch_add(1, Ordering::Relaxed) >= computed_cap {
                let _ = cache.release_claim(job.key, &opts.worker_id);
                return 3;
            }
            held.lock().unwrap().insert(job.key.to_string());
            let metrics = plan.compute(i, setups);
            let stored = store_logged(cache, &job, &metrics);
            held.lock().unwrap().remove(job.key);
            let _ = cache.release_claim(job.key, &opts.worker_id);
            progress(
                opts,
                job.entry_name,
                &job.id,
                if stored { "computed" } else { "UNCACHEABLE" },
            );
            if stored {
                1
            } else {
                2
            }
        });

        let mut still_pending = Vec::new();
        for (slot, &r) in results.iter().enumerate() {
            match r {
                0 => outcome.hits += 1,
                1 => outcome.computed += 1,
                2 => outcome.uncacheable += 1,
                _ => still_pending.push(order[slot]),
            }
        }
        still_pending.sort_unstable();
        let progressed = still_pending.len() < pending.len();
        pending = still_pending;

        if !pending.is_empty() && outcome.computed < computed_cap {
            // Peers hold everything that's left. Reap the dead, then
            // wait briefly for the living before re-checking.
            match cache.reap_stale_claims(opts.claim_ttl) {
                Ok(reaped) => {
                    outcome.reaped += reaped;
                    if reaped == 0 && !progressed {
                        std::thread::sleep(beat);
                    }
                }
                Err(e) => {
                    eprintln!("worker {}: reap failed: {e}", opts.worker_id);
                    std::thread::sleep(beat);
                }
            }
        }
    }
    outcome.abandoned = pending.len();

    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    Ok(outcome)
}

/// How often held claims are heartbeated: well inside the TTL, but never
/// busier than 4 Hz even under second-scale test TTLs.
fn heartbeat_interval(ttl: Duration) -> Duration {
    (ttl / 4).max(Duration::from_millis(250))
}

fn store_logged(
    cache: &CellCache,
    job: &crate::campaign::CellJob<'_>,
    metrics: &crate::report::CellMetrics,
) -> bool {
    cache
        .store(job.key, job.kind, &job.id, metrics)
        .unwrap_or_else(|e| {
            eprintln!("worker cache store failed for {}: {e}", job.id);
            false
        })
}

fn progress(opts: &WorkerOptions, entry: &str, id: &str, what: &str) {
    if !opts.run.quiet {
        eprintln!("worker {} {entry}:{id} {what}", opts.worker_id);
    }
}

/// A deterministic per-(worker, pass) shuffle of the pending list:
/// different workers visit cells in different orders, so claim
/// collisions stay rare without any shared state. Plain FNV-seeded
/// Fisher–Yates — statistical quality is irrelevant here, divergence
/// between workers is the point.
fn shuffled(items: &[usize], worker_id: &str, pass: u64) -> Vec<usize> {
    let mut seed: u64 = 0xCBF2_9CE4_8422_2325;
    for b in worker_id.as_bytes() {
        seed = (seed ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    seed ^= pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        // xorshift64* step per draw.
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        let j = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_deterministic_permutations_that_differ_by_worker() {
        let items: Vec<usize> = (0..32).collect();
        let a1 = shuffled(&items, "w1", 1);
        let a2 = shuffled(&items, "w1", 1);
        assert_eq!(a1, a2, "same worker+pass → same order");
        let b = shuffled(&items, "w2", 1);
        let c = shuffled(&items, "w1", 2);
        assert_ne!(a1, b, "distinct workers diverge");
        assert_ne!(a1, c, "distinct passes diverge");
        for perm in [&a1, &b, &c] {
            let mut sorted = (*perm).clone();
            sorted.sort_unstable();
            assert_eq!(sorted, items, "a permutation, nothing lost");
        }
    }

    #[test]
    fn heartbeat_stays_inside_the_ttl_but_bounded() {
        assert_eq!(
            heartbeat_interval(Duration::from_secs(60)),
            Duration::from_secs(15)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_millis(100)),
            Duration::from_millis(250)
        );
    }

    #[test]
    fn bad_shards_error() {
        let spec = CampaignSpec::template();
        let opts = WorkerOptions {
            shard: Some((3, 3)),
            ..Default::default()
        };
        let err = run_worker(&spec, Path::new("."), Path::new("/tmp/x"), &opts).unwrap_err();
        assert!(err.to_string().contains("bad shard"), "{err}");
        let opts = WorkerOptions {
            shard: Some((0, 0)),
            ..Default::default()
        };
        assert!(run_worker(&spec, Path::new("."), Path::new("/tmp/x"), &opts).is_err());
    }
}
