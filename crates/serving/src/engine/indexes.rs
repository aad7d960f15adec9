//! The engine's incrementally maintained hot-path structures and the
//! deterministic churn harnesses that prove them equivalent to their
//! naive reference scans.
//!
//! Inventory (one entry per per-event scan the engine used to pay):
//!
//! | structure | replaces | consulted by |
//! |---|---|---|
//! | [`crate::admission::AdmissionIndex`] | O(instances) admission rescan | `drain_gateway` |
//! | [`DecodeSlotTracker`] | O(micro-batches) decode recount | `launch_decode` |
//! | [`flexpipe_cluster::ServerLoadIndex`] | O(servers × GPUs) rebuild+sort | `hottest_server` |
//! | [`flexpipe_model::MaxBatchTable`] | O(range) operator-slice walks | spawn / refactor sizing |
//! | [`crate::instance::StageRuntime::terms`] | O(range) operator sums per pass | `try_start_stage` |
//!
//! All five are the engine's only path. The naive computation each one
//! replaced survives only as a reference: debug-build validators compare
//! against it at every consultation (the test profile keeps debug
//! assertions on, so every test run checks every decision), and release
//! builds never run it.
//!
//! The [`decode_slot_churn`] and [`server_load_churn`] harnesses mirror
//! [`crate::admission::churn`]: deterministic, engine-free drivers that
//! query the structure and its naive reference in lockstep and panic at
//! the first disagreement, from small random fleets up to 1,500
//! instances/servers. Speed is measured end to end by the repository
//! benchmark (`perfbench/`), not here.

use std::collections::HashMap;

use flexpipe_cluster::{Cluster, ClusterSpec, GpuId, LeaseId, ServerId};

/// Per-instance count of in-flight *decode* micro-batches.
///
/// `launch_decode` runs on every pass completion and used to recount the
/// instance's micro-batch list (one hash-map lookup per entry) just to
/// compare against the slot limit. The tracker is bumped on decode launch,
/// decremented when a decode micro-batch dissolves, and reset when a
/// revocation kills the instance's whole in-flight set (the epoch bump
/// makes the stale events no-ops, so no other path can touch a dead
/// micro-batch). Refactor commits relaunch live micro-batches without
/// changing membership, so the count carries across epochs unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeSlotTracker {
    in_flight: u32,
}

impl DecodeSlotTracker {
    /// A tracker with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// A decode micro-batch launched.
    pub fn launched(&mut self) {
        self.in_flight += 1;
    }

    /// A decode micro-batch dissolved (pass finished; members regroup).
    pub fn dissolved(&mut self) {
        debug_assert!(self.in_flight > 0, "dissolving with nothing in flight");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Every in-flight micro-batch was killed (revocation wound).
    pub fn reset(&mut self) {
        self.in_flight = 0;
    }

    /// In-flight decode micro-batches right now.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }
}

/// SplitMix64 step: the single deterministic, dependency-free pattern
/// driver behind every churn harness ([`crate::admission::churn`] and
/// the two below) — one copy, so the harnesses can never desynchronize.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic decode-slot churn over `n` synthetic instances.
///
/// Reproduces `launch_decode`'s exact data shape: each instance owns a
/// list of micro-batch ids whose phases live in a shared map (as the
/// engine's do), and every step queries the in-flight decode count twice
/// — from the [`DecodeSlotTracker`] and by scanning the list with a map
/// lookup per entry — and panics if they differ, then mutates:
/// decode/prefill launches, dissolutions, and occasional revocation-style
/// kills of an instance's whole in-flight set.
pub fn decode_slot_churn(n: usize, ops: usize) {
    assert!(n > 0, "need at least one instance");
    let mut phases: HashMap<u64, bool> = HashMap::new(); // id -> is_decode
    let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut trackers: Vec<DecodeSlotTracker> = vec![DecodeSlotTracker::new(); n];
    let mut next_ub = 0u64;
    let mut state = 0xDEC0DEu64.wrapping_add(n as u64);
    for op in 0..ops {
        let r = splitmix(&mut state);
        let i = (r % n as u64) as usize;
        // The launch decision's read: how many decode passes are in flight?
        let recount = lists[i]
            .iter()
            .filter(|id| phases.get(id).copied().unwrap_or(false))
            .count();
        assert_eq!(
            trackers[i].in_flight() as usize,
            recount,
            "decode-slot tracker diverged from the recount at op {op} (n={n})"
        );
        // Mutate, biased toward launches so lists stay populated.
        match (r >> 32) % 8 {
            0..=2 => {
                // Decode launch.
                next_ub += 1;
                phases.insert(next_ub, true);
                lists[i].push(next_ub);
                trackers[i].launched();
            }
            3 | 4 => {
                // Prefill launch (never counted, always scanned past).
                next_ub += 1;
                phases.insert(next_ub, false);
                lists[i].push(next_ub);
            }
            5 | 6 => {
                // Oldest micro-batch dissolves.
                if !lists[i].is_empty() {
                    let ub = lists[i].remove(0);
                    if phases.remove(&ub).unwrap_or(false) {
                        trackers[i].dissolved();
                    }
                }
            }
            _ => {
                // Revocation wound: the whole in-flight set dies at once.
                for ub in lists[i].drain(..) {
                    phases.remove(&ub);
                }
                trackers[i].reset();
            }
        }
    }
}

/// Deterministic server-load churn over a `servers`-node cluster.
///
/// Drives a real [`Cluster`] through serving-lease reserve/release and GPU
/// revoke/restore traffic, querying the `rank`-th busiest server each step
/// twice — from the cluster's incrementally maintained
/// [`flexpipe_cluster::ServerLoadIndex`] and by the engine's
/// rebuild-and-sort reference — and panics if they differ.
pub fn server_load_churn(servers: usize, ops: usize) {
    assert!(servers > 0, "need at least one server");
    let spec = ClusterSpec::heterogeneous("load-churn", servers as u32, 2 * servers as u32, 8);
    let mut cluster = Cluster::new(spec);
    let gpu_count = cluster.topology().gpu_count() as u64;
    let mut leases: Vec<LeaseId> = Vec::new();
    let mut state = 0x5E17E5u64.wrapping_add(servers as u64);

    // The engine's naive reference, verbatim: rebuild and sort per query.
    let naive = |cluster: &Cluster, rank: u32| -> Option<ServerId> {
        let topo = cluster.topology();
        let mut ranked: Vec<(u64, ServerId)> = (0..topo.server_count() as u32)
            .map(ServerId)
            .filter(|&s| topo.gpus_on(s).iter().any(|&g| !cluster.is_revoked(g)))
            .map(|s| {
                let bytes: u64 = topo
                    .gpus_on(s)
                    .iter()
                    .map(|&g| cluster.load(g).serving_mem)
                    .sum();
                (bytes, s)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.get(rank as usize).map(|&(_, s)| s)
    };

    for op in 0..ops {
        let r = splitmix(&mut state);
        // The preemption-targeting read: who is the rank-th busiest?
        let rank = (r % 4) as u32;
        assert_eq!(
            cluster.nth_hottest_server(rank),
            naive(&cluster, rank),
            "server-load index diverged from the rebuild at op {op} (servers={servers}, rank {rank})"
        );
        // Mutate: lease churn dominates, with occasional revoke/restore.
        let g = GpuId(((r >> 8) % gpu_count) as u32);
        match (r >> 40) % 8 {
            0..=3 => {
                let bytes = (((r >> 16) % 64) + 1) << 20;
                if let Ok(lease) = cluster.reserve_gpu(g, bytes) {
                    leases.push(lease);
                }
            }
            4 | 5 => {
                if !leases.is_empty() {
                    let k = ((r >> 16) as usize) % leases.len();
                    let lease = leases.swap_remove(k);
                    let _ = cluster.release(lease);
                }
            }
            6 => {
                // Revocation invalidates that GPU's leases; drop the ids
                // (double release is an error the engine never commits).
                let dead = cluster.revoke_gpu(g);
                leases.retain(|l| !dead.contains(l));
            }
            _ => {
                cluster.restore_gpu(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_launch_dissolve_reset() {
        let mut t = DecodeSlotTracker::new();
        assert_eq!(t.in_flight(), 0);
        t.launched();
        t.launched();
        assert_eq!(t.in_flight(), 2);
        t.dissolved();
        assert_eq!(t.in_flight(), 1);
        t.reset();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn decode_slot_churn_modes_agree() {
        for n in [1usize, 3, 17, 64] {
            decode_slot_churn(n, 3_000);
        }
    }

    #[test]
    fn server_load_churn_modes_agree() {
        for servers in [1usize, 2, 9, 40] {
            server_load_churn(servers, 2_000);
        }
    }
}
