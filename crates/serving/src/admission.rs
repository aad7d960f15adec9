//! The indexed admission fast path.
//!
//! The gateway admits each queued request to the least-loaded admissible
//! instance. The reference implementation re-scans every instance per
//! request — O(instances × queued requests) — which is fine at the
//! paper's 20 QPS on 82 GPUs but dominates the event loop at 10× the
//! rate (ROADMAP "engine hot paths"). The [`AdmissionIndex`] replaces the
//! rescan with an ordered set keyed on `(load-factor bits, instance id)`,
//! incrementally maintained by the engine on every event that changes an
//! instance's admissibility (spawn, ready, admit, completion, retire,
//! refactor, hold, revocation, restore-triggered rebuilds), so selection
//! is O(log instances) and chaos + inflight refactoring keep it coherent.
//!
//! Ordering contract: the naive scan compares `f64` load factors via
//! `partial_cmp` and breaks ties on the instance id. Admissible load
//! factors are finite and non-negative (`active < cap`, so `cap > 0`),
//! and IEEE-754 bit patterns of non-negative floats order exactly like
//! the floats themselves — keying the set on `f64::to_bits` therefore
//! reproduces the naive selection *bit for bit*, which is what makes the
//! indexed path a pure optimization (byte-identical reports, proven by
//! tests).

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::instance::InstanceId;

/// Ordered index over admissible instances.
///
/// The engine owns one and calls [`AdmissionIndex::apply`] with the
/// instance's current admission key (`Some(load_factor.to_bits())` when
/// admissible, `None` otherwise) after every mutation that can change it.
#[derive(Debug, Default)]
pub struct AdmissionIndex {
    /// `(load-factor bits, id)` — `BTreeSet` min = the naive scan's pick.
    set: BTreeSet<(u64, InstanceId)>,
    /// Current key per indexed instance (for O(log n) re-keying).
    keys: HashMap<InstanceId, u64>,
}

impl AdmissionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `id`'s admission key: `Some(bits)` inserts or re-keys,
    /// `None` removes. Idempotent.
    pub fn apply(&mut self, id: InstanceId, key: Option<u64>) {
        match (self.keys.get(&id).copied(), key) {
            (Some(old), Some(new)) if old == new => {}
            (Some(old), Some(new)) => {
                self.set.remove(&(old, id));
                self.set.insert((new, id));
                self.keys.insert(id, new);
            }
            (Some(old), None) => {
                self.set.remove(&(old, id));
                self.keys.remove(&id);
            }
            (None, Some(new)) => {
                self.set.insert((new, id));
                self.keys.insert(id, new);
            }
            (None, None) => {}
        }
    }

    /// The least-loaded admissible instance (ties toward the lowest id),
    /// exactly matching the naive reference scan.
    pub fn best(&self) -> Option<InstanceId> {
        self.set.first().map(|&(_, id)| id)
    }

    /// Number of admissible instances currently indexed.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no instance is admissible.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Indexed `(id, key)` pairs in selection order (test support).
    pub fn entries(&self) -> impl Iterator<Item = (InstanceId, u64)> + '_ {
        self.set.iter().map(|&(k, id)| (id, k))
    }
}

/// Engine-wide hot-path selection strategy.
///
/// Originally the *admission*-path toggle; PR 5 generalized it to govern
/// every incrementally maintained engine structure — the admission index,
/// the per-instance decode-slot tracker, the cluster's server-load ranking
/// and the memoized Table-2 partition table (see
/// [`crate::engine::indexes`]). The serialized variant names (and the
/// `admission` field carrying the mode in
/// [`crate::config::EngineConfig`]) are unchanged, so spec files and the
/// engine fingerprint are unaffected. Both modes produce byte-identical
/// reports — the mode changes wall-clock only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineMode {
    /// The indexed fast paths (default): O(log n) / O(1) per event.
    #[default]
    Indexed,
    /// The retained naive reference scans. Kept for equivalence tests
    /// and `fleet bench` A/B sweeps — reports must be byte-identical.
    NaiveScan,
}

/// Backward-compatible name for [`EngineMode`] from when the toggle only
/// covered admission.
pub type AdmissionMode = EngineMode;

impl EngineMode {
    /// Stable lowercase label (bench cell ids, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Indexed => "indexed",
            EngineMode::NaiveScan => "naive",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "indexed" => Some(EngineMode::Indexed),
            "naive" => Some(EngineMode::NaiveScan),
            _ => None,
        }
    }
}

/// One synthetic admission slot of the [`churn`] harness: an instance
/// stand-in with a batch capacity and a live-request count.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cap: u32,
    active: u32,
    admissible: bool,
}

impl Slot {
    fn key(&self) -> Option<u64> {
        if self.admissible && self.active < self.cap {
            Some((f64::from(self.active) / f64::from(self.cap)).to_bits())
        } else {
            None
        }
    }
}

/// Deterministic admission churn behind the fast-path equivalence tests
/// (`crates/serving/tests/admission_fast_path.rs`).
///
/// Simulates `ops` gateway decisions over `n` instances with staggered
/// capacities: each step admits to the least-loaded admissible slot
/// (naive linear scan or [`AdmissionIndex`], per `mode`), and a
/// deterministic counter-based pattern completes requests and flips
/// admission holds so slots keep entering and leaving the index — the
/// same churn the engine produces under load, without the event loop
/// around it. Returns a checksum over the chosen instance sequence, so
/// callers can assert the two modes make identical decisions.
pub fn churn(n: usize, ops: usize, mode: AdmissionMode) -> u64 {
    assert!(n > 0, "need at least one slot");
    let mut slots: Vec<Slot> = (0..n)
        .map(|i| Slot {
            cap: 4 + (i as u32 % 13) * 3,
            active: 0,
            admissible: true,
        })
        .collect();
    let mut index = AdmissionIndex::new();
    if mode == AdmissionMode::Indexed {
        for (i, s) in slots.iter().enumerate() {
            index.apply(InstanceId(i as u64), s.key());
        }
    }
    // SplitMix64: deterministic, dependency-free pattern driver (shared
    // with the engine's other churn harnesses).
    let mut state = 0x5EEDu64.wrapping_add(n as u64);

    let mut checksum = 0u64;
    let touch = |slots: &mut [Slot], index: &mut AdmissionIndex, i: usize| {
        if mode == AdmissionMode::Indexed {
            index.apply(InstanceId(i as u64), slots[i].key());
        }
    };
    for op in 0..ops {
        // Admit to the least-loaded admissible slot.
        let target = match mode {
            AdmissionMode::Indexed => index.best().map(|id| id.0 as usize),
            AdmissionMode::NaiveScan => slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.admissible && s.active < s.cap)
                .min_by(|(ai, a), (bi, b)| {
                    (f64::from(a.active) / f64::from(a.cap))
                        .partial_cmp(&(f64::from(b.active) / f64::from(b.cap)))
                        .unwrap()
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i),
        };
        if let Some(i) = target {
            slots[i].active += 1;
            touch(&mut slots, &mut index, i);
            checksum = checksum
                .wrapping_mul(0x100000001B3)
                .wrapping_add(i as u64 + 1);
        }
        // Deterministic churn: completions free capacity, occasional
        // holds/releases move slots in and out of the admissible set.
        let r = crate::engine::indexes::splitmix(&mut state);
        let j = (r % n as u64) as usize;
        if op % 2 == 0 && slots[j].active > 0 {
            slots[j].active -= 1;
            touch(&mut slots, &mut index, j);
        }
        if r.is_multiple_of(17) {
            slots[j].admissible = !slots[j].admissible;
            touch(&mut slots, &mut index, j);
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_inserts_rekeys_and_removes() {
        let mut idx = AdmissionIndex::new();
        assert!(idx.is_empty());
        idx.apply(InstanceId(2), Some(0.5f64.to_bits()));
        idx.apply(InstanceId(1), Some(0.25f64.to_bits()));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.best(), Some(InstanceId(1)));
        // Re-key: instance 1 fills up past instance 2.
        idx.apply(InstanceId(1), Some(0.75f64.to_bits()));
        assert_eq!(idx.best(), Some(InstanceId(2)));
        // Remove.
        idx.apply(InstanceId(2), None);
        assert_eq!(idx.best(), Some(InstanceId(1)));
        idx.apply(InstanceId(1), None);
        assert!(idx.is_empty());
        // Idempotent no-ops.
        idx.apply(InstanceId(9), None);
        assert!(idx.best().is_none());
    }

    #[test]
    fn ties_break_toward_the_lowest_id() {
        let mut idx = AdmissionIndex::new();
        let k = 0.5f64.to_bits();
        idx.apply(InstanceId(7), Some(k));
        idx.apply(InstanceId(3), Some(k));
        assert_eq!(idx.best(), Some(InstanceId(3)));
    }

    #[test]
    fn bit_keys_order_like_load_factors() {
        // Non-negative f64 bit patterns are order-isomorphic to values:
        // the property the whole index rests on.
        let factors: [f64; 7] = [0.0, 1e-12, 0.124999, 0.125, 0.5, 0.999999, 1.0];
        for w in factors.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn churn_modes_agree_on_every_decision() {
        for n in [1usize, 3, 17, 64] {
            assert_eq!(
                churn(n, 2_000, AdmissionMode::Indexed),
                churn(n, 2_000, AdmissionMode::NaiveScan),
                "divergence at n={n}"
            );
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [AdmissionMode::Indexed, AdmissionMode::NaiveScan] {
            assert_eq!(AdmissionMode::parse(m.label()), Some(m));
        }
        assert_eq!(AdmissionMode::parse("bogus"), None);
        assert_eq!(AdmissionMode::default(), AdmissionMode::Indexed);
    }
}
