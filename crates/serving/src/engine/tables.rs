//! The engine's id-keyed stores, built for per-event lookups.
//!
//! - [`InstanceTable`] holds the instances by their monotone id in a dense
//!   window: a lookup is an index, and iteration runs in ascending id
//!   order, as the ordered map it replaced did.
//! - [`UbatchMap`] holds the micro-batches by [`UbatchId`] in a hash map
//!   whose hasher is one multiply. Its keys are the engine's own counter,
//!   never input, so the SipHash default guarded against nothing. The map
//!   is never iterated, so its order reaches no output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::instance::{Instance, InstanceId, MicroBatch, UbatchId};

/// Instances indexed by id.
///
/// Ids come from a counter, so the live instances occupy a window
/// `base..base + slots.len()` of the id space; a removed instance leaves a
/// hole, and holes at either end are trimmed, so the window spans exactly
/// the oldest live instance to the newest.
#[derive(Default)]
pub(crate) struct InstanceTable {
    /// Id of `slots[0]`.
    base: u64,
    slots: Vec<Option<Instance>>,
    live: usize,
}

impl InstanceTable {
    fn index(&self, id: InstanceId) -> Option<usize> {
        let offset = id.0.checked_sub(self.base)?;
        let offset = usize::try_from(offset).ok()?;
        (offset < self.slots.len()).then_some(offset)
    }

    /// The instance with `id`, if it is live.
    pub(crate) fn get(&self, id: InstanceId) -> Option<&Instance> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// The instance with `id`, mutably, if it is live.
    pub(crate) fn get_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Adds `inst` under its id, which must exceed every live id.
    pub(crate) fn insert(&mut self, inst: Instance) {
        let id = inst.id.0;
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "instance ids must increase");
        self.slots
            .resize_with(self.slots.len() + (id - end) as usize, || None);
        self.slots.push(Some(inst));
        self.live += 1;
    }

    /// Removes and returns the instance with `id`, if it is live.
    pub(crate) fn remove(&mut self, id: InstanceId) -> Option<Instance> {
        let i = self.index(id)?;
        let inst = self.slots[i].take()?;
        self.live -= 1;
        // Removals are rare next to lookups: shifting the window down is
        // linear in its length and keeps every lookup a plain index.
        let dead_front = self.slots.iter().take_while(|s| s.is_none()).count();
        self.slots.drain(..dead_front);
        self.base += dead_front as u64;
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
        Some(inst)
    }

    /// Live instances in ascending id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Instance> {
        self.slots.iter().flatten()
    }

    /// Number of live instances.
    pub(crate) fn len(&self) -> usize {
        self.live
    }
}

/// Hashes a micro-batch id with one multiply by the 64-bit golden ratio.
/// Consecutive ids land in distinct buckets (an odd multiplier permutes
/// the low bits) and the high bits the table probes with are well mixed.
#[derive(Default, Clone, Copy)]
pub(crate) struct CounterHasher(u64);

impl Hasher for CounterHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// `UbatchId` hashes through `write_u64` alone; other keys fold their
    /// bytes in one at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Micro-batches by id (see the module docs for the hasher).
pub(crate) type UbatchMap = HashMap<UbatchId, MicroBatch, BuildHasherDefault<CounterHasher>>;

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use crate::engine::indexes::splitmix;
    use crate::instance::InstanceState;

    fn instance(id: u64) -> Instance {
        Instance {
            id: InstanceId(id),
            stages: Vec::new(),
            state: InstanceState::Serving,
            batch_cap: 1,
            active_requests: 0,
            ubatches: Vec::new(),
            decode_ready: VecDeque::new(),
            decode_slots: Default::default(),
            admit_hold: false,
            compute_multiplier: 1.0,
            spawned_at: flexpipe_sim::SimTime::ZERO,
            ready_at: None,
            epoch: id,
        }
    }

    /// Random inserts (with id gaps) and removals against a `BTreeMap`:
    /// same lookups, same ascending iteration, same length, and a window
    /// spanning exactly the oldest live id to the newest.
    #[test]
    fn instance_table_matches_an_ordered_map() {
        let mut seed = 7u64;
        let mut table = InstanceTable::default();
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next = 0u64;
        for _ in 0..5_000 {
            let r = splitmix(&mut seed);
            if !r.is_multiple_of(3) || map.is_empty() {
                next += 1 + (r >> 8) % 3;
                table.insert(instance(next));
                map.insert(next, next);
            } else {
                let keys: Vec<u64> = map.keys().copied().collect();
                let id = keys[(r >> 8) as usize % keys.len()];
                assert_eq!(table.remove(InstanceId(id)).map(|i| i.epoch), Some(id));
                map.remove(&id);
                assert!(table.remove(InstanceId(id)).is_none());
            }
            let probe = (r >> 16) % (next + 2);
            assert_eq!(
                table.get(InstanceId(probe)).map(|i| i.epoch),
                map.get(&probe).copied()
            );
            assert_eq!(table.len(), map.len());
            let window = match (map.keys().next(), map.keys().last()) {
                (Some(&lo), Some(&hi)) => (hi - lo + 1) as usize,
                _ => 0,
            };
            assert_eq!(table.slots.len(), window);
        }
        let ids: Vec<u64> = table.values().map(|i| i.id.0).collect();
        assert_eq!(ids, map.keys().copied().collect::<Vec<_>>());
    }
}
