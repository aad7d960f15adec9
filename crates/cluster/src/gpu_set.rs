//! Dense GPU-id set.
//!
//! GPU ids are dense (`0..gpu_count`, see [`crate::Topology`]), so a set
//! of them is a bitmap indexed by id: membership is one shift and mask,
//! where a hashed set pays a SipHash per query. Placement asks "is this
//! GPU held?" of every GPU in the cluster on every spawn, refactor and
//! rescue, which is why the serving engine keeps its in-use set here.

use crate::topology::GpuId;

/// A set of GPU ids stored as a bitmap indexed by id.
///
/// `contains`, `insert` and `remove` are O(1); [`GpuSet::iter`] yields
/// the members in ascending id order. The bitmap grows on insert, so an
/// empty set needs no cluster size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GpuSet {
    words: Vec<u64>,
}

impl GpuSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(gpu: GpuId) -> (usize, u64) {
        let i = gpu.0 as usize;
        (i / 64, 1 << (i % 64))
    }

    /// Whether `gpu` is a member.
    pub fn contains(&self, gpu: GpuId) -> bool {
        let (word, bit) = Self::slot(gpu);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `gpu`; returns whether it was absent.
    pub fn insert(&mut self, gpu: GpuId) -> bool {
        let (word, bit) = Self::slot(gpu);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Removes `gpu`; returns whether it was present.
    pub fn remove(&mut self, gpu: GpuId) -> bool {
        let (word, bit) = Self::slot(gpu);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(GpuId(word as u32 * 64 + bit))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn matches_an_ordered_set_under_churn() {
        let mut set = GpuSet::new();
        let mut model = BTreeSet::new();
        // A fixed LCG walk over ids that straddle several words.
        let mut x: u64 = 7;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let g = GpuId((x >> 33) as u32 % 300);
            if x >> 63 == 0 {
                assert_eq!(set.insert(g), model.insert(g));
            } else {
                assert_eq!(set.remove(g), model.remove(&g));
            }
            assert_eq!(set.contains(g), model.contains(&g));
        }
        assert!(set.iter().eq(model.iter().copied()));
        assert!(
            !set.contains(GpuId(100_000)),
            "ids past the bitmap are absent"
        );
        assert!(!set.remove(GpuId(100_000)));
    }
}
