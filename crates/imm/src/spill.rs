//! Host-spill representation of a contiguous run of packed RRR sets.
//!
//! Under `--recovery degrade`, the eIM engine evicts its oldest RRR batches
//! to host memory (cuRipples-style) when the device cannot hold the growing
//! store. A [`PackedRrrBatch`] is the spilled unit: the batch's elements
//! log-encoded at `ceil(log2 n)` bits plus per-set lengths. It reconstructs
//! every set exactly on reload, which the round-trip tests assert.

use eim_bitpack::{bits_for, PackedBuf};
use eim_graph::VertexId;

use crate::rrrstore::RrrSets;

/// A contiguous, host-resident run of packed RRR sets `[first_set,
/// first_set + len)` evicted from a device store.
#[derive(Debug)]
pub struct PackedRrrBatch {
    first_set: usize,
    set_lens: Vec<u32>,
    /// Flat log-encoded ids at `ceil(log2 n)` bits each.
    elements: PackedBuf,
}

impl PackedRrrBatch {
    /// Packs sets `[from, to)` of `store` into a host batch.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or empty.
    pub fn pack_range(store: &dyn RrrSets, from: usize, to: usize) -> Self {
        assert!(from < to && to <= store.num_sets(), "bad spill range");
        let nbits = bits_for(store.num_vertices().saturating_sub(1) as u64);
        let mut elements = PackedBuf::new(nbits);
        let mut set_lens = Vec::with_capacity(to - from);
        store.for_each_set_in(from, to, &mut |_, members| {
            set_lens.push(members.len() as u32);
            for &v in members {
                elements.push(v as u64);
            }
        });
        Self {
            first_set: from,
            set_lens,
            elements,
        }
    }

    /// Index of the first spilled set in the originating store.
    pub fn first_set(&self) -> usize {
        self.first_set
    }

    /// Number of sets in the batch.
    pub fn num_sets(&self) -> usize {
        self.set_lens.len()
    }

    /// Bytes this batch occupied on the device — what one eviction moves
    /// over PCIe: the encoded elements plus one `u32` length per set (the
    /// batch-local offset table).
    pub fn device_bytes(&self) -> usize {
        self.elements.bytes() + self.set_lens.len() * std::mem::size_of::<u32>()
    }

    /// Decodes the batch back into per-set member lists, in set order.
    pub fn unpack(&self) -> Vec<Vec<VertexId>> {
        let mut out = Vec::with_capacity(self.set_lens.len());
        let mut idx = 0usize;
        for &len in &self.set_lens {
            let mut set = Vec::with_capacity(len as usize);
            for _ in 0..len {
                set.push(self.elements.get(idx) as VertexId);
                idx += 1;
            }
            out.push(set);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{PackedRrrStore, PlainRrrStore, RrrStoreBuilder};

    fn filled(packed: bool) -> (Box<dyn RrrSets>, Vec<Vec<VertexId>>) {
        let sets: Vec<Vec<VertexId>> = (0..20)
            .map(|i| {
                (0..=(i % 5))
                    .map(|j| (i + j * 7) as VertexId % 100)
                    .collect()
            })
            .map(|mut s: Vec<VertexId>| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        if packed {
            let mut st = PackedRrrStore::new(100);
            for s in &sets {
                st.append_set(s);
            }
            (Box::new(st), sets)
        } else {
            let mut st = PlainRrrStore::new(100);
            for s in &sets {
                st.append_set(s);
            }
            (Box::new(st), sets)
        }
    }

    #[test]
    fn spill_reload_round_trips_a_packed_batch() {
        for packed in [true, false] {
            let (store, sets) = filled(packed);
            let batch = PackedRrrBatch::pack_range(store.as_ref(), 3, 11);
            assert_eq!(batch.first_set(), 3);
            assert_eq!(batch.num_sets(), 8);
            assert!(batch.device_bytes() > 0);
            assert_eq!(batch.unpack(), sets[3..11].to_vec());
        }
    }

    #[test]
    fn empty_sets_survive_the_round_trip() {
        let mut st = PlainRrrStore::new(10);
        st.append_set(&[]);
        st.append_set(&[1, 4]);
        st.append_set(&[]);
        let batch = PackedRrrBatch::pack_range(&st, 0, 3);
        assert_eq!(batch.unpack(), vec![vec![], vec![1, 4], vec![]]);
    }

    #[test]
    #[should_panic(expected = "bad spill range")]
    fn out_of_bounds_range_panics() {
        let (store, _) = filled(true);
        PackedRrrBatch::pack_range(store.as_ref(), 5, 30);
    }
}
