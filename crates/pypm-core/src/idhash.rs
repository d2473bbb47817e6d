//! The hasher behind every map keyed by a process-assigned dense id
//! ([`crate::TermId`], a node id, a pattern index, or a small tuple of
//! them). Such keys are distinct small integers this process handed
//! out itself, so SipHash's resistance to crafted collisions buys
//! nothing and its cost is most of a probe; one multiplication spreads
//! them. Maps keyed by anything that arrives from outside — symbol
//! names, cache-key bytes — keep the default hasher.
//!
//! The [`TermStore`](crate::TermStore)'s index hashes an application's
//! `(op, argument ids)` with the same fold, and so does a graph's shape
//! table (`pypm_graph::ShapeTable`) a shape's rank and extents. Those
//! keys qualify today because every component is an id this process
//! assigned or an extent of a graph it built itself (a served request
//! names a zoo model), so nobody outside chooses which applications or
//! shapes exist. Once graphs arrive over the wire (ROADMAP item 2) term
//! structure and extents are client-supplied, and ROADMAP item 10 must
//! revisit, for both tables at once, whether an unkeyed hash may still
//! back them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hashing, folded per written integer (a tuple key
/// writes one per field). An odd multiplier is a bijection on every
/// low-bit window, so consecutive ids land in distinct buckets.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by dense ids (see the module docs).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of dense ids (see the module docs).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(k: K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(k)
    }

    #[test]
    fn dense_ids_and_id_tuples_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets by the low bits and tags by the top
        // seven: a run of consecutive ids must collide in neither.
        let low: IdSet<u64> = (0..1024u32).map(|i| hash_of(i) & 1023).collect();
        assert_eq!(low.len(), 1024);
        let high: IdSet<u64> = (0..128u32).map(|i| hash_of(i) >> 57).collect();
        assert!(high.len() > 64, "{} distinct tags of 128", high.len());
        let pairs: IdSet<u64> = (0..32usize)
            .flat_map(|p| (0..32u32).map(move |t| hash_of((p, t))))
            .collect();
        assert_eq!(pairs.len(), 1024);
    }

    #[test]
    fn maps_behave_as_maps() {
        let mut m: IdMap<(usize, u32), &str> = IdMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.get(&(2, 1)), Some(&"b"));
        assert_eq!(m.get(&(2, 2)), None);
    }
}
