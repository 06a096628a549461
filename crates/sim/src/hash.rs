//! A fast deterministic hasher for the simulator's per-message maps.
//!
//! The engine and the application layers keep small hash maps keyed by
//! message ids, connection ids and unit-of-work numbers, and touch them
//! several times per simulated message. The standard library's SipHash
//! is built to resist hash flooding, which a simulator keyed by its own
//! counters does not need; it costs several times more per lookup than
//! the multiplicative "Fx" scheme used by the Rust compiler, which this
//! module implements for integer keys.
//!
//! The hasher is seedless, so map iteration order is a pure function of
//! the insertions. Simulation code must still never let iteration order
//! reach the event sequence (collect and sort first, as the engine does),
//! but a run no longer differs from the next one in how its maps lay out.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx scheme (`2^64 / φ`, rounded to odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx hasher: each word is folded in as `(h.rotl(5) ^ word) * SEED`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; a map built with it has no random state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Construct with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Construct with `default()`.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_seedless_and_spreads_sequential_ids() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_eq!(hash_of((3u32, 9usize)), hash_of((3u32, 9usize)));
        // Sequential message ids land in distinct high-bit groups, which
        // the swiss-table probe uses to filter candidates.
        let tops: FxHashSet<u64> = (0..64u64).map(|i| hash_of(i) >> 57).collect();
        assert!(tops.len() > 32, "{} distinct top-7-bit tags", tops.len());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m.get(&(i * 4096)) == Some(&(i as u32))));
        assert_eq!(m.remove(&4096), Some(1));
        assert!(!m.contains_key(&4096));
    }
}
