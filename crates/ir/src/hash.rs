//! A one-multiply hasher for integer-keyed tables.
//!
//! The default SipHash costs more than the small tables it guards are
//! worth. The simulator probes its tables on the tick loop's hot paths
//! (the receive CAM's tag index, the transactional read/write sets), and
//! the compiler probes its per-register and per-instruction tables once
//! per operand. Their keys are internal, never attacker-controlled.
//! Nothing may depend on the iteration order of a table keyed this way —
//! or of any `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiply, with the product's well-mixed high half folded
/// into the low bits the table indexes buckets by: line addresses are
/// multiples of the line size, and a bare product keeps their zero low
/// bits. Every integer written folds into the running state, so a
/// compound key such as `(BlockId, usize)` hashes on all of its fields,
/// and a single integer hashes to `mix(key)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("integer keys hash through the write_u* methods");
    }

    fn write_u8(&mut self, key: u8) {
        self.write_u64(u64::from(key));
    }

    fn write_u16(&mut self, key: u16) {
        self.write_u64(u64::from(key));
    }

    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    fn write_usize(&mut self, key: usize) {
        self.write_u64(key as u64);
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over integer keys hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockId;
    use std::hash::Hash;

    fn hash(key: impl Hash) -> u64 {
        let mut h = IntHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_single_integer_hashes_to_the_mixed_product() {
        for key in [0u64, 1, 64, 0x4000_0040, u64::MAX] {
            let p = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(hash(key), p ^ (p >> 32));
            assert_eq!(hash(key as u32), hash(u64::from(key as u32)));
        }
    }

    #[test]
    fn compound_keys_hash_on_every_field() {
        for k in [0usize, 1, 7] {
            let by_block: IntSet<u64> = (0..256).map(|b| hash((BlockId(b), k))).collect();
            assert_eq!(by_block.len(), 256, "(b, {k}) keys collide on b");
        }
        assert_ne!(hash((BlockId(1), 2usize)), hash((BlockId(2), 1usize)));
    }
}
