//! A one-multiply hasher for the simulator's integer-keyed tables.
//!
//! The default SipHash costs more than the small tables it guards are
//! worth: the receive CAM's tag index ([`crate::network`]) and the
//! transactional read/write sets ([`crate::tm`]) are probed on the tick
//! loop's hot paths, and their keys are simulator-internal (never
//! attacker-controlled). Nothing may depend on the iteration order of a
//! table keyed this way — or of any `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiply, with the product's well-mixed high half folded
/// into the low bits the table indexes buckets by: line addresses are
/// multiples of the line size, and a bare product keeps their zero low
/// bits.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("integer keys hash through write_u32 / write_u64");
    }

    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` over integer keys hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over integer keys hashed by [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
