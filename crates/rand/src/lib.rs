//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates-io access, so this workspace-local
//! crate provides the (small) API subset the workload generators, the
//! fault plans and the randomized tests use: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`] and [`Rng::gen_range`].
//! The generator is xoshiro256** seeded via splitmix64 — deterministic
//! across platforms and runs, which is all its users require (the real
//! `rand` makes no cross-version stream guarantees either, so nothing
//! depended on the exact StdRng stream). Each randomized test draws case
//! `i` from `StdRng::seed_from_u64(seed + i)` and prints that seed when the
//! case fails.

use std::ops::{Range, RangeInclusive};

/// Seedable generators (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A uniformly sampleable range, the bound of [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from `rng` uniformly over the range.
    fn sample_single(self, rng: &mut dyn RngCore) -> T;
}

/// The raw generator interface: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Values producible by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value.
    fn draw(rng: &mut dyn RngCore) -> Self;
}

impl Standard for u8 {
    fn draw(rng: &mut dyn RngCore) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for u64 {
    fn draw(rng: &mut dyn RngCore) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw(rng: &mut dyn RngCore) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// User-facing sampling methods, blanket-implemented over [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value over `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// A value of any [`Standard`] type.
    #[allow(clippy::should_implement_trait)]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }
}

impl<R: RngCore> Rng for R {}

fn uniform_u64(rng: &mut dyn RngCore, span: u64) -> u64 {
    debug_assert!(span > 0, "empty sample range");
    // Multiply-shift reduction (Lemire); the slight bias over a 64-bit
    // stream is far below anything the synthetic workloads can observe.
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_u64(rng, span) as i64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i64).wrapping_add(uniform_u64(rng, span + 1) as i64) as $t
            }
        }
    )*};
}

impl_int_range!(i16, i32, i64, u8, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

/// Random number generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: xoshiro256** seeded through splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = r.gen_range(0usize..=3);
            assert!(w <= 3);
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let s = r.gen_range(0i16..300);
            assert!((0..300).contains(&s));
            let b = r.gen_range(1u8..128);
            assert!((1..128).contains(&b));
        }
    }

    #[test]
    fn full_width_ranges_cover_extremes_without_panicking() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let _ = r.gen_range(i64::MIN..i64::MAX);
            let _ = r.gen_range(0u64..=u64::MAX);
        }
    }
}
