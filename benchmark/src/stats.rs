//! Order statistics and the seeded shuffle the workloads draw their
//! request order from. Everything here is deterministic: the same
//! samples (or the same seed) give the same answer on every host.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a workload that produced no samples
/// still reports a number — its failed-operation count says why.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency report may quote, ascending.
const TAIL_CANDIDATES: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`TAIL_CANDIDATES`] that still has at least
/// ten of `n` samples beyond it (choosing-metrics §1); `None` below 20
/// samples, where not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|p| n - (p * n as f64).ceil() as usize >= 10)
}

/// SplitMix64: the benchmark's only randomness. Small, seedable, and
/// independent of the repository's `rand` stand-in, so the request order
/// a seed produces cannot change with the code under test.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias at these
    /// sizes is below 2^-50 and irrelevant to a shuffle).
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Fisher–Yates shuffle of `xs` under `seed`.
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// FNV-1a over a stream of words: the digest passes are compared by and
/// the `sim.stats_fingerprint` the layer report prints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.5), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.9), 90.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs[..1], 0.99), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(40_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        let base: Vec<u32> = (0..200).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        shuffle(&mut c, 2);
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "seed 1 and seed 2 differ");
        assert_ne!(a, base, "the shuffle moves something");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a permutation loses nothing");
    }
}
