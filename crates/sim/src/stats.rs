//! Streaming statistics for Monte-Carlo experiments.
//!
//! Every experiment in the harness reports a mean with an honest standard
//! error, computed online with Welford's algorithm so trials never need
//! buffering.

/// Online mean/variance accumulator (Welford).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let nf = n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / nf;
        self.mean += delta * other.n as f64 / nf;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The Wilson score interval for a binomial proportion: returns
/// `(center, halfwidth)` for `successes` out of `trials` at normal
/// quantile `z` (1.96 ≈ 95%). Unlike the naive normal interval it stays
/// inside `[0, 1]` and behaves sensibly at 0% / 100% observed rates, so
/// the simulation engine's early stop can use it from the first trials.
///
/// Returns `(0.5, 0.5)` — total uncertainty — when `trials == 0`.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.5, 0.5);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (center, half)
}

/// Convenience: just the Wilson half-width (the engine's stop criterion
/// "confidence width ≤ target" compares against twice this).
pub fn wilson_halfwidth(successes: u64, trials: u64, z: f64) -> f64 {
    wilson_interval(successes, trials, z).1
}

/// Nearest-rank percentile over an *unsorted* sample, `q` in `[0, 1]`
/// (`0.5` = median, `0.99` = p99): sorts `values` in place, then
/// returns the element at rank `⌈q·n⌉` (1-indexed, clamped to the
/// sample). `None` when the sample is empty.
///
/// This is the one percentile definition the workspace uses —
/// `spinal-serve`'s `LinkReport::latency_percentile` and the serving
/// benchmarks both call it, so p99 on small samples cannot disagree
/// between reports.
pub fn percentile_nearest_rank(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.saturating_sub(1).min(values.len() - 1)])
}

/// Derives an independent sub-seed from an experiment seed and stream
/// labels, so that trial `i` of experiment `e` always sees the same
/// randomness regardless of threading or iteration order.
pub fn derive_seed(base: u64, stream: u64, index: u64) -> u64 {
    // splitmix64-style finalizer over the mixed labels.
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_sequence() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic sequence is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let mut s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stderr(), 0.0);
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn stderr_shrinks_with_n() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for i in 0..100 {
            a.push((i % 10) as f64);
        }
        for i in 0..10_000 {
            b.push((i % 10) as f64);
        }
        assert!(b.stderr() < a.stderr() / 5.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..300] {
            left.push(x);
        }
        for &x in &xs[300..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(2.0);
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_behaves() {
        // Known value: 8/10 at z = 1.96 → center ≈ 0.7167, half ≈ 0.2266.
        let (c, h) = wilson_interval(8, 10, 1.96);
        assert!((c - 0.7167).abs() < 1e-3, "center {c}");
        assert!((h - 0.2266).abs() < 1e-3, "half {h}");
        // Shrinks with n.
        assert!(wilson_halfwidth(80, 100, 1.96) < h);
        assert!(wilson_halfwidth(800, 1000, 1.96) < wilson_halfwidth(80, 100, 1.96));
        // Stays in [0,1] even at the extremes.
        let (c0, h0) = wilson_interval(0, 5, 1.96);
        assert!(c0 - h0 >= -1e-12 && c0 + h0 <= 1.0 + 1e-12);
        let (c1, h1) = wilson_interval(5, 5, 1.96);
        assert!(c1 - h1 >= -1e-12 && c1 + h1 <= 1.0 + 1e-12);
        // Empty: total uncertainty.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.5, 0.5));
    }

    #[test]
    fn percentile_nearest_rank_matches_definition() {
        assert_eq!(percentile_nearest_rank(&mut [], 0.5), None);
        let mut v = [50, 30, 10, 40, 20];
        assert_eq!(percentile_nearest_rank(&mut v, 0.0), Some(10));
        assert_eq!(percentile_nearest_rank(&mut v, 0.5), Some(30));
        assert_eq!(percentile_nearest_rank(&mut v, 0.99), Some(50));
        assert_eq!(percentile_nearest_rank(&mut v, 1.0), Some(50));
        // A one-element sample answers every quantile with itself.
        assert_eq!(percentile_nearest_rank(&mut [7], 0.99), Some(7));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1, 0, 0);
        let b = derive_seed(1, 0, 1);
        let c = derive_seed(1, 1, 0);
        let d = derive_seed(2, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
        // And is reproducible.
        assert_eq!(derive_seed(1, 0, 0), a);
    }

    proptest! {
        #[test]
        fn prop_mean_within_bounds(xs in proptest::collection::vec(-100.0..100.0f64, 1..200)) {
            let mut s = RunningStats::new();
            for &x in &xs {
                s.push(x);
            }
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert!(s.variance() >= 0.0);
        }

        #[test]
        fn prop_merge_associative_counts(xs in proptest::collection::vec(-10.0..10.0f64, 3..50),
                                         split in 1usize..2) {
            let k = split.min(xs.len() - 1);
            let mut a = RunningStats::new();
            let mut b = RunningStats::new();
            for &x in &xs[..k] { a.push(x); }
            for &x in &xs[k..] { b.push(x); }
            a.merge(&b);
            prop_assert_eq!(a.count() as usize, xs.len());
        }
    }
}
