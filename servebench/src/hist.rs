//! A fixed-memory log-linear histogram of nanosecond durations.
//!
//! 128 linear sub-buckets per power of two bound the relative error of
//! any reported percentile by 1/128. Recording allocates nothing, so
//! latency samples do not grow the heap the benchmark measures.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two covered above the linear range: up to 2^47 ns (~39 h).
const OCTAVES: usize = 41;

/// Durations in nanoseconds, plus unbounded samples (failed flows, which
/// never met any latency) that rank above every duration.
pub struct Histogram {
    counts: Box<[u64]>,
    /// Samples recorded, unbounded ones included.
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let m = (ns >> (e - SUB_BITS)) as usize & (SUB - 1);
    ((e - SUB_BITS + 1) as usize * SUB + m).min(SUB * (OCTAVES + 1) - 1)
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let octave = (i / SUB) as u32 - 1;
    let m = (i % SUB) as u64;
    ((SUB as u64 + m) << octave, 1 << octave)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; SUB * (OCTAVES + 1)].into_boxed_slice(),
            total: 0,
        }
    }

    /// A stand-in that holds no buckets, for a slot whose histogram has
    /// been moved out; it must be replaced before recording.
    pub fn unallocated() -> Self {
        Self {
            counts: Box::new([]),
            total: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded, unbounded ones included.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forgets every sample, keeping the buckets.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Records one sample that never completed.
    pub fn record_unbounded(&mut self) {
        self.total += 1;
    }

    /// Nearest-rank percentile `q` in nanoseconds, placed inside its
    /// bucket by the rank's position among the bucket's samples;
    /// `f64::INFINITY` when the rank falls among unbounded samples, `0`
    /// when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bounds(i);
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                return lo as f64 + frac * width as f64;
            }
            seen += c;
        }
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_within_resolution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        for (q, want) in [(0.5, 5_000_000.0), (0.99, 9_900_000.0)] {
            let got = h.percentile(q);
            assert!(
                (got - want).abs() / want < 1.0 / 128.0,
                "{q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn unbounded_samples_rank_last() {
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.record(10);
        }
        h.record_unbounded();
        h.record_unbounded();
        assert_eq!(h.percentile(0.5), 10.0 + 49.5 / 98.0);
        assert_eq!(h.percentile(0.99), f64::INFINITY);
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0;
        for i in 0..SUB * (OCTAVES + 1) {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            next = lo + width;
        }
        for ns in [0u64, 127, 128, 129, 1 << 20, (1 << 20) + 12_345, u64::MAX] {
            let i = index(ns);
            assert!(i < SUB * (OCTAVES + 1));
        }
    }
}
