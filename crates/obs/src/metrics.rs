//! Telemetry primitives: fixed-bucket histograms and a monotonic
//! stopwatch.

use std::time::Instant;

/// Number of buckets in a [`Histogram`]: one for zero plus one per
/// power-of-two magnitude of a `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram over non-negative integer samples.
///
/// Bucket `0` holds exact zeros; bucket `i > 0` holds samples in
/// `[2^(i-1), 2^i)`.  All state is plain `u64`, so merging histograms (or
/// summing per-worker shards) is order-independent and bit-deterministic —
/// unlike a floating-point mean accumulated in task order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical samples at once — equivalent to (but far
    /// cheaper than) `n` calls to [`Histogram::observe`]. Lets merged
    /// per-bucket counters (e.g. the delay engine's gossip hop counts)
    /// re-enter a histogram without replaying every sample.
    #[inline]
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the first
    /// bucket whose cumulative count reaches the target rank, clamped to the
    /// observed max.  Exact for zeros, within 2x for everything else.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; ceil keeps q=1.0 at the max.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let upper = if i == 0 { 0 } else { (1u128 << i) - 1 };
                let upper = u64::try_from(upper).unwrap_or(u64::MAX);
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Raw bucket counts; bucket 0 is exact zeros, bucket `i` covers
    /// `[2^(i-1), 2^i)`.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A monotonic stopwatch for scoped wall-clock measurements.
///
/// ```
/// let sw = seleth_obs::Stopwatch::start();
/// let _elapsed_ns: u64 = sw.elapsed_ns();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns() as f64 / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.buckets()[0], 1); // zero
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2,3
        assert_eq!(h.buckets()[3], 2); // 4..8 -> 4,7
        assert_eq!(h.buckets()[4], 1); // 8..16 -> 8
        assert_eq!(h.buckets()[10], 1); // 512..1024 -> 1023
        assert_eq!(h.buckets()[11], 1); // 1024..2048
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.observe(v * 17);
            } else {
                b.observe(v * 17);
            }
            all.observe(v * 17);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        assert!(p50 >= 256); // 500 lives in [512,1024), bound >= 511 >= 256
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }
}
