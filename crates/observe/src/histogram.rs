//! Log2 histograms and bucket-quantile estimation.
//!
//! One bucket per power of two: bucket 0 counts values in `[0, 2)` and
//! bucket `i >= 1` counts values in `[2^i, 2^(i+1))`; the top bucket absorbs
//! everything above `2^31`.  The same bucketing serves step-denominated
//! simulator latencies and nanosecond runtime latencies, and is exactly the
//! layout `gdp-runtime`'s wait histogram has always used.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets.  With 64-bit values and one bucket per power of
/// two, 32 buckets cover `[0, 2^31)` exactly; larger values land in the top
/// bucket.  In nanoseconds that is ~2.1 s, far beyond any interesting wait.
pub const LOG2_BUCKETS: usize = 32;

/// The bucket a value falls into: 0 for `[0, 2)`, else `floor(log2(value))`
/// clamped to the top bucket.
#[must_use]
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// The smallest value belonging to `bucket` (0 for bucket 0, else
/// `2^bucket`).  This is the value [`quantile_from_buckets`] reports.
#[must_use]
#[inline]
pub fn bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << bucket
    }
}

/// Estimates the `q`-th percentile (0 ≤ q ≤ 100) of the distribution
/// summarized by `counts`, using nearest-rank over the bucket populations
/// and reporting the **lower bound** of the selected bucket.
///
/// Returns 0 for an empty histogram.
///
/// ## Error bound
///
/// The true nearest-rank sample `t` lies inside the selected bucket, so the
/// estimate `e = bucket_floor(bucket_of(t))` satisfies
/// `e <= t < max(2 * e, 2)`: an underestimate by strictly less than a factor
/// of 2, with absolute error at most 1 in bucket 0.  The estimate is
/// monotone non-decreasing in `q`.
#[must_use]
pub fn quantile_from_buckets(counts: &[u64; LOG2_BUCKETS], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Same nearest-rank convention as gdp-analysis::stats::percentile.
    let rank = ((q / 100.0) * (total as f64 - 1.0)).round() as u64;
    let rank = rank.min(total - 1);
    let mut seen = 0u64;
    for (bucket, &count) in counts.iter().enumerate() {
        seen += count;
        if seen > rank {
            return bucket_floor(bucket) as f64;
        }
    }
    bucket_floor(LOG2_BUCKETS - 1) as f64
}

/// A plain (single-threaded) log2 histogram.  Used where the recorder owns
/// the data — the simulator engine, report post-processing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// A histogram over pre-recorded bucket populations — the bridge from an
    /// [`AtomicLog2Histogram`] snapshot (or any other recorder sharing the
    /// log2 bucket layout) into a [`MetricsRegistry`](crate::MetricsRegistry)
    /// export.
    #[must_use]
    pub fn from_counts(counts: [u64; LOG2_BUCKETS]) -> Self {
        Log2Histogram { buckets: counts }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
    }

    /// The bucket populations.
    #[must_use]
    pub fn counts(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Bucket-quantile estimate of the `q`-th percentile (see
    /// [`quantile_from_buckets`] for the error bound).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// A log2 histogram with relaxed atomic buckets, shared by concurrent
/// recorders (the runtime's wait histogram).
#[derive(Debug, Default)]
pub struct AtomicLog2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl AtomicLog2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        AtomicLog2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one value.  Relaxed ordering: buckets are independent
    /// monotone counters, read only after the recording threads join.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket populations.
    #[must_use]
    pub fn snapshot(&self) -> [u64; LOG2_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned bucket vectors shared with `gdp-runtime`'s historical
    /// wait-histogram tests.
    #[test]
    fn bucket_of_pinned_vectors() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), LOG2_BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of_on_powers_of_two() {
        assert_eq!(bucket_floor(0), 0);
        for bucket in 1..LOG2_BUCKETS {
            let floor = bucket_floor(bucket);
            assert_eq!(bucket_of(floor), bucket);
            assert_eq!(bucket_of(floor - 1), bucket - 1);
        }
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(50.0), 0.0);
        assert_eq!(h.quantile(99.0), 0.0);
    }

    /// Pinned unit vectors: a known sample set, exact expected estimates.
    #[test]
    fn quantile_pinned_vectors() {
        let mut h = Log2Histogram::new();
        // 10 values: 1, 2, 3, 4, 5, 6, 7, 8, 100, 1000.
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.total(), 10);
        // Nearest-rank over 10 samples: p50 -> rank 5 (value 6, bucket 2),
        // p90 -> rank 8 (value 100, bucket 6), p99 -> rank 9 (value 1000,
        // bucket 9).
        assert_eq!(h.quantile(50.0), 4.0);
        assert_eq!(h.quantile(90.0), 64.0);
        assert_eq!(h.quantile(99.0), 512.0);
        // Extremes.
        assert_eq!(h.quantile(0.0), 0.0); // rank 0 -> value 1 -> bucket 0
        assert_eq!(h.quantile(100.0), 512.0);
    }

    /// Estimates are monotone in `q` for an arbitrary seeded sample set.
    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = Log2Histogram::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            // xorshift64* — deterministic spread over many buckets.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            h.record(x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40);
        }
        let mut last = -1.0f64;
        for q in 0..=100 {
            let e = h.quantile(f64::from(q));
            assert!(e >= last, "quantile must be monotone, q={q}");
            last = e;
        }
    }

    /// The documented error bound: `e <= t < max(2e, 2)` against the exact
    /// nearest-rank percentile of the raw samples.
    #[test]
    fn quantile_error_bound_holds_against_exact_percentiles() {
        let mut samples: Vec<u64> = Vec::new();
        let mut h = Log2Histogram::new();
        let mut x = 88u64;
        for _ in 0..257 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = x >> 45; // spread over ~19 bits
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = ((q / 100.0) * (samples.len() as f64 - 1.0)).round() as usize;
            let exact = samples[rank.min(samples.len() - 1)] as f64;
            let estimate = h.quantile(q);
            assert!(estimate <= exact, "q={q}: {estimate} > exact {exact}");
            assert!(
                exact < (2.0 * estimate).max(2.0),
                "q={q}: exact {exact} outside bound for estimate {estimate}"
            );
        }
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let plain = {
            let mut h = Log2Histogram::new();
            for v in [0u64, 1, 5, 5, 1024, u64::MAX] {
                h.record(v);
            }
            h
        };
        let atomic = AtomicLog2Histogram::new();
        for v in [0u64, 1, 5, 5, 1024, u64::MAX] {
            atomic.record(v);
        }
        assert_eq!(&atomic.snapshot(), plain.counts());
    }
}
