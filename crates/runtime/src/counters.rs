//! Cache-line-padded hot-path statistics and the meal-fairness index.
//!
//! Every completed meal bumps the eating philosopher's counters.  With a
//! plain `Vec<AtomicU64>` the counters of up to eight philosophers share one
//! 64-byte cache line, so under real contention each meal of one thread
//! invalidates the line in every neighbouring core — classic false sharing
//! on a path that is otherwise uncoordinated by design.  [`SeatCounters`]
//! therefore packs each philosopher's counters into its own 64-byte-aligned
//! struct; the alignment is asserted by a unit test.
//!
//! Per-meal wait times are recorded table-wide, in one shared
//! [`gdp_observe::AtomicLog2Histogram`] of nanoseconds on the
//! [`DiningTable`](crate::DiningTable): the same bucketing as the
//! simulator's step-denominated first-meal histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// One philosopher's meal and wait counters, padded to a full cache line so
/// two philosophers never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct SeatCounters {
    meals: AtomicU64,
    wait_nanos: AtomicU64,
    /// Hungry-to-eating latency of the *first* meal, in nanoseconds,
    /// offset by +1 so 0 still means "never ate" (set-once).
    first_wait_nanos_plus_one: AtomicU64,
}

impl SeatCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        SeatCounters::default()
    }

    /// Records one completed meal.
    pub fn record_meal(&self) {
        self.meals.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `nanos` to the total time spent hungry before eating, and
    /// captures it as the time-to-first-meal if none was captured yet.
    pub fn record_wait_nanos(&self, nanos: u64) {
        self.wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        // Set-once: only this seat's thread writes, so a relaxed
        // compare-exchange from 0 suffices.
        let _ = self.first_wait_nanos_plus_one.compare_exchange(
            0,
            nanos.saturating_add(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Completed meals so far.
    #[must_use]
    pub fn meals(&self) -> u64 {
        self.meals.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent hungry before eating.
    #[must_use]
    pub fn wait_nanos(&self) -> u64 {
        self.wait_nanos.load(Ordering::Relaxed)
    }

    /// Hungry-to-eating latency of the first meal in nanoseconds, if any
    /// meal completed its wait yet.
    #[must_use]
    pub fn first_wait_nanos(&self) -> Option<u64> {
        match self.first_wait_nanos_plus_one.load(Ordering::Relaxed) {
            0 => None,
            stored => Some(stored - 1),
        }
    }
}

/// Jain's fairness index of a meal distribution:
/// `(Σx)² / (n · Σx²)`, ranging from `1/n` (one philosopher took
/// everything) to `1.0` (perfectly even).  The degenerate all-zero
/// distribution is defined as `1.0` — everyone is *equally* starved, which
/// is what the index measures.
#[must_use]
pub fn jain_fairness_index(meals: &[u64]) -> f64 {
    if meals.is_empty() {
        return 1.0;
    }
    let sum: u128 = meals.iter().map(|&m| u128::from(m)).sum();
    if sum == 0 {
        return 1.0;
    }
    let sum_sq: u128 = meals.iter().map(|&m| u128::from(m) * u128::from(m)).sum();
    (sum as f64) * (sum as f64) / (meals.len() as f64 * sum_sq as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The false-sharing guard: each philosopher's counters must own a full
    /// cache line.  If someone "simplifies" the struct back to unpadded
    /// fields this fails immediately, without needing a timing-sensitive
    /// benchmark in the test suite.
    #[test]
    fn seat_counters_own_a_full_cache_line() {
        assert_eq!(std::mem::align_of::<SeatCounters>(), 64);
        assert_eq!(std::mem::size_of::<SeatCounters>(), 64);
    }

    #[test]
    fn counters_accumulate() {
        let c = SeatCounters::new();
        c.record_meal();
        c.record_meal();
        c.record_wait_nanos(40);
        c.record_wait_nanos(2);
        assert_eq!(c.meals(), 2);
        assert_eq!(c.wait_nanos(), 42);
    }

    #[test]
    fn first_wait_is_set_once() {
        let c = SeatCounters::new();
        assert_eq!(c.first_wait_nanos(), None);
        c.record_wait_nanos(40);
        c.record_wait_nanos(2);
        assert_eq!(c.first_wait_nanos(), Some(40));
        // A genuine zero-nanosecond first wait is still distinguishable
        // from "never ate".
        let c = SeatCounters::new();
        c.record_wait_nanos(0);
        assert_eq!(c.first_wait_nanos(), Some(0));
    }

    #[test]
    fn jain_index_ranges_and_edge_cases() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0, 0, 0]), 1.0);
        assert_eq!(jain_fairness_index(&[7, 7, 7, 7]), 1.0);
        let skewed = jain_fairness_index(&[10, 0, 0, 0]);
        assert!((skewed - 0.25).abs() < 1e-12, "got {skewed}");
        let mild = jain_fairness_index(&[3, 4, 5]);
        assert!(mild > 0.9 && mild < 1.0);
    }
}
