//! The dining table: a conflict topology instantiated with real shared forks
//! and per-philosopher seats, parameterized by the algorithm the seats run.

use crate::counters::{jain_fairness_index, SeatCounters};
use crate::fork::SharedFork;
use crate::seat::Seat;
use gdp_algorithms::AlgorithmKind;
use gdp_observe::{AtomicLog2Histogram, LOG2_BUCKETS};
use gdp_topology::{ForkId, PhilosopherId, Topology};
use std::sync::Arc;
use std::time::Duration;

/// Aggregated statistics of a [`DiningTable`].
#[derive(Debug)]
pub struct TableStats {
    meals: Vec<u64>,
    wait_nanos: Vec<u64>,
    first_wait_nanos: Vec<Option<u64>>,
    wait_histogram: [u64; LOG2_BUCKETS],
}

impl TableStats {
    /// Completed meals per philosopher.
    #[must_use]
    pub fn meals(&self) -> &[u64] {
        &self.meals
    }

    /// Total completed meals.
    #[must_use]
    pub fn total_meals(&self) -> u64 {
        self.meals.iter().sum()
    }

    /// Total time spent waiting to acquire forks, per philosopher.
    #[must_use]
    pub fn wait_times(&self) -> Vec<Duration> {
        self.wait_nanos
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect()
    }

    /// Hungry-to-eating latency of each philosopher's *first* meal, in
    /// nanoseconds; `None` for philosophers that never started eating.
    /// This is the runtime's time-to-first-meal figure, the wall-clock
    /// analogue of the simulator's step-denominated first-meal histogram.
    #[must_use]
    pub fn first_wait_nanos(&self) -> &[Option<u64>] {
        &self.first_wait_nanos
    }

    /// The table-wide log2 histogram of per-meal wait times: bucket `i`
    /// counts meals whose hungry-to-eating latency fell in
    /// `[2^i, 2^(i+1))` nanoseconds.
    #[must_use]
    pub fn wait_histogram(&self) -> &[u64; LOG2_BUCKETS] {
        &self.wait_histogram
    }

    /// Jain's fairness index of the meal distribution (see
    /// [`jain_fairness_index`]).
    #[must_use]
    pub fn jain_fairness(&self) -> f64 {
        jain_fairness_index(&self.meals)
    }

    /// Returns the philosophers that have not completed a single meal.
    #[must_use]
    pub fn starved(&self) -> Vec<PhilosopherId> {
        self.meals
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == 0)
            .map(|(i, _)| PhilosopherId::new(i as u32))
            .collect()
    }
}

/// A set of shared forks arranged according to a conflict [`Topology`], with
/// one [`Seat`] per philosopher, all running the same [`AlgorithmKind`].
///
/// The table owns nothing thread-specific: it can be shared freely
/// (`Arc<DiningTable>`), and each [`Seat`] obtained from it carries the
/// per-philosopher program state; the intended pattern is one thread per
/// seat.
#[derive(Debug)]
pub struct DiningTable {
    topology: Topology,
    algorithm: AlgorithmKind,
    forks: Vec<SharedFork>,
    seed: u64,
    counters: Vec<SeatCounters>,
    /// Per-meal wait times in nanoseconds: bucket `i` counts meals whose
    /// hungry-to-eating latency fell in `[2^i, 2^(i+1))` ns.  One shared
    /// histogram for the whole table: meals are orders of magnitude rarer
    /// than protocol steps, so the occasional shared-line bump is noise,
    /// unlike the per-seat counters.
    wait_histogram: AtomicLog2Histogram,
}

impl DiningTable {
    /// Creates a table for `topology` running **GDP2** — the paper's
    /// lockout-free default — with seed 0.
    #[must_use]
    pub fn for_topology(topology: Topology) -> Arc<Self> {
        Self::for_algorithm(topology, AlgorithmKind::Gdp2)
    }

    /// Creates a table whose seats interpret `algorithm` (any
    /// [`AlgorithmKind`], including the baselines), with seed 0.
    #[must_use]
    pub fn for_algorithm(topology: Topology, algorithm: AlgorithmKind) -> Arc<Self> {
        Self::new(topology, algorithm, 0)
    }

    /// The fully explicit constructor: `algorithm` is interpreted by every
    /// seat, and `seed` derives each seat's private randomness (two tables
    /// with the same seed hand identical random streams to their seats — the
    /// *interleaving* of real threads of course remains OS-scheduled).
    #[must_use]
    pub fn new(topology: Topology, algorithm: AlgorithmKind, seed: u64) -> Arc<Self> {
        let k = topology.num_forks();
        let n = topology.num_philosophers();
        Arc::new(DiningTable {
            forks: (0..k).map(|_| SharedFork::new()).collect(),
            algorithm,
            seed,
            counters: (0..n).map(|_| SeatCounters::new()).collect(),
            wait_histogram: AtomicLog2Histogram::new(),
            topology,
        })
    }

    /// The conflict topology of this table.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The algorithm every seat of this table interprets.
    #[must_use]
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The seed this table derives seat randomness from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared fork with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is out of range for the topology.
    #[must_use]
    pub fn fork(&self, fork: ForkId) -> &SharedFork {
        &self.forks[fork.index()]
    }

    /// The per-philosopher hot-path counters (cache-line padded; see
    /// [`SeatCounters`]).
    pub(crate) fn counters(&self, philosopher: PhilosopherId) -> &SeatCounters {
        &self.counters[philosopher.index()]
    }

    /// The table-wide wait-time histogram.
    pub(crate) fn histogram(&self) -> &AtomicLog2Histogram {
        &self.wait_histogram
    }

    /// The seat (philosopher handle) for `philosopher`, carrying a fresh
    /// program state in the algorithm's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology.
    #[must_use]
    pub fn seat(self: &Arc<Self>, philosopher: PhilosopherId) -> Seat {
        assert!(
            philosopher.index() < self.topology.num_philosophers(),
            "philosopher {philosopher} is out of range for this table"
        );
        Seat::new(Arc::clone(self), philosopher)
    }

    /// Iterator over all seats, in philosopher order.
    pub fn seats(self: &Arc<Self>) -> impl Iterator<Item = Seat> + '_ {
        let table = Arc::clone(self);
        self.topology.philosopher_ids().map(move |p| table.seat(p))
    }

    /// A snapshot of the per-philosopher statistics.
    #[must_use]
    pub fn stats(&self) -> TableStats {
        TableStats {
            meals: self.counters.iter().map(SeatCounters::meals).collect(),
            wait_nanos: self.counters.iter().map(SeatCounters::wait_nanos).collect(),
            first_wait_nanos: self
                .counters
                .iter()
                .map(SeatCounters::first_wait_nanos)
                .collect(),
            wait_histogram: self.wait_histogram.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_topology::builders::{classic_ring, figure1_triangle, figure3_theta};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn single_seat_can_dine_repeatedly() {
        let table = DiningTable::for_topology(classic_ring(2).unwrap());
        let mut seat = table.seat(PhilosopherId::new(0));
        for i in 0..10 {
            let result = seat.dine(|| i * 2);
            assert_eq!(result, i * 2);
        }
        assert_eq!(seat.meals(), 10);
        assert_eq!(table.stats().total_meals(), 10);
        // Forks are free again after each meal.
        assert!(table.fork(ForkId::new(0)).is_free());
        assert!(table.fork(ForkId::new(1)).is_free());
    }

    #[test]
    fn mutual_exclusion_on_shared_forks() {
        // Every pair of neighbouring philosophers shares a fork; a counter per
        // fork checks that no two critical sections using the same fork ever
        // overlap.  Run it for every algorithm that can feed the triangle.
        for algorithm in [
            AlgorithmKind::Lr1,
            AlgorithmKind::Lr2,
            AlgorithmKind::Gdp1,
            AlgorithmKind::Gdp2,
            AlgorithmKind::OrderedForks,
        ] {
            let topology = figure1_triangle();
            let k = topology.num_forks();
            let table = DiningTable::for_algorithm(topology, algorithm);
            let in_use: Arc<Vec<AtomicU32>> = Arc::new((0..k).map(|_| AtomicU32::new(0)).collect());
            let handles: Vec<_> = table
                .seats()
                .map(|mut seat| {
                    let in_use = Arc::clone(&in_use);
                    std::thread::spawn(move || {
                        let (left, right) = seat.forks();
                        for _ in 0..100 {
                            seat.dine(|| {
                                for f in [left, right] {
                                    let prev = in_use[f.index()].fetch_add(1, Ordering::SeqCst);
                                    assert_eq!(
                                        prev, 0,
                                        "fork {f} used by two threads at once under {algorithm}"
                                    );
                                }
                                std::hint::spin_loop();
                                for f in [left, right] {
                                    in_use[f.index()].fetch_sub(1, Ordering::SeqCst);
                                }
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(table.stats().total_meals(), 6 * 100, "{algorithm}");
        }
    }

    #[test]
    fn nobody_starves_on_the_theta_graph() {
        let table = DiningTable::for_topology(figure3_theta());
        let handles: Vec<_> = table
            .seats()
            .map(|mut seat| {
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        seat.dine(|| {});
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = table.stats();
        assert!(stats.starved().is_empty());
        assert!(stats.meals().iter().all(|&m| m == 100));
        assert_eq!(stats.wait_times().len(), 8);
        assert_eq!(stats.jain_fairness(), 1.0);
        // Every completed meal left one sample in the wait histogram.
        assert_eq!(stats.wait_histogram().iter().sum::<u64>(), 800);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seat_panics() {
        let table = DiningTable::for_topology(classic_ring(3).unwrap());
        let _ = table.seat(PhilosopherId::new(17));
    }

    #[test]
    fn table_records_its_algorithm_and_seed() {
        let table = DiningTable::new(classic_ring(4).unwrap(), AlgorithmKind::Lr1, 9);
        assert_eq!(table.algorithm(), AlgorithmKind::Lr1);
        assert_eq!(table.seed(), 9);
    }
}
