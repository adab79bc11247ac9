//! The adversary (scheduler) interface and the built-in fair schedulers.
//!
//! The adversary chooses which philosopher executes the next atomic step.
//! It has full information about the past (see [`SystemView`]) but cannot
//! predict or influence the philosophers' random draws.  The paper restricts
//! attention to **fair** adversaries: every philosopher must be scheduled
//! infinitely often in every infinite computation.
//!
//! This module provides the trait plus two simple, obviously fair
//! schedulers.  The crafted adversaries that defeat LR1/LR2 (Section 3,
//! Theorems 1 and 2 of the paper) live in the `gdp-adversary` crate.

use crate::view::SystemView;
use gdp_topology::PhilosopherId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A scheduler choosing the next philosopher to execute an atomic step.
///
/// Schedulers are named and classified by fairness in one place, the
/// `gdp-adversary` catalog (`AdversaryKind`); the fairness of a concrete
/// finite run is measured by [`RunOutcome::fairness_bound`](crate::RunOutcome::fairness_bound).
pub trait Adversary {
    /// Chooses the philosopher to schedule next, given full information about
    /// the computation so far.
    ///
    /// The returned identifier must be valid for the topology in `view`
    /// (i.e. `< view.num_philosophers()`); the engine panics otherwise, since
    /// a scheduler bug would silently invalidate an experiment.
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId;
}

impl<T: Adversary + ?Sized> Adversary for Box<T> {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        (**self).select(view)
    }
}

/// A round-robin scheduler: philosophers are scheduled cyclically
/// `P0, P1, ..., Pn-1, P0, ...`.  Trivially fair with bound `n`.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinAdversary {
    next: usize,
}

impl RoundRobinAdversary {
    /// Creates a round-robin scheduler starting from philosopher 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinAdversary { next: 0 }
    }
}

impl Adversary for RoundRobinAdversary {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        let chosen = PhilosopherId::new((self.next % n) as u32);
        self.next = (self.next + 1) % n;
        chosen
    }
}

/// A uniformly random scheduler: each step schedules a philosopher chosen
/// uniformly at random, independently of the past.
///
/// Such a scheduler is fair with probability 1; in a finite run of `T` steps
/// each philosopher is scheduled about `T / n` times.  The adversary's
/// randomness is seeded separately from the philosophers' randomness so the
/// two sources can be varied independently in experiments.
#[derive(Clone, Debug)]
pub struct UniformRandomAdversary {
    rng: ChaCha8Rng,
}

impl UniformRandomAdversary {
    /// Creates a random scheduler with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        UniformRandomAdversary {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Adversary for UniformRandomAdversary {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        PhilosopherId::new(self.rng.gen_range(0..n) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::ForkCell;
    use crate::program::Phase;
    use crate::view::{Holding, PhilosopherView};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;

    fn dummy_philosophers(n: usize) -> Vec<PhilosopherView> {
        (0..n)
            .map(|i| PhilosopherView {
                id: PhilosopherId::new(i as u32),
                phase: Phase::Thinking,
                committed: None,
                label: "t",
                holding: Holding::new(),
                meals: 0,
                scheduled: 0,
                hungry_since: None,
            })
            .collect()
    }

    fn with_view<R>(topology: &Topology, f: impl FnOnce(&SystemView<'_>) -> R) -> R {
        let forks: Vec<ForkCell> = (0..topology.num_forks()).map(|_| ForkCell::new()).collect();
        let phils = dummy_philosophers(topology.num_philosophers());
        let view = SystemView::new(topology, 0, "test", &forks, &phils);
        f(&view)
    }

    #[test]
    fn round_robin_cycles_through_everyone() {
        let topology = classic_ring(4).unwrap();
        let mut adv = RoundRobinAdversary::new();
        let picks: Vec<u32> = (0..8)
            .map(|_| with_view(&topology, |v| adv.select(v)).raw())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn uniform_random_is_seeded() {
        let topology = classic_ring(5).unwrap();
        let mut a = UniformRandomAdversary::new(3);
        let mut b = UniformRandomAdversary::new(3);
        let pa: Vec<u32> = (0..20)
            .map(|_| with_view(&topology, |v| a.select(v)).raw())
            .collect();
        let pb: Vec<u32> = (0..20)
            .map(|_| with_view(&topology, |v| b.select(v)).raw())
            .collect();
        assert_eq!(pa, pb, "same seed, same schedule");
        assert!(pa.iter().all(|&i| i < 5));
    }

    #[test]
    fn uniform_random_covers_all_philosophers_eventually() {
        let topology = classic_ring(6).unwrap();
        let mut adv = UniformRandomAdversary::new(0);
        let mut seen = [false; 6];
        for _ in 0..500 {
            let p = with_view(&topology, |v| adv.select(v));
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn boxed_adversary_delegates() {
        let topology = classic_ring(3).unwrap();
        let mut adv: Box<dyn Adversary> = Box::new(RoundRobinAdversary::new());
        let p = with_view(&topology, |v| adv.select(v));
        assert_eq!(p, PhilosopherId::new(0));
        assert_eq!(with_view(&topology, |v| adv.select(v)).raw(), 1);
    }
}
