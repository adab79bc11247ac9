//! The k-bounded-fair round-robin scheduler.
//!
//! The paper's fairness requirement only says "every philosopher is
//! scheduled infinitely often"; *how* evenly the schedule spreads matters
//! enormously in finite windows.  [`KBoundedRoundRobin`] explores that axis
//! with one knob: it walks the philosophers cyclically like the plain
//! round-robin scheduler, but **dwells** `k` consecutive steps on each
//! philosopher before moving on.
//!
//! With `k = 1` this is exactly round-robin (fairness bound `n`); larger
//! `k` keeps deterministic `k·n`-bounded fairness while becoming genuinely
//! adversarial: a dwell burns a blocked philosopher's scheduling quota on
//! busy-waits (LR1's "wait until the committed fork is free" loop makes no
//! progress no matter how often it runs), and phase-aligns the survivors'
//! acquisition attempts, which is precisely the contention pattern the
//! paper's crafted schedulers engineer by hand.

use gdp_sim::{Adversary, SystemView};
use gdp_topology::PhilosopherId;

/// A round-robin scheduler that dwells `k` consecutive steps on each
/// philosopher: `P0 ×k, P1 ×k, …, Pn−1 ×k, P0 ×k, …`.
///
/// Deterministically `k·n`-bounded fair — the gap between two visits to the
/// same philosopher is exactly `k·(n−1)` steps.
///
/// ```
/// use gdp_adversary::KBoundedRoundRobin;
/// use gdp_algorithms::Gdp1;
/// use gdp_sim::{Engine, SimConfig, StopCondition};
/// use gdp_topology::builders::classic_ring;
///
/// let mut engine = Engine::new(classic_ring(5).unwrap(), Gdp1::new(), SimConfig::default());
/// let outcome = engine.run(
///     &mut KBoundedRoundRobin::new(3),
///     StopCondition::MaxSteps(5_000),
/// );
/// // Theorem 3: GDP1 progresses under every fair scheduler, this one included.
/// assert!(outcome.made_progress());
/// // The realized fairness bound respects the deterministic k·n guarantee.
/// assert!(outcome.fairness_bound.unwrap() <= 3 * 5);
/// ```
#[derive(Clone, Debug)]
pub struct KBoundedRoundRobin {
    k: u64,
    current: usize,
    dwelt: u64,
}

impl KBoundedRoundRobin {
    /// Creates the scheduler with dwell length `k` (clamped to at least 1).
    #[must_use]
    pub fn new(k: u64) -> Self {
        let k = k.max(1);
        KBoundedRoundRobin {
            k,
            current: 0,
            dwelt: 0,
        }
    }

    /// The dwell length `k`.
    #[must_use]
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl Adversary for KBoundedRoundRobin {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        if self.current >= n {
            self.current = 0;
        }
        let chosen = PhilosopherId::new(self.current as u32);
        self.dwelt += 1;
        if self.dwelt >= self.k {
            self.dwelt = 0;
            self.current = (self.current + 1) % n;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::Lr1;
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;

    #[test]
    fn dwell_schedule_is_cyclic() {
        let engine = Engine::new(
            classic_ring(3).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adv = KBoundedRoundRobin::new(2);
        let picks: Vec<u32> = (0..8)
            .map(|_| engine.with_view(|v| adv.select(v)).raw())
            .collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 2, 2, 0, 0]);
        assert_eq!(adv.k(), 2);
    }

    #[test]
    fn k_of_one_degenerates_to_round_robin() {
        let engine = Engine::new(
            classic_ring(4).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adv = KBoundedRoundRobin::new(1);
        let picks: Vec<u32> = (0..6)
            .map(|_| engine.with_view(|v| adv.select(v)).raw())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);
        // Zero is clamped so the scheduler always advances.
        assert_eq!(KBoundedRoundRobin::new(0).k(), 1);
    }

    #[test]
    fn realized_fairness_bound_is_within_k_times_n() {
        let mut engine = Engine::new(
            classic_ring(4).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(1),
        );
        let outcome = engine.run(
            &mut KBoundedRoundRobin::new(7),
            StopCondition::MaxSteps(2_000),
        );
        assert!(outcome.fairness_bound.unwrap() <= 7 * 4);
    }
}
