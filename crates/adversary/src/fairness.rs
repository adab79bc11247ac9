//! The "increasing stubbornness" fairness mechanism.
//!
//! The schedulers sketched in Section 3 of the paper are *unfair* as stated:
//! they may keep selecting one philosopher "until it commits to a taken
//! fork", which with probability 0 never happens.  The paper repairs this by
//! letting the scheduler be stubborn only for a bounded number of steps per
//! round, with the bound `n_k` growing from round to round; the resulting
//! scheduler is fair, and the no-progress computation retains positive
//! probability.
//!
//! [`FairnessGuard`] packages that technique: a policy proposes whichever
//! philosopher it likes, and the guard overrides the proposal whenever some
//! philosopher has waited longer than the current stubbornness bound.

use gdp_sim::SystemView;
use gdp_topology::PhilosopherId;

/// How the stubbornness bound grows from round to round.
///
/// A *round* here is "one forced override": every time the guard has to
/// override the policy to rescue an overdue philosopher, the bound for the
/// next round is enlarged, mirroring the `n_k` sequence of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StubbornnessSchedule {
    /// Bound on deferral (in scheduler steps) during the first round.
    pub initial: u64,
    /// Additive increment applied to the bound after each round.
    pub increment: u64,
    /// Multiplicative factor applied to the bound after each round
    /// (applied after the increment; use 1.0 for purely additive growth).
    pub factor: f64,
    /// Hard cap on the bound, so that fairness certificates stay readable.
    pub max: u64,
}

impl Default for StubbornnessSchedule {
    fn default() -> Self {
        StubbornnessSchedule {
            initial: 512,
            increment: 128,
            factor: 1.5,
            max: 1_000_000,
        }
    }
}

impl StubbornnessSchedule {
    /// A constant bound (no growth): the scheduler is `bound`-fair throughout.
    #[must_use]
    pub fn constant(bound: u64) -> Self {
        StubbornnessSchedule {
            initial: bound,
            increment: 0,
            factor: 1.0,
            max: bound,
        }
    }

    /// The bound to use in round `round` (0-based).
    #[must_use]
    pub fn bound_for_round(&self, round: u64) -> u64 {
        let mut bound = self.initial as f64;
        for _ in 0..round {
            bound = (bound + self.increment as f64) * self.factor;
            if bound >= self.max as f64 {
                return self.max;
            }
        }
        (bound.round() as u64).clamp(1, self.max)
    }
}

/// Tracks how long each philosopher has gone unscheduled and decides when a
/// scheduling policy must be overridden to preserve fairness.
#[derive(Clone, Debug)]
pub struct FairnessGuard {
    schedule: StubbornnessSchedule,
    round: u64,
    step: u64,
    last_scheduled: Vec<u64>,
    overrides: u64,
}

impl FairnessGuard {
    /// Creates a guard for `num_philosophers` philosophers.
    #[must_use]
    pub fn new(num_philosophers: usize, schedule: StubbornnessSchedule) -> Self {
        FairnessGuard {
            schedule,
            round: 0,
            step: 0,
            last_scheduled: vec![0; num_philosophers],
            overrides: 0,
        }
    }

    /// The stubbornness bound currently in force.
    #[must_use]
    pub fn current_bound(&self) -> u64 {
        self.schedule.bound_for_round(self.round)
    }

    /// Number of times the guard has had to override the policy so far.
    #[must_use]
    pub fn overrides(&self) -> u64 {
        self.overrides
    }

    /// The philosopher that has waited the longest.
    #[must_use]
    pub fn most_overdue(&self) -> PhilosopherId {
        let (idx, _) = self
            .last_scheduled
            .iter()
            .enumerate()
            .min_by_key(|&(_, &last)| last)
            .expect("guard tracks at least one philosopher");
        PhilosopherId::new(idx as u32)
    }

    /// Returns the philosopher that *must* be scheduled now to stay within
    /// the fairness bound, if any.
    #[must_use]
    pub fn forced_choice(&self) -> Option<PhilosopherId> {
        let bound = self.current_bound();
        let overdue = self.most_overdue();
        let waited = self.step - self.last_scheduled[overdue.index()];
        (waited >= bound).then_some(overdue)
    }

    /// Combines a policy proposal with the fairness requirement: the proposal
    /// is honoured unless some philosopher is overdue, in which case the
    /// overdue philosopher is scheduled instead, the override is counted, and
    /// the stubbornness bound grows (next round).
    pub fn arbitrate(&mut self, proposal: PhilosopherId) -> PhilosopherId {
        let chosen = match self.forced_choice() {
            Some(overdue) if overdue != proposal => {
                self.overrides += 1;
                self.round += 1;
                overdue
            }
            _ => proposal,
        };
        self.step += 1;
        self.last_scheduled[chosen.index()] = self.step;
        chosen
    }

    /// Resets the guard to its initial state.
    pub fn reset(&mut self) {
        self.round = 0;
        self.step = 0;
        self.overrides = 0;
        self.last_scheduled.iter_mut().for_each(|v| *v = 0);
    }
}

/// A small helper trait for scheduling *policies*: unlike a full
/// [`Adversary`](gdp_sim::Adversary), a policy does not need to be fair —
/// [`FairDriver`] wraps it with a [`FairnessGuard`].
pub trait SchedulingPolicy {
    /// Proposes a philosopher to schedule next.
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId;
    /// Resets internal state for a fresh run.
    fn reset(&mut self) {}
}

/// Wraps a [`SchedulingPolicy`] into a fair [`Adversary`](gdp_sim::Adversary)
/// using the increasing-stubbornness technique.
#[derive(Clone, Debug)]
pub struct FairDriver<P> {
    policy: P,
    schedule: StubbornnessSchedule,
    guard: Option<FairnessGuard>,
}

impl<P: SchedulingPolicy> FairDriver<P> {
    /// Wraps `policy` with the given stubbornness schedule.
    #[must_use]
    pub fn new(policy: P, schedule: StubbornnessSchedule) -> Self {
        FairDriver {
            policy,
            schedule,
            guard: None,
        }
    }

    /// Number of fairness overrides so far (0 before the first step).
    #[must_use]
    pub fn overrides(&self) -> u64 {
        self.guard.as_ref().map_or(0, FairnessGuard::overrides)
    }

    /// The wrapped policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

impl<P: SchedulingPolicy> gdp_sim::Adversary for FairDriver<P> {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let guard = self
            .guard
            .get_or_insert_with(|| FairnessGuard::new(view.num_philosophers(), self.schedule));
        let proposal = self.policy.propose(view);
        guard.arbitrate(proposal)
    }

    fn reset(&mut self) {
        self.policy.reset();
        if let Some(guard) = &mut self.guard {
            guard.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::Lr1;
    use gdp_sim::{Adversary, Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;

    #[test]
    fn schedule_growth_is_monotone_and_capped() {
        let s = StubbornnessSchedule::default();
        let mut previous = 0;
        for round in 0..200 {
            let bound = s.bound_for_round(round);
            assert!(bound >= previous);
            assert!(bound <= s.max);
            previous = bound;
        }
        assert_eq!(StubbornnessSchedule::constant(7).bound_for_round(42), 7);
    }

    #[test]
    fn guard_forces_overdue_philosophers() {
        let mut guard = FairnessGuard::new(3, StubbornnessSchedule::constant(4));
        // Keep proposing philosopher 0; after 4 steps philosopher 1 or 2 is
        // overdue and must be forced.
        let mut forced = Vec::new();
        for _ in 0..20 {
            let chosen = guard.arbitrate(PhilosopherId::new(0));
            forced.push(chosen);
        }
        assert!(forced.contains(&PhilosopherId::new(1)));
        assert!(forced.contains(&PhilosopherId::new(2)));
        assert!(guard.overrides() > 0);
    }

    #[test]
    fn guard_reset_restores_initial_behaviour() {
        let mut guard = FairnessGuard::new(2, StubbornnessSchedule::constant(3));
        for _ in 0..10 {
            guard.arbitrate(PhilosopherId::new(0));
        }
        let overrides = guard.overrides();
        assert!(overrides > 0);
        guard.reset();
        assert_eq!(guard.overrides(), 0);
        assert_eq!(guard.current_bound(), 3);
    }

    /// A deliberately unfair policy: always propose philosopher 0.
    struct AlwaysZero;
    impl SchedulingPolicy for AlwaysZero {
        fn propose(&mut self, _view: &SystemView<'_>) -> PhilosopherId {
            PhilosopherId::new(0)
        }
    }

    #[test]
    fn fair_driver_produces_bounded_fair_runs() {
        let mut engine = Engine::new(
            classic_ring(5).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(3),
        );
        let mut adversary = FairDriver::new(AlwaysZero, StubbornnessSchedule::constant(10));
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(5_000));
        // Every philosopher was scheduled, and the realized gap is bounded by
        // the stubbornness bound plus the number of philosophers.
        let bound = outcome.fairness_bound.expect("everyone must be scheduled");
        assert!(bound <= 10 + 5, "realized fairness bound {bound} too large");
        assert!(adversary.overrides() > 0);
    }

    #[test]
    fn fair_driver_reset_supports_reuse() {
        let mut engine = Engine::new(
            classic_ring(4).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(3),
        );
        let mut adversary = FairDriver::new(AlwaysZero, StubbornnessSchedule::default());
        engine.run(&mut adversary, StopCondition::MaxSteps(1_000));
        adversary.reset();
        engine.reset();
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(1_000));
        assert_eq!(outcome.steps, 1_000);
    }
}
