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
//! [`FairDriver`] packages that technique: a [`SchedulingPolicy`] proposes
//! whichever philosopher it likes, and its fairness guard overrides the
//! proposal whenever some philosopher has waited longer than the current
//! stubbornness bound.

use gdp_sim::{Adversary, SystemView};
use gdp_topology::PhilosopherId;

/// How the stubbornness bound grows from round to round.
///
/// A *round* here is "one forced override": every time the guard has to
/// override the policy to rescue an overdue philosopher, the bound for the
/// next round is enlarged, mirroring the `n_k` sequence of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StubbornnessSchedule {
    /// The paper's increasing stubbornness: a bound of 512 steps in the
    /// first round, then `(bound + 128) · 1.5` after each round, capped at
    /// 1,000,000 steps so that fairness certificates stay readable.
    #[default]
    Growing,
    /// A constant bound (no growth): the scheduler is `bound`-fair
    /// throughout (a bound of 0 acts as 1).  Pick a bound larger than the
    /// observation window for the paper's patient late-round schedulers.
    Constant(u64),
}

/// The cap on the [`StubbornnessSchedule::Growing`] bound.
pub(crate) const GROWING_CAP: u64 = 1_000_000;

impl StubbornnessSchedule {
    /// The bound to use in round `round` (0-based).
    pub(crate) fn bound_for_round(self, round: u64) -> u64 {
        match self {
            StubbornnessSchedule::Constant(bound) => bound.max(1),
            StubbornnessSchedule::Growing => {
                let mut bound = 512.0;
                for _ in 0..round {
                    bound = (bound + 128.0) * 1.5;
                    if bound >= GROWING_CAP as f64 {
                        return GROWING_CAP;
                    }
                }
                (bound.round() as u64).clamp(1, GROWING_CAP)
            }
        }
    }
}

/// A scheduling *policy*: unlike a full [`Adversary`], a policy does not
/// need to be fair — [`FairDriver`] makes it fair.
pub trait SchedulingPolicy {
    /// Proposes a philosopher to schedule next.
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId;
}

/// A [`SchedulingPolicy`] made a fair [`Adversary`] by the
/// increasing-stubbornness technique: the policy's proposal is honoured
/// unless some philosopher has gone unscheduled for the current bound, in
/// which case the most overdue philosopher is scheduled instead, the
/// override is counted, and the bound grows (next round).
///
/// Every guarded scheduler in this crate is one of these:
/// [`MaxWaitAdversary`](crate::MaxWaitAdversary),
/// [`GreedyConflictAdversary`](crate::GreedyConflictAdversary) and
/// [`BlockingAdversary`](crate::BlockingAdversary) each name a policy, and
/// their constructors pick its schedule.
#[derive(Clone, Debug)]
pub struct FairDriver<P> {
    policy: P,
    schedule: StubbornnessSchedule,
    /// Forced overrides so far; each one starts the next round.
    overrides: u64,
    /// Scheduler steps taken.
    step: u64,
    /// The step at which each philosopher was last scheduled (sized on the
    /// first step, when the number of philosophers is known).
    last_scheduled: Vec<u64>,
}

impl<P: SchedulingPolicy> FairDriver<P> {
    /// Guards `policy` with the given stubbornness schedule.
    #[must_use]
    pub fn guarding(policy: P, schedule: StubbornnessSchedule) -> Self {
        FairDriver {
            policy,
            schedule,
            overrides: 0,
            step: 0,
            last_scheduled: Vec::new(),
        }
    }

    /// Number of fairness overrides so far (0 before the first step).
    #[must_use]
    pub fn overrides(&self) -> u64 {
        self.overrides
    }

    /// The wrapped policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The philosopher that *must* be scheduled now to stay within the
    /// current bound: the one that has waited the longest, once it has
    /// waited that long.
    fn forced_choice(&self) -> Option<PhilosopherId> {
        let (overdue, &last) = self
            .last_scheduled
            .iter()
            .enumerate()
            .min_by_key(|&(_, &last)| last)?;
        let bound = self.schedule.bound_for_round(self.overrides);
        (self.step - last >= bound).then_some(PhilosopherId::new(overdue as u32))
    }
}

impl<P: SchedulingPolicy> Adversary for FairDriver<P> {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        if self.last_scheduled.is_empty() {
            self.last_scheduled = vec![0; view.num_philosophers()];
        }
        let proposal = self.policy.propose(view);
        let chosen = match self.forced_choice() {
            Some(overdue) if overdue != proposal => {
                self.overrides += 1;
                overdue
            }
            _ => proposal,
        };
        self.step += 1;
        self.last_scheduled[chosen.index()] = self.step;
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::Lr1;
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;

    #[test]
    fn schedule_growth_is_monotone_and_capped() {
        let s = StubbornnessSchedule::default();
        let mut previous = 0;
        for round in 0..200 {
            let bound = s.bound_for_round(round);
            assert!(bound >= previous);
            assert!(bound <= GROWING_CAP);
            previous = bound;
        }
        assert_eq!(StubbornnessSchedule::Constant(7).bound_for_round(42), 7);
        // `blocking:0` parses: a zero bound acts as 1 instead of panicking.
        assert_eq!(StubbornnessSchedule::Constant(0).bound_for_round(0), 1);
    }

    /// A deliberately unfair policy: always propose philosopher 0.
    struct AlwaysZero;
    impl SchedulingPolicy for AlwaysZero {
        fn propose(&mut self, _view: &SystemView<'_>) -> PhilosopherId {
            PhilosopherId::new(0)
        }
    }

    /// Runs `adversary` for `steps` steps of LR1 on `topology` and returns
    /// the philosophers it scheduled.
    fn schedule(
        topology: Topology,
        adversary: &mut FairDriver<AlwaysZero>,
        steps: usize,
    ) -> Vec<PhilosopherId> {
        let mut engine = Engine::new(topology, Lr1::new(), SimConfig::default().with_seed(3));
        (0..steps)
            .map(|_| engine.step_with(adversary).philosopher)
            .collect()
    }

    #[test]
    fn guard_forces_overdue_philosophers() {
        let mut adversary = FairDriver::guarding(AlwaysZero, StubbornnessSchedule::Constant(4));
        // The policy keeps proposing philosopher 0; after 4 steps
        // philosopher 1 or 2 is overdue and must be forced.
        let forced = schedule(classic_ring(3).unwrap(), &mut adversary, 20);
        assert!(forced.contains(&PhilosopherId::new(1)));
        assert!(forced.contains(&PhilosopherId::new(2)));
        assert!(adversary.overrides() > 0);
    }

    #[test]
    fn fair_driver_produces_bounded_fair_runs() {
        let mut engine = Engine::new(
            classic_ring(5).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(3),
        );
        let mut adversary = FairDriver::guarding(AlwaysZero, StubbornnessSchedule::Constant(10));
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(5_000));
        // Every philosopher was scheduled, and the realized gap is bounded by
        // the stubbornness bound plus the number of philosophers.
        let bound = outcome.fairness_bound.expect("everyone must be scheduled");
        assert!(bound <= 10 + 5, "realized fairness bound {bound} too large");
        assert!(adversary.overrides() > 0);
    }
}
