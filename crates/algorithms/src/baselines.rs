//! Baseline algorithms: the strawmen the paper's four algorithms are
//! measured against.
//!
//! * [`OrderedForks`] — from Section 1 of the paper: *"The forks are ordered
//!   and each philosopher tries to get first the adjacent fork which is
//!   higher in the ordering."*  (We take the *lower*-numbered fork first;
//!   any fixed global orientation works.)  This is Dijkstra's hierarchical
//!   resource allocation: deterministic and deadlock-free on **every**
//!   topology, but not symmetric, because the philosophers exploit a global
//!   total order on the forks.
//! * [`NaiveLeftRight`] — the textbook broken algorithm: symmetric, fully
//!   distributed and deadlocking.
//!
//! The introduction's other solutions either break symmetry by the
//! philosopher's identity (the yellow/blue colouring) or give up full
//! distribution (central monitor, ticket box: they need a process or shared
//! memory other than the forks), so the latter cannot be expressed as
//! [`Program`]s at all.
//!
//! Both baselines are deterministic, which makes them *oracles* in tests;
//! as `ordered-forks` and `naive-left-right` in the
//! [`AlgorithmKind`](crate::AlgorithmKind) catalog they run in every command
//! beside the paper's algorithms.

use gdp_sim::{Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId};

/// Control state shared by the two baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineState {
    /// Thinking.
    Thinking,
    /// Busy-waiting to take the first fork (held-and-wait discipline).
    TakeFirst,
    /// Holding the first fork, busy-waiting for the second.
    TakeSecond,
    /// Eating.
    Eating,
}

impl BaselineState {
    /// Every baseline state, in declaration order.
    const ALL: [BaselineState; 4] = [
        BaselineState::Thinking,
        BaselineState::TakeFirst,
        BaselineState::TakeSecond,
        BaselineState::Eating,
    ];
}

/// Dijkstra's ordered-fork (hierarchical) solution: every philosopher takes
/// its lower-numbered fork first and never releases a held fork until it has
/// eaten.
///
/// Deterministic, deadlock-free on every topology, **not symmetric** (it
/// relies on the global fork ordering).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderedForks {
    _private: (),
}

impl OrderedForks {
    /// Creates the ordered-forks baseline.
    #[must_use]
    pub fn new() -> Self {
        OrderedForks::default()
    }

    fn first_fork(ends: ForkEnds) -> ForkId {
        if ends.left < ends.right {
            ends.left
        } else {
            ends.right
        }
    }
}

impl Program for OrderedForks {
    type State = BaselineState;

    fn name(&self) -> &'static str {
        "ordered-forks"
    }

    fn initial_state(&self) -> BaselineState {
        BaselineState::Thinking
    }

    fn private_states(&self) -> Vec<BaselineState> {
        BaselineState::ALL.to_vec()
    }

    fn observation(&self, state: &BaselineState, ends: ForkEnds) -> ProgramObservation {
        let first = Self::first_fork(ends);
        let (phase, committed, label) = match *state {
            BaselineState::Thinking => (Phase::Thinking, None, "ord.think"),
            BaselineState::TakeFirst => (Phase::Hungry, Some(first), "ord.first"),
            BaselineState::TakeSecond => (Phase::Hungry, Some(ends.other(first)), "ord.second"),
            BaselineState::Eating => (Phase::Eating, None, "ord.eat"),
        };
        ProgramObservation {
            phase,
            committed,
            label,
        }
    }

    fn step(&self, state: &mut BaselineState, ctx: &mut StepCtx<'_>) -> Action {
        let ends = ForkEnds::new(ctx.left(), ctx.right());
        let first = Self::first_fork(ends);
        let second = ends.other(first);
        match *state {
            BaselineState::Thinking => {
                *state = BaselineState::TakeFirst;
                Action::BecomeHungry
            }
            BaselineState::TakeFirst => {
                let success = ctx.take_if_free(first);
                if success {
                    *state = BaselineState::TakeSecond;
                }
                Action::TakeFirst {
                    fork: first,
                    success,
                }
            }
            BaselineState::TakeSecond => {
                let success = ctx.take_if_free(second);
                if success {
                    *state = BaselineState::Eating;
                }
                // Hold-and-wait: on failure the first fork is *kept*, unlike
                // LR1/LR2/GDP1/GDP2.  This is safe only because the forks are
                // globally ordered.
                Action::TakeSecond {
                    fork: second,
                    success,
                }
            }
            BaselineState::Eating => {
                ctx.release(first);
                ctx.release(second);
                *state = BaselineState::Thinking;
                Action::FinishEating
            }
        }
    }
}

/// The textbook **broken** algorithm: deterministically take the left
/// fork, then the right fork, holding on failure.
///
/// Symmetric and fully distributed — and exactly why those two properties
/// are hard: on every ring the schedule in which each philosopher grabs
/// its left fork reaches the classic deadlock where everybody starves.
/// Promoted from a test-local program to a first-class baseline so the
/// `gdp` CLI and the exact checker (`gdp-mcheck`) can demonstrate a *real*
/// deadlock end to end (`gdp check --algorithm naive` reports it, `gdp
/// run` detects the stuck state and exits nonzero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NaiveLeftRight {
    _private: (),
}

impl NaiveLeftRight {
    /// Creates the naive left-then-right baseline.
    #[must_use]
    pub fn new() -> Self {
        NaiveLeftRight::default()
    }
}

impl Program for NaiveLeftRight {
    type State = BaselineState;

    fn name(&self) -> &'static str {
        "naive-left-right"
    }

    fn initial_state(&self) -> BaselineState {
        BaselineState::Thinking
    }

    fn private_states(&self) -> Vec<BaselineState> {
        BaselineState::ALL.to_vec()
    }

    fn observation(&self, state: &BaselineState, ends: ForkEnds) -> ProgramObservation {
        let (phase, committed, label) = match *state {
            BaselineState::Thinking => (Phase::Thinking, None, "naive.think"),
            BaselineState::TakeFirst => (Phase::Hungry, Some(ends.left), "naive.left"),
            BaselineState::TakeSecond => (Phase::Hungry, Some(ends.right), "naive.right"),
            BaselineState::Eating => (Phase::Eating, None, "naive.eat"),
        };
        ProgramObservation {
            phase,
            committed,
            label,
        }
    }

    fn step(&self, state: &mut BaselineState, ctx: &mut StepCtx<'_>) -> Action {
        match *state {
            BaselineState::Thinking => {
                *state = BaselineState::TakeFirst;
                Action::BecomeHungry
            }
            BaselineState::TakeFirst => {
                let left = ctx.left();
                if ctx.take_if_free(left) {
                    *state = BaselineState::TakeSecond;
                }
                Action::TestAndSet { fork: left }
            }
            BaselineState::TakeSecond => {
                let right = ctx.right();
                if ctx.take_if_free(right) {
                    *state = BaselineState::Eating;
                }
                // Hold-and-wait on the left fork: the deadlock ingredient.
                Action::TestAndSet { fork: right }
            }
            BaselineState::Eating => {
                ctx.release(ctx.left());
                ctx.release(ctx.right());
                *state = BaselineState::Thinking;
                Action::FinishEating
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{Engine, RoundRobinAdversary, SimConfig, StopCondition, UniformRandomAdversary};
    use gdp_topology::builders::{
        classic_ring, complete_conflict, figure1_triangle, figure3_theta,
    };
    use gdp_topology::Topology;

    #[test]
    fn ordered_forks_never_deadlocks_on_any_tested_topology() {
        let topologies: Vec<Topology> = vec![
            classic_ring(5).unwrap(),
            classic_ring(8).unwrap(),
            figure1_triangle(),
            figure3_theta(),
            complete_conflict(5).unwrap(),
        ];
        for (i, t) in topologies.into_iter().enumerate() {
            let mut e = Engine::new(
                t,
                OrderedForks::new(),
                SimConfig::default().with_seed(i as u64),
            );
            let outcome = e.run(
                &mut UniformRandomAdversary::new(i as u64),
                StopCondition::EveryoneEats {
                    times: 1,
                    max_steps: 1_000_000,
                },
            );
            assert!(
                outcome.reason.target_reached(),
                "topology #{i}: ordered forks should let everyone eat, meals = {:?}",
                outcome.meals_per_philosopher
            );
        }
    }

    #[test]
    fn ordered_forks_sustains_throughput_under_round_robin() {
        let mut e = Engine::new(
            classic_ring(7).unwrap(),
            OrderedForks::new(),
            SimConfig::default(),
        );
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::TotalMeals {
                target: 100,
                max_steps: 1_000_000,
            },
        );
        assert!(outcome.reason.target_reached());
    }

    #[test]
    fn baselines_are_asymmetric_by_construction() {
        // The ordered-forks program behaves differently for P0 and P1 in the
        // same local situation: on the 2-ring both aim at the lower fork f0
        // first, which is P0's left fork and P1's right one.  This is
        // exactly the symmetry violation the paper's Section 1 points out.
        let t = classic_ring(2).unwrap();
        let mut e = Engine::new(t, OrderedForks::new(), SimConfig::default());
        let p0 = gdp_topology::PhilosopherId::new(0);
        let p1 = gdp_topology::PhilosopherId::new(1);
        e.step_philosopher(p0); // hungry
        e.step_philosopher(p1); // hungry
        let first_fork = |action| match action {
            Action::TakeFirst { fork, .. } => fork,
            other => panic!("unexpected action {other:?}"),
        };
        let f0 = first_fork(e.step_philosopher(p0).action);
        let f1 = first_fork(e.step_philosopher(p1).action);
        let t = e.topology();
        assert_eq!(f0, f1);
        assert_eq!(f0, t.forks_of(p0).left);
        assert_eq!(f1, t.forks_of(p1).right);
    }

    #[test]
    fn ordered_forks_observation_reports_commitment() {
        let program = OrderedForks::new();
        let ends = ForkEnds::new(ForkId::new(7), ForkId::new(2));
        let obs = program.observation(&BaselineState::TakeFirst, ends);
        assert_eq!(obs.committed, Some(ForkId::new(2)), "lower fork first");
        let obs = program.observation(&BaselineState::TakeSecond, ends);
        assert_eq!(obs.committed, Some(ForkId::new(7)));
        assert_eq!(
            program.observation(&BaselineState::Eating, ends).phase,
            Phase::Eating
        );
        assert_eq!(program.name(), "ordered-forks");
    }
}
