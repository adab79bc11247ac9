//! LR1 — the first algorithm of Lehmann and Rabin (Table 1 of the paper).
//!
//! ```text
//! 1. think;
//! 2. fork := random_choice(left, right);
//! 3. if isFree(fork) then take(fork) else goto 3;
//! 4. if isFree(other(fork)) then take(other(fork))
//!    else { release(fork); goto 2 }
//! 5. eat;
//! 6. release(fork); release(other(fork));
//! 7. goto 1;
//! ```
//!
//! Each numbered line is one atomic step of the simulation; lines 5–7 are
//! folded into a single "finish eating" step (the philosopher eats for
//! exactly one scheduled step, which satisfies the paper's "cannot eat
//! forever" requirement and does not affect any of the results).
//!
//! On the classic ring LR1 guarantees progress with probability 1 under
//! every fair adversary (Lehmann & Rabin 1981).  Section 3 of the paper
//! shows that on generalized topologies — starting with the 6-philosopher /
//! 3-fork triangle of Figure 1 — a fair adversary can prevent progress with
//! positive probability; the `gdp-adversary` crate implements that scheduler,
//! the report's Section 3 table (E2) runs it, and the Section 3 and Theorem
//! 1 rows of `gdp_bench::CLAIMS` check the failure exactly.

use gdp_sim::{Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId, Side};

/// Control state of one LR1 philosopher (the program counter of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lr1State {
    /// Line 1: thinking.
    Thinking,
    /// Line 2: about to draw a random first fork.
    Draw,
    /// Line 3: committed to the fork on `first`; busy-waiting to take it.
    TakeFirst {
        /// The side of the fork chosen at line 2.
        first: Side,
    },
    /// Line 4: holding the first fork; about to test-and-set the second.
    TakeSecond {
        /// The side of the fork taken at line 3.
        first: Side,
    },
    /// Line 5: eating (holding both forks).
    Eating {
        /// The side of the fork taken first.
        first: Side,
    },
}

/// The LR1 program (one shared instance drives every philosopher).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lr1 {
    _private: (),
}

impl Lr1 {
    /// Creates the LR1 program.
    #[must_use]
    pub fn new() -> Self {
        Lr1::default()
    }
}

impl Program for Lr1 {
    type State = Lr1State;

    fn name(&self) -> &'static str {
        "LR1"
    }

    fn initial_state(&self) -> Lr1State {
        Lr1State::Thinking
    }

    fn private_states(&self) -> Vec<Lr1State> {
        let sided = Side::both().into_iter().flat_map(|first| {
            [
                Lr1State::TakeFirst { first },
                Lr1State::TakeSecond { first },
                Lr1State::Eating { first },
            ]
        });
        [Lr1State::Thinking, Lr1State::Draw]
            .into_iter()
            .chain(sided)
            .collect()
    }

    fn observation(&self, state: &Lr1State, ends: ForkEnds) -> ProgramObservation {
        let committed = committed_fork(state, ends);
        match *state {
            Lr1State::Thinking => ProgramObservation {
                phase: Phase::Thinking,
                committed,
                label: "LR1.1",
            },
            Lr1State::Draw => ProgramObservation {
                phase: Phase::Hungry,
                committed,
                label: "LR1.2",
            },
            Lr1State::TakeFirst { .. } => ProgramObservation {
                phase: Phase::Hungry,
                committed,
                label: "LR1.3",
            },
            Lr1State::TakeSecond { .. } => ProgramObservation {
                phase: Phase::Hungry,
                committed,
                label: "LR1.4",
            },
            Lr1State::Eating { .. } => ProgramObservation {
                phase: Phase::Eating,
                committed,
                label: "LR1.5",
            },
        }
    }

    fn step(&self, state: &mut Lr1State, ctx: &mut StepCtx<'_>) -> Action {
        match *state {
            Lr1State::Thinking => {
                *state = Lr1State::Draw;
                Action::BecomeHungry
            }
            Lr1State::Draw => {
                let first = ctx.random_side();
                *state = Lr1State::TakeFirst { first };
                Action::Commit {
                    fork: ctx.fork_on(first),
                    random: true,
                }
            }
            Lr1State::TakeFirst { first } => {
                let fork = ctx.fork_on(first);
                let success = ctx.take_if_free(fork);
                if success {
                    *state = Lr1State::TakeSecond { first };
                }
                Action::TakeFirst { fork, success }
            }
            Lr1State::TakeSecond { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                let success = ctx.take_if_free(other);
                if success {
                    *state = Lr1State::Eating { first };
                } else {
                    ctx.release(held);
                    *state = Lr1State::Draw;
                }
                Action::TakeSecond {
                    fork: other,
                    success,
                }
            }
            Lr1State::Eating { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                ctx.release(held);
                ctx.release(other);
                *state = Lr1State::Thinking;
                Action::FinishEating
            }
        }
    }
}

/// The fork an LR1 philosopher is currently aiming at, given its control
/// state and its own fork pair.
///
/// * In `TakeFirst` this is the fork it committed to at line 2 (the "empty
///   arrow" of the paper's figures).
/// * In `TakeSecond` it is the *other* fork — the one the next test-and-set
///   will target.
/// * In all other states there is no pending target.
#[must_use]
pub fn committed_fork(state: &Lr1State, ends: ForkEnds) -> Option<ForkId> {
    match *state {
        Lr1State::TakeFirst { first } => Some(ends.on(first)),
        Lr1State::TakeSecond { first } => Some(ends.other(ends.on(first))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{
        Engine, EngineState, RoundRobinAdversary, SimConfig, StopCondition, UniformRandomAdversary,
    };
    use gdp_topology::builders::classic_ring;
    use gdp_topology::{ForkEnds, ForkId, PhilosopherId, Topology};

    fn engine(n: usize, seed: u64) -> Engine<Lr1> {
        Engine::new(
            classic_ring(n).unwrap(),
            Lr1::new(),
            SimConfig::default().with_seed(seed),
        )
    }

    /// Steps `p` on `state` with its line-2 coin, if it draws, coming up
    /// `left`: the first enumerated outcome.
    fn step_left(t: &Topology, state: &mut EngineState<Lr1>, p: PhilosopherId) -> Action {
        let mut post = state.clone();
        let mut first = None;
        state.for_each_step_outcome(t, &Lr1::new(), p, &mut post, |_, post, action| {
            first.get_or_insert_with(|| (post.clone(), action));
        });
        let (next, action) = first.expect("every step has an outcome");
        *state = next;
        action
    }

    #[test]
    fn makes_progress_on_classic_ring_under_random_scheduler() {
        for seed in 0..10 {
            let mut e = engine(5, seed);
            let outcome = e.run(
                &mut UniformRandomAdversary::new(seed + 100),
                StopCondition::FirstMeal { max_steps: 50_000 },
            );
            assert!(
                outcome.made_progress(),
                "LR1 must make progress on the classic ring (seed {seed})"
            );
        }
    }

    #[test]
    fn makes_progress_on_classic_ring_under_round_robin() {
        let mut e = engine(7, 3);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::TotalMeals {
                target: 50,
                max_steps: 500_000,
            },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.total_meals >= 50);
    }

    #[test]
    fn two_philosophers_sharing_two_forks_progress() {
        // The smallest ring: 2 philosophers, 2 forks (a multigraph).
        let t = gdp_topology::Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mut e = Engine::new(t, Lr1::new(), SimConfig::default().with_seed(5));
        let outcome = e.run(
            &mut UniformRandomAdversary::new(1),
            StopCondition::FirstMeal { max_steps: 10_000 },
        );
        assert!(outcome.made_progress());
    }

    #[test]
    fn never_holds_two_forks_without_eating_phase() {
        // Structural invariant: whenever a philosopher holds both of its
        // forks, its control state is Eating (it took the second fork in the
        // same atomic step that moved it to Eating).
        let mut e = engine(5, 11);
        let mut adv = UniformRandomAdversary::new(2);
        for _ in 0..20_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                for p in view.philosophers() {
                    if p.holding.len() == 2 {
                        assert_eq!(p.phase, Phase::Eating, "{:?}", p);
                    }
                    assert!(p.holding.len() <= 2);
                }
            });
        }
    }

    #[test]
    fn forks_are_never_held_by_two_philosophers() {
        let mut e = engine(6, 13);
        let mut adv = UniformRandomAdversary::new(3);
        for _ in 0..20_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                // Every fork's holder (if any) must actually be adjacent to it.
                for f in view.topology().fork_ids() {
                    if let Some(h) = view.holder_of(f) {
                        assert!(view.topology().forks_of(h).contains(f));
                    }
                }
            });
        }
    }

    #[test]
    fn eating_requires_holding_both_forks() {
        let mut e = engine(5, 17);
        let mut adv = UniformRandomAdversary::new(4);
        for _ in 0..20_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                for p in view.philosophers() {
                    if p.phase == Phase::Eating {
                        assert_eq!(
                            p.holding.len(),
                            2,
                            "eating philosopher must hold both forks"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn failed_second_take_releases_first_fork() {
        // Drive two parallel philosophers sharing the same two forks by hand:
        // P0 takes fork0 then fork1 and eats; P1 commits to fork0 first, is
        // blocked, and after committing to whichever fork, a failed second
        // take must release the first.  Every draw is scripted to come up
        // left (fork 0 for both philosophers).
        let t = Topology::from_arcs(2, [(0, 1), (0, 1)]).unwrap();
        let mut s = EngineState::initial(&t, &Lr1::new());
        let p0 = PhilosopherId::new(0);
        let p1 = PhilosopherId::new(1);
        // P0: think->hungry, draw, take fork0, take fork1 => eating.
        for _ in 0..4 {
            step_left(&t, &mut s, p0);
        }
        assert_eq!(s.phase_of(&t, &Lr1::new(), p0), Phase::Eating);
        // P1: think->hungry, draw (fork0), try take fork0 (fails, busy-waits).
        step_left(&t, &mut s, p1);
        step_left(&t, &mut s, p1);
        assert_eq!(
            step_left(&t, &mut s, p1),
            Action::TakeFirst {
                fork: ForkId::new(0),
                success: false
            }
        );
        // P0 finishes eating, releasing both forks.
        step_left(&t, &mut s, p0);
        assert!(s.forks()[0].is_free());
        // P1 now takes fork 0 ...
        assert!(step_left(&t, &mut s, p1).acquired_fork());
        // ... P0 becomes hungry again, draws fork 0 and busy-waits: P0
        // cannot take fork 0 (held by P1), so it holds nothing.
        step_left(&t, &mut s, p0); // become hungry
        step_left(&t, &mut s, p0); // draw
        assert_eq!(
            step_left(&t, &mut s, p0),
            Action::TakeFirst {
                fork: ForkId::new(0),
                success: false
            }
        );
        // P1 takes fork 1 and eats.
        assert_eq!(
            step_left(&t, &mut s, p1),
            Action::TakeSecond {
                fork: ForkId::new(1),
                success: true
            }
        );
        assert_eq!(s.phase_of(&t, &Lr1::new(), p1), Phase::Eating);
    }

    #[test]
    fn committed_fork_helper_tracks_program_counter() {
        let ends = ForkEnds::new(ForkId::new(3), ForkId::new(7));
        assert_eq!(committed_fork(&Lr1State::Thinking, ends), None);
        assert_eq!(committed_fork(&Lr1State::Draw, ends), None);
        assert_eq!(
            committed_fork(&Lr1State::TakeFirst { first: Side::Left }, ends),
            Some(ForkId::new(3))
        );
        assert_eq!(
            committed_fork(&Lr1State::TakeSecond { first: Side::Left }, ends),
            Some(ForkId::new(7)),
            "after taking the first fork the pending target is the other fork"
        );
        assert_eq!(
            committed_fork(&Lr1State::Eating { first: Side::Right }, ends),
            None
        );
    }

    #[test]
    fn observation_labels_follow_the_table() {
        let program = Lr1::new();
        let ends = ForkEnds::new(ForkId::new(0), ForkId::new(1));
        assert_eq!(
            program.observation(&Lr1State::Thinking, ends).label,
            "LR1.1"
        );
        assert_eq!(program.observation(&Lr1State::Draw, ends).label, "LR1.2");
        let obs = program.observation(&Lr1State::TakeFirst { first: Side::Left }, ends);
        assert_eq!(obs.label, "LR1.3");
        assert_eq!(obs.committed, Some(ForkId::new(0)));
        let obs = program.observation(&Lr1State::TakeSecond { first: Side::Left }, ends);
        assert_eq!(obs.label, "LR1.4");
        assert_eq!(obs.committed, Some(ForkId::new(1)));
        assert_eq!(
            program
                .observation(&Lr1State::Eating { first: Side::Left }, ends)
                .phase,
            Phase::Eating
        );
        assert_eq!(program.name(), "LR1");
        assert_eq!(program.initial_state(), Lr1State::Thinking);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = engine(5, 77);
            let mut adv = UniformRandomAdversary::new(5);
            (0..5_000)
                .map(|_| e.step_with(&mut adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
