//! LR2 — the second algorithm of Lehmann and Rabin (Table 2 of the paper).
//!
//! ```text
//!  1. think;
//!  2. insert(id, left.r);  insert(id, right.r);
//!  3. fork := random_choice(left, right);
//!  4. if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//!  5. if isFree(other(fork)) then take(other(fork))
//!     else { release(fork); goto 3 }
//!  6. eat;
//!  7. remove(id, left.r);  remove(id, right.r);
//!  8. insert(id, left.g);  insert(id, right.g);
//!  9. release(fork); release(other(fork));
//! 10. goto 1;
//! ```
//!
//! Each numbered line is one atomic step, except that the post-meal
//! housekeeping (lines 6–9: eat, deregister, sign the guest books, release)
//! is folded into a single "finish eating" step — those lines only touch the
//! eater's own forks and their relative interleaving with other philosophers
//! does not affect any result in the paper.
//!
//! The courtesy condition `Cond(fork)` is the one described in Section 3.2:
//! a philosopher may take a fork only if no *other* requesting philosopher
//! is "hungrier" than it with respect to that fork — see
//! [`ForkCell::courtesy_holds`](gdp_sim::ForkCell::courtesy_holds) for the
//! precise reading used here.
//!
//! On the classic ring LR2 is lockout-free.  Theorem 2 of the paper shows it
//! can be defeated (no progress for a whole ring plus path) on any topology
//! containing a theta subgraph; the Theorem 2 row of `gdp_bench::CLAIMS`
//! checks that exactly on a theta graph, and the Lehmann–Rabin row checks
//! lockout-freedom on the 3-ring.

use gdp_sim::{Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId, Side};

/// Control state of one LR2 philosopher (program counter of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lr2State {
    /// Line 1: thinking.
    Thinking,
    /// Line 2: about to register in both request lists.
    Register,
    /// Line 3: about to draw a random first fork.
    Draw,
    /// Line 4: committed to the fork on `first`; waiting for it to be free
    /// *and* for the courtesy condition to hold.
    TakeFirst {
        /// The side of the fork chosen at line 3.
        first: Side,
    },
    /// Line 5: holding the first fork; about to test-and-set the second.
    TakeSecond {
        /// The side of the fork taken at line 4.
        first: Side,
    },
    /// Lines 6–9: eating; the next step deregisters, signs the guest books
    /// and releases both forks.
    Eating {
        /// The side of the fork taken first.
        first: Side,
    },
}

/// The LR2 program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lr2 {
    _private: (),
}

impl Lr2 {
    /// Creates the LR2 program.
    #[must_use]
    pub fn new() -> Self {
        Lr2::default()
    }
}

/// The pending fork target of an LR2 philosopher, analogous to
/// [`lr1::committed_fork`](crate::lr1::committed_fork) — see that function
/// for the meaning of each control state.
#[must_use]
pub fn committed_fork(state: &Lr2State, ends: ForkEnds) -> Option<ForkId> {
    match *state {
        Lr2State::TakeFirst { first } => Some(ends.on(first)),
        Lr2State::TakeSecond { first } => Some(ends.other(ends.on(first))),
        _ => None,
    }
}

impl Program for Lr2 {
    type State = Lr2State;

    fn name(&self) -> &'static str {
        "LR2"
    }

    fn initial_state(&self) -> Lr2State {
        Lr2State::Thinking
    }

    fn private_states(&self) -> Vec<Lr2State> {
        let sided = Side::both().into_iter().flat_map(|first| {
            [
                Lr2State::TakeFirst { first },
                Lr2State::TakeSecond { first },
                Lr2State::Eating { first },
            ]
        });
        [Lr2State::Thinking, Lr2State::Register, Lr2State::Draw]
            .into_iter()
            .chain(sided)
            .collect()
    }

    fn observation(&self, state: &Lr2State, ends: ForkEnds) -> ProgramObservation {
        let committed = committed_fork(state, ends);
        let (phase, label) = match *state {
            Lr2State::Thinking => (Phase::Thinking, "LR2.1"),
            Lr2State::Register => (Phase::Hungry, "LR2.2"),
            Lr2State::Draw => (Phase::Hungry, "LR2.3"),
            Lr2State::TakeFirst { .. } => (Phase::Hungry, "LR2.4"),
            Lr2State::TakeSecond { .. } => (Phase::Hungry, "LR2.5"),
            Lr2State::Eating { .. } => (Phase::Eating, "LR2.6"),
        };
        ProgramObservation {
            phase,
            committed,
            label,
        }
    }

    fn step(&self, state: &mut Lr2State, ctx: &mut StepCtx<'_>) -> Action {
        match *state {
            Lr2State::Thinking => {
                *state = Lr2State::Register;
                Action::BecomeHungry
            }
            Lr2State::Register => {
                ctx.insert_request(ctx.left());
                ctx.insert_request(ctx.right());
                *state = Lr2State::Draw;
                Action::RegisterRequests
            }
            Lr2State::Draw => {
                let first = ctx.random_side();
                *state = Lr2State::TakeFirst { first };
                Action::Commit {
                    fork: ctx.fork_on(first),
                    random: true,
                }
            }
            Lr2State::TakeFirst { first } => {
                let fork = ctx.fork_on(first);
                let success =
                    ctx.is_free(fork) && ctx.courtesy_holds(fork) && ctx.take_if_free(fork);
                if success {
                    *state = Lr2State::TakeSecond { first };
                }
                Action::TakeFirst { fork, success }
            }
            Lr2State::TakeSecond { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                let success = ctx.take_if_free(other);
                if success {
                    *state = Lr2State::Eating { first };
                } else {
                    ctx.release(held);
                    *state = Lr2State::Draw;
                }
                Action::TakeSecond {
                    fork: other,
                    success,
                }
            }
            Lr2State::Eating { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                // Lines 7-9: deregister, sign both guest books, release both.
                ctx.remove_request(held);
                ctx.remove_request(other);
                ctx.sign_guest_book(held);
                ctx.sign_guest_book(other);
                ctx.release(held);
                ctx.release(other);
                *state = Lr2State::Thinking;
                Action::FinishEating
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{Engine, EngineState, SimConfig, StopCondition, UniformRandomAdversary};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::{PhilosopherId, Topology};

    /// Steps `p` on `state` with its line-3 coin, if it draws, coming up
    /// `left`: the first enumerated outcome.
    fn step_left(t: &Topology, state: &mut EngineState<Lr2>, p: PhilosopherId) -> Action {
        let mut post = state.clone();
        let mut first = None;
        state.for_each_step_outcome(t, &Lr2::new(), p, &mut post, |_, post, action| {
            first.get_or_insert_with(|| (post.clone(), action));
        });
        let (next, action) = first.expect("every step has an outcome");
        *state = next;
        action
    }

    fn engine(n: usize, seed: u64) -> Engine<Lr2> {
        Engine::new(
            classic_ring(n).unwrap(),
            Lr2::new(),
            SimConfig::default().with_seed(seed),
        )
    }

    #[test]
    fn makes_progress_on_classic_ring() {
        for seed in 0..10 {
            let mut e = engine(5, seed);
            let outcome = e.run(
                &mut UniformRandomAdversary::new(seed + 7),
                StopCondition::FirstMeal { max_steps: 100_000 },
            );
            assert!(outcome.made_progress(), "seed {seed}");
        }
    }

    #[test]
    fn is_lockout_free_on_classic_ring_under_random_scheduler() {
        // Every philosopher gets to eat (several times) in a long random run.
        let mut e = engine(5, 3);
        let outcome = e.run(
            &mut UniformRandomAdversary::new(11),
            StopCondition::EveryoneEats {
                times: 3,
                max_steps: 1_000_000,
            },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.meals_per_philosopher.iter().all(|&m| m >= 3));
    }

    #[test]
    fn requests_are_registered_while_eating_and_cleared_when_thinking() {
        let mut e = engine(3, 5);
        let mut adv = UniformRandomAdversary::new(0);
        for _ in 0..30_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                for p in view.philosophers() {
                    let ends = view.topology().forks_of(p.id);
                    let requested_left = view.fork(ends.left).requests().contains(&p.id);
                    match p.phase {
                        // An eating philosopher has not yet deregistered
                        // (lines 7-9 run when the meal finishes).
                        Phase::Eating => {
                            assert!(requested_left, "eating implies still registered");
                        }
                        Phase::Thinking => {
                            assert!(
                                !requested_left,
                                "a thinking philosopher must not appear in request lists"
                            );
                        }
                        Phase::Hungry => {}
                    }
                }
            });
        }
    }

    #[test]
    fn guest_books_record_meals() {
        let mut e = engine(4, 9);
        let outcome = e.run(
            &mut UniformRandomAdversary::new(4),
            StopCondition::TotalMeals {
                target: 10,
                max_steps: 1_000_000,
            },
        );
        assert!(outcome.reason.target_reached());
        // Somebody ate, so some guest book is non-empty.
        let signed = e
            .topology()
            .fork_ids()
            .any(|f| !e.fork(f).guest_book_is_empty());
        assert!(signed);
    }

    #[test]
    fn courtesy_blocks_back_to_back_meals_when_neighbour_is_waiting() {
        // Two philosophers sharing both forks (2-ring multigraph).  After P0
        // eats, P0 cannot take a fork again until P1 (who is registered and
        // has not eaten) has eaten: the courtesy condition fails for P0.
        // P0's draws are scripted to come up left.
        let t = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mut s = EngineState::initial(&t, &Lr2::new());
        let p0 = PhilosopherId::new(0);
        let p1 = PhilosopherId::new(1);
        // P1 becomes hungry and registers (so it is in the request lists).
        step_left(&t, &mut s, p1); // think -> register state
        step_left(&t, &mut s, p1); // register

        // P0 eats once.
        step_left(&t, &mut s, p0); // hungry
        step_left(&t, &mut s, p0); // register
        step_left(&t, &mut s, p0); // draw
        step_left(&t, &mut s, p0); // take first
        step_left(&t, &mut s, p0); // take second -> eating
        assert_eq!(s.phase_of(&t, &Lr2::new(), p0), Phase::Eating);
        step_left(&t, &mut s, p0); // finish eating, sign guest books

        // P0 becomes hungry again and tries to take a fork: courtesy must
        // fail because P1 is requesting and has not eaten since.
        step_left(&t, &mut s, p0); // hungry
        step_left(&t, &mut s, p0); // register
        step_left(&t, &mut s, p0); // draw
        let action = step_left(&t, &mut s, p0); // attempt first take
        assert!(
            matches!(action, Action::TakeFirst { success: false, .. }),
            "P0 must defer to P1 after eating: {action:?}"
        );
    }

    #[test]
    fn eating_implies_holding_both_forks() {
        let mut e = engine(6, 2);
        let mut adv = UniformRandomAdversary::new(8);
        for _ in 0..20_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                for p in view.philosophers() {
                    if p.phase == Phase::Eating {
                        assert_eq!(p.holding.len(), 2);
                    }
                }
            });
        }
    }

    #[test]
    fn observation_labels_and_commitments() {
        let program = Lr2::new();
        let ends = ForkEnds::new(ForkId::new(2), ForkId::new(9));
        assert_eq!(
            program.observation(&Lr2State::Thinking, ends).label,
            "LR2.1"
        );
        assert_eq!(
            program.observation(&Lr2State::Register, ends).label,
            "LR2.2"
        );
        assert_eq!(program.observation(&Lr2State::Draw, ends).label, "LR2.3");
        let obs = program.observation(&Lr2State::TakeFirst { first: Side::Right }, ends);
        assert_eq!(obs.committed, Some(ForkId::new(9)));
        assert_eq!(obs.phase, Phase::Hungry);
        let obs = program.observation(&Lr2State::TakeSecond { first: Side::Right }, ends);
        assert_eq!(obs.committed, Some(ForkId::new(2)));
        assert!(program
            .observation(&Lr2State::Eating { first: Side::Left }, ends)
            .phase
            .is_eating());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = engine(5, 123);
            let mut adv = UniformRandomAdversary::new(9);
            (0..5_000)
                .map(|_| e.step_with(&mut adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
