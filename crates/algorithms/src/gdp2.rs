//! GDP2 — the paper's algorithm for lockout-freedom (Table 4, Theorem 4).
//!
//! ```text
//!  1. think;
//!  2. insert(id, left.r);  insert(id, right.r);
//!  3. if left.nr > right.nr then fork := left else fork := right;
//!  4. if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//!  5. if fork.nr = other(fork).nr then fork.nr := random[1, m];
//!  6. if isFree(other(fork)) then take(other(fork))
//!     else { release(fork); goto 3 }
//!  7. eat;
//!  8. remove(id, left.r);  remove(id, right.r);
//!  9. insert(id, left.g);  insert(id, right.g);
//! 10. release(fork); release(other(fork));
//! 11. goto 1;
//! ```
//!
//! GDP2 combines the random fork-priority mechanism of [`Gdp1`](crate::Gdp1)
//! (which guarantees that *somebody* eats) with the request lists and guest
//! books of LR2 (which make an eager eater defer to a neighbour it has
//! overtaken).  Theorem 4 claims the combination is lockout-free with
//! probability 1 under every fair adversary.  The Theorem 4 rows of
//! `gdp_bench::CLAIMS` check it exactly: progress on theta 4 and lockout on
//! `shared-ring:2` size 2 certify, and lockout on the 3-ring does not.
//!
//! Faithfulness note: Table 4 as printed omits the `Cond(fork)` conjunct on
//! line 4, but Section 5's text introduces the request lists, guest books
//! and `Cond` "like it was done in Section 3.2".  We therefore include the
//! conjunct, mirroring line 4 of LR2 (Table 2).  Line 6, the second take,
//! tests only that the fork is free.
//!
//! Under this reading GDP2 is **not** lockout-free: the exact check
//! `gdp check --family ring --size 3 --algorithm gdp2 --target lockout` is
//! violated with worst-case probability 0.  The first collision redraws the
//! `nr` of the fork P0 does not use, while P0's two forks keep `nr` 0, so P1
//! and P2 always take that fork first and one of P0's forks second, where
//! P0's request does not bind them; the test
//! `a_bounded_fair_schedule_starves_p0_on_the_three_ring` replays such a
//! schedule.  The proof of Theorem 4 counts neighbours "which have already
//! eaten and can't eat until all their adjacent philosophers ... have eaten
//! as well", which a second take without `Cond` breaks.  The other reading
//! tests `Cond` at line 6 as well; it changes every GDP2 run and is not the
//! one implemented here.

use gdp_sim::{Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId, Side};

/// Control state of one GDP2 philosopher (program counter of Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gdp2State {
    /// Line 1: thinking.
    Thinking,
    /// Line 2: about to register in both request lists.
    Register,
    /// Line 3: about to compare `nr` values and pick the first fork.
    Choose,
    /// Line 4: committed to the fork on `first`; waiting for it to be free
    /// and for the courtesy condition to hold.
    TakeFirst {
        /// The side of the fork chosen at line 3.
        first: Side,
    },
    /// Line 5: holding the first fork; about to re-draw its `nr` on collision.
    Relabel {
        /// The side of the fork taken at line 4.
        first: Side,
    },
    /// Line 6: holding the first fork; about to test-and-set the second.
    TakeSecond {
        /// The side of the fork taken at line 4.
        first: Side,
    },
    /// Lines 7–10: eating; the next step deregisters, signs guest books and
    /// releases both forks.
    Eating {
        /// The side of the fork taken first.
        first: Side,
    },
}

/// The GDP2 program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gdp2 {
    _private: (),
}

impl Gdp2 {
    /// Creates the GDP2 program.  See [`Gdp1::new`](crate::Gdp1::new) for
    /// the priority-number range `m`.
    #[must_use]
    pub fn new() -> Self {
        Gdp2::default()
    }
}

/// The pending fork target of a GDP2 philosopher, if any.
#[must_use]
pub fn committed_fork(state: &Gdp2State, ends: ForkEnds) -> Option<ForkId> {
    match *state {
        Gdp2State::TakeFirst { first } => Some(ends.on(first)),
        Gdp2State::Relabel { first } | Gdp2State::TakeSecond { first } => {
            Some(ends.other(ends.on(first)))
        }
        _ => None,
    }
}

impl Program for Gdp2 {
    type State = Gdp2State;

    fn name(&self) -> &'static str {
        "GDP2"
    }

    fn initial_state(&self) -> Gdp2State {
        Gdp2State::Thinking
    }

    fn private_states(&self) -> Vec<Gdp2State> {
        let sided = Side::both().into_iter().flat_map(|first| {
            [
                Gdp2State::TakeFirst { first },
                Gdp2State::Relabel { first },
                Gdp2State::TakeSecond { first },
                Gdp2State::Eating { first },
            ]
        });
        [Gdp2State::Thinking, Gdp2State::Register, Gdp2State::Choose]
            .into_iter()
            .chain(sided)
            .collect()
    }

    fn observation(&self, state: &Gdp2State, ends: ForkEnds) -> ProgramObservation {
        let committed = committed_fork(state, ends);
        let (phase, label) = match *state {
            Gdp2State::Thinking => (Phase::Thinking, "GDP2.1"),
            Gdp2State::Register => (Phase::Hungry, "GDP2.2"),
            Gdp2State::Choose => (Phase::Hungry, "GDP2.3"),
            Gdp2State::TakeFirst { .. } => (Phase::Hungry, "GDP2.4"),
            Gdp2State::Relabel { .. } => (Phase::Hungry, "GDP2.5"),
            Gdp2State::TakeSecond { .. } => (Phase::Hungry, "GDP2.6"),
            Gdp2State::Eating { .. } => (Phase::Eating, "GDP2.7"),
        };
        ProgramObservation {
            phase,
            committed,
            label,
        }
    }

    fn step(&self, state: &mut Gdp2State, ctx: &mut StepCtx<'_>) -> Action {
        match *state {
            Gdp2State::Thinking => {
                *state = Gdp2State::Register;
                Action::BecomeHungry
            }
            Gdp2State::Register => {
                ctx.insert_request(ctx.left());
                ctx.insert_request(ctx.right());
                *state = Gdp2State::Choose;
                Action::RegisterRequests
            }
            Gdp2State::Choose => {
                let first = if ctx.nr(ctx.left()) > ctx.nr(ctx.right()) {
                    Side::Left
                } else {
                    Side::Right
                };
                *state = Gdp2State::TakeFirst { first };
                Action::Commit {
                    fork: ctx.fork_on(first),
                    random: false,
                }
            }
            Gdp2State::TakeFirst { first } => {
                let fork = ctx.fork_on(first);
                let success =
                    ctx.is_free(fork) && ctx.courtesy_holds(fork) && ctx.take_if_free(fork);
                if success {
                    *state = Gdp2State::Relabel { first };
                }
                Action::TakeFirst { fork, success }
            }
            Gdp2State::Relabel { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                *state = Gdp2State::TakeSecond { first };
                if ctx.nr(held) == ctx.nr(other) {
                    let nr = ctx.random_nr();
                    ctx.set_nr(held, nr);
                    Action::RelabelFork { fork: held, nr }
                } else {
                    Action::Custom("nr-already-distinct")
                }
            }
            Gdp2State::TakeSecond { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                let success = ctx.take_if_free(other);
                if success {
                    *state = Gdp2State::Eating { first };
                } else {
                    ctx.release(held);
                    *state = Gdp2State::Choose;
                }
                Action::TakeSecond {
                    fork: other,
                    success,
                }
            }
            Gdp2State::Eating { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                ctx.remove_request(held);
                ctx.remove_request(other);
                ctx.sign_guest_book(held);
                ctx.sign_guest_book(other);
                ctx.release(held);
                ctx.release(other);
                *state = Gdp2State::Thinking;
                Action::FinishEating
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{
        Adversary, Engine, RoundRobinAdversary, SimConfig, StopCondition, StopReason, SystemView,
        UniformRandomAdversary,
    };
    use gdp_topology::builders::{classic_ring, figure1_gallery, figure3_theta};
    use gdp_topology::{PhilosopherId, Topology};

    fn engine_on(t: Topology, seed: u64) -> Engine<Gdp2> {
        Engine::new(t, Gdp2::new(), SimConfig::default().with_seed(seed))
    }

    #[test]
    fn makes_progress_on_classic_ring() {
        for seed in 0..10 {
            let mut e = engine_on(classic_ring(5).unwrap(), seed);
            let outcome = e.run(
                &mut UniformRandomAdversary::new(seed),
                StopCondition::FirstMeal { max_steps: 100_000 },
            );
            assert!(outcome.made_progress(), "seed {seed}");
        }
    }

    #[test]
    fn everyone_eats_on_the_figure1_gallery() {
        // The lockout-freedom claim of Theorem 4, exercised on the paper's
        // own generalized systems under a fair random scheduler.
        for (name, topology) in figure1_gallery() {
            let mut e = engine_on(topology, 17);
            let outcome = e.run(
                &mut UniformRandomAdversary::new(23),
                StopCondition::EveryoneEats {
                    times: 2,
                    max_steps: 3_000_000,
                },
            );
            assert!(
                outcome.reason.target_reached(),
                "{name}: every philosopher should eat at least twice; meals = {:?}",
                outcome.meals_per_philosopher
            );
        }
    }

    #[test]
    fn everyone_eats_on_theta_graph_under_round_robin() {
        let mut e = engine_on(figure3_theta(), 5);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::EveryoneEats {
                times: 3,
                max_steps: 3_000_000,
            },
        );
        assert!(
            outcome.reason.target_reached(),
            "meals = {:?}",
            outcome.meals_per_philosopher
        );
    }

    #[test]
    fn meal_counts_are_balanced_under_random_scheduling() {
        // Courtesy keeps neighbours within a bounded meal-count difference;
        // globally the spread stays small on a symmetric ring.
        let mut e = engine_on(classic_ring(6).unwrap(), 29);
        e.run(
            &mut UniformRandomAdversary::new(31),
            StopCondition::MaxSteps(300_000),
        );
        let meals: Vec<u64> = e
            .topology()
            .philosopher_ids()
            .map(|p| e.meals_of(p))
            .collect();
        let min = *meals.iter().min().unwrap();
        let max = *meals.iter().max().unwrap();
        assert!(min > 0, "everybody eats: {meals:?}");
        assert!(
            max <= 3 * min + 5,
            "meal counts should stay roughly balanced: {meals:?}"
        );
    }

    #[test]
    fn eating_implies_holding_both_forks() {
        let mut e = engine_on(figure3_theta(), 2);
        let mut adv = UniformRandomAdversary::new(6);
        for _ in 0..30_000 {
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
    fn request_lists_and_guest_books_are_maintained() {
        let mut e = engine_on(classic_ring(4).unwrap(), 3);
        let outcome = e.run(
            &mut UniformRandomAdversary::new(7),
            StopCondition::TotalMeals {
                target: 20,
                max_steps: 2_000_000,
            },
        );
        assert!(outcome.reason.target_reached());
        // After 20 meals on a 4-ring, every fork has been used by someone.
        for f in e.topology().fork_ids() {
            assert!(
                !e.fork(f).guest_book_is_empty(),
                "fork {f} was never signed after 20 meals"
            );
        }
    }

    /// Steps the least recently scheduled philosopher, passing over P0
    /// whenever its step would take a fork.
    struct StarveP0 {
        last: Vec<Option<u64>>,
    }

    impl Adversary for StarveP0 {
        fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
            let p0 = view.philosopher(PhilosopherId::new(0));
            let p0_takes = p0.label == "GDP2.4"
                && p0
                    .committed
                    .is_some_and(|f| view.fork(f).is_free() && view.fork(f).courtesy_holds(p0.id));
            let chosen = (0..view.num_philosophers())
                .filter(|&i| i != 0 || !p0_takes)
                .min_by_key(|&i| (self.last[i], i))
                .expect("P1 is always eligible");
            self.last[chosen] = Some(view.step());
            PhilosopherId::new(chosen as u32)
        }
    }

    #[test]
    fn a_bounded_fair_schedule_starves_p0_on_the_three_ring() {
        // `Cond` is tested at line 4 only. The first collision redraws the
        // `nr` of f2, the fork P0 does not use, above P0's two forks, which
        // keep `nr` 0: from then on P1 and P2 take f2 first and one of P0's
        // forks second, where P0's request does not bind them.
        for seed in [0, 1] {
            let mut e = engine_on(classic_ring(3).unwrap(), seed);
            let outcome = e.run(
                &mut StarveP0 {
                    last: vec![None; 3],
                },
                StopCondition::PhilosopherEats {
                    philosopher: PhilosopherId::new(0),
                    max_steps: 20_000,
                },
            );
            assert_eq!(outcome.reason, StopReason::StepLimitReached, "seed {seed}");
            assert_eq!(
                outcome.meals_per_philosopher,
                [0, 1_333, 1_332],
                "seed {seed}"
            );
            assert_eq!(outcome.fairness_bound, Some(17), "seed {seed}");
            let nrs: Vec<u32> = e.topology().fork_ids().map(|f| e.fork(f).nr()).collect();
            assert!(
                nrs[0] == 0 && nrs[1] == 0 && nrs[2] > 0,
                "seed {seed}: {nrs:?}"
            );
        }
    }

    #[test]
    fn observation_labels_and_commitments() {
        let program = Gdp2::new();
        let ends = ForkEnds::new(ForkId::new(1), ForkId::new(4));
        assert_eq!(
            program.observation(&Gdp2State::Thinking, ends).label,
            "GDP2.1"
        );
        assert_eq!(
            program.observation(&Gdp2State::Register, ends).label,
            "GDP2.2"
        );
        assert_eq!(
            program.observation(&Gdp2State::Choose, ends).label,
            "GDP2.3"
        );
        let obs = program.observation(&Gdp2State::TakeFirst { first: Side::Left }, ends);
        assert_eq!(obs.committed, Some(ForkId::new(1)));
        let obs = program.observation(&Gdp2State::Relabel { first: Side::Left }, ends);
        assert_eq!(obs.committed, Some(ForkId::new(4)));
        assert!(program
            .observation(&Gdp2State::Eating { first: Side::Right }, ends)
            .phase
            .is_eating());
        assert_eq!(program.name(), "GDP2");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = Engine::new(
                figure3_theta(),
                Gdp2::new(),
                SimConfig::default().with_seed(77),
            );
            let mut adv = UniformRandomAdversary::new(1);
            (0..5_000)
                .map(|_| e.step_with(&mut adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
