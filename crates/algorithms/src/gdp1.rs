//! GDP1 — the paper's progress-guaranteeing algorithm (Table 3, Theorem 3).
//!
//! ```text
//! 1. think;
//! 2. if left.nr > right.nr then fork := left else fork := right;
//! 3. if isFree(fork) then take(fork) else goto 3;
//! 4. if fork.nr = other(fork).nr then fork.nr := random[1, m];
//! 5. if isFree(other(fork)) then take(other(fork))
//!    else { release(fork); goto 2 }
//! 6. eat;
//! 7. release(fork); release(other(fork));
//! 8. goto 1;
//! ```
//!
//! The idea (Section 4): randomization is used not to choose *which* fork to
//! grab first but to build a **partial order on the forks**.  Each fork
//! carries a priority number `nr ∈ [0, m]` with `m ≥ k` (all start at 0,
//! preserving symmetry).  A hungry philosopher always goes for its
//! higher-numbered fork first (line 2); when it discovers that its two forks
//! carry the *same* number it re-draws the number of the fork it holds
//! (line 4).  Once every cycle of the conflict graph has adjacent forks with
//! pairwise-distinct numbers, the algorithm behaves like hierarchical
//! resource allocation on a partial order and somebody must eat — that is
//! the proof skeleton of Theorem 3, which the Theorem 3 rows of
//! `gdp_bench::CLAIMS` check exactly (ring 4, theta 5, the Figure 1
//! triangle).
//!
//! Note on line 4 of Table 3: the paper prints `fork := random[1, m]`; from
//! the surrounding text ("the philosopher may change the nr value of a fork
//! when it finds that it is equal to the nr value of the other fork") the
//! assignment is to `fork.nr`, which is what we implement.
//!
//! GDP1 guarantees progress but **not** lockout-freedom (Section 5 opens
//! with a starvation scenario; the Section 5 claim row checks the 3-ring
//! lockout target violated with worst-case probability 0); use
//! [`Gdp2`](crate::Gdp2) when per-philosopher liveness is required.

use gdp_sim::{Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId, Side};

/// Control state of one GDP1 philosopher (program counter of Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gdp1State {
    /// Line 1: thinking.
    Thinking,
    /// Line 2: about to compare the two `nr` values and pick the first fork.
    Choose,
    /// Line 3: committed to the fork on `first`; busy-waiting to take it.
    TakeFirst {
        /// The side of the fork chosen at line 2.
        first: Side,
    },
    /// Line 4: holding the first fork; about to re-draw its `nr` if it
    /// collides with the other fork's.
    Relabel {
        /// The side of the fork taken at line 3.
        first: Side,
    },
    /// Line 5: holding the first fork; about to test-and-set the second.
    TakeSecond {
        /// The side of the fork taken at line 3.
        first: Side,
    },
    /// Line 6: eating.
    Eating {
        /// The side of the fork taken first.
        first: Side,
    },
}

/// The GDP1 program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gdp1 {
    _private: (),
}

impl Gdp1 {
    /// Creates the GDP1 program.
    ///
    /// The priority-number range `m` is not a property of the program but of
    /// the system: [`StepCtx::random_nr`] draws from `[1, k]`, `k` the
    /// number of forks (the smallest value satisfying the paper's
    /// requirement `m ≥ k`).
    #[must_use]
    pub fn new() -> Self {
        Gdp1::default()
    }
}

/// The pending fork target of a GDP1 philosopher (which fork its next
/// test-and-set will aim at), if any.
#[must_use]
pub fn committed_fork(state: &Gdp1State, ends: ForkEnds) -> Option<ForkId> {
    match *state {
        Gdp1State::TakeFirst { first } => Some(ends.on(first)),
        Gdp1State::Relabel { first } | Gdp1State::TakeSecond { first } => {
            Some(ends.other(ends.on(first)))
        }
        _ => None,
    }
}

impl Program for Gdp1 {
    type State = Gdp1State;

    fn name(&self) -> &'static str {
        "GDP1"
    }

    fn initial_state(&self) -> Gdp1State {
        Gdp1State::Thinking
    }

    fn private_states(&self) -> Vec<Gdp1State> {
        let sided = Side::both().into_iter().flat_map(|first| {
            [
                Gdp1State::TakeFirst { first },
                Gdp1State::Relabel { first },
                Gdp1State::TakeSecond { first },
                Gdp1State::Eating { first },
            ]
        });
        [Gdp1State::Thinking, Gdp1State::Choose]
            .into_iter()
            .chain(sided)
            .collect()
    }

    fn observation(&self, state: &Gdp1State, ends: ForkEnds) -> ProgramObservation {
        let committed = committed_fork(state, ends);
        let (phase, label) = match *state {
            Gdp1State::Thinking => (Phase::Thinking, "GDP1.1"),
            Gdp1State::Choose => (Phase::Hungry, "GDP1.2"),
            Gdp1State::TakeFirst { .. } => (Phase::Hungry, "GDP1.3"),
            Gdp1State::Relabel { .. } => (Phase::Hungry, "GDP1.4"),
            Gdp1State::TakeSecond { .. } => (Phase::Hungry, "GDP1.5"),
            Gdp1State::Eating { .. } => (Phase::Eating, "GDP1.6"),
        };
        ProgramObservation {
            phase,
            committed,
            label,
        }
    }

    fn step(&self, state: &mut Gdp1State, ctx: &mut StepCtx<'_>) -> Action {
        match *state {
            Gdp1State::Thinking => {
                *state = Gdp1State::Choose;
                Action::BecomeHungry
            }
            Gdp1State::Choose => {
                // Line 2: pick the adjacent fork with the larger nr (ties go
                // to the right fork, exactly as the `if ... > ... then left
                // else right` of the paper).
                let first = if ctx.nr(ctx.left()) > ctx.nr(ctx.right()) {
                    Side::Left
                } else {
                    Side::Right
                };
                *state = Gdp1State::TakeFirst { first };
                Action::Commit {
                    fork: ctx.fork_on(first),
                    random: false,
                }
            }
            Gdp1State::TakeFirst { first } => {
                let fork = ctx.fork_on(first);
                let success = ctx.take_if_free(fork);
                if success {
                    *state = Gdp1State::Relabel { first };
                }
                Action::TakeFirst { fork, success }
            }
            Gdp1State::Relabel { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                *state = Gdp1State::TakeSecond { first };
                if ctx.nr(held) == ctx.nr(other) {
                    let nr = ctx.random_nr();
                    ctx.set_nr(held, nr);
                    Action::RelabelFork { fork: held, nr }
                } else {
                    // Numbers already differ: line 4 is a no-op.
                    Action::Custom("nr-already-distinct")
                }
            }
            Gdp1State::TakeSecond { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                let success = ctx.take_if_free(other);
                if success {
                    *state = Gdp1State::Eating { first };
                } else {
                    ctx.release(held);
                    *state = Gdp1State::Choose;
                }
                Action::TakeSecond {
                    fork: other,
                    success,
                }
            }
            Gdp1State::Eating { first } => {
                let held = ctx.fork_on(first);
                let other = ctx.other(held);
                ctx.release(held);
                ctx.release(other);
                *state = Gdp1State::Thinking;
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
        classic_ring, complete_conflict, figure1_gallery, figure3_theta, ring_with_chord,
        ChordTarget,
    };
    use gdp_topology::{PhilosopherId, Topology};

    fn engine_on(t: Topology, seed: u64) -> Engine<Gdp1> {
        Engine::new(t, Gdp1::new(), SimConfig::default().with_seed(seed))
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
    fn makes_progress_on_every_figure1_system() {
        // Theorem 3 exercised on the paper's own gallery of generalized
        // systems, under both a random and a round-robin fair scheduler.
        for (name, topology) in figure1_gallery() {
            for seed in 0..5 {
                let mut e = engine_on(topology.clone(), seed);
                let outcome = e.run(
                    &mut UniformRandomAdversary::new(seed + 50),
                    StopCondition::FirstMeal { max_steps: 200_000 },
                );
                assert!(outcome.made_progress(), "{name} seed {seed} (random)");

                let mut e = engine_on(topology.clone(), seed);
                let outcome = e.run(
                    &mut RoundRobinAdversary::new(),
                    StopCondition::FirstMeal { max_steps: 200_000 },
                );
                assert!(outcome.made_progress(), "{name} seed {seed} (round-robin)");
            }
        }
    }

    #[test]
    fn makes_progress_on_theorem_1_and_2_witness_topologies() {
        let witnesses = vec![
            ring_with_chord(6, ChordTarget::ExternalFork).unwrap(),
            ring_with_chord(6, ChordTarget::RingNode { offset: 3 }).unwrap(),
            figure3_theta(),
            complete_conflict(5).unwrap(),
        ];
        for (i, topology) in witnesses.into_iter().enumerate() {
            for seed in 0..5 {
                let mut e = engine_on(topology.clone(), seed);
                let outcome = e.run(
                    &mut UniformRandomAdversary::new(seed * 13 + i as u64),
                    StopCondition::FirstMeal { max_steps: 200_000 },
                );
                assert!(outcome.made_progress(), "witness {i} seed {seed}");
            }
        }
    }

    #[test]
    fn sustained_throughput_on_triangle() {
        let mut e = engine_on(gdp_topology::builders::figure1_triangle(), 7);
        let outcome = e.run(
            &mut UniformRandomAdversary::new(3),
            StopCondition::TotalMeals {
                target: 200,
                max_steps: 2_000_000,
            },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.total_meals >= 200);
    }

    #[test]
    fn nr_values_stay_in_range() {
        let mut e = engine_on(figure3_theta(), 3);
        let k = e.topology().num_forks() as u32;
        let mut adv = UniformRandomAdversary::new(1);
        for _ in 0..50_000 {
            e.step_with(&mut adv);
        }
        for f in e.topology().fork_ids() {
            let nr = e.fork(f).nr();
            assert!(nr <= k, "fork {f} has nr {nr} outside [0, {k}]");
        }
    }

    #[test]
    fn relabel_draws_from_one_to_the_fork_count() {
        // P0 alone on a 6-ring: hungry, commit (nr tie: right), take; the
        // relabel of the tie then asks for a uniform draw from [1, 6].
        let mut e = engine_on(classic_ring(6).unwrap(), 0);
        let p0 = PhilosopherId::new(0);
        for _ in 0..3 {
            e.step_philosopher(p0);
        }
        let state = e.state();
        let mut post = state.clone();
        let mut relabels = Vec::new();
        state.for_each_step_outcome(e.topology(), e.program(), p0, &mut post, |p, _, action| {
            relabels.push((p, action));
        });
        assert_eq!(relabels.len(), 6);
        for (value, (p, action)) in (1..=6).zip(relabels) {
            assert_eq!(p, 1.0 / 6.0);
            assert!(matches!(action, Action::RelabelFork { nr, .. } if nr == value));
        }
    }

    #[test]
    fn relabel_only_happens_on_collisions() {
        let mut e = Engine::new(
            classic_ring(6).unwrap(),
            Gdp1::new(),
            SimConfig::default().with_seed(5),
        );
        let mut adv = UniformRandomAdversary::new(2);
        // Every RelabelFork action must assign a value in [1, k].
        let m = e.topology().num_forks() as u32;
        for _ in 0..30_000 {
            if let Action::RelabelFork { nr, .. } = e.step_with(&mut adv).action {
                assert!((1..=m).contains(&nr));
            }
        }
    }

    #[test]
    fn choose_prefers_higher_nr_fork() {
        // Hand-drive one philosopher on a 2-philosopher ring where we preset
        // distinct nr values by running long enough for relabelling, then
        // verify the Choose step picks the larger one.
        let program = Gdp1::new();
        let ends = ForkEnds::new(ForkId::new(0), ForkId::new(1));
        // Observation/committed bookkeeping.
        assert_eq!(
            committed_fork(&Gdp1State::TakeFirst { first: Side::Left }, ends),
            Some(ForkId::new(0))
        );
        assert_eq!(
            committed_fork(&Gdp1State::Relabel { first: Side::Left }, ends),
            Some(ForkId::new(1))
        );
        assert_eq!(
            committed_fork(&Gdp1State::TakeSecond { first: Side::Right }, ends),
            Some(ForkId::new(0))
        );
        assert_eq!(committed_fork(&Gdp1State::Thinking, ends), None);
        assert_eq!(
            program.observation(&Gdp1State::Choose, ends).label,
            "GDP1.2"
        );
        assert_eq!(
            program
                .observation(&Gdp1State::Eating { first: Side::Left }, ends)
                .phase,
            Phase::Eating
        );
    }

    #[test]
    fn eating_implies_holding_both_forks_and_mutual_exclusion() {
        let mut e = engine_on(complete_conflict(4).unwrap(), 11);
        let mut adv = UniformRandomAdversary::new(5);
        for _ in 0..30_000 {
            e.step_with(&mut adv);
            e.with_view(|view| {
                for p in view.philosophers() {
                    if p.phase == Phase::Eating {
                        assert_eq!(p.holding.len(), 2);
                    }
                }
                // Mutual exclusion: two eating philosophers never share a fork.
                let eaters: Vec<_> = view
                    .philosophers()
                    .iter()
                    .filter(|p| p.phase == Phase::Eating)
                    .collect();
                for a in &eaters {
                    for b in &eaters {
                        if a.id != b.id {
                            assert!(
                                !view.topology().are_neighbours(a.id, b.id),
                                "neighbouring philosophers {} and {} are both eating",
                                a.id,
                                b.id
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn initial_nr_is_zero_everywhere() {
        // Symmetry: before any step, every fork carries nr = 0.
        let e = engine_on(classic_ring(4).unwrap(), 0);
        for f in e.topology().fork_ids() {
            assert_eq!(e.fork(f).nr(), 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = Engine::new(
                figure3_theta(),
                Gdp1::new(),
                SimConfig::default().with_seed(21),
            );
            let mut adv = UniformRandomAdversary::new(4);
            (0..5_000)
                .map(|_| e.step_with(&mut adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
