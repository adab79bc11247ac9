//! Cross-algorithm invariant and symmetry tests.
//!
//! These tests exercise *every* algorithm through the uniform
//! [`AnyProgram`](crate::AnyProgram) dispatcher on a mix of topologies and
//! check the safety invariants that all of them must preserve, plus the
//! statistical symmetry that only the paper's four algorithms promise.

use crate::{AlgorithmKind, AnyProgram};
use gdp_sim::{
    Adversary, Engine, Phase, Program, SimConfig, StopCondition, UniformRandomAdversary,
};
use gdp_topology::builders::{
    classic_ring, figure1_triangle, figure3_theta, generalized_theta, random_connected,
};
use gdp_topology::Topology;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn check_safety_invariants(engine: &Engine<AnyProgram>) {
    // The persistent incremental view buffer must agree with views rebuilt
    // from scratch at every observation point, for every algorithm.
    assert_eq!(
        engine.views(),
        engine.rebuilt_views().as_slice(),
        "incremental view buffer diverged from the from-scratch rebuild"
    );
    // Every reached private state is in the program's code table.
    let listed = engine.program().private_states();
    for state in engine.state().states() {
        assert!(listed.contains(state), "{state:?} is not a listed state");
    }
    engine.with_view(|view| {
        let topology = view.topology();
        for fork in topology.fork_ids() {
            if let Some(holder) = view.holder_of(fork) {
                assert!(
                    topology.forks_of(holder).contains(fork),
                    "fork {fork} held by non-adjacent philosopher {holder}"
                );
            }
        }
        for p in view.philosophers() {
            assert!(p.holding.len() <= 2, "{} holds more than two forks", p.id);
            if p.phase == Phase::Eating {
                assert_eq!(p.holding.len(), 2, "{} eats without both forks", p.id);
            }
            if p.phase == Phase::Thinking {
                assert!(p.holding.is_empty(), "{} thinks while holding forks", p.id);
            }
        }
        // Mutual exclusion: no fork is "held" by two philosophers — implied by
        // the ForkCell representation, but re-checked via the holding lists.
        let mut holders: Vec<Option<gdp_topology::PhilosopherId>> =
            vec![None; topology.num_forks()];
        for p in view.philosophers() {
            for f in &p.holding {
                assert!(
                    holders[f.index()].is_none(),
                    "fork {f} held by two philosophers"
                );
                holders[f.index()] = Some(p.id);
            }
        }
    });
}

fn run_with_invariants(kind: AlgorithmKind, topology: Topology, seed: u64, steps: u64) {
    let mut engine = Engine::new(
        topology,
        kind.program(),
        SimConfig::default().with_seed(seed),
    );
    let mut adversary = UniformRandomAdversary::new(seed ^ 0xDEAD_BEEF);
    for step in 0..steps {
        engine.step_with(&mut adversary);
        // Checking after every step is expensive; sample every 16 steps.
        if step % 16 == 0 {
            check_safety_invariants(&engine);
        }
    }
    check_safety_invariants(&engine);
}

#[test]
fn safety_invariants_hold_for_all_algorithms_on_the_triangle() {
    for kind in AlgorithmKind::all() {
        run_with_invariants(kind, figure1_triangle(), 1, 20_000);
    }
}

#[test]
fn safety_invariants_hold_for_all_algorithms_on_the_theta_graph() {
    for kind in AlgorithmKind::all() {
        run_with_invariants(kind, figure3_theta(), 2, 20_000);
    }
}

/// The step enumeration that the exact checker builds on, checked against
/// the engine: every sampled step lands on one of the outcomes
/// `EngineState::for_each_step_outcome` lists from the engine's state
/// (same forks, private states, step count and action), and the listed
/// probabilities sum to 1.
#[test]
fn sampled_steps_land_on_an_enumerated_outcome() {
    // Ring-5, and `theta:3` at size 5 (paths of 2, 2 and 1 philosophers).
    for topology in [
        classic_ring(5).unwrap(),
        generalized_theta(&[2, 2, 1]).unwrap(),
    ] {
        for kind in AlgorithmKind::all() {
            let mut engine = Engine::new(
                topology.clone(),
                kind.program(),
                SimConfig::default().with_seed(11),
            );
            let mut adversary = UniformRandomAdversary::new(17);
            let mut post = engine.state().clone();
            for step in 0..2_000 {
                let before = engine.state().clone();
                let chosen = engine.with_view(|view| adversary.select(view));
                let (mut outcomes, mut total) = (Vec::new(), 0.0);
                before.for_each_step_outcome(
                    engine.topology(),
                    engine.program(),
                    chosen,
                    &mut post,
                    |p, post, action| {
                        total += p;
                        outcomes.push((post.clone(), action));
                    },
                );
                let record = engine.step_philosopher(chosen);
                let after = engine.state();
                let context = format!("{kind} on {}, step {step}", topology.summary());
                assert!((total - 1.0).abs() < 1e-12, "{context}: P sums to {total}");
                assert!(
                    outcomes
                        .iter()
                        .any(|(post, action)| post == after && *action == record.action),
                    "{context}: the sampled step of {chosen} is not an enumerated outcome"
                );
            }
        }
    }
}

/// The run statistics, recounted from the step records alone: each
/// philosopher's schedulings, completed meals and hunger stamp, the first
/// meal's step and the fairness bound (the longest window some philosopher
/// waited, counted from step 0 before its first scheduling) equal the
/// engine's views and its `RunOutcome`.
#[test]
fn step_records_recount_the_views_and_the_run_outcome() {
    for topology in [
        classic_ring(5).unwrap(),
        generalized_theta(&[2, 2, 1]).unwrap(),
    ] {
        for kind in AlgorithmKind::all() {
            let program = kind.program();
            let n = topology.num_philosophers();
            let mut phase: Vec<Phase> = topology
                .philosopher_ids()
                .map(|p| {
                    let ends = topology.forks_of(p);
                    program.observation(&program.initial_state(), ends).phase
                })
                .collect();
            let mut engine =
                Engine::new(topology.clone(), program, SimConfig::default().with_seed(5));
            let mut adversary = UniformRandomAdversary::new(23);
            let (mut scheduled_at, mut meals) = (vec![Vec::new(); n], vec![0u64; n]);
            let (mut hungry_since, mut first_meal) = (vec![None; n], None);
            for _ in 0..3_000 {
                let record = engine.step_with(&mut adversary);
                let i = record.philosopher.index();
                scheduled_at[i].push(record.step);
                let before = std::mem::replace(&mut phase[i], record.phase_after);
                if before != Phase::Hungry && record.phase_after == Phase::Hungry {
                    hungry_since[i] = Some(record.step);
                }
                if before != Phase::Eating && record.phase_after == Phase::Eating {
                    first_meal.get_or_insert(record.step);
                }
                if before == Phase::Eating && record.phase_after != Phase::Eating {
                    meals[i] += 1;
                    hungry_since[i] = None;
                }
            }
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(0));
            let context = format!("{kind} on {}", topology.summary());
            let scheduled: Vec<u64> = scheduled_at.iter().map(|at| at.len() as u64).collect();
            let fairness_bound = scheduled_at.iter().all(|at| !at.is_empty()).then(|| {
                scheduled_at
                    .iter()
                    .flat_map(|at| {
                        let gaps = at.windows(2).map(|w| w[1] - w[0]);
                        std::iter::once(at[0] + 1).chain(gaps)
                    })
                    .max()
                    .unwrap()
                    .max(1)
            });
            for view in engine.views() {
                let i = view.id.index();
                assert_eq!(view.scheduled, scheduled[i], "{context}: {}", view.id);
                assert_eq!(view.meals, meals[i], "{context}: {}", view.id);
                assert_eq!(view.hungry_since, hungry_since[i], "{context}: {}", view.id);
            }
            assert_eq!(outcome.steps, 3_000, "{context}");
            assert_eq!(outcome.scheduled_per_philosopher, scheduled, "{context}");
            assert_eq!(outcome.meals_per_philosopher, meals, "{context}");
            assert_eq!(outcome.total_meals, meals.iter().sum::<u64>(), "{context}");
            assert_eq!(outcome.first_meal_step, first_meal, "{context}");
            assert_eq!(outcome.fairness_bound, fairness_bound, "{context}");
        }
    }
}

#[test]
fn initial_states_are_identical_across_philosophers() {
    // Symmetry requirement: all philosophers start in the same state and all
    // forks start in the same state.
    for kind in AlgorithmKind::paper_algorithms() {
        let engine = Engine::new(
            classic_ring(6).unwrap(),
            kind.program(),
            SimConfig::default(),
        );
        engine.with_view(|view| {
            let first = &view.philosophers()[0];
            for p in view.philosophers() {
                assert_eq!(p.phase, first.phase);
                assert_eq!(p.label, first.label);
                assert_eq!(p.holding, first.holding);
            }
            let fork0 = view.fork(gdp_topology::ForkId::new(0)).clone();
            for f in view.topology().fork_ids() {
                assert_eq!(view.fork(f), &fork0, "fork {f} differs in initial state");
            }
        });
    }
}

#[test]
fn statistical_symmetry_on_the_classic_ring() {
    // On a vertex-transitive topology under an identity-blind scheduler, a
    // symmetric algorithm gives every philosopher roughly the same share of
    // meals.  The asymmetric baseline is excluded: it *is* allowed to be
    // biased.
    for kind in AlgorithmKind::paper_algorithms() {
        let mut totals = vec![0u64; 6];
        for seed in 0..8u64 {
            let mut engine = Engine::new(
                classic_ring(6).unwrap(),
                kind.program(),
                SimConfig::default().with_seed(seed),
            );
            engine.run(
                &mut UniformRandomAdversary::new(seed + 1000),
                StopCondition::MaxSteps(60_000),
            );
            for p in engine.topology().philosopher_ids() {
                totals[p.index()] += engine.meals_of(p);
            }
        }
        let total: u64 = totals.iter().sum();
        assert!(total > 0, "{kind}: nobody ate at all");
        let expected = total as f64 / totals.len() as f64;
        for (i, &meals) in totals.iter().enumerate() {
            let ratio = meals as f64 / expected;
            assert!(
                (0.5..=1.5).contains(&ratio),
                "{kind}: philosopher {i} got {meals} meals, expected ≈ {expected:.1} \
                 (all: {totals:?})"
            );
        }
    }
}

#[test]
fn gdp_algorithms_progress_on_random_connected_multigraphs() {
    // Theorem 3/4 sanity sweep over random topologies.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for trial in 0..10u64 {
        let topology = random_connected(6, 4, &mut rng).unwrap();
        for kind in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
            let mut engine = Engine::new(
                topology.clone(),
                kind.program(),
                SimConfig::default().with_seed(trial),
            );
            let outcome = engine.run(
                &mut UniformRandomAdversary::new(trial * 7 + 3),
                StopCondition::FirstMeal { max_steps: 300_000 },
            );
            assert!(
                outcome.made_progress(),
                "{kind} failed to progress on random topology {trial}: {}",
                topology.summary()
            );
        }
    }
}

// Property-style sweeps over seeded parameter grids (the offline replacement
// for the former proptest strategies; 24 cases each, like the old config).

#[test]
fn prop_no_safety_violation_on_random_topologies() {
    use rand::Rng;
    let mut param_rng = ChaCha8Rng::seed_from_u64(0x5AFE_5AFE);
    for case in 0..24u64 {
        let seed = param_rng.gen_range(0u64..10_000);
        let forks = param_rng.gen_range(3usize..8);
        let extra = param_rng.gen_range(0usize..6);
        let kind = AlgorithmKind::all()[case as usize % AlgorithmKind::all().len()];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topology = random_connected(forks, extra, &mut rng).unwrap();
        run_with_invariants(kind, topology, seed, 4_000);
    }
}

#[test]
fn prop_gdp1_reaches_a_meal_on_small_rings() {
    use rand::Rng;
    let mut param_rng = ChaCha8Rng::seed_from_u64(0x0123_4567);
    for _ in 0..24 {
        let seed = param_rng.gen_range(0u64..200);
        let n = param_rng.gen_range(3usize..8);
        let mut engine = Engine::new(
            classic_ring(n).unwrap(),
            AlgorithmKind::Gdp1.program(),
            SimConfig::default().with_seed(seed),
        );
        let outcome = engine.run(
            &mut UniformRandomAdversary::new(seed + 5),
            StopCondition::FirstMeal { max_steps: 100_000 },
        );
        assert!(outcome.made_progress(), "seed {seed}, ring {n}");
    }
}
