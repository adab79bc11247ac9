//! End-to-end integration tests across the simulation, runtime and
//! guarded-choice layers.

use gdp::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The simulated GDP2 and the threaded GDP2 runtime agree on the essentials:
/// on the same topology both are lockout-free and produce roughly balanced
/// meal counts.
#[test]
fn simulation_and_runtime_agree_on_lockout_freedom() {
    let topology = builders::figure1_ring9_chord();

    // Simulated.
    let mut engine = Engine::new(
        topology.clone(),
        Gdp2::new(),
        SimConfig::default().with_seed(3),
    );
    let outcome = engine.run(
        &mut UniformRandomAdversary::new(11),
        StopCondition::EveryoneEats {
            times: 2,
            max_steps: 2_000_000,
        },
    );
    assert!(
        outcome.reason.target_reached(),
        "simulated GDP2 must feed everyone twice"
    );

    // Threaded.
    let options = RunOptions {
        load: StressLoad::MealsPerSeat(25),
        ..RunOptions::default()
    };
    let report = runtime::run(topology, &options, || {});
    assert!(report.everyone_ate());
    assert_eq!(report.total_meals(), 25 * 10);
}

/// The analysis estimators, the adversary catalog and the algorithms crate
/// compose: a full sweep over algorithms on the classic ring where all four
/// are correct (the Monte-Carlo side of the Lehmann–Rabin claim rows).
#[test]
fn all_algorithms_work_on_the_classic_ring() {
    // The deliberately broken naive baseline is excluded: deadlocking on
    // rings is its documented behaviour (gdp-mcheck proves it exactly).
    let ring = builders::classic_ring(6).unwrap();
    for kind in AlgorithmKind::deadlock_free() {
        let estimate = montecarlo::estimate_liveness(
            &ring,
            &kind.program(),
            |trial| AdversaryKind::UniformRandom.build(0, trial),
            &TrialConfig::new(4, 150_000).with_base_seed(17),
        );
        assert_eq!(
            estimate.progress.progress_fraction, 1.0,
            "{kind} must make progress on the classic ring"
        );
        assert!(
            estimate.progress.meals_mean > 0.0,
            "{kind} must complete meals on the classic ring"
        );
    }
}

/// Guarded choice on top of the runtime: a mixed-choice conflict whose
/// resolution requires the generalized topology (a fork shared by more than
/// two philosophers), checked for mutual exclusion of commitments.
#[test]
fn guarded_choice_commits_are_exclusive_and_productive() {
    let executed = AtomicU64::new(0);
    for seed in 0..5u64 {
        let mut round = ChoiceRound::new();
        let hub = round.add_process(vec![Guard::recv(ChannelId::new(0))]);
        for v in 0..4 {
            round.add_process(vec![Guard::send(ChannelId::new(0), v + seed)]);
        }
        let outcome = round.resolve();
        assert!(outcome.is_conflict_free());
        assert_eq!(outcome.synchronizations().len(), 1);
        assert!(outcome.committed_partner(hub).is_some());
        executed.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(executed.load(Ordering::Relaxed), 5);
}

/// Deterministic replay through the whole stack: the same estimate run
/// twice yields identical results (a requirement for reproducible
/// experiment tables).
#[test]
fn experiments_replay_deterministically() {
    let build = || {
        montecarlo::estimate_liveness(
            &builders::figure3_theta(),
            &Gdp1::new(),
            |trial| AdversaryKind::Blocking.build(0, trial),
            &TrialConfig::new(3, 30_000).with_base_seed(23),
        )
    };
    assert_eq!(build(), build());
}

/// Runs stepped through the facade satisfy the safety invariants the
/// algorithms promise (no fork held by two philosophers, eating implies
/// holding both forks) after every step.
#[test]
fn recorded_traces_respect_safety_invariants() {
    let topology = builders::figure3_theta();
    let mut engine = Engine::new(
        topology.clone(),
        Lr2::new(),
        SimConfig::default().with_seed(9),
    );
    let mut adversary = UniformRandomAdversary::new(21);
    for step in 0..20_000 {
        assert_eq!(engine.step_with(&mut adversary).step, step);
        engine.with_view(|view| {
            for fork in view.topology().fork_ids() {
                if let Some(holder) = view.holder_of(fork) {
                    assert!(view.topology().forks_of(holder).contains(fork));
                }
            }
            for p in view.philosophers() {
                if p.phase == Phase::Eating {
                    assert_eq!(p.holding.len(), 2);
                }
            }
        });
    }
    // A zero-step run summarises the steps taken so far.
    let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(0));
    assert_eq!(outcome.steps, 20_000);
    assert!(outcome.fairness_bound.is_some());
}
