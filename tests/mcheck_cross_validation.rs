//! Cross-validation of the exact checker against the Monte-Carlo
//! estimators: on the small rings where both are feasible, the exact
//! worst-case values must bracket (and explain) what sampling observes.
//!
//! * GDP1's worst-case progress probability is **exactly 1.0** on rings
//!   n = 3..5 — which is why every sweep reports a zero deadlock rate
//!   for it (Theorem 3 on witness topologies).
//! * LR1 is **not** lockout-free: the exact checker finds *sure*
//!   starvation (worst-case probability exactly 0 that a chosen
//!   philosopher eats) on the same rings where fair samplers observe
//!   lockout-freedom — the adversary gap `tests/scenarios_sweep.rs`
//!   samples with the blocking adversary, proved instead of estimated.
//! * The exact expected first-meal time under the uniform scheduler
//!   matches the Monte-Carlo `first_meal` mean.
//! * Symmetry reduction is sound: reduced and unreduced models reach
//!   identical verdicts with fewer states.

use gdp::prelude::montecarlo::estimate_liveness;
use gdp::prelude::*;
use gdp::scenarios::{
    run_check, CheckSpec, CheckTargetSpec, CheckVerdict, ExactCellVerdict, TopologyFamily,
};
use gdp_mcheck::{build_mdp, solve, BuildOptions, CheckTarget, SolveOptions};
use gdp_topology::builders::classic_ring;

/// Exact worst-case progress is 1.0 on rings n = 3..5, and the Monte-Carlo
/// estimate under a concrete fair scheduler brackets it from above.
#[test]
fn gdp1_exact_progress_is_one_and_brackets_monte_carlo_on_rings() {
    for n in [3usize, 4, 5] {
        let spec = CheckSpec::new(TopologyFamily::Ring, n, AlgorithmKind::Gdp1);
        let exact = ExactCellVerdict::from_report(&run_check(&spec).unwrap());
        assert_eq!(exact.verdict, "certified", "ring n={n}");
        assert_eq!(exact.progress_probability, 1.0, "ring n={n}");

        // Any concrete fair adversary can only do at least as well as the
        // worst case: MC progress fraction >= exact worst case (and here
        // both are exactly 1).
        let mc = estimate_liveness(
            &classic_ring(n).unwrap(),
            &AlgorithmKind::Gdp1.program(),
            UniformRandomAdversary::new,
            &TrialConfig::new(8, 40_000).with_base_seed(5),
        );
        assert!(mc.progress.progress_fraction >= exact.progress_probability - 1e-12);
        assert_eq!(mc.progress.progress_fraction, 1.0, "ring n={n}");
        assert!(!mc.violations.any());
    }
}

/// The starvation `tests/scenarios_sweep.rs` hunts with the blocking
/// adversary exists as a *sure* worst case on every ring n = 3..5: the
/// exact worst-case probability that a chosen LR1 philosopher ever eats is
/// 0 — even though fair samplers see lockout-freedom on the same rings.
#[test]
fn lr1_exact_lockout_violation_brackets_the_sampled_observations() {
    for n in [3usize, 4, 5] {
        let spec = CheckSpec {
            target: CheckTargetSpec::Philosopher(0),
            ..CheckSpec::new(TopologyFamily::Ring, n, AlgorithmKind::Lr1)
        };
        let report = run_check(&spec).unwrap();
        assert_eq!(report.verdict(), CheckVerdict::Violated, "ring n={n}");
        let certificate = &report.certificates[0];
        assert_eq!(certificate.probability, 0.0, "sure starvation, ring n={n}");
        assert!(certificate.certified_probability);
        assert!(
            report.counterexample.is_some(),
            "a replayable starvation schedule exists (ring n={n})"
        );

        // Bracket: the worst case lower-bounds what ANY adversary —
        // including the heuristic blocking one — achieves in sampling.
        let mc = estimate_liveness(
            &classic_ring(n).unwrap(),
            &AlgorithmKind::Lr1.program(),
            |t| {
                BlockingAdversary::with_schedule(
                    BlockingPolicy::global(),
                    StubbornnessSchedule::Constant(1_800 + t),
                )
            },
            &TrialConfig::new(6, 20_000).with_base_seed(9),
        );
        assert!(mc.lockout.lockout_free_fraction >= certificate.probability);
        // And the gap the exact checker closes: a *fair sampler* sees no
        // starvation at all on these rings.
        let fair = estimate_liveness(
            &classic_ring(n).unwrap(),
            &AlgorithmKind::Lr1.program(),
            UniformRandomAdversary::new,
            &TrialConfig::new(6, 40_000).with_base_seed(11),
        );
        assert_eq!(fair.lockout.lockout_free_fraction, 1.0, "ring n={n}");
    }
}

/// The replayable counterexample really starves the victim: drive a fresh
/// engine with the extracted (seed, schedule) pair through the stock
/// `ReplayAdversary`.
#[test]
fn extracted_starvation_schedule_replays_against_a_live_engine() {
    let spec = CheckSpec {
        target: CheckTargetSpec::Philosopher(0),
        ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Lr1)
    };
    let report = run_check(&spec).unwrap();
    let schedule = report.counterexample.expect("starvation schedule");
    let mut engine = Engine::new(
        classic_ring(3).unwrap(),
        AlgorithmKind::Lr1.program(),
        SimConfig::default().with_seed(schedule.seed),
    );
    let steps = schedule.steps.len() as u64;
    let mut adversary = ReplayAdversary::new(schedule.steps);
    let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
    assert_eq!(
        outcome.meals_per_philosopher[0], 0,
        "the victim must not eat under the extracted schedule"
    );
    // The schedule is fair in the observable sense: everyone was scheduled.
    assert!(outcome.scheduled_per_philosopher.iter().all(|&s| s > 0));
}

/// The exact expected first-meal time under the uniform random scheduler
/// agrees with the Monte-Carlo estimate of the same quantity.
#[test]
fn exact_expected_first_meal_matches_monte_carlo_mean() {
    let spec = CheckSpec {
        expected_steps: true,
        ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1)
    };
    let report = run_check(&spec).unwrap();
    let exact = report.certificates[0]
        .expected_steps
        .expect("expected steps requested");
    assert!(exact > 1.0, "{exact}");

    let mc = estimate_liveness(
        &classic_ring(3).unwrap(),
        &AlgorithmKind::Gdp1.program(),
        UniformRandomAdversary::new,
        &TrialConfig::new(400, 20_000).with_base_seed(3),
    );
    let sampled = mc.progress.first_meal_mean;
    let relative_gap = (sampled - exact).abs() / exact;
    assert!(
        relative_gap < 0.15,
        "exact {exact:.3} vs sampled {sampled:.3} (gap {relative_gap:.3})"
    );
}

/// Symmetry soundness: the quotiented model reaches the same verdicts as
/// the full one, with strictly fewer states.
#[test]
fn symmetry_reduction_preserves_verdicts_with_fewer_states() {
    let cases = [
        (3usize, AlgorithmKind::Gdp1, CheckTarget::Progress),
        (4, AlgorithmKind::Lr1, CheckTarget::Progress),
        (
            4,
            AlgorithmKind::Lr1,
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
        ),
        (3, AlgorithmKind::Naive, CheckTarget::Progress),
    ];
    for (n, algorithm, target) in cases {
        let ring = classic_ring(n).unwrap();
        let program = algorithm.program();
        let full = build_mdp(
            &ring,
            &program,
            target,
            &BuildOptions::default().with_symmetry(false),
        );
        let reduced = build_mdp(
            &ring,
            &program,
            target,
            &BuildOptions::default().with_symmetry(true),
        );
        assert!(!full.truncated && !reduced.truncated);
        let full_solution = solve(&full, &SolveOptions::default());
        let reduced_solution = solve(&reduced, &SolveOptions::default());
        assert_eq!(
            full_solution.probability, reduced_solution.probability,
            "{algorithm} ring n={n} {target:?}"
        );
        assert_eq!(full_solution.certified, reduced_solution.certified);
        assert_eq!(full.safety_violations, reduced.safety_violations);
        assert_eq!(
            full.deadlock_states() > 0,
            reduced.deadlock_states() > 0,
            "{algorithm} ring n={n}"
        );
        match target {
            // Philosopher targets only keep the stabiliser (trivial on a
            // ring), so no reduction is expected there.
            CheckTarget::PhilosopherEats(_) => assert!(reduced.num_states <= full.num_states),
            CheckTarget::Progress => assert!(
                reduced.num_states < full.num_states,
                "{algorithm} ring n={n}: {} vs {}",
                reduced.num_states,
                full.num_states
            ),
        }
    }
}
