//! Monte-Carlo estimation of the paper's liveness properties.
//!
//! Theorems 3 and 4 are "with probability 1" statements about infinite
//! computations.  Their finite-horizon signatures are measured here by
//! repeated independent trials:
//!
//! * **progress within a step budget** — the fraction of trials in which
//!   some philosopher starts eating before the budget runs out, plus the
//!   distribution of the first-meal step;
//! * **lockout-freedom within a step budget** — the fraction of trials in
//!   which *every* philosopher completes at least one meal, plus the
//!   per-philosopher starvation counts.
//!
//! Both are read off **one** batch by [`estimate_liveness`], which is
//! generic in the program and the adversary, so the same harness measures
//! LR1/LR2 under the paper's defeating schedulers and GDP1/GDP2 under every
//! scheduler (experiments E2–E6, E9).
//!
//! ## Parallelism and determinism
//!
//! Trials are embarrassingly parallel: trial `i` runs on seed
//! `base_seed + i` with a fresh engine and a fresh adversary, so batches are
//! fanned out over a scoped thread pool ([`TrialConfig::threads`]; the
//! default uses every available core).  Each trial reduces to a small
//! fixed-size per-trial summary — no traces are retained — and the final
//! aggregation folds those summaries **in trial order** on one thread.
//! Because the per-trial work is seed-deterministic and the fold order is
//! fixed, the resulting estimates are bitwise-identical to a serial run
//! regardless of the thread count (test-enforced below).

use crate::stats;
use gdp_sim::{jain_index, Adversary, Engine, Program, SimConfig, StopCondition};
use gdp_topology::Topology;

/// Configuration of a batch of independent trials.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// Base seed; trial `i` uses seed `base_seed.wrapping_add(i)` (wrapping,
    /// so seeds near `u64::MAX` — e.g. hashed per-cell sweep seeds — are
    /// legal and behave identically in debug and release builds).
    pub base_seed: u64,
    /// Worker threads for the trial batch: `0` means "use every available
    /// core", `1` forces the serial path.  Results are identical for every
    /// value (see the module docs).
    pub threads: usize,
    /// Simulation configuration template (its seed field is overridden
    /// per trial).
    pub sim: SimConfig,
}

impl TrialConfig {
    /// A convenient default: the given number of trials and step budget,
    /// base seed 0, all cores.
    #[must_use]
    pub fn new(trials: u64, max_steps: u64) -> Self {
        TrialConfig {
            trials,
            max_steps,
            base_seed: 0,
            threads: 0,
            sim: SimConfig::default(),
        }
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the worker thread count (`0` = all cores, `1` = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The number of worker threads a batch of `trials` will actually use.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        requested.max(1).min(self.trials.max(1) as usize)
    }
}

/// Runs `run_one` for every trial index and returns the per-trial summaries
/// **indexed by trial**, fanning the batch out over scoped worker threads.
///
/// Workers own disjoint contiguous chunks of the result vector, so no
/// synchronization is needed beyond the scope join, and the output layout —
/// hence any subsequent in-order fold — is independent of the thread count.
fn collect_trials<T, F>(trials: u64, threads: usize, run_one: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let n = trials as usize;
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    if threads <= 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(run_one(i as u64));
        }
    } else {
        let chunk_len = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk_index, chunk) in results.chunks_mut(chunk_len).enumerate() {
                let run_one = &run_one;
                scope.spawn(move || {
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(run_one((chunk_index * chunk_len + offset) as u64));
                    }
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every trial slot is filled by exactly one worker"))
        .collect()
}

/// Result of estimating the progress property.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressEstimate {
    /// Trials run.
    pub trials: u64,
    /// Trials in which some philosopher started eating within the budget.
    pub progressed: u64,
    /// `progressed / trials`.
    pub progress_fraction: f64,
    /// Mean first-meal step over the progressing trials.
    pub first_meal_mean: f64,
    /// Median first-meal step over the progressing trials.
    pub first_meal_p50: f64,
    /// 90th-percentile first-meal step over the progressing trials.
    pub first_meal_p90: f64,
    /// 95th-percentile first-meal step over the progressing trials.
    pub first_meal_p95: f64,
    /// 99th-percentile first-meal step over the progressing trials.
    pub first_meal_p99: f64,
    /// Mean total meals per trial over the whole step budget (all trials).
    pub meals_mean: f64,
}

/// Result of estimating the lockout-freedom property.
#[derive(Clone, Debug, PartialEq)]
pub struct LockoutEstimate {
    /// Trials run.
    pub trials: u64,
    /// Trials in which every philosopher completed at least one meal.
    pub all_ate: u64,
    /// `all_ate / trials`.
    pub lockout_free_fraction: f64,
    /// For each philosopher, the number of trials in which it starved
    /// (completed no meal within the budget).
    pub starvation_per_philosopher: Vec<u64>,
    /// Mean over trials of the minimum meal count across philosophers.
    pub min_meals_mean: f64,
    /// Mean over trials of the Jain index of the meal distribution.
    pub fairness_mean: f64,
}

/// Both liveness estimates, derived from **one** batch of trials.
#[derive(Clone, Debug, PartialEq)]
pub struct LivenessEstimate {
    /// The progress (Theorem 3) estimate.
    pub progress: ProgressEstimate,
    /// The lockout-freedom (Theorem 4) estimate.
    pub lockout: LockoutEstimate,
    /// Hard violations observed across the batch.
    pub violations: ViolationSummary,
}

/// Hard violations observed over a trial batch — the signals behind the
/// nonzero exit codes of `gdp run` and `gdp sweep`.
///
/// Unlike the *rates* (a no-progress window under an adversarial scheduler
/// is expected behaviour for LR1), these are unambiguous defects: a final
/// state that is a **true deadlock** (no scheduling choice and no random
/// outcome can ever change it — [`Engine::is_stuck`]), or a final state
/// violating the safety invariants.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationSummary {
    /// Trials whose final state was a true deadlock.
    pub stuck_trials: u64,
    /// Trials whose final state violated mutual exclusion or
    /// eating-implies-both-forks.
    pub unsafe_trials: u64,
}

impl ViolationSummary {
    /// Whether any violation was observed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.stuck_trials > 0 || self.unsafe_trials > 0
    }
}

/// The fixed-size summary one trial reduces to.
struct LivenessTrial {
    first_meal: Option<u64>,
    total_meals: u64,
    all_ate: bool,
    starved: Vec<u32>,
    min_meals: u64,
    jain: f64,
    stuck: bool,
    safe: bool,
}

/// Estimates progress **and** lockout-freedom of `program` on `topology`
/// under the adversaries produced by `make_adversary` (one fresh adversary
/// per trial) from a single batch: each trial runs once for the full step
/// budget, and the progress signature is read off the recorded first-meal
/// step.  Trial `i` evolves identically up to its first meal whether or not
/// the engine stops there, so the first-meal fields equal those of trials
/// stopped at their first meal (test-enforced below).
///
/// Trials run in parallel per [`TrialConfig::threads`]; the estimates are
/// bitwise-identical for every thread count.
pub fn estimate_liveness<P, A, F>(
    topology: &Topology,
    program: &P,
    make_adversary: F,
    config: &TrialConfig,
) -> LivenessEstimate
where
    P: Program + Clone + Sync,
    A: Adversary,
    F: Fn(u64) -> A + Sync,
{
    let n = topology.num_philosophers();
    let outcomes = collect_trials(config.trials, config.effective_threads(), |trial| {
        let seed = config.base_seed.wrapping_add(trial);
        let sim = config.sim.clone().with_seed(seed);
        let mut engine = Engine::new(topology.clone(), program.clone(), sim);
        let mut adversary = make_adversary(trial);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(config.max_steps));
        let safe = engine.state_is_safe();
        let stuck = engine.is_stuck();
        LivenessTrial {
            first_meal: outcome.first_meal_step,
            total_meals: outcome.total_meals,
            all_ate: outcome.everyone_ate(),
            starved: outcome.starved().iter().map(|p| p.raw()).collect(),
            min_meals: outcome
                .meals_per_philosopher
                .iter()
                .copied()
                .min()
                .unwrap_or(0),
            jain: jain_index(&outcome.meals_per_philosopher),
            stuck,
            safe,
        }
    });

    let mut progressed = 0u64;
    let mut first_meals = Vec::new();
    let mut meals = Vec::with_capacity(outcomes.len());
    let mut all_ate = 0u64;
    let mut starvation = vec![0u64; n];
    let mut min_meals = Vec::with_capacity(outcomes.len());
    let mut fairness = Vec::with_capacity(outcomes.len());
    let mut violations = ViolationSummary::default();
    for trial in &outcomes {
        if trial.stuck {
            violations.stuck_trials += 1;
        }
        if !trial.safe {
            violations.unsafe_trials += 1;
        }
        meals.push(trial.total_meals as f64);
        if let Some(step) = trial.first_meal {
            progressed += 1;
            first_meals.push(step as f64);
        }
        if trial.all_ate {
            all_ate += 1;
        }
        for &starved in &trial.starved {
            starvation[starved as usize] += 1;
        }
        min_meals.push(trial.min_meals as f64);
        fairness.push(trial.jain);
    }
    let fraction = |count: u64| {
        if config.trials == 0 {
            0.0
        } else {
            count as f64 / config.trials as f64
        }
    };
    LivenessEstimate {
        progress: ProgressEstimate {
            trials: config.trials,
            progressed,
            progress_fraction: fraction(progressed),
            first_meal_mean: stats::mean(&first_meals),
            first_meal_p50: stats::percentile(&first_meals, 50.0),
            first_meal_p90: stats::percentile(&first_meals, 90.0),
            first_meal_p95: stats::percentile(&first_meals, 95.0),
            first_meal_p99: stats::percentile(&first_meals, 99.0),
            meals_mean: stats::mean(&meals),
        },
        lockout: LockoutEstimate {
            trials: config.trials,
            all_ate,
            lockout_free_fraction: fraction(all_ate),
            starvation_per_philosopher: starvation,
            min_meals_mean: stats::mean(&min_meals),
            fairness_mean: stats::mean(&fairness),
        },
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Gdp2, Lr1};
    use gdp_sim::{RoundRobinAdversary, UniformRandomAdversary};
    use gdp_topology::builders::{classic_ring, figure1_triangle};

    #[test]
    fn gdp1_progress_probability_is_one_on_the_triangle() {
        let config = TrialConfig::new(20, 50_000).with_base_seed(1);
        let estimate = estimate_liveness(
            &figure1_triangle(),
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        )
        .progress;
        assert_eq!(estimate.progressed, estimate.trials);
        assert_eq!(estimate.progress_fraction, 1.0);
        assert!(estimate.first_meal_p90 >= estimate.first_meal_p50);
        assert!(estimate.first_meal_p95 >= estimate.first_meal_p90);
        assert!(estimate.first_meal_p99 >= estimate.first_meal_p95);
        assert!(estimate.first_meal_mean > 0.0);
    }

    #[test]
    fn gdp2_is_lockout_free_on_the_classic_ring() {
        let config = TrialConfig::new(10, 100_000).with_base_seed(3);
        let estimate = estimate_liveness(
            &classic_ring(5).unwrap(),
            &Gdp2::new(),
            |t| UniformRandomAdversary::new(100 + t),
            &config,
        )
        .lockout;
        assert_eq!(estimate.all_ate, estimate.trials);
        assert_eq!(estimate.lockout_free_fraction, 1.0);
        assert!(estimate.starvation_per_philosopher.iter().all(|&s| s == 0));
        assert!(estimate.min_meals_mean >= 1.0);
        assert!(estimate.fairness_mean > 0.8);
    }

    #[test]
    fn lr1_progresses_on_the_ring_under_round_robin() {
        let config = TrialConfig::new(10, 50_000);
        let estimate = estimate_liveness(
            &classic_ring(6).unwrap(),
            &Lr1::new(),
            |_| RoundRobinAdversary::new(),
            &config,
        );
        assert_eq!(estimate.progress.progress_fraction, 1.0);
    }

    #[test]
    fn zero_trials_are_handled() {
        let config = TrialConfig {
            trials: 0,
            max_steps: 10,
            base_seed: 0,
            threads: 0,
            sim: SimConfig::default(),
        };
        let estimate = estimate_liveness(
            &classic_ring(3).unwrap(),
            &Gdp1::new(),
            |_| RoundRobinAdversary::new(),
            &config,
        );
        assert_eq!(estimate.progress.progress_fraction, 0.0);
        assert_eq!(estimate.progress.first_meal_mean, 0.0);
        assert_eq!(estimate.lockout.lockout_free_fraction, 0.0);
        assert_eq!(estimate.lockout.starvation_per_philosopher, vec![0; 3]);
        assert_eq!(estimate.violations, ViolationSummary::default());
    }

    #[test]
    fn estimates_are_deterministic_given_seeds() {
        let config = TrialConfig::new(5, 20_000).with_base_seed(9);
        let a = estimate_liveness(
            &figure1_triangle(),
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        );
        let b = estimate_liveness(
            &figure1_triangle(),
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        );
        assert_eq!(a, b);
    }

    /// The tentpole determinism guarantee: parallel batches produce summaries
    /// bitwise-identical to a reference serial run, for LR1 and GDP1 on the
    /// 5-ring, across several thread counts (including more threads than
    /// trials would need).
    #[test]
    fn parallel_trials_are_bitwise_identical_to_serial() {
        let topology = classic_ring(5).unwrap();
        let serial = TrialConfig::new(12, 30_000)
            .with_base_seed(7)
            .with_threads(1);
        for threads in [2usize, 3, 8, 32] {
            let parallel = serial.clone().with_threads(threads);

            let lr1_serial =
                estimate_liveness(&topology, &Lr1::new(), UniformRandomAdversary::new, &serial);
            let lr1_parallel = estimate_liveness(
                &topology,
                &Lr1::new(),
                UniformRandomAdversary::new,
                &parallel,
            );
            assert_eq!(lr1_serial, lr1_parallel, "LR1, {threads} threads");

            let gdp1_serial = estimate_liveness(
                &topology,
                &Gdp1::new(),
                UniformRandomAdversary::new,
                &serial,
            );
            let gdp1_parallel = estimate_liveness(
                &topology,
                &Gdp1::new(),
                UniformRandomAdversary::new,
                &parallel,
            );
            assert_eq!(gdp1_serial, gdp1_parallel, "GDP1, {threads} threads");
        }
    }

    /// The progress half of full-window trials must agree bit for bit with
    /// trials stopped at their first meal — the separate progress estimator
    /// `estimate_liveness` replaced, kept here as the oracle — on every
    /// first-meal field.
    #[test]
    fn combined_liveness_estimate_matches_the_separate_estimators() {
        let topology = classic_ring(5).unwrap();
        let config = TrialConfig::new(8, 20_000).with_base_seed(4);
        let combined = estimate_liveness(
            &topology,
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        )
        .progress;
        let first_meals: Vec<f64> = (0..config.trials)
            .filter_map(|trial| {
                let sim = SimConfig::default().with_seed(config.base_seed + trial);
                let mut engine = Engine::new(topology.clone(), Gdp1::new(), sim);
                let stop = StopCondition::FirstMeal {
                    max_steps: config.max_steps,
                };
                let outcome = engine.run(&mut UniformRandomAdversary::new(trial), stop);
                outcome.first_meal_step.map(|step| step as f64)
            })
            .collect();
        assert_eq!(combined.progressed, first_meals.len() as u64);
        assert_eq!(combined.first_meal_mean, stats::mean(&first_meals));
        for (q, value) in [
            (50.0, combined.first_meal_p50),
            (90.0, combined.first_meal_p90),
            (95.0, combined.first_meal_p95),
            (99.0, combined.first_meal_p99),
        ] {
            assert_eq!(value, stats::percentile(&first_meals, q), "p{q}");
        }
    }

    #[test]
    fn violations_flag_true_deadlocks_but_not_adversarial_no_progress() {
        use gdp_algorithms::baselines::NaiveLeftRight;
        // The naive baseline deadlocks on every ring under round-robin:
        // every trial's final state is truly stuck.
        let config = TrialConfig::new(4, 2_000).with_base_seed(0);
        let naive = estimate_liveness(
            &classic_ring(3).unwrap(),
            &NaiveLeftRight::new(),
            |_| RoundRobinAdversary::new(),
            &config,
        );
        assert_eq!(naive.violations.stuck_trials, 4);
        assert_eq!(naive.violations.unsafe_trials, 0);
        assert!(naive.violations.any());

        // GDP1 never deadlocks and never breaks safety.
        let gdp1 = estimate_liveness(
            &classic_ring(3).unwrap(),
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        );
        assert_eq!(gdp1.violations, ViolationSummary::default());
        assert!(!gdp1.violations.any());
    }

    #[test]
    fn wrapping_seeds_accept_the_maximum_base_seed() {
        let config = TrialConfig::new(3, 2_000).with_base_seed(u64::MAX);
        let estimate = estimate_liveness(
            &classic_ring(3).unwrap(),
            &Gdp1::new(),
            UniformRandomAdversary::new,
            &config,
        );
        assert_eq!(estimate.progress.trials, 3);
    }

    #[test]
    fn effective_threads_respects_request_and_trial_count() {
        assert_eq!(
            TrialConfig::new(10, 5).with_threads(1).effective_threads(),
            1
        );
        assert_eq!(
            TrialConfig::new(10, 5).with_threads(4).effective_threads(),
            4
        );
        // Never more workers than trials.
        assert_eq!(
            TrialConfig::new(2, 5).with_threads(16).effective_threads(),
            2
        );
        // Auto is at least one.
        assert!(TrialConfig::new(10, 5).effective_threads() >= 1);
    }
}
