//! Shared helpers for the `report` binary
//! (`cargo run -p gdp-bench --bin report --release`), which regenerates
//! every summary table of the paper in one go.

use gdp_adversary::{AdversaryKind, TriangleWaveAdversary};
use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::{estimate_liveness, LivenessEstimate};
use gdp_analysis::TrialConfig;
use gdp_sim::{Engine, SimConfig, StopCondition};
use gdp_topology::Topology;

/// Number of Monte-Carlo trials used by the printed summaries.
pub const TRIALS: u64 = 20;

/// Step budget per trial used by the printed summaries.
pub const MAX_STEPS: u64 = 60_000;

/// Prints a section header.
pub fn print_header(title: &str) {
    println!();
    println!("{}", "=".repeat(100));
    println!("{title}");
    println!("{}", "=".repeat(100));
}

/// Estimates progress and lockout-freedom of `algorithm` on `topology`
/// under `adversary` — one [`estimate_liveness`] batch of [`TRIALS`] ×
/// [`MAX_STEPS`] with cell seed 0, the estimator `gdp sweep` cells use —
/// and prints one paper-style summary row:
/// `topology | algorithm | adversary | progress | lockout-free | first-meal p50 | meals/kstep`.
pub fn run_and_print(
    name: &str,
    topology: &Topology,
    algorithm: AlgorithmKind,
    adversary: AdversaryKind,
) -> LivenessEstimate {
    let estimate = estimate_liveness(
        topology,
        &algorithm.program(),
        |trial| adversary.build(0, trial),
        &TrialConfig::new(TRIALS, MAX_STEPS),
    );
    println!(
        "{:<26} {:<14} {:<22} progress={:>5.2} lockout_free={:>5.2} first_meal_p50={:>8.0} meals/kstep={:>7.2}",
        name,
        algorithm.name(),
        adversary.name(),
        estimate.progress.progress_fraction,
        estimate.lockout.lockout_free_fraction,
        estimate.progress.first_meal_p50,
        estimate.progress.meals_mean * 1000.0 / MAX_STEPS as f64,
    );
    estimate
}

/// Outcome of a batch of runs under the Section 3 wave scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaveSummary {
    /// Fraction of trials with no meal at all within the window.
    pub blocked_fraction: f64,
    /// Mean meals per trial.
    pub mean_meals: f64,
    /// Mean realized bounded-fairness bound over the blocked trials.
    pub mean_fairness_bound: f64,
}

/// Runs `trials` windows of `steps` scheduler steps of `algorithm` on the
/// Figure 1 triangle under the Section 3 wave scheduler.
#[must_use]
pub fn wave_summary(algorithm: AlgorithmKind, trials: u64, steps: u64) -> WaveSummary {
    let topology = gdp_topology::builders::figure1_triangle();
    let mut blocked = 0u64;
    let mut meals = 0u64;
    let mut bounds = Vec::new();
    for seed in 0..trials {
        let mut engine = Engine::new(
            topology.clone(),
            algorithm.program(),
            SimConfig::default().with_seed(seed),
        );
        let mut adversary =
            TriangleWaveAdversary::new(&topology).expect("triangle topology is valid");
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
        if !outcome.made_progress() {
            blocked += 1;
            if let Some(bound) = outcome.fairness_bound {
                bounds.push(bound as f64);
            }
        }
        meals += outcome.total_meals;
    }
    WaveSummary {
        blocked_fraction: blocked as f64 / trials as f64,
        mean_meals: meals as f64 / trials as f64,
        mean_fairness_bound: gdp_analysis::stats::mean(&bounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_summary_blocks_lr1_more_than_gdp1() {
        let lr1 = wave_summary(AlgorithmKind::Lr1, 6, 20_000);
        let gdp1 = wave_summary(AlgorithmKind::Gdp1, 6, 20_000);
        assert!(lr1.blocked_fraction >= gdp1.blocked_fraction);
        assert_eq!(gdp1.blocked_fraction, 0.0);
    }
}
