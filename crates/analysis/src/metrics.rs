//! Per-run metrics.

use crate::stats;
use gdp_sim::RunOutcome;

/// Summary statistics of a single finished run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Steps executed.
    pub steps: u64,
    /// Total meals completed.
    pub total_meals: u64,
    /// Meals completed per 1000 steps.
    pub throughput_per_kstep: f64,
    /// Whether any philosopher started eating.
    pub made_progress: bool,
    /// Step of the first meal, if any.
    pub first_meal_step: Option<u64>,
    /// Whether every philosopher completed at least one meal.
    pub everyone_ate: bool,
    /// Number of philosophers that never completed a meal.
    pub starved_count: usize,
    /// Jain fairness index of the per-philosopher meal counts.
    pub meal_fairness: f64,
    /// Minimum / mean / maximum meals per philosopher.
    pub meals_min: u64,
    /// Mean meals per philosopher.
    pub meals_mean: f64,
    /// Maximum meals per philosopher.
    pub meals_max: u64,
    /// Realized bounded-fairness bound of the schedule, if certifiable.
    pub fairness_bound: Option<u64>,
}

impl RunMetrics {
    /// Computes the metrics of `outcome`.
    #[must_use]
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        let meals: Vec<f64> = outcome
            .meals_per_philosopher
            .iter()
            .map(|&m| m as f64)
            .collect();
        RunMetrics {
            steps: outcome.steps,
            total_meals: outcome.total_meals,
            throughput_per_kstep: outcome.throughput_per_kstep(),
            made_progress: outcome.made_progress(),
            first_meal_step: outcome.first_meal_step,
            everyone_ate: outcome.everyone_ate(),
            starved_count: outcome.starved().len(),
            meal_fairness: stats::jain_index(&meals),
            meals_min: outcome
                .meals_per_philosopher
                .iter()
                .copied()
                .min()
                .unwrap_or(0),
            meals_mean: stats::mean(&meals),
            meals_max: outcome
                .meals_per_philosopher
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
            fairness_bound: outcome.fairness_bound,
        }
    }

    /// One-line human-readable rendering, used by the benchmark report
    /// binaries.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "steps={} meals={} thru/kstep={:.2} progress={} everyone={} starved={} jain={:.3}",
            self.steps,
            self.total_meals,
            self.throughput_per_kstep,
            self.made_progress,
            self.everyone_ate,
            self.starved_count,
            self.meal_fairness
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{RunOutcome, StopReason};

    fn outcome() -> RunOutcome {
        RunOutcome {
            steps: 10_000,
            reason: StopReason::StepLimitReached,
            total_meals: 30,
            meals_per_philosopher: vec![10, 10, 10, 0],
            first_meal_step: Some(120),
            scheduled_per_philosopher: vec![2500, 2500, 2500, 2500],
            fairness_bound: Some(4),
        }
    }

    #[test]
    fn metrics_reflect_the_outcome() {
        let m = RunMetrics::from_outcome(&outcome());
        assert_eq!(m.steps, 10_000);
        assert_eq!(m.total_meals, 30);
        assert!((m.throughput_per_kstep - 3.0).abs() < 1e-12);
        assert!(m.made_progress);
        assert!(!m.everyone_ate);
        assert_eq!(m.starved_count, 1);
        assert_eq!(m.meals_min, 0);
        assert_eq!(m.meals_max, 10);
        assert!((m.meals_mean - 7.5).abs() < 1e-12);
        assert!(m.meal_fairness < 1.0 && m.meal_fairness > 0.7);
        assert_eq!(m.fairness_bound, Some(4));
        assert!(m.summary_line().contains("meals=30"));
    }

    #[test]
    fn metrics_of_an_idle_run() {
        let mut o = outcome();
        o.total_meals = 0;
        o.meals_per_philosopher = vec![0; 4];
        o.first_meal_step = None;
        let m = RunMetrics::from_outcome(&o);
        assert!(!m.made_progress);
        assert_eq!(m.starved_count, 4);
        assert_eq!(m.meal_fairness, 1.0);
        assert_eq!(m.throughput_per_kstep, 0.0);
    }
}
