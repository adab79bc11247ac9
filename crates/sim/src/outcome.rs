//! Stop conditions and run outcomes.

use gdp_topology::PhilosopherId;

/// When should [`Engine::run`](crate::Engine::run) stop?
///
/// Every condition carries a step budget: simulations are finite
/// approximations of the paper's infinite computations, and the analysis
/// crate interprets "budget exhausted without the target event" as evidence
/// of (or an upper bound on the probability of) a no-progress computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopCondition {
    /// Run exactly this many steps (or until the schedule is exhausted).
    MaxSteps(u64),
    /// Stop as soon as *some* philosopher starts eating (the progress event
    /// of Theorem 3), or after `max_steps`.
    FirstMeal {
        /// Step budget.
        max_steps: u64,
    },
    /// Stop once the total number of completed meals reaches `target`, or
    /// after `max_steps`.
    TotalMeals {
        /// Required number of completed meals.
        target: u64,
        /// Step budget.
        max_steps: u64,
    },
    /// Stop once the given philosopher has completed a meal (the
    /// lockout-freedom event of Theorem 4), or after `max_steps`.
    PhilosopherEats {
        /// The philosopher that must eat.
        philosopher: PhilosopherId,
        /// Step budget.
        max_steps: u64,
    },
    /// Stop once *every* philosopher has completed at least `times` meals,
    /// or after `max_steps`.
    EveryoneEats {
        /// Required number of meals per philosopher.
        times: u64,
        /// Step budget.
        max_steps: u64,
    },
}

impl StopCondition {
    /// The step budget of this condition.
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        match *self {
            StopCondition::MaxSteps(s) => s,
            StopCondition::FirstMeal { max_steps }
            | StopCondition::TotalMeals { max_steps, .. }
            | StopCondition::PhilosopherEats { max_steps, .. }
            | StopCondition::EveryoneEats { max_steps, .. } => max_steps,
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The target event of the [`StopCondition`] occurred.
    TargetReached,
    /// The step budget was exhausted before the target event.
    StepLimitReached,
}

impl StopReason {
    /// Returns `true` if the target event occurred.
    #[must_use]
    pub fn target_reached(self) -> bool {
        matches!(self, StopReason::TargetReached)
    }
}

/// Summary of one finished run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Number of atomic steps executed.
    pub steps: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Total completed meals across all philosophers.
    pub total_meals: u64,
    /// Completed meals per philosopher, indexed by philosopher index.
    pub meals_per_philosopher: Vec<u64>,
    /// Step at which the first meal *started*, if any (the progress event).
    pub first_meal_step: Option<u64>,
    /// How many times each philosopher was scheduled.
    pub scheduled_per_philosopher: Vec<u64>,
    /// The bounded-fairness bound observed in this run: the smallest `B`
    /// such that every philosopher was scheduled at least once in every
    /// window of `B` consecutive steps (the gap before a philosopher's first
    /// scheduling counts from step 0; the truncated final window does not
    /// count).  `None` if some philosopher was never scheduled: such a
    /// finite prefix cannot be certified fair.
    pub fairness_bound: Option<u64>,
}

impl RunOutcome {
    /// Returns `true` if at least one philosopher started eating.
    #[must_use]
    pub fn made_progress(&self) -> bool {
        self.first_meal_step.is_some()
    }

    /// Returns `true` if every philosopher completed at least one meal.
    #[must_use]
    pub fn everyone_ate(&self) -> bool {
        self.meals_per_philosopher.iter().all(|&m| m > 0)
    }

    /// The set of philosophers that never completed a meal (starved within
    /// the step budget).
    #[must_use]
    pub fn starved(&self) -> Vec<PhilosopherId> {
        self.meals_per_philosopher
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == 0)
            .map(|(i, _)| PhilosopherId::new(i as u32))
            .collect()
    }

    /// Meals completed per 1000 steps — a throughput figure used by the
    /// benchmark harness.
    #[must_use]
    pub fn throughput_per_kstep(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_meals as f64 * 1000.0 / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            steps: 2000,
            reason: StopReason::TargetReached,
            total_meals: 10,
            meals_per_philosopher: vec![4, 6, 0],
            first_meal_step: Some(17),
            scheduled_per_philosopher: vec![700, 700, 600],
            fairness_bound: Some(5),
        }
    }

    #[test]
    fn stop_condition_budget() {
        assert_eq!(StopCondition::MaxSteps(10).max_steps(), 10);
        assert_eq!(StopCondition::FirstMeal { max_steps: 7 }.max_steps(), 7);
        assert_eq!(
            StopCondition::TotalMeals {
                target: 3,
                max_steps: 9
            }
            .max_steps(),
            9
        );
        assert_eq!(
            StopCondition::PhilosopherEats {
                philosopher: PhilosopherId::new(0),
                max_steps: 11
            }
            .max_steps(),
            11
        );
        assert_eq!(
            StopCondition::EveryoneEats {
                times: 1,
                max_steps: 13
            }
            .max_steps(),
            13
        );
    }

    #[test]
    fn outcome_predicates() {
        let o = outcome();
        assert!(o.made_progress());
        assert!(!o.everyone_ate());
        assert_eq!(o.starved(), vec![PhilosopherId::new(2)]);
        assert!((o.throughput_per_kstep() - 5.0).abs() < 1e-9);
        assert!(o.reason.target_reached());
    }

    #[test]
    fn zero_step_throughput_is_zero() {
        let mut o = outcome();
        o.steps = 0;
        assert_eq!(o.throughput_per_kstep(), 0.0);
    }

    #[test]
    fn step_limit_reason() {
        assert!(!StopReason::StepLimitReached.target_reached());
    }
}
