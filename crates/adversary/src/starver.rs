//! The Section 5 starvation scheduler.
//!
//! Section 5 of the paper opens by observing that GDP1 is **not**
//! lockout-free: if a philosopher `P1` shares a fork `f` (with a low
//! priority number) with `P2`, and `P1`'s other fork `g` carries a higher
//! number, then `P1` always goes for `g` first and a scheduler can arrange
//! to let `P1` attempt `f` only at moments when `P2` is holding it, so `P1`
//! never eats even though the system as a whole keeps making progress.
//!
//! [`TargetStarver`] implements that strategy against an arbitrary victim:
//! it defers the victim exactly when scheduling it could complete a meal
//! (second-fork test-and-set with the fork currently free) and otherwise
//! keeps both the victim and the rest of the system running.  Like every
//! adversary in this crate it runs under the increasing-stubbornness
//! [`FairDriver`], so it is fair; starvation of the victim is therefore a
//! *positive-probability* phenomenon for GDP1 — and, per Theorem 4, should
//! essentially never happen for GDP2.  Experiment E9 measures both.

use crate::fairness::{FairDriver, SchedulingPolicy, StubbornnessSchedule};
use gdp_sim::{Phase, SystemView};
use gdp_topology::PhilosopherId;

/// The raw starvation policy (unfair on its own; use [`TargetStarver`]).
#[derive(Clone, Debug)]
pub struct StarverPolicy {
    victim: PhilosopherId,
    cursor: usize,
}

impl StarverPolicy {
    /// Creates a policy that tries to starve `victim`.
    #[must_use]
    pub fn new(victim: PhilosopherId) -> Self {
        StarverPolicy { victim, cursor: 0 }
    }

    /// The philosopher this policy tries to starve.
    #[must_use]
    pub fn victim(&self) -> PhilosopherId {
        self.victim
    }

    /// Scheduling the victim now would risk letting it eat: it is hungry,
    /// holds one fork, and its pending fork is currently free.
    fn victim_is_dangerous(&self, view: &SystemView<'_>) -> bool {
        let v = view.philosopher(self.victim);
        if v.phase != Phase::Hungry || v.holding.len() != 1 {
            return false;
        }
        let held = v.holding[0];
        let target = v
            .committed
            .unwrap_or_else(|| view.topology().other_fork(self.victim, held));
        view.fork(target).is_free()
    }
}

impl SchedulingPolicy for StarverPolicy {
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        let dangerous = self.victim_is_dangerous(view);
        // Round-robin over everybody, skipping the victim while it is one
        // step away from eating; the skipped turns go to its neighbours so
        // the contested fork gets re-occupied as quickly as possible.
        for _ in 0..n {
            let candidate = PhilosopherId::new((self.cursor % n) as u32);
            self.cursor = (self.cursor + 1) % n;
            if candidate == self.victim && dangerous {
                continue;
            }
            return candidate;
        }
        // Only the victim is left (single-philosopher system): schedule it.
        self.victim
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// The fair starvation adversary: [`StarverPolicy`] under a [`FairDriver`].
pub type TargetStarver = FairDriver<StarverPolicy>;

impl TargetStarver {
    /// Creates a starver for `victim` with the default stubbornness schedule.
    #[must_use]
    pub fn new(victim: PhilosopherId) -> Self {
        Self::with_schedule(victim, StubbornnessSchedule::Growing)
    }

    /// Creates a starver for `victim` with an explicit stubbornness schedule.
    #[must_use]
    pub fn with_schedule(victim: PhilosopherId, schedule: StubbornnessSchedule) -> Self {
        FairDriver::guarding(StarverPolicy::new(victim), schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Gdp2};
    use gdp_sim::{Adversary, Engine, Program, SimConfig, StopCondition};
    use gdp_topology::builders::figure1_triangle;

    const STEPS: u64 = 60_000;
    const TRIALS: u64 = 12;

    fn victim_meal_counts<P: Program + Clone>(program: P) -> Vec<u64> {
        let victim = PhilosopherId::new(0);
        (0..TRIALS)
            .map(|seed| {
                let mut engine = Engine::new(
                    figure1_triangle(),
                    program.clone(),
                    SimConfig::default().with_seed(seed),
                );
                let mut adversary = TargetStarver::new(victim);
                let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(STEPS));
                // The rest of the system must keep making progress — the whole
                // point is starving one philosopher, not deadlocking the table.
                assert!(
                    outcome.total_meals > 0,
                    "system-wide progress expected under the starver"
                );
                outcome.meals_per_philosopher[victim.index()]
            })
            .collect()
    }

    #[test]
    fn gdp1_victim_starves_much_more_often_than_gdp2_victim() {
        let gdp1_meals = victim_meal_counts(Gdp1::new());
        let gdp2_meals = victim_meal_counts(Gdp2::new());
        let gdp1_starved = gdp1_meals.iter().filter(|&&m| m == 0).count();
        let gdp2_starved = gdp2_meals.iter().filter(|&&m| m == 0).count();
        // GDP1 (no lockout-freedom guarantee): the victim should be starved in
        // a substantial fraction of trials.
        assert!(
            gdp1_starved as f64 >= TRIALS as f64 * 0.25,
            "expected frequent starvation under GDP1, got {gdp1_starved}/{TRIALS} ({gdp1_meals:?})"
        );
        // GDP2 (Theorem 4): the victim eats in essentially every trial.
        assert!(
            gdp2_starved == 0,
            "GDP2 victim starved in {gdp2_starved}/{TRIALS} trials ({gdp2_meals:?})"
        );
        // And when it eats, GDP2 gives the victim clearly more meals overall.
        let gdp1_total: u64 = gdp1_meals.iter().sum();
        let gdp2_total: u64 = gdp2_meals.iter().sum();
        assert!(
            gdp2_total > gdp1_total,
            "GDP2 victim ({gdp2_total}) should out-eat GDP1 victim ({gdp1_total})"
        );
    }

    #[test]
    fn starver_is_fair_and_reports_its_victim() {
        let victim = PhilosopherId::new(2);
        let mut engine = Engine::new(
            figure1_triangle(),
            Gdp1::new(),
            SimConfig::default().with_seed(5),
        );
        let mut adversary = TargetStarver::new(victim);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(20_000));
        assert!(outcome.fairness_bound.is_some());
        assert_eq!(adversary.policy().victim(), victim);
    }

    #[test]
    fn reset_supports_reuse_across_trials() {
        let victim = PhilosopherId::new(1);
        let mut adversary = TargetStarver::new(victim);
        let mut engine = Engine::new(
            figure1_triangle(),
            Gdp1::new(),
            SimConfig::default().with_seed(9),
        );
        engine.run(&mut adversary, StopCondition::MaxSteps(5_000));
        adversary.reset();
        engine.reset_with_seed(10);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(5_000));
        assert_eq!(outcome.steps, 5_000);
    }
}
