//! Replaying an extracted worst-case schedule.
//!
//! The exact checker (`gdp-mcheck`) solves for the optimal starving
//! adversary and extracts it as a *seed-tied schedule*: a concrete list of
//! philosophers to schedule, recorded against a specific engine seed.
//! Because the engine is deterministic given the seed and the schedule,
//! driving a fresh engine (same topology, program and seed) with a
//! [`ReplayAdversary`] reproduces the counterexample run step for step —
//! the starvation the checker *proved* becomes a run you can watch, trace,
//! and render with `gdp_topology::dot` / the checker's DOT dump.
//!
//! After the recorded schedule is exhausted the adversary falls back to
//! round-robin (trivially fair), so it remains a well-defined scheduler
//! for longer runs; only the recorded prefix carries the adversarial
//! guarantee.

use gdp_sim::{Adversary, SystemView};
use gdp_topology::PhilosopherId;

/// An adversary that plays back a recorded schedule, then round-robins.
///
/// Only the fallback is fair by construction; a recorded prefix is whatever
/// the checker's worst case required (the extracted schedules rotate all
/// philosophers, but that is a property of the extraction, not of this
/// player).
#[derive(Clone, Debug)]
pub struct ReplayAdversary {
    schedule: Vec<PhilosopherId>,
    position: usize,
    fallback_next: usize,
}

impl ReplayAdversary {
    /// Creates an adversary replaying `schedule` from its beginning.
    #[must_use]
    pub fn new(schedule: Vec<PhilosopherId>) -> Self {
        ReplayAdversary {
            schedule,
            position: 0,
            fallback_next: 0,
        }
    }

    /// The recorded schedule.
    #[must_use]
    pub fn schedule(&self) -> &[PhilosopherId] {
        &self.schedule
    }

    /// How many recorded steps have been played so far (saturates at the
    /// schedule length).
    #[must_use]
    pub fn steps_played(&self) -> usize {
        self.position
    }

    /// Whether the recorded schedule has been exhausted (subsequent
    /// selections come from the round-robin fallback).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.position >= self.schedule.len()
    }
}

impl Adversary for ReplayAdversary {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        if let Some(&chosen) = self.schedule.get(self.position) {
            self.position += 1;
            return chosen;
        }
        let n = view.num_philosophers();
        let chosen = PhilosopherId::new((self.fallback_next % n) as u32);
        self.fallback_next = (self.fallback_next + 1) % n;
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::baselines::NaiveLeftRight;
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;

    fn p(i: u32) -> PhilosopherId {
        PhilosopherId::new(i)
    }

    #[test]
    fn plays_the_schedule_then_round_robins() {
        let mut engine = Engine::new(
            classic_ring(3).unwrap(),
            NaiveLeftRight::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adversary = ReplayAdversary::new(vec![p(2), p(2), p(0), p(1)]);
        let scheduled: Vec<PhilosopherId> = (0..7)
            .map(|_| engine.step_with(&mut adversary).philosopher)
            .collect();
        assert_eq!(
            scheduled,
            vec![p(2), p(2), p(0), p(1), p(0), p(1), p(2)],
            "recorded prefix, then round-robin"
        );
        assert!(adversary.exhausted());
        assert_eq!(adversary.steps_played(), 4);
    }

    #[test]
    fn replaying_the_deadlock_schedule_reproduces_the_deadlock() {
        // Drive every naive philosopher to grab its left fork: hungry ×3,
        // then take-left ×3 — the classic deadlock, replayed from a
        // schedule like the ones gdp-mcheck extracts.
        let schedule = vec![p(0), p(1), p(2), p(0), p(1), p(2)];
        let mut engine = Engine::new(
            classic_ring(3).unwrap(),
            NaiveLeftRight::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adversary = ReplayAdversary::new(schedule);
        engine.run(&mut adversary, StopCondition::MaxSteps(6));
        assert!(engine.is_stuck(), "all philosophers hold their left fork");
        assert_eq!(engine.total_meals(), 0);
    }

    #[test]
    fn metadata_is_reported() {
        let adversary = ReplayAdversary::new(vec![p(0)]);
        assert_eq!(adversary.schedule(), &[p(0)]);
    }
}
