//! Adaptive full-information schedulers: **max-wait** and
//! **greedy-conflict**.
//!
//! The paper's adversary "has complete information of the past" — the two
//! schedulers here use it in opposite directions, bracketing the space the
//! hand-crafted blocking constructions sit in:
//!
//! * [`MaxWaitAdversary`] is the *benign* extreme, the feedback-control view
//!   of scheduling (cf. Choppella et al., arXiv:1805.02010): always run the
//!   philosopher that has been hungry the longest among those whose step can
//!   actually advance (FIFO service).  It approximates the fairest scheduler
//!   a real dispatcher could implement and is the baseline the adversarial
//!   families are measured against.
//! * [`GreedyConflictAdversary`] is the *malicious* extreme short of the
//!   topology-aware [`BlockingAdversary`](crate::BlockingAdversary): it
//!   maximizes contention without planning, by steering hungry neighbours
//!   onto an eater's forks, burning blocked philosophers' scheduling quota
//!   on busy-waits, and touching fork holders and eaters only when nothing
//!   else is schedulable (so held forks stay held as long as fairness
//!   allows).
//!
//! Both are deterministic policies run under a
//! [`FairDriver`](crate::FairDriver), so they are fair by construction like
//! every other catalog scheduler.

use crate::blocking::least_scheduled;
use crate::fairness::{FairDriver, SchedulingPolicy, StubbornnessSchedule};
use gdp_sim::{Phase, PhilosopherView, SystemView};
use gdp_topology::PhilosopherId;

/// The constant stubbornness bound backing [`MaxWaitAdversary`]'s fairness
/// guard.  The policy itself services philosophers in waiting order, so the
/// guard is a formal backstop that essentially never fires.
const MAX_WAIT_GUARD_BOUND: u64 = 4_096;

/// Returns `true` if scheduling this philosopher now can advance the
/// protocol: everything except the pure busy-wait of a fork-less
/// philosopher committed to a fork somebody else holds (LR1 line 3 style
/// "wait until free" loops).
fn step_can_advance(view: &SystemView<'_>, p: &PhilosopherView) -> bool {
    if p.phase != Phase::Hungry || !p.holding.is_empty() {
        return true;
    }
    match p.committed {
        Some(fork) => view.fork(fork).is_free(),
        None => true,
    }
}

/// The raw max-wait policy: longest-hungry enabled philosopher first.  Use
/// [`MaxWaitAdversary`] for the fair, ready-to-run wrapper.
#[derive(Clone, Debug, Default)]
pub struct MaxWaitPolicy;

impl SchedulingPolicy for MaxWaitPolicy {
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        // Longest-waiting among the philosophers whose step can advance
        // (eating philosophers rank by their original hunger stamp and so
        // finish — and release — promptly); when nobody is hungry-and-
        // enabled, rotate the rest (thinking philosophers and blocked
        // busy-waiters) by scheduling count.
        view.longest_waiting_where(|p| step_can_advance(view, p))
            .unwrap_or_else(|| view.least_scheduled())
    }
}

/// The max-wait scheduler: [`MaxWaitPolicy`] under a constant-bound
/// [`FairDriver`], deterministically bounded-fair.
///
/// ```
/// use gdp_adversary::MaxWaitAdversary;
/// use gdp_algorithms::Gdp2;
/// use gdp_sim::{Engine, SimConfig, StopCondition};
/// use gdp_topology::builders::classic_ring;
///
/// let mut engine = Engine::new(classic_ring(5).unwrap(), Gdp2::new(), SimConfig::default());
/// let mut adversary = MaxWaitAdversary::new();
/// let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(20_000));
/// // FIFO service feeds everyone comfortably within the window.
/// assert!(outcome.everyone_ate());
/// ```
pub type MaxWaitAdversary = FairDriver<MaxWaitPolicy>;

impl MaxWaitAdversary {
    /// Creates the max-wait scheduler.
    #[must_use]
    pub fn new() -> Self {
        FairDriver::guarding(
            MaxWaitPolicy,
            StubbornnessSchedule::Constant(MAX_WAIT_GUARD_BOUND),
        )
    }
}

impl Default for MaxWaitAdversary {
    fn default() -> Self {
        MaxWaitAdversary::new()
    }
}

/// The raw greedy-conflict policy.  Use [`GreedyConflictAdversary`] for the
/// fair, ready-to-run wrapper.
#[derive(Clone, Debug, Default)]
pub struct GreedyConflictPolicy;

impl GreedyConflictPolicy {
    /// Returns `true` if `p` shares a fork with a philosopher that is
    /// currently eating.
    fn neighbours_an_eater(view: &SystemView<'_>, p: &PhilosopherView) -> bool {
        view.topology().forks_of(p.id).as_array().iter().any(|&f| {
            view.topology()
                .philosophers_at(f)
                .iter()
                .any(|&q| q != p.id && view.philosopher(q).phase == Phase::Eating)
        })
    }
}

impl SchedulingPolicy for GreedyConflictPolicy {
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let mut eater_neighbours = Vec::new();
        let mut blocked = Vec::new();
        let mut loose_hungry = Vec::new();
        let mut thinking = Vec::new();
        let mut holders = Vec::new();
        let mut eaters = Vec::new();
        for p in view.philosophers() {
            match p.phase {
                Phase::Eating => eaters.push(p.id),
                Phase::Thinking => thinking.push(p.id),
                Phase::Hungry => {
                    if !p.holding.is_empty() {
                        holders.push(p.id);
                    } else if Self::neighbours_an_eater(view, p) {
                        // Steer the contention onto the eater's forks: these
                        // philosophers block (or re-commit) against resources
                        // that stay held as long as the eater is unscheduled.
                        eater_neighbours.push(p.id);
                    } else if !step_can_advance(view, p) {
                        // Busy-waiters: every step burnt here is a step the
                        // fairness guard cannot reclaim for a release.
                        blocked.push(p.id);
                    } else {
                        loose_hungry.push(p.id);
                    }
                }
            }
        }
        // Holders and eaters come last: scheduling them is what releases
        // forks, which is the one thing a contention maximizer never
        // volunteers (the fairness guard forces it eventually).
        for tier in [
            &eater_neighbours,
            &blocked,
            &loose_hungry,
            &thinking,
            &holders,
            &eaters,
        ] {
            if let Some(p) = least_scheduled(view, tier) {
                return p;
            }
        }
        unreachable!("every philosopher belongs to exactly one tier")
    }
}

/// The greedy-conflict scheduler: [`GreedyConflictPolicy`] under the
/// increasing-stubbornness [`FairDriver`].
///
/// ```
/// use gdp_adversary::GreedyConflictAdversary;
/// use gdp_algorithms::Gdp1;
/// use gdp_sim::{Engine, SimConfig, StopCondition};
/// use gdp_topology::builders::classic_ring;
///
/// let mut engine = Engine::new(classic_ring(5).unwrap(), Gdp1::new(), SimConfig::default());
/// let outcome = engine.run(
///     &mut GreedyConflictAdversary::new(),
///     StopCondition::MaxSteps(40_000),
/// );
/// // Theorem 3 again: progress survives even a contention maximizer, as
/// // long as the fairness guard keeps biting.
/// assert!(outcome.made_progress());
/// ```
pub type GreedyConflictAdversary = FairDriver<GreedyConflictPolicy>;

impl GreedyConflictAdversary {
    /// A greedy-conflict scheduler with the default growing stubbornness
    /// schedule (fairness bites within a 40k-step window).
    #[must_use]
    pub fn new() -> Self {
        Self::with_schedule(StubbornnessSchedule::Growing)
    }

    /// A greedy-conflict scheduler with an explicit stubbornness schedule;
    /// pick a constant bound larger than the observation window for the
    /// paper's patient late-round behaviour.
    #[must_use]
    pub fn with_schedule(schedule: StubbornnessSchedule) -> Self {
        FairDriver::guarding(GreedyConflictPolicy, schedule)
    }
}

impl Default for GreedyConflictAdversary {
    fn default() -> Self {
        GreedyConflictAdversary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Gdp2, Lr1};
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::{classic_ring, figure1_triangle};

    #[test]
    fn max_wait_feeds_everyone_with_near_zero_overrides() {
        for seed in 0..5u64 {
            let mut engine = Engine::new(
                classic_ring(6).unwrap(),
                Gdp1::new(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = MaxWaitAdversary::new();
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(30_000));
            assert!(outcome.everyone_ate(), "seed {seed}: {outcome:?}");
            assert_eq!(
                adversary.overrides(),
                0,
                "seed {seed}: the FIFO policy should never need rescuing"
            );
        }
    }

    #[test]
    fn max_wait_is_deterministic() {
        let run = || {
            let mut engine = Engine::new(
                classic_ring(4).unwrap(),
                Lr1::new(),
                SimConfig::default().with_seed(3),
            );
            let mut adv = MaxWaitAdversary::new();
            (0..2_000)
                .map(|_| engine.step_with(&mut adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn greedy_conflict_slows_the_first_meal_relative_to_max_wait() {
        // Same engine seeds, same topology: the contention maximizer must
        // not reach the first meal faster (on average) than FIFO service.
        let mut greedy_total = 0u64;
        let mut fifo_total = 0u64;
        for seed in 0..8u64 {
            let config = SimConfig::default().with_seed(seed);
            let mut e1 = Engine::new(figure1_triangle(), Lr1::new(), config.clone());
            let o1 = e1.run(
                &mut GreedyConflictAdversary::new(),
                StopCondition::MaxSteps(40_000),
            );
            let mut e2 = Engine::new(figure1_triangle(), Lr1::new(), config);
            let o2 = e2.run(
                &mut MaxWaitAdversary::new(),
                StopCondition::MaxSteps(40_000),
            );
            greedy_total += o1.first_meal_step.unwrap_or(40_000);
            fifo_total += o2.first_meal_step.unwrap_or(40_000);
        }
        assert!(
            greedy_total >= fifo_total,
            "greedy-conflict ({greedy_total}) should delay meals vs max-wait ({fifo_total})"
        );
    }

    #[test]
    fn greedy_conflict_stays_fair_and_gdp2_survives_it() {
        let mut engine = Engine::new(
            classic_ring(5).unwrap(),
            Gdp2::new(),
            SimConfig::default().with_seed(2),
        );
        let mut adversary = GreedyConflictAdversary::new();
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(60_000));
        assert!(outcome.made_progress());
        let bound = outcome.fairness_bound.expect("everyone gets scheduled");
        assert!(bound <= crate::fairness::GROWING_CAP + 5);
    }
}
