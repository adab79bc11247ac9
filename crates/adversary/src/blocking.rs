//! The blocking adversary: a full-information scheduler that tries to keep
//! every philosopher from ever eating.
//!
//! This generalizes the hand-crafted schedulers of the paper:
//!
//! * Section 3 builds, for LR1 on the 6-philosopher / 3-fork triangle, a
//!   scheduler that cycles the system through states in which nobody ever
//!   holds both forks;
//! * Theorem 1 does the same for any ring containing a fork with a third
//!   incident philosopher, letting that extra philosopher eat whenever doing
//!   so re-occupies the contested fork;
//! * Theorem 2 extends the construction to LR2 on theta graphs.
//!
//! Rather than scripting the exact state sequences of Figures 2–3 (which are
//! specific to one drawing), [`BlockingPolicy`] implements the *strategy*
//! behind them:
//!
//! 1. never schedule a philosopher that is about to test-and-set its second
//!    fork while that fork is free (deferral);
//! 2. while such a philosopher is deferred, steer some other philosopher
//!    into taking exactly that fork;
//! 3. fill the remaining schedule with harmless moves (busy-waits on held
//!    forks, releases after failed second takes, redraws) so that every
//!    philosopher keeps being scheduled.
//!
//! Deferral cannot be unbounded (that would be unfair), so the policy is
//! always run underneath a [`FairDriver`] with an increasing-stubbornness
//! schedule, exactly as the paper repairs its own schedulers.  The adversary
//! therefore succeeds only with *positive probability*, not with certainty —
//! which is precisely the shape of the paper's Theorems 1 and 2 — and
//! `gdp sweep --adversary blocking` measures the success frequency.

use crate::fairness::{FairDriver, SchedulingPolicy, StubbornnessSchedule};
use gdp_sim::{Phase, PhilosopherView, SystemView};
use gdp_topology::{ForkId, PhilosopherId};
use std::collections::BTreeSet;

/// What one philosopher is about to do, as far as the adversary can tell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Posture {
    /// Thinking, or hungry but not yet committed to a first fork.
    Idle,
    /// Committed to taking `fork` first, holding nothing.
    FirstAttempt { fork: ForkId, fork_free: bool },
    /// Holding one fork; the next relevant test-and-set targets `fork`.
    SecondAttempt { fork: ForkId, fork_free: bool },
    /// Currently eating.
    Eating,
}

fn posture(view: &SystemView<'_>, p: &PhilosopherView) -> Posture {
    match p.phase {
        Phase::Eating => Posture::Eating,
        Phase::Thinking => Posture::Idle,
        Phase::Hungry => {
            if p.holding.len() == 1 {
                let held = p.holding[0];
                let target = p
                    .committed
                    .unwrap_or_else(|| view.topology().other_fork(p.id, held));
                Posture::SecondAttempt {
                    fork: target,
                    fork_free: view.fork(target).is_free(),
                }
            } else if let Some(fork) = p.committed {
                Posture::FirstAttempt {
                    fork,
                    fork_free: view.fork(fork).is_free(),
                }
            } else {
                Posture::Idle
            }
        }
    }
}

/// The raw (unfair) blocking policy: it tries to keep every philosopher from
/// eating (global no-progress, as in the Section 3 example and Theorem 2).
/// Use [`BlockingAdversary`] for the fair, ready-to-run wrapper.
#[derive(Clone, Debug)]
pub struct BlockingPolicy {
    /// How often (in scheduler steps) the policy proactively re-schedules a
    /// philosopher that currently has only harmless moves available, so that
    /// the fairness guard never has to force anybody.
    refresh_interval: u64,
    /// Internal step counter (number of proposals made).
    step: u64,
    /// Last step at which each philosopher was proposed by this policy.
    last_proposed: Vec<u64>,
}

impl BlockingPolicy {
    /// A policy that tries to prevent *every* philosopher from eating.
    #[must_use]
    pub fn global() -> Self {
        BlockingPolicy {
            refresh_interval: 0,
            step: 0,
            last_proposed: Vec::new(),
        }
    }

    fn ensure_tracking(&mut self, n: usize) {
        if self.last_proposed.len() != n {
            self.last_proposed = vec![0; n];
            self.step = 0;
        }
        if self.refresh_interval == 0 {
            // Often enough that the fairness guard (bound >= hundreds) never
            // fires in steady state, rarely enough to leave room for the
            // urgent moves.
            self.refresh_interval = (8 * n as u64).clamp(16, 128);
        }
    }

    fn age(&self, p: PhilosopherId) -> u64 {
        self.step.saturating_sub(self.last_proposed[p.index()])
    }

    fn record(&mut self, p: PhilosopherId) -> PhilosopherId {
        self.step += 1;
        self.last_proposed[p.index()] = self.step;
        p
    }
}

/// Picks, within a candidate list, the philosopher that has been scheduled
/// the least (ties broken by identifier) — a mild internal fairness that also
/// keeps the policy deterministic.  Shared with the adaptive policies of
/// [`crate::adaptive`].
pub(crate) fn least_scheduled(
    view: &SystemView<'_>,
    candidates: &[PhilosopherId],
) -> Option<PhilosopherId> {
    candidates
        .iter()
        .copied()
        .min_by_key(|&p| (view.philosopher(p).scheduled, p))
}

/// A fork is *coverable* if some philosopher other than `exclude` could still
/// end up taking it as a **first** fork: it is adjacent to the fork, holds
/// nothing, and is either uncommitted (it can still draw the fork) or already
/// committed to it.  Philosophers parked on a different fork cannot cover —
/// under LR1/LR2 they only re-draw after a failed *second* take.
fn coverable(view: &SystemView<'_>, fork: ForkId, exclude: PhilosopherId) -> bool {
    view.topology().philosophers_at(fork).iter().any(|&q| {
        if q == exclude {
            return false;
        }
        let qv = view.philosopher(q);
        qv.phase != Phase::Eating
            && qv.holding.is_empty()
            && (qv.committed.is_none() || qv.committed == Some(fork))
    })
}

/// A *standby* for fork `fork` is a philosopher holding nothing that is
/// already committed to `fork` as its first fork: the moment `fork` is
/// released, the standby can re-occupy it without anybody eating.
fn has_standby(view: &SystemView<'_>, fork: ForkId) -> bool {
    view.topology().philosophers_at(fork).iter().any(|&q| {
        let qv = view.philosopher(q);
        qv.phase == Phase::Hungry && qv.holding.is_empty() && qv.committed == Some(fork)
    })
}

impl SchedulingPolicy for BlockingPolicy {
    fn propose(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        self.ensure_tracking(view.num_philosophers());
        let philosophers = view.philosophers();
        let postures: Vec<(PhilosopherId, Posture)> = philosophers
            .iter()
            .map(|p| (p.id, posture(view, p)))
            .collect();

        // "Hot" forks: free forks that some philosopher is one scheduler
        // step away from grabbing as its second fork.
        let hot: BTreeSet<ForkId> = postures
            .iter()
            .filter_map(|&(_, posture)| match posture {
                Posture::SecondAttempt {
                    fork,
                    fork_free: true,
                } => Some(fork),
                _ => None,
            })
            .collect();

        // Forks some one-fork holder is waiting for: releasing one of these
        // without a standby would immediately create a hot philosopher.
        let wanted_second: BTreeSet<ForkId> = postures
            .iter()
            .filter_map(|&(_, posture)| match posture {
                Posture::SecondAttempt { fork, .. } => Some(fork),
                _ => None,
            })
            .collect();

        // --- Rule 0: let anyone who is eating finish, so forks circulate. ---
        let eating: Vec<PhilosopherId> = postures
            .iter()
            .filter(|&&(_, posture)| posture == Posture::Eating)
            .map(|&(id, _)| id)
            .collect();
        if let Some(p) = least_scheduled(view, &eating) {
            return self.record(p);
        }

        // --- Rule 1: cover hot forks. ------------------------------------
        // Somebody is one step from eating off a free fork; get that fork
        // occupied first.  Prefer coverers whose own situation stays safe,
        // then anybody committed to it.
        if !hot.is_empty() {
            let mut safe_cover = Vec::new();
            let mut any_cover = Vec::new();
            for &(id, posture) in &postures {
                if let Posture::FirstAttempt {
                    fork,
                    fork_free: true,
                } = posture
                {
                    if hot.contains(&fork) {
                        let other = view.topology().other_fork(id, fork);
                        if !view.fork(other).is_free() || coverable(view, other, id) {
                            safe_cover.push(id);
                        } else {
                            any_cover.push(id);
                        }
                    }
                }
            }
            for tier in [&safe_cover, &any_cover] {
                if let Some(p) = least_scheduled(view, tier) {
                    return self.record(p);
                }
            }
            // No direct coverer: try to roll an adjacent philosopher onto the
            // hot fork (it is free, so an uncommitted neighbour scheduled now
            // may draw it; a neighbour committed to another *free* fork can be
            // cycled through a failed second take back to a fresh draw).
            let mut rollable = Vec::new();
            for &f in &hot {
                for &q in view.topology().philosophers_at(f) {
                    let qv = view.philosopher(q);
                    if qv.phase == Phase::Eating || !qv.holding.is_empty() {
                        continue;
                    }
                    match qv.committed {
                        None => rollable.push(q),
                        Some(c) if c != f && view.fork(c).is_free() => rollable.push(q),
                        _ => {}
                    }
                }
            }
            if let Some(p) = least_scheduled(view, &rollable) {
                return self.record(p);
            }
            // Nothing can reach the hot fork: fall through and keep the rest
            // of the system ticking (the trial may be lost at the next forced
            // override, which is exactly the positive-probability failure the
            // paper's construction also accepts).
        }

        // --- Rule 2: maintain standby coverage for wanted, held forks. ----
        // For every fork that a one-fork holder is waiting on and that has no
        // standby, stubbornly drive an adjacent free philosopher until it
        // commits to that fork (the paper's "keep selecting P4 until he
        // commits to the fork taken by P3").
        let mut builders = Vec::new();
        for &f in &wanted_second {
            if view.fork(f).is_free() || has_standby(view, f) {
                continue;
            }
            for &q in view.topology().philosophers_at(f) {
                let qv = view.philosopher(q);
                if qv.phase == Phase::Eating || !qv.holding.is_empty() {
                    continue;
                }
                match qv.committed {
                    // Uncommitted: a draw may land on f.
                    None if qv.phase == Phase::Hungry => builders.push(q),
                    // Committed to a *free* other fork: cycle it (take, fail
                    // second, release, redraw).
                    Some(c) if c != f && view.fork(c).is_free() => {
                        let other = view.topology().other_fork(q, c);
                        // Only cycle through a take that is itself safe: its
                        // second fork must be held (it is: f is held).
                        if other == f {
                            builders.push(q);
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(p) = least_scheduled(view, &builders) {
            return self.record(p);
        }

        // --- Rule 3: proactive refresh of anyone whose harmless move is
        //             overdue, so the fairness guard never has to fire. -----
        let mut overdue: Vec<(u64, PhilosopherId)> = Vec::new();
        for &(id, posture) in &postures {
            let age = self.age(id);
            if age < self.refresh_interval {
                continue;
            }
            let harmless = match posture {
                Posture::Idle => true,
                Posture::FirstAttempt {
                    fork_free: false, ..
                } => true,
                Posture::FirstAttempt {
                    fork,
                    fork_free: true,
                } => {
                    // Taking the first fork is harmless if the second one is
                    // already held by somebody else.
                    let other = view.topology().other_fork(id, fork);
                    !view.fork(other).is_free()
                }
                Posture::SecondAttempt {
                    fork_free: false, ..
                } => {
                    // Releasing the held fork is harmless if a standby is
                    // ready to re-occupy it or nobody is waiting for it.
                    let held = philosophers[id.index()]
                        .holding
                        .first()
                        .copied()
                        .expect("one-fork holder");
                    !wanted_second.contains(&held) || has_standby(view, held)
                }
                _ => false,
            };
            if harmless {
                overdue.push((age, id));
            }
        }
        if let Some(&(_, p)) = overdue
            .iter()
            .max_by_key(|&&(age, id)| (age, std::cmp::Reverse(id)))
        {
            return self.record(p);
        }

        // --- Rule 4: fillers — harmless busy-waits and draws. -------------
        let mut fillers = Vec::new();
        let mut safe_takers = Vec::new();
        let mut bootstrap = Vec::new();
        for &(id, posture) in &postures {
            match posture {
                Posture::Idle
                | Posture::FirstAttempt {
                    fork_free: false, ..
                } => fillers.push(id),
                Posture::FirstAttempt {
                    fork,
                    fork_free: true,
                } => {
                    let other = view.topology().other_fork(id, fork);
                    if !view.fork(other).is_free() {
                        safe_takers.push(id);
                    } else if coverable(view, other, id) {
                        bootstrap.push(id);
                    }
                }
                _ => {}
            }
        }
        for tier in [&safe_takers, &fillers] {
            if let Some(p) = least_scheduled(view, tier) {
                return self.record(p);
            }
        }

        // --- Rule 5: bootstrap — nothing is held yet (or only unsafe moves
        //             remain): start the wave with a coverable first take. --
        if let Some(p) = least_scheduled(view, &bootstrap) {
            return self.record(p);
        }

        // --- Rule 6: last resorts, preferring moves that cannot eat. -------
        let mut stable_holders = Vec::new();
        let mut other_non_eating = Vec::new();
        let mut hot_holders = Vec::new();
        for &(id, posture) in &postures {
            match posture {
                Posture::SecondAttempt {
                    fork_free: false, ..
                } => stable_holders.push(id),
                Posture::SecondAttempt {
                    fork_free: true, ..
                } => hot_holders.push(id),
                Posture::Eating => {}
                _ => other_non_eating.push(id),
            }
        }
        for tier in [&other_non_eating, &stable_holders, &hot_holders] {
            if let Some(p) = least_scheduled(view, tier) {
                return self.record(p);
            }
        }
        self.record(PhilosopherId::new(0))
    }
}

/// The fair blocking adversary: [`BlockingPolicy`] under a [`FairDriver`]
/// with the paper's increasing-stubbornness schedule.
pub type BlockingAdversary = FairDriver<BlockingPolicy>;

impl BlockingAdversary {
    /// An adversary attempting global no-progress (Section 3 example,
    /// Theorem 2), with the default stubbornness schedule.
    #[must_use]
    pub fn global() -> Self {
        Self::with_schedule(BlockingPolicy::global(), StubbornnessSchedule::Growing)
    }

    /// Builds an adversary from an explicit policy and stubbornness schedule.
    #[must_use]
    pub fn with_schedule(policy: BlockingPolicy, schedule: StubbornnessSchedule) -> Self {
        FairDriver::guarding(policy, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Gdp2, Lr1, Lr2};
    use gdp_sim::{Engine, Program, SimConfig, StopCondition};
    use gdp_topology::builders::{classic_ring, figure1_triangle, figure3_theta};
    use gdp_topology::Topology;

    /// Window length for the finite-horizon blocking experiments.
    const WINDOW: u64 = 40_000;

    /// A stubbornness bound larger than the window: within the observation
    /// window the adversary is never forced off its preferred move, exactly
    /// like the early (large `n_k`) rounds of the paper's schedulers.  The
    /// bound is still finite, so the scheduler remains fair over infinite
    /// runs.
    fn patient() -> StubbornnessSchedule {
        StubbornnessSchedule::Constant(WINDOW + 10_000)
    }

    fn global_patient() -> BlockingAdversary {
        BlockingAdversary::with_schedule(BlockingPolicy::global(), patient())
    }

    fn no_progress_fraction<P: Program + Clone>(
        topology: &Topology,
        program: P,
        make_adv: impl Fn() -> BlockingAdversary,
        trials: u64,
    ) -> f64 {
        let mut blocked = 0u64;
        for seed in 0..trials {
            let mut engine = Engine::new(
                topology.clone(),
                program.clone(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = make_adv();
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
            if !outcome.made_progress() {
                blocked += 1;
            }
        }
        blocked as f64 / trials as f64
    }

    #[test]
    fn blocks_lr1_on_the_triangle_with_high_probability() {
        // Section 3 example: the paper proves its scheduler induces a
        // no-progress computation with probability >= 1/4; ours clears that
        // bound comfortably on a 40k-step window.
        let fraction = no_progress_fraction(&figure1_triangle(), Lr1::new(), global_patient, 20);
        assert!(
            fraction >= 0.75,
            "blocking adversary defeated LR1 on the triangle in only {fraction} of trials"
        );
    }

    #[test]
    fn gdp1_progresses_as_soon_as_fairness_bites() {
        // Theorem 3 in finite-horizon form: the blocking adversary can delay
        // GDP1 only for as long as its stubbornness bound allows; once the
        // fairness guard starts forcing overdue philosophers, progress
        // follows immediately.  (A patient adversary with a bound larger
        // than the window trivially stalls *any* algorithm in that window —
        // the meaningful contrast with LR1/LR2 is made by the
        // `TriangleWaveAdversary`, which blocks them *without* ever relying
        // on exceeding the fairness bound.)
        for seed in 0..10u64 {
            let mut engine = Engine::new(
                figure1_triangle(),
                Gdp1::new(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = BlockingAdversary::global();
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
            assert!(outcome.made_progress(), "GDP1 must progress (seed {seed})");
        }
    }

    #[test]
    fn delays_lr2_on_the_theta_graph_for_the_whole_window() {
        // Theorem 2 in delay form: on the Figure 3 theta graph the blocking
        // adversary keeps LR2 from a single meal for the entire window
        // whenever it is allowed to be patient (its stubbornness bound
        // exceeds the window, as in the paper's late rounds with large n_k).
        let theta = figure3_theta();
        let lr2 = no_progress_fraction(&theta, Lr2::new(), global_patient, 20);
        assert!(
            lr2 >= 0.75,
            "blocking adversary delayed LR2 on the theta graph in only {lr2} of trials"
        );
    }

    #[test]
    fn gdp2_progresses_on_the_theta_graph_once_fairness_bites() {
        // Theorem 4 counterpart: under the same blocking policy with the
        // default (growing but finite) stubbornness schedule, GDP2 reaches a
        // meal within the window in every trial.
        let theta = figure3_theta();
        for seed in 0..10u64 {
            let mut engine = Engine::new(
                theta.clone(),
                Gdp2::new(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = BlockingAdversary::global();
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
            assert!(outcome.made_progress(), "GDP2 must progress (seed {seed})");
        }
    }

    #[test]
    fn lr1_progress_under_the_blocker_happens_only_when_fairness_forces_it() {
        // With a *growing* stubbornness schedule (the paper's construction),
        // LR1 on the triangle eats only when the fairness guard forces an
        // overdue philosopher: the first meal appears no earlier than the
        // initial bound, and total meals stay within a handful per window.
        let schedule = StubbornnessSchedule::default();
        for seed in 0..5u64 {
            let mut engine = Engine::new(
                figure1_triangle(),
                Lr1::new(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary =
                BlockingAdversary::with_schedule(BlockingPolicy::global(), schedule);
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
            if let Some(first) = outcome.first_meal_step {
                assert!(
                    first >= schedule.bound_for_round(0) / 2,
                    "seed {seed}: meal at step {first} before the adversary was ever forced"
                );
            }
            assert!(
                outcome.total_meals <= 20,
                "seed {seed}: too many meals ({}) slipped through the blocker",
                outcome.total_meals
            );
            assert!(
                adversary.overrides() > 0,
                "growing schedule must have forced overrides"
            );
        }
    }

    #[test]
    fn tight_fairness_bounds_restore_progress_everywhere() {
        // With a small constant stubbornness bound the guard forces progress
        // even for LR1 on the triangle and on the classic ring: the negative
        // results fundamentally rely on the scheduler's freedom to defer.
        for topology in [figure1_triangle(), classic_ring(6).unwrap()] {
            let mut engine = Engine::new(topology, Lr1::new(), SimConfig::default().with_seed(1));
            let mut adversary = BlockingAdversary::with_schedule(
                BlockingPolicy::global(),
                StubbornnessSchedule::Constant(64),
            );
            let outcome = engine.run(
                &mut adversary,
                StopCondition::FirstMeal { max_steps: WINDOW },
            );
            assert!(outcome.made_progress());
        }
    }

    #[test]
    fn blocking_runs_are_certifiably_fair() {
        let mut engine = Engine::new(
            figure1_triangle(),
            Lr1::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adversary = BlockingAdversary::global();
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(20_000));
        let bound = outcome
            .fairness_bound
            .expect("every philosopher must be scheduled");
        // The realized bound must stay below the (capped) stubbornness limit
        // plus slack for the number of philosophers.
        assert!(bound <= crate::fairness::GROWING_CAP + 6);
    }

    #[test]
    fn policy_accessors() {
        let global = BlockingAdversary::global();
        assert!(
            global.policy().last_proposed.is_empty(),
            "sized on first use"
        );
        assert_eq!(global.overrides(), 0);
    }
}
