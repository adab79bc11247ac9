//! The crash-stop fault model.
//!
//! The paper's adversary may *delay* a philosopher arbitrarily (subject to
//! fairness) but never kill it.  [`CrashStopAdversary`] drops that
//! assumption: a seeded subset of philosophers permanently stops being
//! scheduled after a seeded crash step — **mid-protocol**, wherever the
//! victim happens to be, possibly while holding forks or while registered
//! in a neighbour's request list.  Survivors are scheduled uniformly at
//! random, so the schedule restricted to them is fair.
//!
//! This is the boundary of the paper's model: crashed philosophers are
//! scheduled only *finitely* often, so the scheduler as a whole is **not**
//! fair and none of the theorems apply.  What the family measures is how
//! gracefully each algorithm degrades — a crashed philosopher that holds a
//! fork starves the neighbours sharing it under *every* algorithm, while
//! the courtesy machinery of LR2/GDP2 adds a second failure mode of its
//! own (a crashed philosopher whose request is still registered can make
//! courteous neighbours defer forever).  The real-thread runtime
//! (`gdp stress --crash`) plays the same fault model with
//! `Seat::reset_trying` as the recovery path; see `docs/ADVERSARIES.md`.
//!
//! Everything is derived deterministically from one seed: victims, crash
//! steps and the survivors' schedule, so crash trials are replayable
//! bit-for-bit (test-enforced in `tests/adversary_determinism.rs`).

use gdp_sim::{Adversary, SystemView};
use gdp_topology::PhilosopherId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// The default window (in scheduler steps) crash points are drawn from:
/// late enough that victims are mid-protocol, early enough that standard
/// 40k-step windows observe a long post-crash era.
pub const DEFAULT_CRASH_WINDOW: Range<u64> = 400..4_400;

/// Seeded victim selection — the single source of truth for **which**
/// participants a `crash:<f>` fault model kills and the one per-victim
/// draw attached to each: a Fisher–Yates prefix of a seeded permutation
/// of `0..n` picks `min(crashes, n − 1)` victims (somebody always
/// survives), then each victim receives one draw from `draw` in prefix
/// order.  Returns one slot per participant: `None` for survivors,
/// `Some(drawn value)` for victims.
///
/// Both faces of the crash-stop family build on this — the Monte-Carlo
/// [`CrashStopAdversary`] (draw = crash step) and the real-thread crash
/// load of `gdp-runtime` (draw = permille of the victim's budget) — so
/// the victim-selection algorithm cannot drift between layers.
///
/// ```
/// use gdp_adversary::seeded_crash_plan;
///
/// let plan = seeded_crash_plan(7, 2, 5, 100..200);
/// assert_eq!(plan.len(), 5);
/// assert_eq!(plan.iter().filter(|s| s.is_some()).count(), 2);
/// assert_eq!(plan, seeded_crash_plan(7, 2, 5, 100..200), "pure in the seed");
/// // More crashes than participants: capped at n - 1.
/// assert_eq!(
///     seeded_crash_plan(7, 99, 3, 0..1).iter().flatten().count(),
///     2
/// );
/// ```
///
/// # Panics
///
/// Panics if `crashes > 0` and the draw range is empty.
#[must_use]
pub fn seeded_crash_plan(
    seed: u64,
    crashes: usize,
    n: usize,
    draw: Range<u64>,
) -> Vec<Option<u64>> {
    let mut plan = vec![None; n];
    if crashes == 0 || n == 0 {
        return plan;
    }
    assert!(draw.start < draw.end, "empty crash draw range");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let victims = crashes.min(n - 1);
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..victims {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    for &victim in &ids[..victims] {
        plan[victim] = Some(rng.gen_range(draw.clone()));
    }
    plan
}

/// Per-run state, derived lazily from the seed once the philosopher count
/// is known.
#[derive(Clone, Debug)]
struct CrashPlan {
    rng: ChaCha8Rng,
    /// `Some(step)` for victims: the first step at which the philosopher is
    /// no longer scheduled.
    crash_step: Vec<Option<u64>>,
    step: u64,
    alive_buf: Vec<PhilosopherId>,
}

/// A fault-injecting scheduler: a seeded subset of philosophers crash-stops
/// at seeded steps; survivors are scheduled uniformly at random.
///
/// At least one philosopher always survives (the victim count is capped at
/// `n − 1`).
///
/// ```
/// use gdp_adversary::CrashStopAdversary;
/// use gdp_algorithms::Gdp1;
/// use gdp_sim::{Engine, SimConfig, StopCondition};
/// use gdp_topology::builders::classic_ring;
///
/// let mut engine = Engine::new(classic_ring(5).unwrap(), Gdp1::new(), SimConfig::default());
/// let mut adversary = CrashStopAdversary::new(2, 7);
/// let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(10_000));
/// // Crashed philosophers are scheduled only finitely often: not fair.
/// let plan = adversary.crash_plan();
/// assert_eq!(plan.len(), 2);
/// for (victim, crash_step) in plan {
///     assert!(outcome.scheduled_per_philosopher[victim.index()] <= crash_step);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CrashStopAdversary {
    seed: u64,
    crashes: u32,
    window: Range<u64>,
    plan: Option<CrashPlan>,
}

impl CrashStopAdversary {
    /// A crash-stop scheduler that kills `crashes` philosophers at seeded
    /// steps inside [`DEFAULT_CRASH_WINDOW`].
    #[must_use]
    pub fn new(crashes: u32, seed: u64) -> Self {
        Self::with_window(crashes, seed, DEFAULT_CRASH_WINDOW)
    }

    /// A crash-stop scheduler drawing crash steps from an explicit window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    pub fn with_window(crashes: u32, seed: u64, window: Range<u64>) -> Self {
        assert!(window.start < window.end, "empty crash window");
        CrashStopAdversary {
            seed,
            crashes,
            window,
            plan: None,
        }
    }

    /// The requested victim count (the effective count is capped at `n − 1`
    /// once the topology is known).
    #[must_use]
    pub fn crashes(&self) -> u32 {
        self.crashes
    }

    /// The `(victim, crash step)` plan, available after the first
    /// [`select`](Adversary::select); pairs are in victim-id order.
    #[must_use]
    pub fn crash_plan(&self) -> Vec<(PhilosopherId, u64)> {
        match &self.plan {
            None => Vec::new(),
            Some(plan) => plan
                .crash_step
                .iter()
                .enumerate()
                .filter_map(|(i, step)| step.map(|s| (PhilosopherId::new(i as u32), s)))
                .collect(),
        }
    }

    fn make_plan(&self, n: usize) -> CrashPlan {
        let crash_step =
            seeded_crash_plan(self.seed, self.crashes as usize, n, self.window.clone());
        CrashPlan {
            // A distinct stream for the survivors' schedule, so the plan
            // and the scheduling draws stay independent.
            rng: ChaCha8Rng::seed_from_u64(self.seed ^ 0x5C4E_D01E),
            crash_step,
            step: 0,
            alive_buf: Vec::with_capacity(n),
        }
    }
}

impl Adversary for CrashStopAdversary {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        if self.plan.is_none() {
            self.plan = Some(self.make_plan(n));
        }
        let plan = self.plan.as_mut().expect("plan just installed");
        plan.alive_buf.clear();
        for p in 0..n {
            let alive = match plan.crash_step[p] {
                Some(crash) => plan.step < crash,
                None => true,
            };
            if alive {
                plan.alive_buf.push(PhilosopherId::new(p as u32));
            }
        }
        plan.step += 1;
        let pick = plan.rng.gen_range(0..plan.alive_buf.len());
        plan.alive_buf[pick]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;

    #[test]
    fn victims_stop_being_scheduled_after_their_crash_step() {
        let mut engine = Engine::new(
            classic_ring(5).unwrap(),
            Gdp1::new(),
            SimConfig::default().with_seed(1),
        );
        let mut adversary = CrashStopAdversary::new(2, 42);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(20_000));
        let plan = adversary.crash_plan();
        assert_eq!(plan.len(), 2, "two victims planned");
        for &(victim, crash) in &plan {
            assert!(DEFAULT_CRASH_WINDOW.contains(&crash));
            // A victim's schedule count is bounded by its crash step; the
            // survivors keep being scheduled long after.
            let scheduled = outcome.scheduled_per_philosopher[victim.index()];
            assert!(
                scheduled <= crash,
                "{victim} was scheduled {scheduled} times past its crash step {crash}"
            );
        }
        let survivor_steps: u64 = outcome
            .scheduled_per_philosopher
            .iter()
            .enumerate()
            .filter(|(i, _)| !plan.iter().any(|(v, _)| v.index() == *i))
            .map(|(_, &s)| s)
            .sum();
        assert!(survivor_steps > 10_000, "survivors own the post-crash era");
    }

    #[test]
    fn same_seed_is_replayable() {
        let run = |adv: &mut CrashStopAdversary| {
            let mut engine = Engine::new(
                classic_ring(4).unwrap(),
                Lr1::new(),
                SimConfig::default().with_seed(9),
            );
            (0..6_000)
                .map(|_| engine.step_with(adv))
                .collect::<Vec<_>>()
        };
        let mut a = CrashStopAdversary::new(1, 7);
        let mut b = CrashStopAdversary::new(1, 7);
        let ta = run(&mut a);
        assert_eq!(ta, run(&mut b), "same seed, same faulty schedule");
        assert_eq!(a.crash_plan(), b.crash_plan());
    }

    #[test]
    fn at_least_one_philosopher_always_survives() {
        let mut engine = Engine::new(
            classic_ring(3).unwrap(),
            Gdp1::new(),
            SimConfig::default().with_seed(0),
        );
        // Request more crashes than philosophers: capped at n - 1.
        let mut adversary = CrashStopAdversary::new(99, 3);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(15_000));
        assert_eq!(adversary.crash_plan().len(), 2);
        assert_eq!(adversary.crashes(), 99);
        let max_scheduled = outcome.scheduled_per_philosopher.iter().max().unwrap();
        assert!(*max_scheduled > 10_000, "the survivor absorbs the schedule");
    }

    #[test]
    fn zero_crashes_degenerates_to_a_fair_scheduler() {
        let mut engine = Engine::new(
            classic_ring(4).unwrap(),
            Gdp1::new(),
            SimConfig::default().with_seed(0),
        );
        let mut adversary = CrashStopAdversary::new(0, 5);
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(5_000));
        assert!(adversary.crash_plan().is_empty());
        assert!(outcome.fairness_bound.is_some());
        assert!(outcome.scheduled_per_philosopher.iter().all(|&s| s > 1_000));
    }
}
