//! The adversary's full-information view of the system.
//!
//! The paper assumes the adversary "has complete information of the past of
//! the computation, and can decide its next step on the basis of that
//! information".  [`SystemView`] exposes exactly the information an
//! adversary may use: the topology, the global step count, every fork's
//! shared state, and every philosopher's observable state (phase, held
//! forks, current commitment, scheduling and meal counters).
//!
//! What the adversary can *not* see is the outcome of random draws that have
//! not happened yet — randomness is resolved inside the philosopher's step,
//! after the adversary has committed to scheduling it.
//!
//! ## Zero-allocation views
//!
//! Views sit on the simulator's hottest path: the engine consults the
//! adversary before *every* atomic step.  Two design decisions keep that
//! path allocation-free:
//!
//! * [`PhilosopherView`] stores the held forks in [`Holding`], a fixed
//!   two-slot inline array (a philosopher is an *arc* of the conflict
//!   multigraph, so it is adjacent to exactly two forks and can never hold
//!   more) instead of a heap `Vec`;
//! * the engine maintains one persistent `Vec<PhilosopherView>` that is
//!   updated **incrementally** — an atomic step can only change the stepped
//!   philosopher's own observable state, so only that one view is refreshed
//!   — rather than rebuilding every view before every adversary decision.
//!
//! The views are also the engine's only record of each philosopher's meal,
//! scheduling and hunger counters, which [`RunOutcome`](crate::RunOutcome)
//! collects.

use crate::fork::ForkCell;
use crate::program::Phase;
use gdp_topology::{ForkId, PhilosopherId, Topology};
use std::ops::Deref;

/// The set of forks a philosopher currently holds, stored inline.
///
/// Capacity is exactly two because every philosopher is adjacent to exactly
/// two forks (an arc of the conflict multigraph); no heap allocation is ever
/// performed.  `Holding` dereferences to a `&[ForkId]` slice, so all the
/// usual slice queries (`len`, `is_empty`, `contains`, `first`, indexing,
/// iteration) work unchanged.
///
/// ```
/// use gdp_sim::Holding;
/// use gdp_topology::ForkId;
///
/// let mut holding = Holding::new();
/// assert!(holding.is_empty());
/// holding.push(ForkId::new(3));
/// assert_eq!(holding.len(), 1);
/// assert_eq!(holding[0], ForkId::new(3));
/// assert!(holding.contains(&ForkId::new(3)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Holding {
    forks: [ForkId; 2],
    len: u8,
}

impl Holding {
    /// An empty holding set.
    #[must_use]
    pub const fn new() -> Self {
        Holding {
            forks: [ForkId::new(0), ForkId::new(0)],
            len: 0,
        }
    }

    /// Adds `fork` to the set.
    ///
    /// # Panics
    ///
    /// Panics if two forks are already held — a philosopher has only two
    /// adjacent forks, so a third push indicates an engine bug.
    pub fn push(&mut self, fork: ForkId) {
        assert!(
            self.len < 2,
            "a philosopher holds at most two forks (attempted to add {fork})"
        );
        self.forks[self.len as usize] = fork;
        self.len += 1;
    }

    /// The held forks as a slice, in acquisition-scan order.
    #[must_use]
    pub fn as_slice(&self) -> &[ForkId] {
        &self.forks[..self.len as usize]
    }
}

impl Default for Holding {
    fn default() -> Self {
        Holding::new()
    }
}

impl Deref for Holding {
    type Target = [ForkId];

    fn deref(&self) -> &[ForkId] {
        self.as_slice()
    }
}

impl PartialEq for Holding {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Holding {}

impl FromIterator<ForkId> for Holding {
    fn from_iter<I: IntoIterator<Item = ForkId>>(iter: I) -> Self {
        let mut holding = Holding::new();
        for fork in iter {
            holding.push(fork);
        }
        holding
    }
}

impl<'a> IntoIterator for &'a Holding {
    type Item = &'a ForkId;
    type IntoIter = std::slice::Iter<'a, ForkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Observable state of one philosopher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhilosopherView {
    /// The philosopher this view describes.
    pub id: PhilosopherId,
    /// Coarse phase (thinking / hungry / eating).
    pub phase: Phase,
    /// The fork the philosopher is committed to taking first (the "empty
    /// arrow" of the paper's figures), if any.
    pub committed: Option<ForkId>,
    /// Program-counter label reported by the algorithm, e.g. `"LR1.3"`.
    pub label: &'static str,
    /// The forks currently held by this philosopher (the "filled arrows").
    pub holding: Holding,
    /// How many meals this philosopher has completed.
    pub meals: u64,
    /// How many times this philosopher has been scheduled.
    pub scheduled: u64,
    /// Step at which the philosopher last became hungry, if currently hungry
    /// or eating.
    pub hungry_since: Option<u64>,
}

impl PhilosopherView {
    /// Returns `true` if the philosopher currently holds `fork`.
    #[must_use]
    pub fn holds(&self, fork: ForkId) -> bool {
        self.holding.contains(&fork)
    }

    /// Returns `true` if the philosopher is committed to `fork` but does not
    /// hold it yet (the empty arrow of the paper's figures).
    #[must_use]
    pub fn committed_to(&self, fork: ForkId) -> bool {
        self.committed == Some(fork) && !self.holds(fork)
    }
}

/// Full-information view handed to [`Adversary::select`](crate::Adversary::select).
#[derive(Debug)]
pub struct SystemView<'a> {
    topology: &'a Topology,
    step: u64,
    program_name: &'static str,
    forks: &'a [ForkCell],
    philosophers: &'a [PhilosopherView],
}

impl<'a> SystemView<'a> {
    pub(crate) fn new(
        topology: &'a Topology,
        step: u64,
        program_name: &'static str,
        forks: &'a [ForkCell],
        philosophers: &'a [PhilosopherView],
    ) -> Self {
        SystemView {
            topology,
            step,
            program_name,
            forks,
            philosophers,
        }
    }

    /// The conflict topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The number of atomic steps executed so far.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The name of the algorithm being executed (e.g. `"LR1"`).
    #[must_use]
    pub fn program_name(&self) -> &'static str {
        self.program_name
    }

    /// Shared state of `fork`.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is out of range for the topology.
    #[must_use]
    pub fn fork(&self, fork: ForkId) -> &ForkCell {
        &self.forks[fork.index()]
    }

    /// Shared state of every fork, indexed by [`ForkId::index`].
    #[must_use]
    pub fn forks(&self) -> &[ForkCell] {
        self.forks
    }

    /// Observable state of `philosopher`.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology.
    #[must_use]
    pub fn philosopher(&self, philosopher: PhilosopherId) -> &PhilosopherView {
        &self.philosophers[philosopher.index()]
    }

    /// Observable state of every philosopher, indexed by
    /// [`PhilosopherId::index`].
    #[must_use]
    pub fn philosophers(&self) -> &[PhilosopherView] {
        self.philosophers
    }

    /// Number of philosophers in the system.
    #[must_use]
    pub fn num_philosophers(&self) -> usize {
        self.philosophers.len()
    }

    /// The philosophers currently in the given phase.
    #[must_use]
    pub fn in_phase(&self, phase: Phase) -> Vec<PhilosopherId> {
        self.philosophers
            .iter()
            .filter(|p| p.phase == phase)
            .map(|p| p.id)
            .collect()
    }

    /// Returns `true` if some philosopher is currently eating.
    #[must_use]
    pub fn someone_eating(&self) -> bool {
        self.philosophers.iter().any(|p| p.phase == Phase::Eating)
    }

    /// The philosopher currently holding `fork`, if any (derived from the
    /// fork cell, so it is consistent with the shared state).
    #[must_use]
    pub fn holder_of(&self, fork: ForkId) -> Option<PhilosopherId> {
        self.forks[fork.index()].holder()
    }

    /// Total meals completed so far across all philosophers.
    #[must_use]
    pub fn total_meals(&self) -> u64 {
        self.philosophers.iter().map(|p| p.meals).sum()
    }

    /// The longest-waiting philosopher among those that satisfy `keep`:
    /// smallest [`hungry_since`](PhilosopherView::hungry_since) stamp, ties
    /// broken by identifier.  Eating philosophers keep their stamp until
    /// the meal completes, so they rank with the same priority and finish
    /// (releasing their forks) under waiting-order service.
    ///
    /// This is the primitive behind *adaptive* schedulers — the
    /// `gdp-adversary` catalog's max-wait family is
    /// `longest_waiting_where(enabled)` plus a least-scheduled fallback.
    ///
    /// ```
    /// use gdp_algorithms::Gdp1;
    /// use gdp_sim::{Engine, SimConfig, StopCondition, RoundRobinAdversary};
    /// use gdp_topology::builders::classic_ring;
    ///
    /// let mut engine = Engine::new(classic_ring(4).unwrap(), Gdp1::new(), SimConfig::default());
    /// engine.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(50));
    /// engine.with_view(|view| {
    ///     if let Some(p) = view.longest_waiting_where(|_| true) {
    ///         let since = view.philosopher(p).hungry_since.expect("waiting implies a stamp");
    ///         assert!(since <= view.step());
    ///     }
    /// });
    /// ```
    #[must_use]
    pub fn longest_waiting_where(
        &self,
        mut keep: impl FnMut(&PhilosopherView) -> bool,
    ) -> Option<PhilosopherId> {
        self.philosophers
            .iter()
            .filter(|p| p.hungry_since.is_some() && keep(p))
            .min_by_key(|p| (p.hungry_since, p.id))
            .map(|p| p.id)
    }

    /// The philosopher scheduled the fewest times so far (ties broken by
    /// identifier) — the standard deterministic fallback tier of the
    /// catalog's adaptive schedulers.
    #[must_use]
    pub fn least_scheduled(&self) -> PhilosopherId {
        self.philosophers
            .iter()
            .min_by_key(|p| (p.scheduled, p.id))
            .map(|p| p.id)
            .expect("a system has at least one philosopher")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_topology::builders::classic_ring;

    fn sample_philosophers() -> Vec<PhilosopherView> {
        vec![
            PhilosopherView {
                id: PhilosopherId::new(0),
                phase: Phase::Hungry,
                committed: Some(ForkId::new(0)),
                label: "test.3",
                holding: Holding::new(),
                meals: 0,
                scheduled: 2,
                hungry_since: Some(0),
            },
            PhilosopherView {
                id: PhilosopherId::new(1),
                phase: Phase::Eating,
                committed: None,
                label: "test.5",
                holding: [ForkId::new(1), ForkId::new(2)].into_iter().collect(),
                meals: 3,
                scheduled: 9,
                hungry_since: Some(4),
            },
            PhilosopherView {
                id: PhilosopherId::new(2),
                phase: Phase::Thinking,
                committed: None,
                label: "test.1",
                holding: Holding::new(),
                meals: 1,
                scheduled: 4,
                hungry_since: None,
            },
        ]
    }

    #[test]
    fn holding_is_a_bounded_inline_set() {
        let mut h = Holding::new();
        assert!(h.is_empty());
        assert_eq!(h.as_slice(), &[]);
        h.push(ForkId::new(7));
        h.push(ForkId::new(2));
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], ForkId::new(7));
        assert_eq!(h[1], ForkId::new(2));
        assert!(h.contains(&ForkId::new(2)));
        assert_eq!(h.first(), Some(&ForkId::new(7)));
        let collected: Vec<ForkId> = (&h).into_iter().copied().collect();
        assert_eq!(collected, vec![ForkId::new(7), ForkId::new(2)]);
    }

    #[test]
    fn holding_equality_ignores_stale_slots() {
        // A slot past the length holds no fork, whatever its bits say:
        // equality compares only the held forks.
        let stale = Holding {
            forks: [ForkId::new(5), ForkId::new(0)],
            len: 0,
        };
        assert_eq!(stale, Holding::new());
        let (mut a, mut b) = (Holding::new(), Holding::new());
        a.push(ForkId::new(7));
        b.push(ForkId::new(2));
        assert_ne!(a, b);
        b.push(ForkId::new(7));
        assert_ne!(a, b, "a prefix is another set");
    }

    #[test]
    #[should_panic(expected = "at most two forks")]
    fn holding_rejects_a_third_fork() {
        let mut h = Holding::new();
        h.push(ForkId::new(0));
        h.push(ForkId::new(1));
        h.push(ForkId::new(2));
    }

    #[test]
    fn philosopher_view_predicates() {
        let phils = sample_philosophers();
        assert!(phils[0].committed_to(ForkId::new(0)));
        assert!(!phils[0].holds(ForkId::new(0)));
        assert!(phils[1].holds(ForkId::new(2)));
        assert!(!phils[1].committed_to(ForkId::new(2)));
    }

    #[test]
    fn system_view_queries() {
        let topology = classic_ring(3).unwrap();
        let mut forks = vec![ForkCell::new(), ForkCell::new(), ForkCell::new()];
        forks[1].take_if_free(PhilosopherId::new(1));
        forks[2].take_if_free(PhilosopherId::new(1));
        let phils = sample_philosophers();
        let view = SystemView::new(&topology, 42, "test", &forks, &phils);

        assert_eq!(view.step(), 42);
        assert_eq!(view.program_name(), "test");
        assert_eq!(view.num_philosophers(), 3);
        assert!(view.someone_eating());
        assert_eq!(view.in_phase(Phase::Hungry), vec![PhilosopherId::new(0)]);
        assert_eq!(view.holder_of(ForkId::new(1)), Some(PhilosopherId::new(1)));
        assert_eq!(view.holder_of(ForkId::new(0)), None);
        assert_eq!(view.total_meals(), 4);
        assert_eq!(
            view.philosopher(PhilosopherId::new(2)).phase,
            Phase::Thinking
        );
        assert_eq!(view.forks().len(), 3);
        assert_eq!(view.topology().num_philosophers(), 3);
    }
}
