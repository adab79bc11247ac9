//! The algorithm interface: programs, atomic steps, and the per-step context.
//!
//! A [`Program`] is the code run by **every** philosopher — the symmetry
//! requirement of the paper is enforced structurally: the engine instantiates
//! one `Program` value for the whole system, gives every philosopher the same
//! [`Program::initial_state`], and philosophers can only influence each other
//! through the fork operations exposed by [`StepCtx`].
//!
//! One call to [`Program::step`] models one numbered line of the paper's
//! pseudo-code (Tables 1–4) and is atomic with respect to the adversary.

use crate::draws::DrawTape;
use crate::fork::ForkCell;
use gdp_topology::{ForkEnds, ForkId, PhilosopherId, Side};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::hash::Hash;

/// Where a step's random draws come from: the engine's seeded RNG (normal
/// simulation) or a scripted [`DrawTape`] (exhaustive branch enumeration,
/// see [`crate::draws`]).
pub(crate) enum StepRandomness<'a> {
    /// Draws are sampled from the engine RNG.
    Sampled(&'a mut ChaCha8Rng),
    /// Draws are read from a scripted tape.
    Scripted(&'a mut DrawTape),
}

/// The coarse phase of a philosopher, used for progress / lockout analysis.
///
/// These are the `T` (trying) and `E` (eating) state sets of the paper's
/// progress statements, plus the thinking phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The philosopher is thinking.  In the paper's algorithms it becomes
    /// hungry the next time it is scheduled.
    Thinking,
    /// The philosopher is hungry and executing its trying section.
    Hungry,
    /// The philosopher is eating.
    Eating,
}

impl Phase {
    /// Returns `true` for [`Phase::Hungry`].
    #[must_use]
    pub fn is_hungry(self) -> bool {
        matches!(self, Phase::Hungry)
    }

    /// Returns `true` for [`Phase::Eating`].
    #[must_use]
    pub fn is_eating(self) -> bool {
        matches!(self, Phase::Eating)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Thinking => write!(f, "thinking"),
            Phase::Hungry => write!(f, "hungry"),
            Phase::Eating => write!(f, "eating"),
        }
    }
}

/// What a philosopher did in one atomic step.  Returned in the step's
/// [`StepRecord`](crate::StepRecord).
///
/// A meal has no action of its own: it starts at the step whose phase
/// transition enters [`Phase::Eating`], which is how
/// [`RunOutcome::first_meal_step`](crate::RunOutcome::first_meal_step) and
/// the engine's `MealStart` events define it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// The philosopher became hungry and entered its trying section.
    BecomeHungry,
    /// LR2/GDP2 line 2: the philosopher inserted its id into both request lists.
    RegisterRequests,
    /// The philosopher committed to `fork` as the first fork to acquire.
    /// `random` is `true` for LR1/LR2 (a coin flip) and `false` for GDP1/GDP2
    /// (deterministic choice of the higher-`nr` fork).
    Commit {
        /// The fork committed to.
        fork: ForkId,
        /// Whether the commitment was the outcome of a random draw.
        random: bool,
    },
    /// Attempted to take the first fork (test-and-set).
    TakeFirst {
        /// The fork tested.
        fork: ForkId,
        /// Whether the test-and-set succeeded.
        success: bool,
    },
    /// Attempted to take the second fork; on failure the first fork was
    /// released in the same atomic step, as in line 4 of LR1.
    TakeSecond {
        /// The fork tested.
        fork: ForkId,
        /// Whether the test-and-set succeeded.
        success: bool,
    },
    /// GDP1/GDP2: the philosopher re-drew the priority number of the fork it
    /// holds because it collided with the other fork's number.
    RelabelFork {
        /// The fork whose number changed.
        fork: ForkId,
        /// The new priority number.
        nr: u32,
    },
    /// A generic atomic test-and-set on a fork, for user-defined programs.
    TestAndSet {
        /// The fork tested.
        fork: ForkId,
    },
    /// The philosopher finished eating (and released its forks / signed guest
    /// books, depending on the algorithm).
    FinishEating,
    /// The philosopher released `fork` outside of the combined steps above.
    Release {
        /// The fork released.
        fork: ForkId,
    },
    /// The philosopher was scheduled but could not act (busy-wait).
    Wait,
    /// An algorithm-specific action not covered by the shared vocabulary.
    Custom(&'static str),
}

impl Action {
    /// Returns `true` if the action acquired a fork.
    #[must_use]
    pub fn acquired_fork(&self) -> bool {
        matches!(
            self,
            Action::TakeFirst { success: true, .. } | Action::TakeSecond { success: true, .. }
        )
    }
}

/// What an adversary (and the metrics layer) may observe about a
/// philosopher's private program state.
///
/// The paper's adversary has complete information about the computation so
/// far, including commitments made by philosophers (the "empty arrow" in the
/// paper's figures); programs expose exactly that through this struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramObservation {
    /// The philosopher's coarse phase.
    pub phase: Phase,
    /// The fork the philosopher is currently committed to acquiring first
    /// (the empty arrow of the paper's figures), if any.
    pub committed: Option<ForkId>,
    /// A short label identifying the program counter, e.g. `"LR1.3"`.
    pub label: &'static str,
}

/// A philosopher algorithm.
///
/// Implementations for the paper's Tables 1–4 (LR1, LR2, GDP1, GDP2) live in
/// the `gdp-algorithms` crate; custom programs can be supplied by users.
///
/// The associated `State` is the philosopher's *private* memory.  It must be
/// `Clone + Eq + Hash` so that executions can be snapshotted and compared —
/// the analysis crate uses this to detect the no-progress cycles that the
/// paper's adversaries induce.
pub trait Program {
    /// Private per-philosopher control state.
    type State: Clone + Eq + Hash + fmt::Debug;

    /// A short human-readable name, e.g. `"LR1"`.
    fn name(&self) -> &'static str;

    /// The state every philosopher starts in (the same for all, by symmetry).
    fn initial_state(&self) -> Self::State;

    /// Every private state a philosopher of this program can be in, each
    /// once.
    ///
    /// The list is the program's code table: the exact state encoding
    /// ([`StateCodec`](crate::StateCodec)) writes a private state as its
    /// index here, so encoding a state missing from the list panics.
    fn private_states(&self) -> Vec<Self::State>;

    /// The observable part of a private state.
    ///
    /// `ends` is the philosopher's own fork pair, provided so the program can
    /// report which concrete fork it is committed to (the "empty arrow" of
    /// the paper's figures) without storing topology information in its
    /// private state.
    fn observation(&self, state: &Self::State, ends: ForkEnds) -> ProgramObservation;

    /// Executes one atomic step for the scheduled philosopher.
    ///
    /// The step may perform any number of operations on the philosopher's own
    /// two forks through `ctx`; the engine guarantees the whole step is
    /// atomic with respect to other philosophers.
    fn step(&self, state: &mut Self::State, ctx: &mut StepCtx<'_>) -> Action;
}

/// The restricted, per-step view a philosopher has of the system.
///
/// A `StepCtx` holds exactly the stepping philosopher's two fork cells and
/// its private randomness, whether the cells come from the engine state's
/// fork slice or from the threaded runtime's two mutex guards.  Any attempt
/// to operate on a fork that is not adjacent to the philosopher panics: that
/// would violate the problem's full-distribution requirement and indicates a
/// bug in an algorithm implementation.
///
/// The context is also the one place that fixes the paper's model:
/// [`random_side`](Self::random_side) flips a fair coin and
/// [`random_nr`](Self::random_nr) draws from `[1, k]`, `k` the number of
/// forks — the smallest range meeting GDP1/GDP2's requirement `m ≥ k`.
/// Hunger is not drawn at all: programs move a scheduled thinking
/// philosopher straight into its trying section, the maximally contended
/// regime every argument of the paper runs in.
pub struct StepCtx<'a> {
    me: PhilosopherId,
    ends: ForkEnds,
    /// The cell of `ends.left`.
    left: &'a mut ForkCell,
    /// The cell of `ends.right`.
    right: &'a mut ForkCell,
    randomness: StepRandomness<'a>,
    num_forks: u32,
}

impl<'a> StepCtx<'a> {
    /// Creates a step context over the cells of `ends.left` and `ends.right`
    /// in a system of `num_forks` forks.  The engine state's step and
    /// [`for_fork_pair`](Self::for_fork_pair) call it.
    pub(crate) fn new(
        me: PhilosopherId,
        ends: ForkEnds,
        left: &'a mut ForkCell,
        right: &'a mut ForkCell,
        num_forks: usize,
        randomness: StepRandomness<'a>,
    ) -> Self {
        StepCtx {
            me,
            ends,
            left,
            right,
            randomness,
            num_forks: num_forks as u32,
        }
    }

    /// Creates a step context over exactly one philosopher's two fork cells —
    /// the entry point for **real-concurrency** runtimes.
    ///
    /// `gdp-runtime` stores each [`ForkCell`] behind its own mutex; to execute
    /// one atomic program step it locks the philosopher's two cells (in
    /// global fork-id order, so lock acquisition cannot deadlock), builds this
    /// context from the two guards, and runs the *same*
    /// [`Program::step`] code the simulator runs.  Holding both locks for the
    /// duration of the step is what realizes the paper's "test-and-set
    /// operations on the forks are performed atomically" assumption on real
    /// threads, so the two layers cannot drift semantically.
    ///
    /// Random draws are sampled from `rng` (each seat owns a private seeded
    /// RNG).  `num_forks` is the number of forks `k` of the whole table: the
    /// two cells alone cannot tell it, and priority numbers are drawn from
    /// `[1, k]` exactly as in the engine.
    ///
    /// # Panics
    ///
    /// Panics if `ends.left == ends.right`: a philosopher contends for two
    /// *distinct* forks by definition of the problem, and two aliasing
    /// `&mut` cells could not be constructed anyway.
    pub fn for_fork_pair(
        me: PhilosopherId,
        ends: ForkEnds,
        left: &'a mut ForkCell,
        right: &'a mut ForkCell,
        rng: &'a mut ChaCha8Rng,
        num_forks: usize,
    ) -> Self {
        assert!(
            ends.left != ends.right,
            "philosopher {me} must contend for two distinct forks, got {} twice",
            ends.left
        );
        StepCtx::new(
            me,
            ends,
            left,
            right,
            num_forks,
            StepRandomness::Sampled(rng),
        )
    }

    /// The identity of the philosopher executing this step.
    ///
    /// Programs must not branch on this value (that would break symmetry);
    /// it is exposed because the fork-local data structures of LR2/GDP2 store
    /// philosopher ids in request lists and guest books.  The symmetry tests
    /// in `gdp-algorithms` verify that behaviour is invariant under
    /// relabelling.
    #[must_use]
    pub fn me(&self) -> PhilosopherId {
        self.me
    }

    /// This philosopher's left fork.
    #[must_use]
    pub fn left(&self) -> ForkId {
        self.ends.left
    }

    /// This philosopher's right fork.
    #[must_use]
    pub fn right(&self) -> ForkId {
        self.ends.right
    }

    /// The fork on `side`.
    #[must_use]
    pub fn fork_on(&self, side: Side) -> ForkId {
        self.ends.on(side)
    }

    /// Given one of this philosopher's forks, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is not adjacent to this philosopher.
    #[must_use]
    pub fn other(&self, fork: ForkId) -> ForkId {
        self.check_adjacent(fork);
        self.ends.other(fork)
    }

    fn check_adjacent(&self, fork: ForkId) {
        assert!(
            self.ends.contains(fork),
            "philosopher {} attempted to access fork {} which is not adjacent to it \
             (adjacent forks: {} and {}); this violates full distribution",
            self.me,
            fork,
            self.ends.left,
            self.ends.right
        );
    }

    fn cell(&mut self, fork: ForkId) -> &mut ForkCell {
        self.check_adjacent(fork);
        if fork == self.ends.left {
            self.left
        } else {
            self.right
        }
    }

    fn cell_ref(&self, fork: ForkId) -> &ForkCell {
        self.check_adjacent(fork);
        if fork == self.ends.left {
            self.left
        } else {
            self.right
        }
    }

    /// Returns `true` if `fork` is currently free.
    #[must_use]
    pub fn is_free(&self, fork: ForkId) -> bool {
        self.cell_ref(fork).is_free()
    }

    /// Atomic test-and-set: takes `fork` if it is free, returning whether the
    /// acquisition succeeded.
    pub fn take_if_free(&mut self, fork: ForkId) -> bool {
        let me = self.me;
        self.cell(fork).take_if_free(me)
    }

    /// Releases `fork` if this philosopher holds it; returns whether a
    /// release happened.
    pub fn release(&mut self, fork: ForkId) -> bool {
        let me = self.me;
        self.cell(fork).release(me)
    }

    /// Returns `true` if this philosopher currently holds `fork`.
    #[must_use]
    pub fn holds(&self, fork: ForkId) -> bool {
        self.cell_ref(fork).holder() == Some(self.me)
    }

    /// The priority number `nr` of `fork` (GDP1/GDP2).
    #[must_use]
    pub fn nr(&self, fork: ForkId) -> u32 {
        self.cell_ref(fork).nr()
    }

    /// Sets the priority number of `fork` (GDP1/GDP2 relabelling).
    pub fn set_nr(&mut self, fork: ForkId, value: u32) {
        self.cell(fork).set_nr(value);
    }

    /// Inserts this philosopher into the request list of `fork` (LR2/GDP2).
    pub fn insert_request(&mut self, fork: ForkId) {
        let me = self.me;
        self.cell(fork).insert_request(me);
    }

    /// Removes this philosopher from the request list of `fork` (LR2/GDP2).
    pub fn remove_request(&mut self, fork: ForkId) {
        let me = self.me;
        self.cell(fork).remove_request(me);
    }

    /// Signs the guest book of `fork` for this philosopher (LR2/GDP2).
    pub fn sign_guest_book(&mut self, fork: ForkId) {
        let me = self.me;
        self.cell(fork).sign_guest_book(me);
    }

    /// The courtesy condition `Cond(fork)` of LR2/GDP2 for this philosopher.
    #[must_use]
    pub fn courtesy_holds(&self, fork: ForkId) -> bool {
        self.cell_ref(fork).courtesy_holds(self.me)
    }

    /// Draws a uniformly random priority number in `[1, k]`, `k` the number
    /// of forks (Table 3 line 4).
    pub fn random_nr(&mut self) -> u32 {
        let k = self.num_forks;
        match &mut self.randomness {
            StepRandomness::Sampled(rng) => rng.gen_range(1..=k),
            StepRandomness::Scripted(tape) => tape.draw_uniform(k),
        }
    }

    /// Flips a fair coin for a side: `Left` or `Right` with probability 1/2
    /// each (Table 1 line 2).
    pub fn random_side(&mut self) -> Side {
        let left = match &mut self.randomness {
            StepRandomness::Sampled(rng) => rng.gen_bool(0.5),
            StepRandomness::Scripted(tape) => tape.draw_coin(),
        };
        if left {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Draws a random first fork: convenience wrapper around
    /// [`random_side`](Self::random_side).
    pub fn random_first_fork(&mut self) -> ForkId {
        let side = self.random_side();
        self.fork_on(side)
    }
}

impl fmt::Debug for StepCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepCtx")
            .field("me", &self.me)
            .field("left", &self.ends.left)
            .field("right", &self.ends.right)
            .field("num_forks", &self.num_forks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx_parts() -> (Vec<ForkCell>, ChaCha8Rng) {
        (
            vec![ForkCell::new(), ForkCell::new(), ForkCell::new()],
            ChaCha8Rng::seed_from_u64(42),
        )
    }

    /// Philosopher 0's context on forks 0 and 1 of the three in `forks`.
    fn make_ctx<'a>(forks: &'a mut [ForkCell], rng: &'a mut ChaCha8Rng) -> StepCtx<'a> {
        let num_forks = forks.len();
        let [left, right, ..] = forks else {
            panic!("the context needs two cells")
        };
        StepCtx::new(
            PhilosopherId::new(0),
            ForkEnds::new(ForkId::new(0), ForkId::new(1)),
            left,
            right,
            num_forks,
            StepRandomness::Sampled(rng),
        )
    }

    #[test]
    fn ctx_exposes_only_adjacent_forks() {
        let (mut forks, mut rng) = ctx_parts();
        let mut ctx = make_ctx(&mut forks, &mut rng);
        assert_eq!(ctx.left(), ForkId::new(0));
        assert_eq!(ctx.right(), ForkId::new(1));
        assert_eq!(ctx.other(ForkId::new(0)), ForkId::new(1));
        assert!(ctx.is_free(ForkId::new(0)));
        assert!(ctx.take_if_free(ForkId::new(0)));
        assert!(ctx.holds(ForkId::new(0)));
        assert!(ctx.release(ForkId::new(0)));
    }

    #[test]
    #[should_panic(expected = "violates full distribution")]
    fn touching_a_non_adjacent_fork_panics() {
        let (mut forks, mut rng) = ctx_parts();
        let mut ctx = make_ctx(&mut forks, &mut rng);
        let _ = ctx.take_if_free(ForkId::new(2));
    }

    #[test]
    fn random_nr_is_in_range() {
        // Three forks: every number in [1, 3] and nothing else.
        let (mut forks, mut rng) = ctx_parts();
        let mut ctx = make_ctx(&mut forks, &mut rng);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let nr = ctx.random_nr();
            assert!((1..=3).contains(&nr));
            seen[nr as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn request_and_guest_book_operations_are_scoped_to_me() {
        let (mut forks, mut rng) = ctx_parts();
        {
            let mut ctx = make_ctx(&mut forks, &mut rng);
            ctx.insert_request(ForkId::new(0));
            assert!(ctx.courtesy_holds(ForkId::new(0)));
            ctx.sign_guest_book(ForkId::new(0));
            ctx.remove_request(ForkId::new(0));
        }
        assert_eq!(forks[0].requests(), &[]);
        assert_eq!(forks[0].guest_book_len(), 1);
    }

    #[test]
    fn fork_pair_routes_each_fork_to_its_cell() {
        // The runtime-facing constructor routes every operation to the cell
        // of the fork it names, and draws numbers from the table's `k`.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut left = ForkCell::new();
        let mut right = ForkCell::new();
        right.set_nr(9);
        let ends = ForkEnds::new(ForkId::new(3), ForkId::new(7));
        let mut ctx = StepCtx::for_fork_pair(
            PhilosopherId::new(1),
            ends,
            &mut left,
            &mut right,
            &mut rng,
            8,
        );
        assert_eq!(ctx.left(), ForkId::new(3));
        assert_eq!(ctx.nr(ForkId::new(7)), 9, "reads route to the right cell");
        assert!(ctx.take_if_free(ForkId::new(3)));
        assert!(ctx.holds(ForkId::new(3)));
        assert!(!ctx.holds(ForkId::new(7)));
        ctx.insert_request(ForkId::new(7));
        ctx.set_nr(ForkId::new(3), 4);
        assert!(
            (1..=8).contains(&ctx.random_nr()),
            "draws span the table's k"
        );
        let _ = ctx;
        assert_eq!(left.holder(), Some(PhilosopherId::new(1)));
        assert_eq!(left.nr(), 4);
        assert!(right.is_free());
        assert_eq!(right.requests(), &[PhilosopherId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "two distinct forks")]
    fn fork_pair_backend_rejects_aliased_ends() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut left = ForkCell::new();
        let mut right = ForkCell::new();
        let _ = StepCtx::for_fork_pair(
            PhilosopherId::new(0),
            ForkEnds::new(ForkId::new(2), ForkId::new(2)),
            &mut left,
            &mut right,
            &mut rng,
            3,
        );
    }

    #[test]
    fn phase_predicates() {
        assert!(Phase::Hungry.is_hungry());
        assert!(!Phase::Thinking.is_hungry());
        assert!(Phase::Eating.is_eating());
        assert_eq!(Phase::Eating.to_string(), "eating");
    }

    #[test]
    fn action_acquired_fork_predicate() {
        assert!(Action::TakeFirst {
            fork: ForkId::new(0),
            success: true
        }
        .acquired_fork());
        assert!(!Action::TakeFirst {
            fork: ForkId::new(0),
            success: false
        }
        .acquired_fork());
        assert!(!Action::Wait.acquired_fork());
    }
}
