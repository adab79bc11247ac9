//! The seat interpreter: one philosopher executing any [`AlgorithmKind`]
//! program, step by atomic step, against the table's shared fork cells.
//!
//! A [`Seat`] owns exactly what a philosopher owns in the paper: its private
//! program state (one of the simulator's `AnyState` values) and its private
//! randomness.  [`Seat::step_once`] locks the philosopher's two forks in
//! global fork-id order — so lock *acquisition* can never deadlock, while
//! protocol-level deadlocks (the naive baseline's hold-and-wait cycle)
//! remain faithfully reachable — and executes one
//! [`Program::step`](gdp_sim::Program::step) through
//! [`StepCtx::for_fork_pair`](gdp_sim::StepCtx::for_fork_pair).  The step
//! code is literally the `gdp-algorithms` implementation the simulator and
//! the exact model checker run; the runtime adds only the locking, the
//! blocking/backoff policy, and wall-clock statistics.

use crate::table::DiningTable;
use gdp_algorithms::{AlgorithmKind, AnyProgram, AnyState};
use gdp_observe::{Event, SharedSink};
use gdp_sim::{record_step_events, Action, Phase, Program, ProgramObservation, StepCtx};
use gdp_topology::{ForkEnds, ForkId, PhilosopherId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest single backoff nap while waiting for a fork; bounds how stale a
/// missed courtesy-condition change can get.
const MAX_BACKOFF: Duration = Duration::from_micros(256);

/// A philosopher's handle onto a [`DiningTable`]: the object a worker thread
/// uses to run critical sections that need both of its forks.
///
/// The seat carries the philosopher's *private* program state across meals,
/// exactly like the simulator keeps one state per philosopher; obtain at
/// most one seat per philosopher and drive it from one thread.
pub struct Seat {
    table: Arc<DiningTable>,
    me: PhilosopherId,
    ends: ForkEnds,
    program: AnyProgram,
    state: AnyState,
    rng: ChaCha8Rng,
    hungry_since: Option<Instant>,
    stall: u32,
    sink: Option<SharedSink>,
    seq: u64,
}

impl std::fmt::Debug for Seat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Seat")
            .field("me", &self.me)
            .field("ends", &self.ends)
            .field("state", &self.state)
            .field("stall", &self.stall)
            .field("seq", &self.seq)
            .field("sink", &self.sink.as_ref().map(|_| "<EventSink>"))
            .finish_non_exhaustive()
    }
}

impl Seat {
    /// Creates the seat for `philosopher`.  Only [`DiningTable::seat`] does
    /// this.
    pub(crate) fn new(table: Arc<DiningTable>, philosopher: PhilosopherId) -> Self {
        let ends = table.topology().forks_of(philosopher);
        let program = table.algorithm().program();
        // Derive a distinct per-seat stream from the table seed; the odd
        // multiplier is the usual Weyl/Fibonacci hashing constant.
        let seed = table
            .seed()
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(philosopher.raw()) + 1));
        Seat {
            state: program.initial_state(),
            program,
            table,
            me: philosopher,
            ends,
            rng: ChaCha8Rng::seed_from_u64(seed),
            hungry_since: None,
            stall: 0,
            sink: None,
            seq: 0,
        }
    }

    /// Attaches (or detaches, with `None`) a structured-event sink.
    ///
    /// Each subsequent [`step_once`](Seat::step_once) records the step's
    /// events through [`record_step_events`], the simulator's own mapping,
    /// stamped with this seat's private **sequence number** — the runtime's
    /// logical clock.  Real threads have no global step order, so clocks are
    /// only comparable *per actor*; merged traces are therefore sorted by
    /// `(actor, clock)` and are not byte-reproducible across runs (unlike
    /// the simulator's).
    pub fn set_event_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Emits a watchdog event for this seat at its next sequence number.
    pub(crate) fn note_watchdog(&mut self) {
        if let Some(sink) = &self.sink {
            self.seq += 1;
            let event = Event::Watchdog {
                clock: self.seq,
                actor: self.me.raw(),
            };
            sink.record(&event);
        }
    }

    /// Emits a crash-stop event for this seat at its next sequence number.
    pub(crate) fn note_crash(&mut self) {
        if let Some(sink) = &self.sink {
            self.seq += 1;
            let event = Event::Crash {
                clock: self.seq,
                actor: self.me.raw(),
            };
            sink.record(&event);
        }
    }

    /// The philosopher this seat belongs to.
    #[must_use]
    pub fn philosopher(&self) -> PhilosopherId {
        self.me
    }

    /// The algorithm this seat interprets.
    #[must_use]
    pub fn algorithm(&self) -> AlgorithmKind {
        self.table.algorithm()
    }

    /// The two forks this seat contends for.
    #[must_use]
    pub fn forks(&self) -> (ForkId, ForkId) {
        (self.ends.left, self.ends.right)
    }

    /// The observable part of the seat's program state — phase, committed
    /// fork, program-counter label — exactly as the simulator reports it.
    #[must_use]
    pub fn observation(&self) -> ProgramObservation {
        self.program.observation(&self.state, self.ends)
    }

    /// The seat's coarse phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.observation().phase
    }

    /// Returns `true` if this philosopher currently holds `fork`.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is not adjacent to this philosopher.
    #[must_use]
    pub fn holds(&self, fork: ForkId) -> bool {
        assert!(
            self.ends.contains(fork),
            "philosopher {} is not adjacent to fork {fork}",
            self.me
        );
        self.table.fork(fork).holder() == Some(self.me)
    }

    /// Number of meals completed from this seat so far.
    #[must_use]
    pub fn meals(&self) -> u64 {
        self.table.counters(self.me).meals()
    }

    /// Executes **one atomic step** of the seat's program and returns the
    /// action taken, exactly as [`Engine::step_philosopher`] would for the
    /// same program state — except that here the atomicity is real: both
    /// fork mutexes are held for the duration of the step.
    ///
    /// This is a low-level entry point.  Most callers want [`dine`]; tests
    /// use `step_once` to drive seats into specific protocol states (e.g.
    /// forcing the naive baseline's hold-and-wait deadlock
    /// deterministically).
    ///
    /// [`Engine::step_philosopher`]: gdp_sim::Engine::step_philosopher
    /// [`dine`]: Seat::dine
    pub fn step_once(&mut self) -> Action {
        let phase_before = self.observation().phase;
        let ends = self.ends;
        // Lock in global fork-id order: every seat orders the same way, so
        // the two acquisitions cannot participate in a lock cycle.
        let (lo, hi) = if ends.left.index() <= ends.right.index() {
            (ends.left, ends.right)
        } else {
            (ends.right, ends.left)
        };
        let table = &self.table;
        let mut guard_lo = table.fork(lo).lock();
        let mut guard_hi = table.fork(hi).lock();
        let free_lo_before = guard_lo.is_free();
        let free_hi_before = guard_hi.is_free();
        let action = {
            let (left_cell, right_cell) = if ends.left == lo {
                (&mut *guard_lo, &mut *guard_hi)
            } else {
                (&mut *guard_hi, &mut *guard_lo)
            };
            let mut ctx = StepCtx::for_fork_pair(
                self.me,
                ends,
                left_cell,
                right_cell,
                &mut self.rng,
                table.topology().num_forks(),
            );
            self.program.step(&mut self.state, &mut ctx)
        };
        let freed_lo = !free_lo_before && guard_lo.is_free();
        let freed_hi = !free_hi_before && guard_hi.is_free();
        drop(guard_hi);
        drop(guard_lo);
        if freed_lo {
            table.fork(lo).notify_released();
        }
        if freed_hi {
            table.fork(hi).notify_released();
        }

        // Phase-transition accounting, mirroring the engine's bookkeeping.
        let phase_after = self.observation().phase;
        let started_meal = phase_before != Phase::Eating && phase_after == Phase::Eating;
        if phase_before != Phase::Hungry && phase_after == Phase::Hungry {
            self.hungry_since = Some(Instant::now());
        }
        if started_meal {
            if let Some(since) = self.hungry_since.take() {
                let nanos = since.elapsed().as_nanos() as u64;
                self.table.counters(self.me).record_wait_nanos(nanos);
                self.table.histogram().record(nanos);
            }
        }
        if phase_before == Phase::Eating && phase_after != Phase::Eating {
            self.table.counters(self.me).record_meal();
        }

        // Structured events at this seat's next sequence number.
        if let Some(sink) = &self.sink {
            self.seq += 1;
            record_step_events(&**sink, self.seq, self.me, action, started_meal);
        }
        action
    }

    /// Acquires both forks by running the seat's algorithm to completion of
    /// one meal: steps the program until it is eating, runs `critical`,
    /// then keeps stepping until the meal is finished (forks released,
    /// request lists and guest books maintained — whatever the algorithm's
    /// exit protocol is).
    ///
    /// Blocks until the critical section has run.  For GDP2 this terminates
    /// with probability 1 under any OS schedule (Theorem 4); for the naive
    /// baseline it may block forever — use [`try_dine_until`] to bound it.
    ///
    /// [`try_dine_until`]: Seat::try_dine_until
    pub fn dine<R>(&mut self, critical: impl FnOnce() -> R) -> R {
        self.dine_impl(None, critical)
            .expect("unbounded dine runs until the meal completes")
    }

    /// Watchdog-bounded [`dine`](Seat::dine): gives up once `deadline` has
    /// passed without the critical section having started, returning `None`.
    ///
    /// On timeout the seat is left **parked mid-protocol**: its program
    /// state and any forks it holds are untouched, exactly as if the thread
    /// had been suspended by the scheduler (so a deadlocked system stays
    /// observably deadlocked — the property the cross-validation suite
    /// pins).  A later `dine`/`try_dine_until` resumes from the parked
    /// state; call [`reset_trying`](Seat::reset_trying) instead to
    /// crash-stop the philosopher and release its forks.
    pub fn try_dine_until<R>(
        &mut self,
        deadline: Instant,
        critical: impl FnOnce() -> R,
    ) -> Option<R> {
        self.dine_impl(Some(deadline), critical)
    }

    fn dine_impl<R, F: FnOnce() -> R>(
        &mut self,
        deadline: Option<Instant>,
        critical: F,
    ) -> Option<R> {
        let mut critical = Some(critical);
        let mut result = None;
        loop {
            // Only bail while the meal has not started; the exit protocol
            // (deregister, sign, release) always completes.
            if result.is_none() {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return None;
                    }
                }
            }
            let phase_before = self.observation().phase;
            let action = self.step_once();
            let phase_after = self.observation().phase;
            if phase_after == Phase::Eating {
                if let Some(critical) = critical.take() {
                    self.stall = 0;
                    result = Some(critical());
                }
                continue;
            }
            if phase_before == Phase::Eating {
                // The meal just completed (counted by step_once).
                return result;
            }
            if self.step_was_productive(action, phase_before != phase_after) {
                self.stall = 0;
            } else {
                self.backoff();
            }
        }
    }

    /// Crash-stops the philosopher: releases any forks it holds, withdraws
    /// its requests, and resets the program state to the algorithm's initial
    /// state.  Statistics are kept.  This is the recovery path after a
    /// tripped watchdog left the seat parked mid-protocol.
    pub fn reset_trying(&mut self) {
        let ends = self.ends;
        let (lo, hi) = if ends.left.index() <= ends.right.index() {
            (ends.left, ends.right)
        } else {
            (ends.right, ends.left)
        };
        let table = &self.table;
        let mut guard_lo = table.fork(lo).lock();
        let mut guard_hi = table.fork(hi).lock();
        let freed_lo = guard_lo.release(self.me);
        let freed_hi = guard_hi.release(self.me);
        guard_lo.remove_request(self.me);
        guard_hi.remove_request(self.me);
        drop(guard_hi);
        drop(guard_lo);
        if freed_lo {
            table.fork(lo).notify_released();
        }
        if freed_hi {
            table.fork(hi).notify_released();
        }
        self.state = self.program.initial_state();
        self.hungry_since = None;
        self.stall = 0;
    }

    /// Did the step advance the protocol?  Failed first-fork tests and
    /// busy-waits did not; everything that changed phase, acquired or
    /// released a fork, or moved the program counter did.
    fn step_was_productive(&self, action: Action, phase_changed: bool) -> bool {
        if phase_changed || action.acquired_fork() {
            return true;
        }
        match action {
            Action::TakeFirst { success, .. } => success,
            // A failed second take released the first fork and loops back to
            // re-choosing — there is fresh work to do immediately.
            Action::TakeSecond { .. } => true,
            // Generic test-and-set (the baselines): productive iff it got
            // the fork.
            Action::TestAndSet { fork } => self.holds(fork),
            Action::Wait => false,
            _ => true,
        }
    }

    /// Exponential-backoff nap on the fork the seat is trying to acquire:
    /// wakes on that fork's release notification or after a bounded timeout
    /// (whichever is first), so courtesy-condition changes are re-examined
    /// promptly without busy-burning a core.
    fn backoff(&mut self) {
        self.stall = self.stall.saturating_add(1);
        let nap = Duration::from_micros(1u64 << self.stall.min(8)).min(MAX_BACKOFF);
        let target = self
            .observation()
            .committed
            .filter(|&f| !self.holds(f))
            .unwrap_or_else(|| {
                if !self.holds(self.ends.left) {
                    self.ends.left
                } else {
                    self.ends.right
                }
            });
        self.table.fork(target).wait_for_release(nap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::DiningTable;
    use gdp_topology::builders::classic_ring;

    #[test]
    fn step_once_mirrors_the_simulator_action_sequence() {
        // One philosopher alone on a 2-ring, GDP2: the action sequence of a
        // full meal must be exactly the simulator's (Table 4 line by line).
        let table = DiningTable::for_topology(classic_ring(2).unwrap());
        let mut seat = table.seat(PhilosopherId::new(0));
        assert_eq!(seat.phase(), Phase::Thinking);
        assert_eq!(seat.step_once(), Action::BecomeHungry);
        assert_eq!(seat.step_once(), Action::RegisterRequests);
        assert!(matches!(
            seat.step_once(),
            Action::Commit { random: false, .. }
        ));
        assert!(matches!(
            seat.step_once(),
            Action::TakeFirst { success: true, .. }
        ));
        assert!(matches!(
            seat.step_once(),
            Action::RelabelFork { .. } | Action::Custom(_)
        ));
        assert!(matches!(
            seat.step_once(),
            Action::TakeSecond { success: true, .. }
        ));
        assert_eq!(seat.phase(), Phase::Eating);
        assert_eq!(seat.step_once(), Action::FinishEating);
        assert_eq!(seat.phase(), Phase::Thinking);
        assert_eq!(seat.meals(), 1);
        assert_eq!(seat.observation().label, "GDP2.1");
    }

    #[test]
    fn a_seat_and_the_engine_record_the_same_events() {
        use gdp_observe::jsonl::encode_event;
        use gdp_observe::MemorySink;
        use gdp_sim::{Engine, SimConfig};
        // Philosopher 0 alone on the 2-ring through one GDP2 meal, the seven
        // steps above, on each substrate with its own sink.
        let p0 = PhilosopherId::new(0);
        let engine_sink = Arc::new(MemorySink::new());
        let mut engine = Engine::new(
            classic_ring(2).unwrap(),
            AlgorithmKind::Gdp2.program(),
            SimConfig::default(),
        );
        engine.set_event_sink(Some(engine_sink.clone()));
        let seat_sink = Arc::new(MemorySink::new());
        let table = DiningTable::for_topology(classic_ring(2).unwrap());
        let mut seat = table.seat(p0);
        seat.set_event_sink(Some(seat_sink.clone()));
        for _ in 0..7 {
            engine.step_philosopher(p0);
            seat.step_once();
        }
        assert_eq!((engine.meals_of(p0), seat.meals()), (1, 1));
        // Clocks aside (step indices from 0 against sequence numbers from
        // 1), the two traces are the same events in the same order.
        let unclocked = |sink: &MemorySink| -> Vec<String> {
            sink.take()
                .iter()
                .map(|event| {
                    let line = encode_event(event);
                    let (_clock, rest) = line.split_once(',').expect("a clock field");
                    rest.to_string()
                })
                .collect()
        };
        let engine_events = unclocked(&engine_sink);
        assert_eq!(engine_events, unclocked(&seat_sink));
        for kind in ["acquire", "meal_start", "meal_finish"] {
            assert_eq!(
                engine_events
                    .iter()
                    .filter(|event| event.contains(&format!("\"type\":\"{kind}\"")))
                    .count(),
                if kind == "acquire" { 2 } else { 1 },
                "{kind}"
            );
        }
    }

    #[test]
    fn every_algorithm_dines_alone() {
        // With no contention, all six programs complete meals on real
        // threads — including the naive baseline.
        for algorithm in AlgorithmKind::all() {
            let table = DiningTable::for_algorithm(classic_ring(2).unwrap(), algorithm);
            let mut seat = table.seat(PhilosopherId::new(0));
            for _ in 0..3 {
                seat.dine(|| {});
            }
            assert_eq!(seat.meals(), 3, "{algorithm}");
            let (left, right) = seat.forks();
            assert!(table.fork(left).is_free(), "{algorithm}");
            assert!(table.fork(right).is_free(), "{algorithm}");
        }
    }

    #[test]
    fn try_dine_until_parks_and_reset_trying_recovers() {
        // Seat 0 eats-in-progress cannot be interrupted, so instead park a
        // naive philosopher that can never get its second fork.
        let table = DiningTable::for_algorithm(classic_ring(3).unwrap(), AlgorithmKind::Naive);
        let mut blocker = table.seat(PhilosopherId::new(1));
        let mut seat = table.seat(PhilosopherId::new(0));
        // P1 takes its left fork and parks there.
        blocker.step_once(); // hungry
        blocker.step_once(); // take left
        let (b_left, _) = blocker.forks();
        assert!(blocker.holds(b_left));
        assert_eq!(
            seat.forks().1,
            b_left,
            "on the classic ring P0's right fork is P1's left"
        );
        // P0's right fork is P1's left on the ring, so P0 wedges after its
        // own left take; the watchdog must fire and leave P0 holding left.
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(seat.try_dine_until(deadline, || ()).is_none());
        let (left, _right) = seat.forks();
        assert!(seat.holds(left), "timeout parks the seat mid-protocol");
        assert_eq!(seat.meals(), 0);
        // Crash-stop: forks released, state back to thinking.
        seat.reset_trying();
        assert!(!seat.holds(left));
        assert_eq!(seat.phase(), Phase::Thinking);
        assert!(table.fork(left).is_free());
    }

    #[test]
    fn same_seed_gives_seats_identical_random_streams() {
        let t1 = DiningTable::new(classic_ring(4).unwrap(), AlgorithmKind::Lr1, 7);
        let t2 = DiningTable::new(classic_ring(4).unwrap(), AlgorithmKind::Lr1, 7);
        // LR1's first commit is a coin flip; stepping the same philosopher
        // alone on both tables must draw the same side.
        for p in 0..4u32 {
            let mut a = t1.seat(PhilosopherId::new(p));
            let mut b = t2.seat(PhilosopherId::new(p));
            a.step_once(); // hungry
            b.step_once();
            let act_a = a.step_once(); // random commit
            let act_b = b.step_once();
            assert_eq!(act_a, act_b, "philosopher {p}");
            a.reset_trying();
            b.reset_trying();
        }
    }
}
