//! The shared state of one fork (resource) in the threaded runtime.
//!
//! A [`SharedFork`] is the simulator's [`ForkCell`] — holder, priority
//! number `nr`, request list, guest book — behind a [`std::sync::Mutex`],
//! plus a condition variable that blocked seats wait on.  Using the *same*
//! cell type as `gdp-sim` is the point: the runtime's seats execute the same
//! [`Program`](gdp_sim::Program) step code against the same shared-state
//! representation, so the simulated and the real-thread semantics cannot
//! drift.

use gdp_sim::ForkCell;
use gdp_topology::PhilosopherId;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One fork (resource) shared between threads.
///
/// All mutation happens inside a short mutex-protected critical section
/// driven by [`Seat::step_once`](crate::Seat::step_once), which locks the
/// stepping philosopher's two forks in global id order for the duration of
/// one atomic program step.  Waiting for a busy fork is done on a condition
/// variable with a bounded timeout, so blocked threads consume no CPU but
/// can never miss a courtesy-condition change either.
#[derive(Debug, Default)]
pub struct SharedFork {
    cell: Mutex<ForkCell>,
    released: Condvar,
}

impl SharedFork {
    /// Creates a free fork in the symmetric initial state (`nr == 0`, empty
    /// request list and guest book), as the paper requires.
    #[must_use]
    pub fn new() -> Self {
        SharedFork::default()
    }

    /// Locks the underlying cell.  Only the seat interpreter does this.
    ///
    /// A poisoned lock (a seat panicked mid-step) is recovered as is: the
    /// cell stays readable, and the panic surfaces on the panicking thread.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ForkCell> {
        self.cell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes every thread waiting for this fork to be released.
    pub(crate) fn notify_released(&self) {
        self.released.notify_all();
    }

    /// Blocks until the fork is released or `timeout` elapses; returns
    /// immediately if the fork is currently free (e.g. when the caller is
    /// blocked on the courtesy condition rather than on availability).
    pub(crate) fn wait_for_release(&self, timeout: Duration) {
        let cell = self.lock();
        if cell.is_free() {
            return;
        }
        // Woken or timed out, the guard is dropped: the caller re-checks.
        let _ = self.released.wait_timeout(cell, timeout);
    }

    /// The current priority number `nr` (diagnostics / tests).
    #[must_use]
    pub fn nr(&self) -> u32 {
        self.lock().nr()
    }

    /// Returns `true` if no thread currently holds the fork.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.lock().is_free()
    }

    /// The holder, if any (diagnostics / tests).
    #[must_use]
    pub fn holder(&self) -> Option<PhilosopherId> {
        self.lock().holder()
    }

    /// A snapshot of the request list (diagnostics / tests).
    #[must_use]
    pub fn requests(&self) -> Vec<PhilosopherId> {
        self.lock().requests().to_vec()
    }

    /// Number of distinct philosophers that have signed the guest book
    /// (diagnostics / tests).
    #[must_use]
    pub fn guest_book_len(&self) -> usize {
        self.lock().guest_book_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn p(i: u32) -> PhilosopherId {
        PhilosopherId::new(i)
    }

    #[test]
    fn fresh_fork_is_symmetric_initial_state() {
        let fork = SharedFork::new();
        assert!(fork.is_free());
        assert_eq!(fork.holder(), None);
        assert_eq!(fork.nr(), 0);
        assert!(fork.requests().is_empty());
        assert_eq!(fork.guest_book_len(), 0);
    }

    #[test]
    fn cell_operations_round_trip_through_the_lock() {
        let fork = SharedFork::new();
        {
            let mut cell = fork.lock();
            assert!(cell.take_if_free(p(0)));
            cell.insert_request(p(1));
            cell.set_nr(6);
        }
        assert_eq!(fork.holder(), Some(p(0)));
        assert_eq!(fork.requests(), vec![p(1)]);
        assert_eq!(fork.nr(), 6);
        assert!(fork.lock().release(p(0)));
        assert!(fork.is_free());
    }

    #[test]
    fn wait_for_release_returns_immediately_on_a_free_fork() {
        let fork = SharedFork::new();
        let started = Instant::now();
        fork.wait_for_release(Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_for_release_wakes_on_notify() {
        let fork = Arc::new(SharedFork::new());
        assert!(fork.lock().take_if_free(p(0)));
        let waiter = {
            let fork = Arc::clone(&fork);
            std::thread::spawn(move || {
                let started = Instant::now();
                fork.wait_for_release(Duration::from_secs(10));
                started.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        fork.lock().release(p(0));
        fork.notify_released();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "the waiter should wake on the release, waited {waited:?}"
        );
    }
}
