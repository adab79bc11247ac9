//! The shared state of one fork.
//!
//! The paper's *full distribution* requirement says that "the only shared
//! variables are the forks".  Everything an algorithm shares therefore lives
//! in [`ForkCell`]:
//!
//! * the **holder** — which philosopher (if any) currently holds the fork;
//! * the **`nr` priority number** used by GDP1/GDP2 (Section 4), initially 0
//!   for every fork so that all forks start in the same state (symmetry);
//! * the **request list `r`** and **guest book `g`** used by LR2 and GDP2
//!   (Sections 3.2 and 5).
//!
//! The engine guarantees that each [`Program::step`](crate::Program::step)
//! call — and hence each sequence of `ForkCell` operations performed inside
//! it — is executed atomically with respect to the scheduler, which is the
//! paper's atomic test-and-set assumption.

use gdp_topology::PhilosopherId;

/// The complete shared state of a single fork.
///
/// All fields are private to this crate; outside it the atomic-step
/// operations below are the only way to read or modify them, mirroring the
/// paper's "test-and-set operations on the forks are performed atomically".
/// Inside it, the state codec ([`crate::snapshot`]) reads and writes them
/// field by field.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct ForkCell {
    pub(crate) holder: Option<PhilosopherId>,
    pub(crate) nr: u32,
    /// Incoming requests, in insertion order (LR2 / GDP2 line 2).
    pub(crate) requests: Vec<PhilosopherId>,
    /// Guest book: every philosopher that has eaten with this fork, once
    /// each, the most recent signer last.  `Cond` compares only the order
    /// of two signatures on the same fork, so the order is all it keeps: no
    /// counter or clock (preserving full distribution), and finitely many
    /// states.
    pub(crate) guest_book: Vec<PhilosopherId>,
}

// Manual impl so `clone_from` reuses the request-list and guest-book
// allocations: `EngineState::for_each_step_outcome` copies a state's fork
// cells once per step outcome on the state-space exploration hot path,
// where the derived fallback (`*self = source.clone()`) would reallocate
// both vectors per fork per copy.
impl Clone for ForkCell {
    fn clone(&self) -> Self {
        ForkCell {
            holder: self.holder,
            nr: self.nr,
            requests: self.requests.clone(),
            guest_book: self.guest_book.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.holder = source.holder;
        self.nr = source.nr;
        self.requests.clone_from(&source.requests);
        self.guest_book.clone_from(&source.guest_book);
    }
}

impl ForkCell {
    /// A fresh fork: free, `nr == 0`, empty request list and guest book.
    ///
    /// Every fork starts in this same state, as required by the symmetry
    /// condition of the problem.
    #[must_use]
    pub fn new() -> Self {
        ForkCell::default()
    }

    /// Returns `true` if no philosopher currently holds this fork.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.holder.is_none()
    }

    /// The philosopher currently holding the fork, if any.
    #[must_use]
    pub fn holder(&self) -> Option<PhilosopherId> {
        self.holder
    }

    /// Atomic test-and-set: if the fork is free, `philosopher` takes it and
    /// the call returns `true`; otherwise the fork is unchanged and the call
    /// returns `false`.
    pub fn take_if_free(&mut self, philosopher: PhilosopherId) -> bool {
        if self.holder.is_none() {
            self.holder = Some(philosopher);
            true
        } else {
            false
        }
    }

    /// Releases the fork if `philosopher` holds it; returns `true` if a
    /// release actually happened.
    ///
    /// Releasing a fork held by somebody else is a programming error in an
    /// algorithm; it is reported as `false` rather than panicking so that the
    /// engine can surface it in traces.
    pub fn release(&mut self, philosopher: PhilosopherId) -> bool {
        if self.holder == Some(philosopher) {
            self.holder = None;
            true
        } else {
            false
        }
    }

    /// The fork's current priority number `nr` (Section 4 of the paper).
    #[must_use]
    pub fn nr(&self) -> u32 {
        self.nr
    }

    /// Sets the fork's priority number.  In GDP1/GDP2 only the philosopher
    /// currently holding the fork does this (Table 3 line 4 / Table 4 line 5).
    pub fn set_nr(&mut self, value: u32) {
        self.nr = value;
    }

    /// Inserts `philosopher` into the request list (LR2/GDP2: `insert(id, fork.r)`).
    ///
    /// Duplicate insertions are ignored, so the operation is idempotent.
    pub fn insert_request(&mut self, philosopher: PhilosopherId) {
        if !self.requests.contains(&philosopher) {
            self.requests.push(philosopher);
        }
    }

    /// Removes `philosopher` from the request list (LR2/GDP2: `remove(id, fork.r)`).
    pub fn remove_request(&mut self, philosopher: PhilosopherId) {
        self.requests.retain(|&p| p != philosopher);
    }

    /// The current request list, in insertion order.
    #[must_use]
    pub fn requests(&self) -> &[PhilosopherId] {
        &self.requests
    }

    /// Returns `true` if the request list is empty.
    #[must_use]
    pub fn requests_is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Signs the guest book for `philosopher` (LR2/GDP2: `insert(id, fork.g)`),
    /// recording that it has just eaten using this fork: it becomes the
    /// most recent signer.
    pub fn sign_guest_book(&mut self, philosopher: PhilosopherId) {
        match self.guest_book.iter().position(|&p| p == philosopher) {
            Some(at) => self.guest_book[at..].rotate_left(1),
            None => self.guest_book.push(philosopher),
        }
    }

    /// Returns `true` if the guest book is empty (nobody has ever eaten with
    /// this fork).  Theorem 2's proof observes that on the defeated
    /// computation `fork.g` remains forever empty.
    #[must_use]
    pub fn guest_book_is_empty(&self) -> bool {
        self.guest_book.is_empty()
    }

    /// Number of distinct philosophers that have signed the guest book.
    #[must_use]
    pub fn guest_book_len(&self) -> usize {
        self.guest_book.len()
    }

    /// The courtesy condition `Cond(fork)` of LR2 and GDP2 for `philosopher`.
    ///
    /// The paper states it as: *"there are no other incoming requests for
    /// that fork, or the other philosophers requesting the fork have used it
    /// after he did"*.  We implement it as: if `philosopher` has signed the
    /// guest book, every **other** requesting philosopher `q` has signed it
    /// since; "never used" counts as older than any use.  Consequences:
    ///
    /// * initially (nobody has eaten) the condition holds for everybody, so
    ///   the system can start;
    /// * once `philosopher` has eaten with the fork, it may not take it again
    ///   while a neighbour that has not eaten since is requesting it — the
    ///   courtesy on which the proof of Theorem 4 (GDP2 is lockout-free)
    ///   rests.
    #[must_use]
    pub fn courtesy_holds(&self, philosopher: PhilosopherId) -> bool {
        // I never ate: I am owed the fork at least as much as anyone.
        let Some(mine) = self.guest_book.iter().position(|&p| p == philosopher) else {
            return true;
        };
        let since = &self.guest_book[mine + 1..];
        self.requests
            .iter()
            .all(|q| *q == philosopher || since.contains(q))
    }

    /// Writes into `out` a copy of this cell with every stored philosopher
    /// identifier relabelled through `map`, preserving request-list and
    /// guest-book order.
    ///
    /// Applying a topology automorphism to a system state relabels the
    /// philosophers referenced by each fork cell while leaving everything
    /// else untouched; this is that relabelling for one cell, spelled out
    /// field by field — the reference the exact state encoding
    /// ([`EngineState::encode`](crate::EngineState::encode), which relabels
    /// without copying) is tested against.  Reuses `out`'s allocations.
    pub fn relabel_philosophers_into(
        &self,
        map: impl Fn(PhilosopherId) -> PhilosopherId,
        out: &mut ForkCell,
    ) {
        out.holder = self.holder.map(&map);
        out.nr = self.nr;
        out.requests.clear();
        out.requests.extend(self.requests.iter().map(|&p| map(p)));
        out.guest_book.clear();
        out.guest_book
            .extend(self.guest_book.iter().map(|&p| map(p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PhilosopherId {
        PhilosopherId::new(i)
    }

    #[test]
    fn new_fork_is_free_with_zero_nr() {
        let fork = ForkCell::new();
        assert!(fork.is_free());
        assert_eq!(fork.holder(), None);
        assert_eq!(fork.nr(), 0);
        assert!(fork.requests_is_empty());
        assert!(fork.guest_book_is_empty());
    }

    #[test]
    fn take_if_free_is_atomic_test_and_set() {
        let mut fork = ForkCell::new();
        assert!(fork.take_if_free(p(0)));
        assert!(!fork.is_free());
        assert_eq!(fork.holder(), Some(p(0)));
        // A second take fails and does not change the holder.
        assert!(!fork.take_if_free(p(1)));
        assert_eq!(fork.holder(), Some(p(0)));
    }

    #[test]
    fn release_only_by_holder() {
        let mut fork = ForkCell::new();
        fork.take_if_free(p(0));
        assert!(!fork.release(p(1)), "non-holder cannot release");
        assert_eq!(fork.holder(), Some(p(0)));
        assert!(fork.release(p(0)));
        assert!(fork.is_free());
        assert!(!fork.release(p(0)), "double release reports false");
    }

    #[test]
    fn nr_roundtrip() {
        let mut fork = ForkCell::new();
        fork.set_nr(42);
        assert_eq!(fork.nr(), 42);
    }

    #[test]
    fn request_list_is_idempotent_and_ordered() {
        let mut fork = ForkCell::new();
        fork.insert_request(p(3));
        fork.insert_request(p(1));
        fork.insert_request(p(3));
        assert_eq!(fork.requests(), &[p(3), p(1)]);
        fork.remove_request(p(3));
        assert_eq!(fork.requests(), &[p(1)]);
        fork.remove_request(p(9)); // removing a non-requester is a no-op
        assert_eq!(fork.requests(), &[p(1)]);
    }

    #[test]
    fn guest_book_keeps_signers_in_recency_order() {
        let mut fork = ForkCell::new();
        for q in [0, 1, 2] {
            fork.insert_request(p(q));
            fork.sign_guest_book(p(q));
        }
        assert_eq!(fork.guest_book, [p(0), p(1), p(2)]);
        // Only P0 has been overtaken by every other requester.
        assert!(fork.courtesy_holds(p(0)));
        assert!(!fork.courtesy_holds(p(1)) && !fork.courtesy_holds(p(2)));
        // Signing again moves a philosopher to the end, once.
        fork.sign_guest_book(p(0));
        assert_eq!(fork.guest_book, [p(1), p(2), p(0)]);
        assert_eq!(fork.guest_book_len(), 3);
        assert!(fork.courtesy_holds(p(1)));
        assert!(!fork.courtesy_holds(p(0)) && !fork.courtesy_holds(p(2)));
        // Courtesy owes only current requesters: once P1 withdraws, P2
        // owes only P0, who signed after it.
        fork.remove_request(p(1));
        assert!(fork.courtesy_holds(p(2)));
        assert!(!fork.courtesy_holds(p(0)));
    }

    #[test]
    fn courtesy_initially_holds_for_everyone() {
        let mut fork = ForkCell::new();
        fork.insert_request(p(0));
        fork.insert_request(p(1));
        assert!(fork.courtesy_holds(p(0)));
        assert!(fork.courtesy_holds(p(1)));
    }

    #[test]
    fn courtesy_defers_to_hungrier_neighbour() {
        let mut fork = ForkCell::new();
        fork.insert_request(p(0));
        fork.insert_request(p(1));
        // P0 eats; P1 has not eaten yet.
        fork.sign_guest_book(p(0));
        assert!(!fork.courtesy_holds(p(0)), "P0 must now defer to P1");
        assert!(fork.courtesy_holds(p(1)), "P1 is owed the fork");
        // P1 eats; both have eaten once, P1 more recently.
        fork.sign_guest_book(p(1));
        assert!(
            fork.courtesy_holds(p(0)),
            "P1 ate after P0, so P0 may go again"
        );
        assert!(!fork.courtesy_holds(p(1)));
    }

    #[test]
    fn courtesy_with_no_other_requests_always_holds() {
        let mut fork = ForkCell::new();
        fork.insert_request(p(0));
        fork.sign_guest_book(p(0));
        assert!(fork.courtesy_holds(p(0)));
    }

    #[test]
    fn fork_cell_is_hashable_for_state_space_exploration() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let mut a = ForkCell::new();
        set.insert(a.clone());
        a.set_nr(1);
        set.insert(a.clone());
        a.take_if_free(p(0));
        set.insert(a);
        assert_eq!(set.len(), 3);
    }
}
