//! First-class engine state snapshots.
//!
//! An [`EngineState`] captures the *semantic* state of a running
//! [`Engine`](crate::Engine) — exactly the state of the paper's
//! probabilistic automaton:
//!
//! * the shared fork cells (holders, `nr` numbers, request lists, guest
//!   books),
//! * every philosopher's private program state, and
//! * the global step counter.
//!
//! Run *statistics* (meal counts, fairness accounting, the first-meal
//! histogram) are deliberately **not** captured: two executions that reach
//! the same `EngineState` are indistinguishable to every philosopher and to
//! the shared forks, regardless of how they got there.  Restoring a
//! snapshot therefore resets the statistics, as documented on
//! [`Engine::restore`](crate::Engine::restore).
//!
//! Nor is the engine's RNG: the automaton branches on a random draw rather
//! than remembering a sampler, and every caller that restores a snapshot
//! (`gdp-mcheck`'s builder and counterexample replay,
//! [`Engine::is_stuck`](crate::Engine::is_stuck)) reads its draws from a
//! [`DrawTape`](crate::DrawTape) in between, which never touches the RNG.
//!
//! Snapshots replace the replay-per-expansion scheme the state-space
//! explorer used before: instead of re-simulating an entire decision prefix
//! to revisit a state (`O(depth)` per expansion), exploration stores the
//! `EngineState` and restores it in `O(n + k)`.  `gdp-mcheck` builds its
//! exact MDP on the same primitive.
//!
//! The **canonical encoding** half of this module is
//! [`EngineState::fingerprint`] (identical to
//! [`Engine::state_fingerprint`](crate::Engine::state_fingerprint), built on
//! [`fingerprint64`]) and
//! [`EngineState::relabelled_fingerprint`], which hashes the state as it
//! would look after applying a topology automorphism — the primitive behind
//! the symmetry quotient of `gdp-mcheck`.

use crate::fork::ForkCell;
use crate::hash::fingerprint64;
use crate::program::Program;
use gdp_topology::{ForkId, PhilosopherId};

/// A snapshot of the semantic state of an [`Engine`](crate::Engine).
///
/// Create one with [`Engine::snapshot`](crate::Engine::snapshot) (or reuse
/// allocations with [`Engine::snapshot_into`](crate::Engine::snapshot_into))
/// and go back to it with [`Engine::restore`](crate::Engine::restore).
pub struct EngineState<P: Program> {
    pub(crate) forks: Vec<ForkCell>,
    pub(crate) states: Vec<P::State>,
    pub(crate) step_count: u64,
}

// Manual impls: deriving would bound `P` itself instead of just `P::State`
// (the only program-dependent field type).
impl<P: Program> Clone for EngineState<P> {
    fn clone(&self) -> Self {
        EngineState {
            forks: self.forks.clone(),
            states: self.states.clone(),
            step_count: self.step_count,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.forks.clone_from(&source.forks);
        self.states.clone_from(&source.states);
        self.step_count = source.step_count;
    }
}

impl<P: Program> std::fmt::Debug for EngineState<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineState")
            .field("forks", &self.forks)
            .field("states", &self.states)
            .field("step_count", &self.step_count)
            .finish()
    }
}

impl<P: Program> PartialEq for EngineState<P> {
    fn eq(&self, other: &Self) -> bool {
        self.step_count == other.step_count
            && self.forks == other.forks
            && self.states == other.states
    }
}

impl<P: Program> Eq for EngineState<P> {}

impl<P: Program> EngineState<P> {
    /// The shared state of every fork, indexed by [`ForkId::index`].
    #[must_use]
    pub fn forks(&self) -> &[ForkCell] {
        &self.forks
    }

    /// Every philosopher's private program state, indexed by
    /// [`PhilosopherId::index`].
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The step count at which the snapshot was taken.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// A 64-bit fingerprint of the shared-and-private state (fork cells and
    /// program states), ignoring the step counter.
    ///
    /// Equal to [`Engine::state_fingerprint`](crate::Engine::state_fingerprint)
    /// of the engine the snapshot was taken from.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint64(&(&self.forks, &self.states))
    }

    /// The fingerprint this state would have after relabelling philosopher
    /// `p` as `phil_map[p]` and fork `f` as `fork_map[f]`.
    ///
    /// For the identity maps this equals [`fingerprint`](Self::fingerprint).
    /// When the maps form an *orientation-preserving automorphism* of the
    /// topology (see `gdp_topology::automorphisms`) and the program's
    /// private state contains no absolute identifiers (true for all the
    /// side-based paper algorithms), the relabelled state is bisimilar to
    /// this one — which is what makes fingerprint-minimisation over an
    /// automorphism set a sound symmetry quotient.
    ///
    /// `scratch` carries the buffers for the relabelled copy so repeated
    /// calls (one per automorphism per explored state) stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the map lengths do not match the snapshot's fork and
    /// philosopher counts.
    #[must_use]
    pub fn relabelled_fingerprint(
        &self,
        phil_map: &[PhilosopherId],
        fork_map: &[ForkId],
        scratch: &mut RelabelScratch<P>,
    ) -> u64 {
        assert_eq!(fork_map.len(), self.forks.len(), "fork map length mismatch");
        assert_eq!(
            phil_map.len(),
            self.states.len(),
            "philosopher map length mismatch"
        );
        scratch.forks.resize_with(self.forks.len(), ForkCell::new);
        for (f, cell) in self.forks.iter().enumerate() {
            cell.relabel_philosophers_into(
                |p| phil_map[p.index()],
                &mut scratch.forks[fork_map[f].index()],
            );
        }
        if scratch.states.len() == self.states.len() {
            for (p, state) in self.states.iter().enumerate() {
                scratch.states[phil_map[p].index()].clone_from(state);
            }
        } else {
            scratch.states.clear();
            scratch.states.extend(self.states.iter().cloned());
            for (p, state) in self.states.iter().enumerate() {
                scratch.states[phil_map[p].index()].clone_from(state);
            }
        }
        fingerprint64(&(&scratch.forks, &scratch.states))
    }
}

/// Reusable buffers for [`EngineState::relabelled_fingerprint`].
#[derive(Debug)]
pub struct RelabelScratch<P: Program> {
    forks: Vec<ForkCell>,
    states: Vec<P::State>,
}

impl<P: Program> RelabelScratch<P> {
    /// Creates an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        RelabelScratch {
            forks: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl<P: Program> Default for RelabelScratch<P> {
    fn default() -> Self {
        RelabelScratch::new()
    }
}
