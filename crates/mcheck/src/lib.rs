//! # gdp-mcheck
//!
//! Exact model checking for the generalized dining philosophers problem.
//!
//! Monte-Carlo sweeps (`gdp-analysis`, `gdp-scenarios`) *estimate* the
//! paper's liveness properties under concrete schedulers; this crate
//! *decides* them, in the probabilistic-automaton sense the paper actually
//! uses — worst case over all adversaries, exact over the philosophers'
//! random draws:
//!
//! * [`model`] — [`build_mdp`], the one state-space walker: explicit
//!   construction of the finite MDP of a (topology, algorithm) pair,
//!   adversary choices as nondeterministic branches, random draws as
//!   exhaustively enumerated probabilistic branches, states deduplicated
//!   exactly by their packed keys up to orientation-preserving topology
//!   automorphisms (`gdp_topology::symmetry`), frontier expansion
//!   parallelised with the workspace's bitwise-determinism contract;
//! * [`mod@solve`] — qualitative certification (avoid-region emptiness ⇒
//!   worst-case probability exactly 1, membership of the initial state ⇒
//!   exactly 0) plus value iteration for the quantitative remainder and
//!   for worst-case expected steps-to-first-meal;
//! * [`certificate`] — a byte-reproducible textual verdict combining model
//!   and solution, the artifact emitted by `gdp check`;
//! * [`strategy`] — extraction of the optimal starving adversary as a
//!   replayable schedule plus a DOT dump of the counterexample lasso;
//! * [`restricted`] — the [`AdversaryClass`] a build quantifies over, and
//!   the per-state scheduler bookkeeping behind the **restricted classes**
//!   that stay finite: k-bounded fairness as a product-MDP restriction and
//!   crash-stop faults as enumerated crash branches (the exact
//!   counterparts of the `gdp-adversary` catalog's `kbounded:<k>` and
//!   `crash:<f>` families, see `docs/ADVERSARIES.md`).
//!
//! The checker certifies, for example, that GDP1's worst-case progress
//! probability on the 5-ring is exactly 1 (Theorem 3 on a witness
//! topology), finds the sure starvation strategies against LR1 that the
//! blocking adversary only approximates, and proves the naive left-right
//! program's deadlock rather than sampling it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod model;
pub mod restricted;
pub mod solve;
pub mod strategy;
mod table;

pub use certificate::Certificate;
pub use model::{build_mdp, BuildOptions, CheckTarget, Mdp, AUTOMORPHISM_LIMIT, UNEXPLORED};
pub use restricted::AdversaryClass;
pub use solve::{solve, Solution, SolveOptions};
pub use strategy::{extract_counterexample, CounterexampleSchedule};
