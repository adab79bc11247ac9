//! # gdp-topology
//!
//! Conflict-topology model for the *generalized dining philosophers problem*
//! of Herescu & Palamidessi (PODC 2001).
//!
//! The paper models a system as an undirected **multigraph** in which
//!
//! * the **nodes are the forks** (shared resources), and
//! * the **arcs are the philosophers** (processes): each philosopher is an
//!   arc connecting the two forks it needs in order to eat.
//!
//! Unlike the classic problem, a fork may be shared by an arbitrary positive
//! number of philosophers, the number of philosophers `n` and the number of
//! forks `k` may differ, and parallel arcs (two philosophers competing for
//! exactly the same pair of forks) are allowed.  The only structural
//! constraints, taken from Definition 1 of the paper, are:
//!
//! * `k >= 2` — there are at least two forks,
//! * `n >= 1` — there is at least one philosopher,
//! * every philosopher connects two *distinct* forks.
//!
//! This crate provides:
//!
//! * [`Topology`] — the validated multigraph, built by
//!   [`Topology::from_arcs`], with adjacency queries in both directions
//!   (fork → incident philosophers, philosopher → adjacent forks and
//!   neighbouring philosophers);
//! * [`builders`] — the classic ring, the Figure 1 gallery of the paper, the
//!   ring-with-chord family used by Theorem 1, the theta graphs used by
//!   Theorem 2, and random multigraph generators;
//! * [`analysis`] — structural analysis: degrees, connectivity, cycle
//!   enumeration, and decision procedures for the preconditions of
//!   Theorems 1 and 2;
//! * [`symmetry`] — orientation-preserving automorphism enumeration, the
//!   topology half of `gdp-mcheck`'s symmetry quotient;
//! * [`dot`] — Graphviz export for visual inspection of a topology.
//!
//! ## Example
//!
//! ```
//! use gdp_topology::builders::classic_ring;
//!
//! // The classic table with 5 philosophers and 5 forks.
//! let table = classic_ring(5).expect("5-ring is a valid topology");
//! assert_eq!(table.num_philosophers(), 5);
//! assert_eq!(table.num_forks(), 5);
//! // Every fork on the classic table is shared by exactly two philosophers.
//! assert!(table.fork_ids().all(|f| table.philosophers_at(f).len() == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builders;
pub mod dot;
mod error;
mod ids;
pub mod symmetry;
mod topology;

pub use error::TopologyError;
pub use ids::{ForkId, PhilosopherId};
pub use symmetry::{automorphisms, Automorphism};
pub use topology::{ForkEnds, Side, Topology};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = TopologyError> = std::result::Result<T, E>;
