//! # gdp-algorithms
//!
//! The dining-philosopher algorithms studied in Herescu & Palamidessi,
//! *On the generalized dining philosophers problem* (PODC 2001), implemented
//! as [`Program`](gdp_sim::Program)s for the `gdp-sim` engine:
//!
//! * [`Lr1`] — Table 1: the first algorithm of Lehmann & Rabin.  Randomized
//!   choice of the first fork.  Guarantees progress on the classic ring, but
//!   **fails** on general topologies (Section 3, Theorem 1 of the paper).
//! * [`Lr2`] — Table 2: the second algorithm of Lehmann & Rabin, with
//!   request lists and guest books ("courteous" philosophers).  Lockout-free
//!   on the classic ring, but **fails** on graphs containing a theta
//!   subgraph (Theorem 2).
//! * [`Gdp1`] — Table 3: the paper's first contribution.  Philosophers pick
//!   the adjacent fork with the higher random priority number `nr` first and
//!   re-draw the number on collisions.  Guarantees **progress** with
//!   probability 1 on *every* topology under *every* fair adversary
//!   (Theorem 3).
//! * [`Gdp2`] — Table 4: GDP1 plus the request lists / guest books of LR2.
//!   Theorem 4 claims **lockout-freedom** with probability 1; with `Cond`
//!   tested at the first take only, as here, a fair adversary starves a
//!   philosopher even on the 3-ring (the faithfulness note in `gdp2.rs`).
//! * [`baselines`] — the strawmen: the globally ordered forks of the
//!   paper's introduction (deadlock-free but not symmetric) and the naive
//!   left-then-right program (symmetric but deadlocking), used as oracles
//!   in tests and as catalog entries beside the paper's algorithms.
//!
//! All four paper algorithms are *symmetric*: every philosopher runs the same
//! code and starts in the same state (enforced by the
//! [`Program`](gdp_sim::Program) interface), and none of them branches on the
//! philosopher identifier — unlike the deliberately asymmetric ordered-forks
//! baseline, which is documented as such.
//!
//! ## Quick example
//!
//! ```
//! use gdp_algorithms::Gdp1;
//! use gdp_sim::{Engine, SimConfig, UniformRandomAdversary, StopCondition};
//! use gdp_topology::builders::figure1_triangle;
//!
//! // GDP1 makes progress on the 6-philosopher/3-fork triangle where LR1 can
//! // be defeated by an adversary.
//! let mut engine = Engine::new(figure1_triangle(), Gdp1::new(), SimConfig::default());
//! let outcome = engine.run(
//!     &mut UniformRandomAdversary::new(0),
//!     StopCondition::FirstMeal { max_steps: 100_000 },
//! );
//! assert!(outcome.made_progress());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod gdp1;
mod gdp2;
mod lr1;
mod lr2;
mod registry;

pub use gdp1::{Gdp1, Gdp1State};
pub use gdp2::{Gdp2, Gdp2State};
pub use lr1::{Lr1, Lr1State};
pub use lr2::{Lr2, Lr2State};
pub use registry::{AlgorithmKind, AnyProgram, AnyState, ParseAlgorithmError};

#[cfg(test)]
mod common_tests;
