//! # gdp-analysis
//!
//! Measurement and verification tooling for generalized dining philosophers
//! executions:
//!
//! * [`stats`] — small numerical helpers (means, percentiles, Wilson
//!   confidence intervals, Jain's fairness index);
//! * [`metrics`] — per-run summaries: throughput, waiting times, fairness of
//!   the meal distribution;
//! * [`montecarlo`] — repeated-trial estimators for the paper's two
//!   liveness properties: **progress** (Theorem 3: some philosopher
//!   eventually eats) and **lockout-freedom** (Theorem 4: every philosopher
//!   eventually eats), under an arbitrary program / adversary / topology
//!   combination;
//! * [`mod@explore`] — bounded exhaustive exploration of the probabilistic
//!   automaton of a small system (all scheduler choices, per-seed coin
//!   flips): reachable-state counts, safety verification and dead-end
//!   (deadlock) detection.  Snapshot-based since PR 3 (delegating to
//!   `gdp-mcheck`'s seeded walker), with the replay-era implementation
//!   preserved as [`explore_via_replay`], the reference the snapshot walk
//!   is regression-tested against;
//!   the *exact* checker (every adversary, every draw, with
//!   probabilities) is the `gdp-mcheck` crate;
//! * [`symmetry`] — the symmetry-breaking probability from the proof of
//!   Theorem 3: the probability that freshly drawn priority numbers make all
//!   adjacent forks distinct, with the paper's closed-form lower bound
//!   `m!/(mᵏ(m−k)!)` for comparison.
//!
//! All estimators are deterministic given their seeds, so the experiment
//! tables printed by the `gdp-bench` report binary can be regenerated
//! exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod metrics;
pub mod montecarlo;
pub mod stats;
pub mod symmetry;

pub use explore::{explore, explore_seeds, explore_via_replay, state_is_safe, ExplorationReport};
pub use metrics::RunMetrics;
pub use montecarlo::{
    LivenessEstimate, LockoutEstimate, ProgressEstimate, TrialConfig, ViolationSummary,
};
pub use symmetry::{distinct_probability_lower_bound, empirical_distinct_probability};
