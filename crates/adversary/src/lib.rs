//! # gdp-adversary
//!
//! The **adversary catalog** for the generalized dining philosophers
//! problem: every scheduler family the workspace can run, from the paper's
//! crafted negative-result constructions to adaptive and fault-injecting
//! schedulers, selectable at run time through one enum.
//!
//! The paper's theorems (Herescu & Palamidessi, PODC 2001) are all
//! quantified **worst-case over adversaries** — the adversary is the
//! experimental axis, and this crate names it the way
//! `gdp_algorithms::AlgorithmKind` names algorithms:
//!
//! * [`AdversaryKind`] / [`ADVERSARY_CATALOG`] — the uniform catalog:
//!   canonical spec strings (`"blocking:1800"`, `"kbounded:4"`,
//!   `"crash:2"`, …), per-family [`FairnessClass`] metadata, and the
//!   deterministic [`build`](AdversaryKind::build) the sweep machinery
//!   instantiates trials from.  See `docs/ADVERSARIES.md` for the full
//!   family-by-family reference.
//!
//! The families, roughly from most benign to most hostile:
//!
//! * round-robin and uniform-random (re-exported from `gdp-sim`) — the
//!   obviously fair baselines;
//! * [`MaxWaitAdversary`] — adaptive FIFO service (longest-waiting enabled
//!   philosopher first), the feedback-control scheduler;
//! * [`KBoundedRoundRobin`] — deterministic `k·n`-bounded-fair round-robin
//!   that dwells `k` consecutive steps per philosopher;
//! * [`GreedyConflictAdversary`] — adaptive contention maximizer: steers
//!   hungry neighbours onto eaters' forks and defers releases as long as
//!   fairness allows;
//! * [`BlockingAdversary`] — the topology-aware scheduler generalizing the
//!   constructions of Section 3 and Theorems 1–2;
//! * [`TriangleWaveAdversary`] — the paper's Section 3 scheduler verbatim:
//!   the exact winning strategy against LR1/LR2 on the Figure 1 system;
//! * [`CrashStopAdversary`] — the crash-stop fault model: a seeded subset
//!   of philosophers stops permanently, mid-protocol.  Deliberately
//!   *outside* the paper's fairness premise; it measures degradation.
//!
//! Fairness infrastructure: [`FairDriver`] implements the paper's
//! "increasing stubbornness" repair — any [`SchedulingPolicy`] becomes a
//! fair scheduler by bounding deferral with a [`StubbornnessSchedule`] —
//! and every guarded family above is a `FairDriver` over its policy
//! (`MaxWaitAdversary = FairDriver<MaxWaitPolicy>`, …).
//! [`ReplayAdversary`] plays back recorded schedules (e.g. the optimal
//! starving strategies extracted by `gdp-mcheck`).
//!
//! ## Quick example
//!
//! ```
//! use gdp_adversary::AdversaryKind;
//! use gdp_algorithms::Gdp1;
//! use gdp_sim::{Engine, SimConfig, StopCondition};
//! use gdp_topology::builders::classic_ring;
//!
//! // Select a family by spec string, exactly like `gdp sweep --adversary`.
//! let kind: AdversaryKind = "greedy-conflict".parse().unwrap();
//! let mut adversary = kind.build(/* cell_seed */ 0, /* trial */ 0);
//! let mut engine = Engine::new(classic_ring(5).unwrap(), Gdp1::new(), SimConfig::default());
//! let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(40_000));
//! // Theorem 3: GDP1 progresses under every fair adversary in the catalog.
//! assert!(outcome.made_progress());
//! ```
//!
//! The paper's claims that these schedulers illustrate are decided exactly
//! by the rows of `gdp_bench::CLAIMS` (`gdp check` quantifies over every
//! fair adversary, not one of these); the `report` binary's Section 3
//! table (`cargo run -p gdp-bench --bin report --release`) measures the
//! wave scheduler itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod blocking;
mod catalog;
mod crash;
mod fairness;
mod kbounded;
mod replay;
mod triangle;

pub use adaptive::{
    GreedyConflictAdversary, GreedyConflictPolicy, MaxWaitAdversary, MaxWaitPolicy,
};
pub use blocking::{BlockingAdversary, BlockingPolicy};
pub use catalog::{
    AdversaryCatalogEntry, AdversaryKind, FairnessClass, ParseAdversaryError, ADVERSARY_CATALOG,
};
pub use crash::{seeded_crash_plan, CrashStopAdversary, DEFAULT_CRASH_WINDOW};
pub use fairness::{FairDriver, SchedulingPolicy, StubbornnessSchedule};
pub use kbounded::KBoundedRoundRobin;
pub use replay::ReplayAdversary;
pub use triangle::TriangleWaveAdversary;
