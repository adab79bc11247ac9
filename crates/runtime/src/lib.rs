//! # gdp-runtime
//!
//! A real-concurrency runtime for the generalized dining philosophers
//! problem: forks become mutex-protected shared cells, philosophers become
//! OS threads, and each [`Seat`] **interprets any of the paper's
//! algorithms** — the same [`AlgorithmKind`](gdp_algorithms::AlgorithmKind)
//! programs the `gdp-sim` engine executes, run line-for-line through
//! [`StepCtx::for_fork_pair`](gdp_sim::StepCtx::for_fork_pair) against the
//! simulator's own [`ForkCell`](gdp_sim::ForkCell) state.  Because the two
//! layers share the program code *and* the shared-state representation, the
//! simulated semantics and the threaded semantics cannot drift; the
//! `runtime_vs_sim` cross-validation suite pins the qualitative agreement.
//!
//! With GDP2 (the default) any set of threads contending for pairs of
//! resources arranged in an arbitrary conflict multigraph gets the paper's
//! guarantees — mutual exclusion, progress, and lockout-freedom — with no
//! central coordinator and no global lock order (Theorem 4).  The other
//! algorithms are available for comparison, including the deliberately
//! broken naive baseline, which really deadlocks on real threads and is
//! therefore only driven under a watchdog
//! ([`Seat::try_dine_until`], [`RunOptions::watchdog`]).
//!
//! ## Quickstart
//!
//! ```
//! use gdp_runtime::DiningTable;
//! use gdp_topology::builders::figure1_triangle;
//!
//! // Three resources, six workers, every pair of resources contended by two
//! // workers — the paper's Figure 1 triangle, on real threads under GDP2.
//! let table = DiningTable::for_topology(figure1_triangle());
//! let handles: Vec<_> = table
//!     .seats()
//!     .map(|mut seat| {
//!         std::thread::spawn(move || {
//!             for _ in 0..50 {
//!                 seat.dine(|| {
//!                     // ... critical section using both resources ...
//!                 });
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! let stats = table.stats();
//! assert_eq!(stats.total_meals(), 6 * 50);
//! assert!(stats.meals().iter().all(|&m| m == 50));
//! assert_eq!(stats.jain_fairness(), 1.0);
//! ```
//!
//! Picking a different algorithm is one argument:
//!
//! ```
//! use gdp_algorithms::AlgorithmKind;
//! use gdp_runtime::{run, RunOptions, StressLoad};
//! use gdp_topology::builders::classic_ring;
//!
//! let options = RunOptions {
//!     algorithm: AlgorithmKind::Gdp1,
//!     load: StressLoad::MealsPerSeat(10),
//!     ..RunOptions::default()
//! };
//! let report = run(classic_ring(5).unwrap(), &options, || {});
//! assert!(report.everyone_ate());
//! ```
//!
//! See `docs/RUNTIME.md` for the seat interpreter, the fork-cell locking
//! protocol, watchdog semantics and the stress-report schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod fork;
mod run;
mod seat;
mod table;

pub use counters::SeatCounters;
pub use fork::SharedFork;
pub use run::{run, RunOptions, RunReport, StressLoad};
pub use seat::Seat;
pub use table::{DiningTable, TableStats};
