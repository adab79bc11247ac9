//! # gdp-scenarios
//!
//! Declarative **scenario sweeps** over the generalized dining philosophers
//! workspace: a [`ScenarioSpec`] names a grid of *topology family × size ×
//! algorithm* cells plus an adversary and a trial budget, and [`run_sweep`]
//! drives every cell through the parallel Monte-Carlo machinery of
//! `gdp-analysis`, streaming per-cell results to JSON and CSV.
//!
//! The paper's central claim — GDP1/GDP2 work on *arbitrary* conflict
//! graphs, LR-style algorithms only on classic rings — is a claim about
//! topology *families*, not individual drawings.  This crate is the axis
//! along which the repo scales scenario diversity: each [`TopologyFamily`]
//! maps a single scale parameter `n` to a concrete validated
//! [`Topology`](gdp_topology::Topology), so one spec line enumerates rings,
//! tori, cliques, stars, barbells, theta graphs and random regular graphs at
//! every size of interest.
//!
//! ## Determinism contract
//!
//! Sweeps inherit the PR-1 guarantee: per-cell results are **bitwise
//! identical for every thread count**.  Cells run sequentially; within a
//! cell, trials fan out over the deterministic trial runner of
//! `gdp-analysis::montecarlo` (trial `i` always runs on seed
//! `cell_seed + i`, summaries fold in trial order).  Cell seeds come from the
//! [`SeedPolicy`], which derives them from the cell *key*, never from
//! execution order.  Wall-clock throughput ([`CellResult::steps_per_sec`]) is
//! the one non-deterministic field; it is `None` unless
//! [`SweepOptions::record_timing`] is set, so the default JSON/CSV artifacts
//! are reproducible byte for byte.
//!
//! ## Crash safety
//!
//! Because cells are pure functions of *(spec fingerprint, cell key)* with
//! byte-reproducible outputs, completed cells can be persisted and reused:
//! the [`CellStore`] checkpoints every completed cell atomically (with an
//! embedded integrity checksum), [`run_sweep_durable`]
//! resumes an interrupted sweep from the store, [`ShardSpec`] partitions a
//! grid across processes, and [`merge_stores`] fuses shard stores into the
//! exact artifacts of an unsharded run.
//!
//! ## Example
//!
//! ```
//! use gdp_scenarios::{ScenarioSpec, SweepOptions, run_sweep};
//!
//! let spec = ScenarioSpec::new("smoke")
//!     .with_families_str("ring,star").unwrap()
//!     .with_sizes([4, 6])
//!     .with_algorithms_str("gdp1").unwrap()
//!     .with_trials(2)
//!     .with_max_steps(5_000);
//! let report = run_sweep(&spec, &SweepOptions::quiet()).unwrap();
//! assert_eq!(report.cells.len(), 4); // 2 families x 2 sizes x 1 algorithm
//! // GDP1 makes progress everywhere: that is Theorem 3.
//! assert!(report.cells.iter().all(|c| c.deadlock_rate == 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod family;
mod report;
mod runner;
mod spec;
mod store;
mod stress;

pub use check::{
    run_check, run_check_cached, AdversaryClass, CheckReport, CheckSpec, CheckStoreError,
    CheckTargetSpec, CheckVerdict, ExactCellVerdict, StoredCheck,
};
pub use family::{FamilyParseError, TopologyFamily, FAMILY_CATALOG};
pub use gdp_adversary::{
    AdversaryCatalogEntry, FairnessClass, ParseAdversaryError, ADVERSARY_CATALOG,
};
pub use gdp_runtime::StressLoad;
pub use report::{cell_json, csv_header, SweepReport};
pub use runner::{
    compute_and_save, compute_cell, lookup_cell, run_sweep, run_sweep_durable, run_sweep_with,
    CellResult, SweepError, SweepOptions,
};
pub use spec::{AdversaryKind, GridError, GridFields, ScenarioCell, ScenarioSpec, SeedPolicy};
pub use store::{
    compact_store, gc_store, merge_stores, stable_digest64, CellStore, CompactReport, GcReport,
    Lookup, MergeError, ParseShardError, ShardSpec, StoreLookup, StoreStats, STORE_FORMAT,
    STORE_FORMAT_V2, STORE_VERSION,
};
pub use stress::{
    run_stress, run_stress_observed, stress_csv_header, StressReport, StressSpec, StressTiming,
};
