//! # gdp-observe
//!
//! The observability layer of the generalized-dining-philosophers workspace:
//! structured [`Event`]s keyed by **deterministic logical clocks**, an
//! [`EventSink`] trait whose disabled path costs one branch per step,
//! [log2 histograms](Log2Histogram) with bucket-quantile estimation
//! (p50/p90/p99 with a documented error bound), a deterministic
//! [`MetricsRegistry`], and a hand-written [JSONL codec](jsonl) for trace
//! export.
//!
//! This crate is a **leaf**: it depends on nothing in the workspace (events
//! use plain `u32` actor/fork ids) so every layer — simulator, runtime,
//! sweeps, CLI — can emit into the same vocabulary without dependency
//! cycles.
//!
//! ## Logical clocks
//!
//! Every event carries a `clock` whose meaning is fixed per emitting layer:
//!
//! * **simulator** — the global step index (0-based), so a sim trace is
//!   byte-reproducible for a given seed regardless of host or thread count;
//! * **runtime** — a per-seat sequence number (wall-clock `Instant`s are
//!   never put in events), so each seat's event stream is individually
//!   deterministic even though real-thread interleaving is not;
//! * **sweeps** — the cell's position in the deterministic grid expansion.
//!
//! ## Quantile error bound
//!
//! [`quantile_from_buckets`] returns the **lower bound of the log2 bucket**
//! containing the nearest-rank sample: bucket 0 covers `[0, 2)` and bucket
//! `i >= 1` covers `[2^i, 2^(i+1))`, so the estimate `e` of a true value `t`
//! satisfies `e <= t < max(2e, 2)` — an underestimate by strictly less than
//! a factor of 2 (absolute error at most 1 in bucket 0).  Estimates are
//! monotone in `q`.  Both properties are pinned by unit tests.
//!
//! See `docs/OBSERVABILITY.md` for the event schema and the trace format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod histogram;
pub mod jsonl;
mod metrics;
mod sink;

pub use event::Event;
pub use histogram::{
    bucket_floor, bucket_of, quantile_from_buckets, AtomicLog2Histogram, Log2Histogram,
    LOG2_BUCKETS,
};
pub use metrics::MetricsRegistry;
pub use sink::{EventSink, MemorySink, NoopSink, SharedSink};
