//! # gdp — generalized dining philosophers
//!
//! A reproduction of Herescu & Palamidessi, *On the generalized dining
//! philosophers problem* (PODC 2001): randomized, symmetric, fully
//! distributed resource allocation on arbitrary conflict topologies.
//!
//! This umbrella crate re-exports the whole workspace through its
//! [`prelude`] and ships the `gdp` CLI binary (`gdp list`, `gdp run`,
//! `gdp sweep`, `gdp merge`, `gdp check`, `gdp stress`, `gdp serve`).  See
//! `README.md` for a tour, `docs/ARCHITECTURE.md` for the crate-by-crate
//! data flow, `docs/SCENARIOS.md` for the scenario-sweep reference,
//! `docs/VERIFICATION.md` for the exact model checker behind `gdp check`,
//! `docs/RUNTIME.md` for the real-thread runtime behind `gdp stress`, and
//! `docs/SERVE.md` for the cache-answering service behind `gdp serve`; the
//! reproduced experiment tables are regenerated by
//! `cargo run -p gdp-bench --bin report --release`.
//!
//! ```
//! use gdp::prelude::*;
//!
//! // GDP2 on the paper's Figure 3 theta graph: everyone eventually eats.
//! let mut engine = Engine::new(builders::figure3_theta(), Gdp2::new(), SimConfig::default());
//! let outcome = engine.run(
//!     &mut UniformRandomAdversary::new(7),
//!     StopCondition::EveryoneEats { times: 1, max_steps: 500_000 },
//! );
//! assert!(outcome.everyone_ate());
//! ```

#![forbid(unsafe_code)]

/// The scenario-sweep subsystem (see [`gdp_scenarios`] and
/// `docs/SCENARIOS.md`): declarative *family × size × algorithm* grids over
/// the Monte-Carlo machinery, as driven by `gdp sweep`.
pub use gdp_scenarios as scenarios;

/// The cache-answering sweep service (see [`gdp_serve`] and
/// `docs/SERVE.md`): the long-running TCP front over the cell store, as
/// driven by `gdp serve`.
pub use gdp_serve as serve;

/// Convenience re-exports of the commonly used items of every crate in the
/// family (`gdp-topology`, `gdp-sim`, `gdp-algorithms`, `gdp-adversary`,
/// `gdp-analysis`, `gdp-runtime`, `gdp-picalc`).
pub mod prelude {
    pub use gdp_topology::{
        analysis as topology_analysis, builders, dot, ForkEnds, ForkId, PhilosopherId, Side,
        Topology, TopologyError,
    };

    pub use gdp_sim::{
        jain_index, Action, Adversary, DrawTape, Engine, EngineState, ForkCell, Phase,
        PhilosopherView, Program, ProgramObservation, RoundRobinAdversary, RunOutcome, SimConfig,
        StepCtx, StepRecord, StopCondition, StopReason, SystemView, UniformRandomAdversary,
    };

    pub use gdp_algorithms::{
        baselines, AlgorithmKind, AnyProgram, AnyState, Gdp1, Gdp2, Lr1, Lr2,
    };

    pub use gdp_adversary::{
        AdversaryKind, BlockingAdversary, BlockingPolicy, FairDriver, ReplayAdversary,
        SchedulingPolicy, StubbornnessSchedule, TriangleWaveAdversary,
    };

    pub use gdp_analysis::{
        montecarlo, stats, symmetry, LockoutEstimate, ProgressEstimate, TrialConfig,
    };

    pub use gdp_runtime::{
        self as runtime, DiningTable, RunOptions, RunReport, Seat, SharedFork, StressLoad,
        TableStats,
    };

    pub use gdp_picalc::{ChannelId, ChoiceRound, Guard, ProcessId, RoundOutcome, Synchronization};
}
