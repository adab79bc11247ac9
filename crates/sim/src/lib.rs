//! # gdp-sim
//!
//! Execution substrate for the generalized dining philosophers problem of
//! Herescu & Palamidessi (PODC 2001).
//!
//! The paper works in the *probabilistic automata* model of Segala & Lynch:
//! a computation is an interleaving of atomic philosopher actions, the
//! interleaving is chosen by an **adversary** (scheduler) with complete
//! information about the past, and the philosophers' own **random draws**
//! are outside the adversary's control.  This crate implements that model as
//! a deterministic, seedable discrete-event engine:
//!
//! * [`ForkCell`] — the shared state of one fork: its holder, its priority
//!   number `nr` (used by GDP1/GDP2), its request list and its guest book
//!   (used by LR2/GDP2).  All mutation goes through atomic-step methods.
//! * [`Program`] — the interface an algorithm implements.  One call to
//!   [`Program::step`] corresponds to one numbered line of the paper's
//!   pseudo-code (Tables 1–4) and is executed atomically with respect to the
//!   scheduler, exactly as the paper assumes for its test-and-set operations.
//! * [`StepCtx`] — the restricted view a philosopher has of the system while
//!   executing a step: its own two forks, the atomic operations on them, and
//!   its private randomness.  A philosopher cannot observe or touch any
//!   other part of the system, which enforces the paper's *full
//!   distribution* requirement by construction.  It is also the one place
//!   that fixes the paper's model: a fair coin for `random_choice(left,
//!   right)` and priority numbers drawn from `[1, k]`, `k` the number of
//!   forks.
//! * [`Adversary`] — the scheduler interface, with full-information
//!   [`SystemView`] access, plus the built-in fair schedulers
//!   ([`RoundRobinAdversary`], [`UniformRandomAdversary`]).
//! * [`Engine`] — drives the interleaving around one [`EngineState`]:
//!   repeatedly asks the adversary for a philosopher, executes that
//!   philosopher's next atomic step with sampled draws (returning its
//!   [`StepRecord`]), counts meals, schedulings and hunger in the
//!   [`PhilosopherView`]s the adversary reads, which [`RunOutcome`]
//!   collects, and evaluates [`StopCondition`]s.  An attached `gdp-observe`
//!   event sink receives the step-by-step record of the run, written by
//!   [`record_step_events`], which the threaded runtime shares.
//!   [`jain_index`] scores a meal distribution, simulated or real-thread.
//! * [`EngineState`] — the semantic state (forks, private program states,
//!   step counter), the one an engine steps ([`Engine::state`]).  It steps
//!   without an engine: [`EngineState::for_each_step_outcome`] enumerates
//!   every outcome of one philosopher's step, the probabilistic-branching
//!   primitive of exact model checking, also behind the exact deadlock test
//!   [`Engine::is_stuck`].  Its exact bit-packed encoding ([`StateCodec`])
//!   is written directly under each automorphism of one set, from scratch,
//!   from a parent's encodings or from the state's own: the state keys, and
//!   the frontier, of `gdp-mcheck`.
//! * [`DrawTape`] — scripted randomness: the draws a step reads instead of
//!   the RNG, extended outcome by outcome by the enumeration.
//!
//! Crafted adversaries that defeat LR1/LR2 (Section 3 and Theorems 1–2 of
//! the paper) live in the `gdp-adversary` crate; the algorithms themselves
//! (Tables 1–4) live in `gdp-algorithms`.
//!
//! ## Example
//!
//! ```
//! use gdp_sim::{Engine, SimConfig, RoundRobinAdversary, StopCondition, Program, Phase,
//!               StepCtx, Action, ProgramObservation};
//! use gdp_topology::builders::classic_ring;
//!
//! // A deliberately naive deterministic program: grab left, then right.
//! // (It can deadlock — the engine is agnostic; correctness lives in the
//! // algorithms crate.)
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! enum Naive { Thinking, WantLeft, WantRight, Eating }
//!
//! struct NaiveProgram;
//! impl Program for NaiveProgram {
//!     type State = Naive;
//!     fn name(&self) -> &'static str { "naive" }
//!     fn initial_state(&self) -> Naive { Naive::Thinking }
//!     fn private_states(&self) -> Vec<Naive> {
//!         vec![Naive::Thinking, Naive::WantLeft, Naive::WantRight, Naive::Eating]
//!     }
//!     fn observation(&self, s: &Naive, _ends: gdp_topology::ForkEnds) -> ProgramObservation {
//!         let phase = match s {
//!             Naive::Thinking => Phase::Thinking,
//!             Naive::Eating => Phase::Eating,
//!             _ => Phase::Hungry,
//!         };
//!         ProgramObservation { phase, committed: None, label: "naive" }
//!     }
//!     fn step(&self, state: &mut Naive, ctx: &mut StepCtx<'_>) -> Action {
//!         match state {
//!             Naive::Thinking => {
//!                 *state = Naive::WantLeft;
//!                 Action::BecomeHungry
//!             }
//!             Naive::WantLeft => {
//!                 let left = ctx.left();
//!                 if ctx.take_if_free(left) { *state = Naive::WantRight; }
//!                 Action::TestAndSet { fork: left }
//!             }
//!             Naive::WantRight => {
//!                 let right = ctx.right();
//!                 if ctx.take_if_free(right) { *state = Naive::Eating; }
//!                 Action::TestAndSet { fork: right }
//!             }
//!             Naive::Eating => {
//!                 ctx.release(ctx.left());
//!                 ctx.release(ctx.right());
//!                 *state = Naive::Thinking;
//!                 Action::FinishEating
//!             }
//!         }
//!     }
//! }
//!
//! let topology = classic_ring(3).unwrap();
//! let mut engine = Engine::new(topology, NaiveProgram, SimConfig::default().with_seed(1));
//! let outcome = engine.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(1_000));
//! assert_eq!(outcome.steps, 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod config;
pub mod draws;
mod engine;
mod fork;
mod hash;
mod outcome;
mod program;
pub mod snapshot;
mod view;

pub use adversary::{Adversary, RoundRobinAdversary, UniformRandomAdversary};
pub use config::SimConfig;
pub use draws::{DrawOutcome, DrawRequest, DrawTape};
pub use engine::{record_step_events, Engine, StepRecord};
pub use fork::ForkCell;
pub use hash::fingerprint64;
pub use outcome::{jain_index, RunOutcome, StopCondition, StopReason};
pub use program::{Action, Phase, Program, ProgramObservation, StepCtx};
pub use snapshot::{EngineState, StateCodec};
pub use view::{Holding, PhilosopherView, SystemView};
