//! Uniform, enum-based dispatch over the paper's algorithms.
//!
//! The engine is generic over the [`Program`] type, which is ideal for
//! statically-typed experiments but awkward when the algorithm is chosen at
//! run time (command-line tools, scenario sweeps, the report tables).
//! [`AlgorithmKind`] names the available algorithms and
//! [`AnyProgram`] / [`AnyState`] provide a single concrete [`Program`]
//! implementation that dispatches to the selected one.

use crate::baselines::{BaselineState, NaiveLeftRight, OrderedForks};
use crate::{Gdp1, Gdp1State, Gdp2, Gdp2State, Lr1, Lr1State, Lr2, Lr2State};
use gdp_sim::{Action, Program, ProgramObservation, StepCtx};
use gdp_topology::ForkEnds;
use std::fmt;
use std::str::FromStr;

/// The algorithms available for run-time selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Lehmann & Rabin's first algorithm (Table 1).
    Lr1,
    /// Lehmann & Rabin's second, courteous algorithm (Table 2).
    Lr2,
    /// The paper's progress-guaranteeing algorithm (Table 3).
    Gdp1,
    /// The paper's lockout-free algorithm (Table 4).
    Gdp2,
    /// The asymmetric ordered-forks baseline from the introduction.
    OrderedForks,
    /// The broken take-left-then-right baseline (deadlocks on rings) —
    /// the negative control for deadlock detection and exact checking.
    Naive,
}

impl AlgorithmKind {
    /// All selectable algorithms, in presentation order.
    #[must_use]
    pub const fn all() -> [AlgorithmKind; 6] {
        [
            AlgorithmKind::Lr1,
            AlgorithmKind::Lr2,
            AlgorithmKind::Gdp1,
            AlgorithmKind::Gdp2,
            AlgorithmKind::OrderedForks,
            AlgorithmKind::Naive,
        ]
    }

    /// The algorithms that make progress on every classic ring — everything
    /// except the deliberately broken naive baseline.  Progress-asserting
    /// sweeps iterate this list.
    #[must_use]
    pub const fn deadlock_free() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::Lr1,
            AlgorithmKind::Lr2,
            AlgorithmKind::Gdp1,
            AlgorithmKind::Gdp2,
            AlgorithmKind::OrderedForks,
        ]
    }

    /// The four symmetric, fully distributed algorithms of the paper
    /// (excludes the baselines).
    #[must_use]
    pub const fn paper_algorithms() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::Lr1,
            AlgorithmKind::Lr2,
            AlgorithmKind::Gdp1,
            AlgorithmKind::Gdp2,
        ]
    }

    /// Short name, matching the paper's naming.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Lr1 => "LR1",
            AlgorithmKind::Lr2 => "LR2",
            AlgorithmKind::Gdp1 => "GDP1",
            AlgorithmKind::Gdp2 => "GDP2",
            AlgorithmKind::OrderedForks => "ordered-forks",
            AlgorithmKind::Naive => "naive-left-right",
        }
    }

    /// One-line description of the algorithm and its guarantee.
    #[must_use]
    pub const fn description(self) -> &'static str {
        match self {
            AlgorithmKind::Lr1 => {
                "Lehmann-Rabin 1: random first fork; progress on classic rings only"
            }
            AlgorithmKind::Lr2 => {
                "Lehmann-Rabin 2: courteous variant; lockout-free on classic rings only"
            }
            AlgorithmKind::Gdp1 => {
                "Herescu-Palamidessi GDP1: random fork priorities; progress on every topology"
            }
            AlgorithmKind::Gdp2 => {
                "Herescu-Palamidessi GDP2: GDP1 + courtesy at the first take; not lockout-free, even on the 3-ring"
            }
            AlgorithmKind::OrderedForks => {
                "Dijkstra ordered forks: asymmetric deterministic baseline"
            }
            AlgorithmKind::Naive => "naive take-left-then-right: symmetric but deadlocks on rings",
        }
    }

    /// Whether the algorithm is symmetric and fully distributed (i.e. one of
    /// the paper's four).
    #[must_use]
    pub const fn is_symmetric(self) -> bool {
        !matches!(self, AlgorithmKind::OrderedForks)
    }

    /// Whether the program's behaviour is invariant under a consistent
    /// relabelling of forks and philosophers that preserves every
    /// philosopher's left/right orientation — the soundness precondition of
    /// `gdp-mcheck`'s symmetry quotient.  The ordered-forks baseline fails
    /// it (it branches on the global fork order); everything else here is
    /// side-based.
    #[must_use]
    pub const fn is_relabelling_invariant(self) -> bool {
        !matches!(self, AlgorithmKind::OrderedForks)
    }

    /// Instantiates the corresponding program.
    #[must_use]
    pub fn program(self) -> AnyProgram {
        AnyProgram::new(self)
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error returned when parsing an unknown algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown algorithm {:?}; expected one of LR1, LR2, GDP1, GDP2, ordered-forks",
            self.input
        )
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmKind {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lr1" => Ok(AlgorithmKind::Lr1),
            "lr2" => Ok(AlgorithmKind::Lr2),
            "gdp1" => Ok(AlgorithmKind::Gdp1),
            "gdp2" => Ok(AlgorithmKind::Gdp2),
            "ordered-forks" | "ordered" | "hierarchical" => Ok(AlgorithmKind::OrderedForks),
            "naive" | "naive-left-right" => Ok(AlgorithmKind::Naive),
            _ => Err(ParseAlgorithmError {
                input: s.to_string(),
            }),
        }
    }
}

/// A [`Program`] that dispatches to the algorithm selected at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnyProgram {
    kind: AlgorithmKind,
    lr1: Lr1,
    lr2: Lr2,
    gdp1: Gdp1,
    gdp2: Gdp2,
    ordered: OrderedForks,
    naive: NaiveLeftRight,
}

impl AnyProgram {
    /// Creates the program for `kind`.
    #[must_use]
    pub fn new(kind: AlgorithmKind) -> Self {
        AnyProgram {
            kind,
            lr1: Lr1::new(),
            lr2: Lr2::new(),
            gdp1: Gdp1::new(),
            gdp2: Gdp2::new(),
            ordered: OrderedForks::new(),
            naive: NaiveLeftRight::new(),
        }
    }

    /// The algorithm this program dispatches to.
    #[must_use]
    pub fn kind(&self) -> AlgorithmKind {
        self.kind
    }
}

/// Private state for [`AnyProgram`]: the state of whichever algorithm is
/// selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnyState {
    /// LR1 state.
    Lr1(Lr1State),
    /// LR2 state.
    Lr2(Lr2State),
    /// GDP1 state.
    Gdp1(Gdp1State),
    /// GDP2 state.
    Gdp2(Gdp2State),
    /// Ordered-forks baseline state.
    OrderedForks(BaselineState),
    /// Naive left-right baseline state.
    Naive(BaselineState),
}

impl Program for AnyProgram {
    type State = AnyState;

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn initial_state(&self) -> AnyState {
        match self.kind {
            AlgorithmKind::Lr1 => AnyState::Lr1(self.lr1.initial_state()),
            AlgorithmKind::Lr2 => AnyState::Lr2(self.lr2.initial_state()),
            AlgorithmKind::Gdp1 => AnyState::Gdp1(self.gdp1.initial_state()),
            AlgorithmKind::Gdp2 => AnyState::Gdp2(self.gdp2.initial_state()),
            AlgorithmKind::OrderedForks => AnyState::OrderedForks(self.ordered.initial_state()),
            AlgorithmKind::Naive => AnyState::Naive(self.naive.initial_state()),
        }
    }

    /// Only the active algorithm's states: a dispatcher never holds
    /// another algorithm's, so its code table stays that algorithm's size.
    fn private_states(&self) -> Vec<AnyState> {
        match self.kind {
            AlgorithmKind::Lr1 => wrap(self.lr1.private_states(), AnyState::Lr1),
            AlgorithmKind::Lr2 => wrap(self.lr2.private_states(), AnyState::Lr2),
            AlgorithmKind::Gdp1 => wrap(self.gdp1.private_states(), AnyState::Gdp1),
            AlgorithmKind::Gdp2 => wrap(self.gdp2.private_states(), AnyState::Gdp2),
            AlgorithmKind::OrderedForks => {
                wrap(self.ordered.private_states(), AnyState::OrderedForks)
            }
            AlgorithmKind::Naive => wrap(self.naive.private_states(), AnyState::Naive),
        }
    }

    fn observation(&self, state: &AnyState, ends: ForkEnds) -> ProgramObservation {
        match state {
            AnyState::Lr1(s) => self.lr1.observation(s, ends),
            AnyState::Lr2(s) => self.lr2.observation(s, ends),
            AnyState::Gdp1(s) => self.gdp1.observation(s, ends),
            AnyState::Gdp2(s) => self.gdp2.observation(s, ends),
            AnyState::OrderedForks(s) => self.ordered.observation(s, ends),
            AnyState::Naive(s) => self.naive.observation(s, ends),
        }
    }

    fn step(&self, state: &mut AnyState, ctx: &mut StepCtx<'_>) -> Action {
        match state {
            AnyState::Lr1(s) => self.lr1.step(s, ctx),
            AnyState::Lr2(s) => self.lr2.step(s, ctx),
            AnyState::Gdp1(s) => self.gdp1.step(s, ctx),
            AnyState::Gdp2(s) => self.gdp2.step(s, ctx),
            AnyState::OrderedForks(s) => self.ordered.step(s, ctx),
            AnyState::Naive(s) => self.naive.step(s, ctx),
        }
    }
}

fn wrap<S>(states: Vec<S>, variant: fn(S) -> AnyState) -> Vec<AnyState> {
    states.into_iter().map(variant).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_sim::{Engine, SimConfig, StopCondition, UniformRandomAdversary};
    use gdp_topology::builders::classic_ring;

    #[test]
    fn names_descriptions_and_symmetry_flags() {
        assert_eq!(AlgorithmKind::all().len(), 6);
        assert_eq!(AlgorithmKind::paper_algorithms().len(), 4);
        assert_eq!(AlgorithmKind::deadlock_free().len(), 5);
        assert!(!AlgorithmKind::deadlock_free().contains(&AlgorithmKind::Naive));
        for kind in AlgorithmKind::all() {
            assert!(!kind.name().is_empty());
            assert!(!kind.description().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!(AlgorithmKind::Gdp1.is_symmetric());
        assert!(!AlgorithmKind::OrderedForks.is_symmetric());
        assert!(AlgorithmKind::Naive.is_symmetric());
        assert!(AlgorithmKind::Gdp1.is_relabelling_invariant());
        assert!(!AlgorithmKind::OrderedForks.is_relabelling_invariant());
    }

    #[test]
    fn parsing_is_case_insensitive_and_rejects_unknown() {
        assert_eq!("lr1".parse::<AlgorithmKind>().unwrap(), AlgorithmKind::Lr1);
        assert_eq!(
            "GDP2".parse::<AlgorithmKind>().unwrap(),
            AlgorithmKind::Gdp2
        );
        assert_eq!(
            "hierarchical".parse::<AlgorithmKind>().unwrap(),
            AlgorithmKind::OrderedForks
        );
        assert_eq!(
            "naive".parse::<AlgorithmKind>().unwrap(),
            AlgorithmKind::Naive
        );
        let err = "nope".parse::<AlgorithmKind>().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn any_program_matches_direct_program_behaviour() {
        // AnyProgram(GDP1) and Gdp1 take identical steps from the same seed
        // and adversary.
        let t = classic_ring(5).unwrap();
        let config = SimConfig::default().with_seed(9);
        let mut direct = Engine::new(t.clone(), crate::Gdp1::new(), config.clone());
        let mut dispatched = Engine::new(t, AlgorithmKind::Gdp1.program(), config);
        let (mut adv_direct, mut adv_dispatched) = (
            UniformRandomAdversary::new(2),
            UniformRandomAdversary::new(2),
        );
        for _ in 0..3_000 {
            assert_eq!(
                direct.step_with(&mut adv_direct),
                dispatched.step_with(&mut adv_dispatched)
            );
        }
        assert_eq!(direct.total_meals(), dispatched.total_meals());
    }

    #[test]
    fn every_deadlock_free_algorithm_progresses_on_the_classic_ring() {
        for kind in AlgorithmKind::deadlock_free() {
            let mut e = Engine::new(
                classic_ring(6).unwrap(),
                kind.program(),
                SimConfig::default().with_seed(1),
            );
            let outcome = e.run(
                &mut UniformRandomAdversary::new(kind as u64),
                StopCondition::FirstMeal { max_steps: 200_000 },
            );
            assert!(
                outcome.made_progress(),
                "{kind} should progress on the classic ring"
            );
            assert_eq!(e.program().kind(), kind);
            assert_eq!(e.program().name(), kind.name());
        }
    }
}
