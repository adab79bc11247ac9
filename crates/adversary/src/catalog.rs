//! The adversary **catalog**: run-time selection over every scheduler
//! family in the workspace, mirroring `gdp_algorithms::AlgorithmKind`.
//!
//! The paper's theorems are quantified *worst-case over adversaries* —
//! adversary strength is the central experimental axis, so the catalog
//! names it the same way the algorithm registry names algorithms: one
//! [`AdversaryKind`] value per family, a canonical re-parseable spec
//! string, a [`FairnessClass`], and a deterministic
//! [`build`](AdversaryKind::build) used by the sweep machinery.  `gdp list`
//! prints [`ADVERSARY_CATALOG`]; `docs/ADVERSARIES.md` documents how each
//! family maps onto the paper's adversary definition and which layers
//! (Monte-Carlo, exact, runtime) support it.

use crate::adaptive::{GreedyConflictAdversary, MaxWaitAdversary};
use crate::blocking::{BlockingAdversary, BlockingPolicy};
use crate::crash::CrashStopAdversary;
use crate::fairness::StubbornnessSchedule;
use crate::kbounded::KBoundedRoundRobin;
use gdp_sim::{Adversary, RoundRobinAdversary, UniformRandomAdversary};
use std::fmt;
use std::str::FromStr;

/// How a scheduler family relates to the paper's fairness requirement
/// ("every philosopher is scheduled infinitely often").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FairnessClass {
    /// A deterministic bound `B` exists such that no philosopher ever waits
    /// more than `B` steps between schedulings.
    BoundedFair,
    /// Fair with probability 1 (but no deterministic bound).
    ProbabilisticallyFair,
    /// Fair by construction through the increasing-stubbornness
    /// [`FairDriver`](crate::FairDriver): the policy may defer a
    /// philosopher, but only up to the current (finite, possibly growing)
    /// stubbornness bound.
    GuardedFair,
    /// **Not fair**: crashed philosophers are scheduled only finitely
    /// often.  Outside the paper's model — the family that measures
    /// degradation, not the theorems.
    CrashFaulty,
}

impl FairnessClass {
    /// Stable lower-case name used in catalogs and reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FairnessClass::BoundedFair => "bounded-fair",
            FairnessClass::ProbabilisticallyFair => "probabilistically-fair",
            FairnessClass::GuardedFair => "guarded-fair",
            FairnessClass::CrashFaulty => "crash-faulty",
        }
    }
}

impl fmt::Display for FairnessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The scheduler families available for run-time selection.
///
/// The canonical spec strings round-trip through [`FromStr`]:
///
/// ```
/// use gdp_adversary::AdversaryKind;
///
/// for kind in AdversaryKind::all() {
///     let reparsed: AdversaryKind = kind.name().parse().unwrap();
///     assert_eq!(reparsed, kind);
/// }
/// assert_eq!(
///     "kbounded:4".parse::<AdversaryKind>().unwrap(),
///     AdversaryKind::KBoundedRoundRobin { k: 4 },
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdversaryKind {
    /// Fair cyclic scheduling (`round-robin`).
    RoundRobin,
    /// Uniformly random fair scheduling, re-seeded per trial
    /// (`uniform-random`).
    UniformRandom,
    /// The generic blocking adversary with its default growing stubbornness
    /// schedule (`blocking`).
    Blocking,
    /// The blocking adversary with a constant stubbornness bound
    /// (`blocking:<bound>`); pick a bound larger than the step budget for
    /// the paper's patient late-round schedulers.
    BlockingPatient {
        /// Constant deferral bound in scheduler steps.
        stubbornness: u64,
    },
    /// Round-robin dwelling `k` consecutive steps per philosopher
    /// (`kbounded:<k>`): deterministically `k·n`-bounded fair, burning
    /// blocked philosophers' quota on busy-waits.
    KBoundedRoundRobin {
        /// Consecutive steps spent on each philosopher.
        k: u64,
    },
    /// Adaptive FIFO service: always schedules the longest-waiting enabled
    /// philosopher (`max-wait`) — the benign feedback-control scheduler.
    MaxWait,
    /// Adaptive contention maximizer with the default growing stubbornness
    /// schedule (`greedy-conflict`): steers hungry neighbours onto eaters'
    /// forks and defers releases as long as fairness allows.
    GreedyConflict,
    /// The contention maximizer with a constant stubbornness bound
    /// (`greedy-conflict:<bound>`).
    GreedyConflictPatient {
        /// Constant deferral bound in scheduler steps.
        stubbornness: u64,
    },
    /// Crash-stop fault model (`crash:<f>`): `f` seeded philosophers stop
    /// permanently at seeded steps, mid-protocol; survivors are scheduled
    /// uniformly at random.
    CrashStop {
        /// Number of philosophers that crash (capped at `n − 1`).
        crashes: u32,
    },
}

impl AdversaryKind {
    /// One representative of every family, in presentation order (the
    /// parametric families appear with their documentation defaults).
    #[must_use]
    pub const fn all() -> [AdversaryKind; 9] {
        [
            AdversaryKind::RoundRobin,
            AdversaryKind::UniformRandom,
            AdversaryKind::MaxWait,
            AdversaryKind::KBoundedRoundRobin { k: 4 },
            AdversaryKind::Blocking,
            AdversaryKind::BlockingPatient {
                stubbornness: 50_000,
            },
            AdversaryKind::GreedyConflict,
            AdversaryKind::GreedyConflictPatient {
                stubbornness: 50_000,
            },
            AdversaryKind::CrashStop { crashes: 1 },
        ]
    }

    /// The canonical spec string (re-parseable with [`FromStr`]).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            AdversaryKind::RoundRobin => "round-robin".to_string(),
            AdversaryKind::UniformRandom => "uniform-random".to_string(),
            AdversaryKind::Blocking => "blocking".to_string(),
            AdversaryKind::BlockingPatient { stubbornness } => format!("blocking:{stubbornness}"),
            AdversaryKind::KBoundedRoundRobin { k } => format!("kbounded:{k}"),
            AdversaryKind::MaxWait => "max-wait".to_string(),
            AdversaryKind::GreedyConflict => "greedy-conflict".to_string(),
            AdversaryKind::GreedyConflictPatient { stubbornness } => {
                format!("greedy-conflict:{stubbornness}")
            }
            AdversaryKind::CrashStop { crashes } => format!("crash:{crashes}"),
        }
    }

    /// Instantiates the adversary for trial `trial` of a cell seeded with
    /// `cell_seed`.  The construction depends only on those two values, so
    /// sweeps stay deterministic for every thread count (test-enforced in
    /// `tests/adversary_determinism.rs`).
    #[must_use]
    pub fn build(self, cell_seed: u64, trial: u64) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::RoundRobin => Box::new(RoundRobinAdversary::new()),
            AdversaryKind::UniformRandom => {
                Box::new(UniformRandomAdversary::new(cell_seed ^ trial ^ 0x5eed))
            }
            AdversaryKind::Blocking => Box::new(BlockingAdversary::global()),
            AdversaryKind::BlockingPatient { stubbornness } => {
                Box::new(BlockingAdversary::with_schedule(
                    BlockingPolicy::global(),
                    StubbornnessSchedule::Constant(stubbornness),
                ))
            }
            AdversaryKind::KBoundedRoundRobin { k } => Box::new(KBoundedRoundRobin::new(k)),
            AdversaryKind::MaxWait => Box::new(MaxWaitAdversary::new()),
            AdversaryKind::GreedyConflict => Box::new(GreedyConflictAdversary::new()),
            AdversaryKind::GreedyConflictPatient { stubbornness } => {
                Box::new(GreedyConflictAdversary::with_schedule(
                    StubbornnessSchedule::Constant(stubbornness),
                ))
            }
            AdversaryKind::CrashStop { crashes } => Box::new(CrashStopAdversary::new(
                crashes,
                // A distinct per-trial stream, decorrelated from the
                // philosophers' `cell_seed + trial` engine seeds.
                cell_seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A5,
            )),
        }
    }
}

impl fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error returned when an adversary spec string does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAdversaryError {
    input: String,
    reason: String,
}

impl ParseAdversaryError {
    fn new(input: &str, reason: &str) -> Self {
        ParseAdversaryError {
            input: input.to_string(),
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for ParseAdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid adversary spec {:?}: {}",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseAdversaryError {}

impl FromStr for AdversaryKind {
    type Err = ParseAdversaryError;

    /// Parses a spec string: `round-robin` | `uniform-random` | `blocking`
    /// | `blocking:<bound>` | `kbounded:<k>` | `max-wait` |
    /// `greedy-conflict` | `greedy-conflict:<bound>` | `crash:<f>`
    /// (plus the usual short aliases, case-insensitively).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let parse_param = |suffix: &str, what: &str| -> Result<u64, ParseAdversaryError> {
            suffix
                .parse()
                .map_err(|_| ParseAdversaryError::new(s, what))
        };
        match lower.as_str() {
            "round-robin" | "rr" => return Ok(AdversaryKind::RoundRobin),
            "uniform-random" | "uniform" | "random" => return Ok(AdversaryKind::UniformRandom),
            "blocking" => return Ok(AdversaryKind::Blocking),
            "max-wait" | "maxwait" | "fifo" => return Ok(AdversaryKind::MaxWait),
            "greedy-conflict" | "greedy" => return Ok(AdversaryKind::GreedyConflict),
            _ => {}
        }
        if let Some(bound) = lower.strip_prefix("blocking:") {
            return parse_param(bound, "blocking bound must be an integer")
                .map(|stubbornness| AdversaryKind::BlockingPatient { stubbornness });
        }
        if let Some(k) = lower
            .strip_prefix("kbounded:")
            .or_else(|| lower.strip_prefix("kbounded-rr:"))
        {
            let k = parse_param(k, "kbounded dwell must be a positive integer")?;
            if k == 0 {
                return Err(ParseAdversaryError::new(
                    s,
                    "kbounded dwell must be a positive integer",
                ));
            }
            return Ok(AdversaryKind::KBoundedRoundRobin { k });
        }
        if let Some(bound) = lower
            .strip_prefix("greedy-conflict:")
            .or_else(|| lower.strip_prefix("greedy:"))
        {
            return parse_param(bound, "greedy-conflict bound must be an integer")
                .map(|stubbornness| AdversaryKind::GreedyConflictPatient { stubbornness });
        }
        if let Some(crashes) = lower
            .strip_prefix("crash:")
            .or_else(|| lower.strip_prefix("crash-stop:"))
        {
            let crashes = parse_param(crashes, "crash count must be an integer")?;
            let crashes = u32::try_from(crashes)
                .map_err(|_| ParseAdversaryError::new(s, "crash count must fit in u32"))?;
            return Ok(AdversaryKind::CrashStop { crashes });
        }
        Err(ParseAdversaryError::new(
            s,
            "expected round-robin, uniform-random, blocking[:<bound>], kbounded:<k>, \
             max-wait, greedy-conflict[:<bound>] or crash:<f>",
        ))
    }
}

/// One row of the adversary catalog printed by `gdp list`.
pub struct AdversaryCatalogEntry {
    /// The spec string (optionally with a `:param` suffix).
    pub spec: &'static str,
    /// The family's fairness class.
    pub fairness: FairnessClass,
    /// One-line description.
    pub description: &'static str,
}

/// The catalog of selectable adversary families, in presentation order.
pub const ADVERSARY_CATALOG: &[AdversaryCatalogEntry] = &[
    AdversaryCatalogEntry {
        spec: "round-robin",
        fairness: FairnessClass::BoundedFair,
        description: "fair cyclic scheduling (bound n)",
    },
    AdversaryCatalogEntry {
        spec: "uniform-random",
        fairness: FairnessClass::ProbabilisticallyFair,
        description: "fair random scheduling, re-seeded per trial",
    },
    AdversaryCatalogEntry {
        spec: "max-wait",
        fairness: FairnessClass::BoundedFair,
        description: "adaptive FIFO: longest-waiting enabled philosopher first",
    },
    AdversaryCatalogEntry {
        spec: "kbounded:<k>",
        fairness: FairnessClass::BoundedFair,
        description: "round-robin dwelling k steps per philosopher (bound k*n)",
    },
    AdversaryCatalogEntry {
        spec: "blocking",
        fairness: FairnessClass::GuardedFair,
        description: "blocking adversary, growing stubbornness (fairness bites)",
    },
    AdversaryCatalogEntry {
        spec: "blocking:<bound>",
        fairness: FairnessClass::GuardedFair,
        description: "blocking adversary, constant stubbornness bound",
    },
    AdversaryCatalogEntry {
        spec: "greedy-conflict",
        fairness: FairnessClass::GuardedFair,
        description: "adaptive contention maximizer, growing stubbornness",
    },
    AdversaryCatalogEntry {
        spec: "greedy-conflict:<bound>",
        fairness: FairnessClass::GuardedFair,
        description: "adaptive contention maximizer, constant bound",
    },
    AdversaryCatalogEntry {
        spec: "crash:<f>",
        fairness: FairnessClass::CrashFaulty,
        description: "f seeded philosophers crash-stop mid-protocol",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::Gdp1;
    use gdp_sim::{Engine, SimConfig, StopCondition};
    use gdp_topology::builders::classic_ring;

    /// The catalog row a spec string is printed under by `gdp list`.
    fn row(spec: &str) -> &'static AdversaryCatalogEntry {
        ADVERSARY_CATALOG
            .iter()
            .find(|row| row.spec == spec)
            .unwrap_or_else(|| panic!("no catalog row {spec}"))
    }

    #[test]
    fn every_kind_round_trips_builds_and_describes_itself() {
        for kind in AdversaryKind::all() {
            assert_eq!(kind.name().parse::<AdversaryKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
            // The catalog table is the family's one description.
            let name = kind.name();
            let family = name.split(':').next();
            assert!(
                ADVERSARY_CATALOG
                    .iter()
                    .any(|row| row.spec.split(':').next() == family && !row.description.is_empty()),
                "{kind} has no catalog row"
            );
            let mut adversary = kind.build(3, 1);
            // Every built adversary drives a real engine without panicking.
            let mut engine = Engine::new(
                classic_ring(4).unwrap(),
                Gdp1::new(),
                SimConfig::default().with_seed(5),
            );
            engine.run(&mut *adversary, StopCondition::MaxSteps(500));
        }
    }

    #[test]
    fn parsing_accepts_aliases_and_rejects_garbage() {
        assert_eq!(
            "rr".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::RoundRobin
        );
        assert_eq!(
            "uniform".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::UniformRandom
        );
        assert_eq!(
            "FIFO".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::MaxWait
        );
        assert_eq!(
            "greedy".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::GreedyConflict
        );
        assert_eq!(
            "kbounded-rr:7".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::KBoundedRoundRobin { k: 7 }
        );
        assert_eq!(
            "crash-stop:3".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::CrashStop { crashes: 3 }
        );
        assert_eq!(
            "blocking:50000".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::BlockingPatient {
                stubbornness: 50_000
            }
        );
        assert_eq!(
            "greedy-conflict:1800".parse::<AdversaryKind>().unwrap(),
            AdversaryKind::GreedyConflictPatient {
                stubbornness: 1_800
            }
        );
        for bad in ["nope", "blocking:x", "kbounded:0", "kbounded:y", "crash:-1"] {
            assert!(bad.parse::<AdversaryKind>().is_err(), "{bad}");
        }
    }

    #[test]
    fn fairness_classes_partition_the_catalog() {
        assert_eq!(row("crash:<f>").fairness, FairnessClass::CrashFaulty);
        assert_eq!(
            row("uniform-random").fairness,
            FairnessClass::ProbabilisticallyFair
        );
        assert_eq!(row("greedy-conflict").fairness.name(), "guarded-fair");
        assert_eq!(FairnessClass::CrashFaulty.to_string(), "crash-faulty");
        // The printed catalog covers every family `all()` names.
        assert_eq!(ADVERSARY_CATALOG.len(), AdversaryKind::all().len());
    }

    #[test]
    fn builds_are_deterministic_per_cell_seed_and_trial() {
        // Two builds of the same (kind, cell_seed, trial) drive identical
        // schedules; a different trial diverges for the seeded families.
        let kind = AdversaryKind::CrashStop { crashes: 1 };
        let drive = |mut adv: Box<dyn Adversary>| {
            let mut engine = Engine::new(
                classic_ring(5).unwrap(),
                Gdp1::new(),
                SimConfig::default().with_seed(8),
            );
            (0..3_000)
                .map(|_| engine.step_with(&mut *adv))
                .collect::<Vec<_>>()
        };
        assert_eq!(drive(kind.build(11, 2)), drive(kind.build(11, 2)));
        assert_ne!(drive(kind.build(11, 2)), drive(kind.build(11, 3)));
    }
}
