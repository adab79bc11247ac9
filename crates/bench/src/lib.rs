//! The paper's claims as checked rows ([`CLAIMS`]), and the helpers of the
//! `report` binary (`cargo run -p gdp-bench --bin report --release`), which
//! prints every row's exact verdict and then the tables no exact class
//! covers.

use gdp_adversary::TriangleWaveAdversary;
use gdp_algorithms::AlgorithmKind;
use gdp_scenarios::{CheckSpec, CheckTargetSpec, CheckVerdict, TopologyFamily};
use gdp_sim::{Engine, SimConfig, StopCondition};

/// Number of Monte-Carlo trials used by the printed summaries.
pub const TRIALS: u64 = 20;

/// One checkable claim of the paper, pinned as the exact verdict of one
/// `gdp check` cell at the checker's defaults: every fair adversary, a
/// 6,000,000-state budget and the automatic symmetry quotient.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// Where the claim is made: a theorem or section of the paper, or the
    /// Lehmann–Rabin results it builds on.
    pub source: &'static str,
    /// The verdict the paper states for this cell.
    pub paper: CheckVerdict,
    /// The checked topology family.
    pub family: TopologyFamily,
    /// The family's scale parameter.
    pub size: usize,
    /// The checked algorithm.
    pub algorithm: AlgorithmKind,
    /// The checked objective.
    pub target: CheckTargetSpec,
    /// The verdict `gdp check` reaches.
    pub verdict: CheckVerdict,
    /// The worst-case probability of the first checked target.
    pub probability: f64,
}

impl Claim {
    /// The check this row pins: `gdp check`'s defaults plus the row's
    /// target.
    #[must_use]
    pub fn spec(&self) -> CheckSpec {
        CheckSpec {
            target: self.target,
            ..CheckSpec::new(self.family, self.size, self.algorithm)
        }
    }

    /// The `gdp check` command line that reproduces this row.
    #[must_use]
    pub fn command(&self) -> String {
        let mut command = format!(
            "gdp check --family {} --size {} --algorithm {}",
            self.family.name(),
            self.size,
            self.algorithm.name().to_ascii_lowercase()
        );
        if self.target != CheckTargetSpec::Progress {
            command.push_str(" --target ");
            command.push_str(&self.target.name());
        }
        command
    }
}

/// The paper's checkable claims (Herescu & Palamidessi, arXiv cs/0109003),
/// one row per `gdp check` cell that decides one.  Every row is exact at
/// the default budget; `tests/claims.rs` runs each one in process and
/// through the `gdp` binary.
///
/// The Figure 1 triangle is `shared-ring:2` at size 3.  The last row is the
/// one where the check and the paper differ: with `Cond` tested at the
/// first take only, a fair adversary starves P0 of the 3-ring surely.
pub const CLAIMS: &[Claim] = &[
    // Lehmann and Rabin: LR1 progresses and LR2 is lockout-free on rings.
    Claim {
        source: "Lehmann-Rabin",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Ring,
        size: 3,
        algorithm: AlgorithmKind::Lr1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    Claim {
        source: "Lehmann-Rabin",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Ring,
        size: 3,
        algorithm: AlgorithmKind::Lr2,
        target: CheckTargetSpec::Lockout,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    // LR1 fails on the Figure 1 triangle.
    Claim {
        source: "Section 3",
        paper: CheckVerdict::Violated,
        family: TopologyFamily::SharedRing { sharing: 2 },
        size: 3,
        algorithm: AlgorithmKind::Lr1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Violated,
        probability: 0.1875,
    },
    // LR1 fails on a ring with an extra arc.
    Claim {
        source: "Theorem 1",
        paper: CheckVerdict::Violated,
        family: TopologyFamily::Theta { paths: 3 },
        size: 5,
        algorithm: AlgorithmKind::Lr1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Violated,
        probability: 0.6875,
    },
    // LR2 fails on theta graphs.
    Claim {
        source: "Theorem 2",
        paper: CheckVerdict::Violated,
        family: TopologyFamily::Theta { paths: 3 },
        size: 4,
        algorithm: AlgorithmKind::Lr2,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Violated,
        probability: 0.5,
    },
    // GDP1 progresses on every topology.
    Claim {
        source: "Theorem 3",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Ring,
        size: 4,
        algorithm: AlgorithmKind::Gdp1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    Claim {
        source: "Theorem 3",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Theta { paths: 3 },
        size: 5,
        algorithm: AlgorithmKind::Gdp1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    Claim {
        source: "Theorem 3",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::SharedRing { sharing: 2 },
        size: 3,
        algorithm: AlgorithmKind::Gdp1,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    // GDP1 is not lockout-free.
    Claim {
        source: "Section 5",
        paper: CheckVerdict::Violated,
        family: TopologyFamily::Ring,
        size: 3,
        algorithm: AlgorithmKind::Gdp1,
        target: CheckTargetSpec::Lockout,
        verdict: CheckVerdict::Violated,
        probability: 0.0,
    },
    // GDP2 is lockout-free on every topology.
    Claim {
        source: "Theorem 4",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Theta { paths: 3 },
        size: 4,
        algorithm: AlgorithmKind::Gdp2,
        target: CheckTargetSpec::Progress,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    Claim {
        source: "Theorem 4",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::SharedRing { sharing: 2 },
        size: 2,
        algorithm: AlgorithmKind::Gdp2,
        target: CheckTargetSpec::Lockout,
        verdict: CheckVerdict::Certified,
        probability: 1.0,
    },
    Claim {
        source: "Theorem 4",
        paper: CheckVerdict::Certified,
        family: TopologyFamily::Ring,
        size: 3,
        algorithm: AlgorithmKind::Gdp2,
        target: CheckTargetSpec::Lockout,
        verdict: CheckVerdict::Violated,
        probability: 0.0,
    },
];

/// Prints a section header.
pub fn print_header(title: &str) {
    println!();
    println!("{}", "=".repeat(100));
    println!("{title}");
    println!("{}", "=".repeat(100));
}

/// Outcome of a batch of runs under the Section 3 wave scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaveSummary {
    /// Fraction of trials with no meal at all within the window.
    pub blocked_fraction: f64,
    /// Mean meals per trial.
    pub mean_meals: f64,
    /// Mean realized bounded-fairness bound over the blocked trials.
    pub mean_fairness_bound: f64,
}

/// Runs `trials` windows of `steps` scheduler steps of `algorithm` on the
/// Figure 1 triangle under the Section 3 wave scheduler.
#[must_use]
pub fn wave_summary(algorithm: AlgorithmKind, trials: u64, steps: u64) -> WaveSummary {
    let topology = gdp_topology::builders::figure1_triangle();
    let mut blocked = 0u64;
    let mut meals = 0u64;
    let mut bounds = Vec::new();
    for seed in 0..trials {
        let mut engine = Engine::new(
            topology.clone(),
            algorithm.program(),
            SimConfig::default().with_seed(seed),
        );
        let mut adversary =
            TriangleWaveAdversary::new(&topology).expect("triangle topology is valid");
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
        if !outcome.made_progress() {
            blocked += 1;
            if let Some(bound) = outcome.fairness_bound {
                bounds.push(bound as f64);
            }
        }
        meals += outcome.total_meals;
    }
    WaveSummary {
        blocked_fraction: blocked as f64 / trials as f64,
        mean_meals: meals as f64 / trials as f64,
        mean_fairness_bound: gdp_analysis::stats::mean(&bounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_summary_blocks_lr1_more_than_gdp1() {
        let lr1 = wave_summary(AlgorithmKind::Lr1, 6, 20_000);
        let gdp1 = wave_summary(AlgorithmKind::Gdp1, 6, 20_000);
        assert!(lr1.blocked_fraction >= gdp1.blocked_fraction);
        assert_eq!(gdp1.blocked_fraction, 0.0);
    }
}
