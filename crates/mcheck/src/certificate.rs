//! The byte-reproducible certificate emitted by a check.
//!
//! A [`Certificate`] combines the model statistics with the solved verdict
//! in a fixed textual layout.  Every field is a pure function of the
//! (topology, algorithm, target, options) tuple — state counts come from a
//! deterministic construction, probabilities from qualitative certification
//! or fixed-epsilon value iteration — so two runs of `gdp check` on the
//! same inputs produce **identical bytes**, for any `--threads` value
//! (test-enforced by the CLI test-suite).

use crate::model::{CheckTarget, Mdp};
use crate::solve::Solution;
use crate::strategy::CounterexampleSchedule;
use gdp_sim::SimConfig;
use gdp_topology::Topology;
use std::fmt::Write as _;

/// The overall verdict of a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds with probability 1 under every adversary, and
    /// every explored state is safe.
    Certified,
    /// A violation was found: a safety breach, a deadlock, or an adversary
    /// keeping the target probability below 1.  Violations found inside a
    /// truncated fragment are still real.
    Violated,
    /// The state budget truncated the model before a verdict was possible.
    Inconclusive,
}

impl Verdict {
    /// Stable lower-case name used in the rendered certificate.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Certified => "certified",
            Verdict::Violated => "violated",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// The exact verdict for one (topology, algorithm, target) triple.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Topology summary line (`topology(n=…, k=…, max_sharing=…)`).
    pub system: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Target description.
    pub target: String,
    /// The adversary class quantified over ([`Mdp::class`]); `None` means
    /// the paper's default — all fair schedulers.
    pub adversary_class: Option<String>,
    /// The priority-number range `m`: the number of forks `k`.
    pub nr_range: u32,
    /// Number of automorphisms used by the symmetry quotient (1 = off).
    pub symmetry_group: usize,
    /// Canonical states discovered.
    pub states: usize,
    /// Stored transitions.
    pub transitions: usize,
    /// Whether the state budget truncated the build.
    pub truncated: bool,
    /// Discovered states violating the safety invariants.
    pub safety_violations: usize,
    /// True deadlock states (every choice and outcome self-loops).
    pub deadlock_states: usize,
    /// States inside *genuine* fair avoid cores — fair end components the
    /// adversary can confine the system to forever, proved within the
    /// expanded fragment (so they refute even on truncated models).
    pub fair_core_states: usize,
    /// Worst-case probability of the target.
    pub probability: f64,
    /// Whether the probability is qualitatively exact.
    pub certified_probability: bool,
    /// Value-iteration rounds (0 when qualitatively certified).
    pub iterations: u64,
    /// Worst-case expected steps to the first target state, when computed.
    pub expected_steps: Option<f64>,
    /// Summary of the extracted counterexample schedule, if any.
    pub counterexample: Option<String>,
}

impl Certificate {
    /// Assembles the certificate for a solved model.
    ///
    /// `sim` is the configuration the model was built with.  It holds only
    /// a seed, which no exact verdict depends on: the model itself (always
    /// hungry, fair coins, priority numbers from `[1, k]`) is fixed.
    #[must_use]
    pub fn new(
        topology: &Topology,
        algorithm: &str,
        target: CheckTarget,
        _sim: &SimConfig,
        mdp: &Mdp,
        solution: &Solution,
        counterexample: Option<&CounterexampleSchedule>,
    ) -> Self {
        Certificate {
            system: topology.summary(),
            algorithm: algorithm.to_string(),
            target: target.describe(),
            adversary_class: mdp.class.describe(),
            nr_range: topology.num_forks() as u32,
            symmetry_group: mdp.automorphisms.len(),
            states: mdp.num_states,
            transitions: mdp.num_transitions(),
            truncated: mdp.truncated,
            safety_violations: mdp.safety_violations,
            deadlock_states: mdp.deadlock_states(),
            fair_core_states: solution.fair_core_states,
            probability: solution.probability,
            certified_probability: solution.certified,
            iterations: solution.iterations,
            expected_steps: solution.expected_steps,
            counterexample: counterexample.map(CounterexampleSchedule::summary),
        }
    }

    /// The overall verdict.
    ///
    /// Violations found inside a truncated fragment are real (safety
    /// breaches, deadlocks and fair cores are all proved on expanded
    /// states); a truncated model with no such finding is inconclusive —
    /// never certified, never refuted.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        if self.safety_violations > 0 || self.deadlock_states > 0 || self.fair_core_states > 0 {
            return Verdict::Violated;
        }
        if self.truncated {
            return Verdict::Inconclusive;
        }
        if self.certified_probability && self.probability == 1.0 {
            Verdict::Certified
        } else {
            Verdict::Violated
        }
    }

    fn render_probability(&self) -> String {
        if self.certified_probability {
            if self.probability == 1.0 {
                "1 (exact: no fair adversary avoid-component exists)".to_string()
            } else {
                "0 (exact: a fair adversary surely confines the system)".to_string()
            }
        } else {
            let bound = if self.truncated { "lower bound, " } else { "" };
            format!(
                "{:.9} ({bound}value iteration, {} rounds)",
                self.probability, self.iterations
            )
        }
    }

    /// Renders the certificate as its stable multi-line text form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "gdp-mcheck certificate");
        let _ = writeln!(out, "system:            {}", self.system);
        let _ = writeln!(out, "algorithm:         {}", self.algorithm);
        let _ = writeln!(out, "target:            {}", self.target);
        if let Some(class) = &self.adversary_class {
            let _ = writeln!(out, "adversaries:       {class}");
        }
        let _ = writeln!(
            out,
            "model:             hunger=always left-bias=0.5 nr-range={}",
            self.nr_range
        );
        let _ = writeln!(
            out,
            "state space:       {} canonical states, {} transitions (symmetry group {})",
            self.states, self.transitions, self.symmetry_group
        );
        let _ = writeln!(out, "truncated:         {}", self.truncated);
        let _ = writeln!(
            out,
            "safety:            {}",
            if self.safety_violations == 0 {
                "ok (mutual exclusion, eating-implies-both-forks)".to_string()
            } else {
                format!("VIOLATED in {} states", self.safety_violations)
            }
        );
        let _ = writeln!(
            out,
            "deadlock states:   {}{}",
            self.deadlock_states,
            if self.deadlock_states == 0 {
                ""
            } else {
                " (!)"
            }
        );
        let _ = writeln!(out, "fair avoid cores:  {} states", self.fair_core_states);
        let _ = writeln!(
            out,
            "worst-case P[{}]:  {}",
            if self.target.starts_with("progress") {
                "progress"
            } else {
                "target"
            },
            self.render_probability()
        );
        if let Some(steps) = self.expected_steps {
            let _ = writeln!(out, "worst-case E[steps to first meal]: {steps:.6}");
        }
        if let Some(cx) = &self.counterexample {
            let _ = writeln!(out, "counterexample:    {cx}");
        }
        let _ = writeln!(out, "verdict:           {}", self.verdict().name());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_mdp, BuildOptions};
    use crate::solve::{solve, SolveOptions};
    use gdp_algorithms::Gdp1;
    use gdp_topology::builders::classic_ring;

    fn gdp1_ring3_certificate() -> Certificate {
        let ring = classic_ring(3).unwrap();
        let options = BuildOptions::default().with_threads(1);
        let mdp = build_mdp(&ring, &Gdp1::new(), CheckTarget::Progress, &options);
        let solution = solve(&mdp, &SolveOptions::default());
        Certificate::new(
            &ring,
            "GDP1",
            CheckTarget::Progress,
            &options.sim,
            &mdp,
            &solution,
            None,
        )
    }

    #[test]
    fn gdp1_ring3_is_certified_with_probability_exactly_one() {
        let certificate = gdp1_ring3_certificate();
        assert_eq!(certificate.verdict(), Verdict::Certified);
        assert_eq!(certificate.probability, 1.0);
        assert!(certificate.certified_probability);
        assert_eq!(certificate.safety_violations, 0);
        assert_eq!(certificate.deadlock_states, 0);
        let rendered = certificate.render();
        assert!(rendered.contains("verdict:           certified"));
        assert!(rendered.contains("1 (exact"));
    }

    #[test]
    fn rendering_is_reproducible() {
        let a = gdp1_ring3_certificate().render();
        let b = gdp1_ring3_certificate().render();
        assert_eq!(a, b);
    }
}
