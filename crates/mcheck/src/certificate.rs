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

/// The `hunger` value of every certificate: a scheduled thinking philosopher
/// becomes hungry.
const HUNGER: &str = "always";

/// The `left_bias` value of every certificate: the bits of the fair coin's
/// 0.5.
const LEFT_BIAS_BITS: &str = "3fe0000000000000";

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

    /// Encodes the certificate as its stable **storage codec**: one
    /// `field value` line per field, in a fixed order, with every `f64`
    /// persisted as its 16-hex-digit bit pattern (so decoding restores the
    /// exact bits, never a rounded re-parse).  This is the payload format
    /// of certificate records in the scenario cell store; like
    /// [`render`](Self::render) it is byte-reproducible, but unlike the
    /// human rendering it is lossless and strictly machine-parseable.
    ///
    /// The `hunger` and `left_bias` lines are constants (`always` and the
    /// bits of 0.5): the model is fixed, and the lines keep the record
    /// format of stores written while it was configurable.
    ///
    /// [`decode`](Self::decode) is the exact inverse:
    /// `decode(&encode(c)) == Ok(c)` for every certificate, and
    /// re-encoding a decoded certificate is a fixed point.
    #[must_use]
    pub fn encode(&self) -> String {
        fn opt(value: Option<&str>) -> String {
            match value {
                Some(text) => format!("some {text}"),
                None => "none".to_string(),
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "system {}", self.system);
        let _ = writeln!(out, "algorithm {}", self.algorithm);
        let _ = writeln!(out, "target {}", self.target);
        let _ = writeln!(
            out,
            "adversary_class {}",
            opt(self.adversary_class.as_deref())
        );
        let _ = writeln!(out, "hunger {HUNGER}");
        let _ = writeln!(out, "left_bias {LEFT_BIAS_BITS}");
        let _ = writeln!(out, "nr_range {}", self.nr_range);
        let _ = writeln!(out, "symmetry_group {}", self.symmetry_group);
        let _ = writeln!(out, "states {}", self.states);
        let _ = writeln!(out, "transitions {}", self.transitions);
        let _ = writeln!(out, "truncated {}", self.truncated);
        let _ = writeln!(out, "safety_violations {}", self.safety_violations);
        let _ = writeln!(out, "deadlock_states {}", self.deadlock_states);
        let _ = writeln!(out, "fair_core_states {}", self.fair_core_states);
        let _ = writeln!(out, "probability {:016x}", self.probability.to_bits());
        let _ = writeln!(out, "certified_probability {}", self.certified_probability);
        let _ = writeln!(out, "iterations {}", self.iterations);
        let _ = writeln!(
            out,
            "expected_steps {}",
            match self.expected_steps {
                Some(steps) => format!("{:016x}", steps.to_bits()),
                None => "none".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "counterexample {}",
            opt(self.counterexample.as_deref())
        );
        out
    }

    /// The number of lines [`encode`](Self::encode) always produces: the
    /// codec is fixed-shape, so decoders of certificate *lists* can consume
    /// exactly this many lines per certificate.
    pub const ENCODED_LINES: usize = 19;

    /// Parses the storage codec of [`encode`](Self::encode) back into a
    /// certificate.  Parsing is strict — fixed field order, no missing or
    /// extra lines, 16-hex-digit `f64` bit patterns — so a torn or
    /// hand-edited payload is rejected rather than guessed at.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field, including a
    /// `hunger` or `left_bias` line other than the fixed model's.
    pub fn decode(encoded: &str) -> Result<Certificate, String> {
        let mut lines = encoded.lines();
        let mut field = |name: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("certificate truncated before field {name:?}"))?;
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed certificate line {line:?}"))?;
            if key != name {
                return Err(format!(
                    "expected certificate field {name:?}, found {key:?}"
                ));
            }
            Ok(value.to_string())
        };
        fn int<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("certificate field {name:?} has invalid value {value:?}"))
        }
        fn bits(name: &str, value: &str) -> Result<f64, String> {
            let raw = u64::from_str_radix(value, 16).map_err(|_| {
                format!("certificate field {name:?} has invalid f64 bits {value:?}")
            })?;
            if value.len() != 16 {
                return Err(format!(
                    "certificate field {name:?} has invalid f64 bits {value:?}"
                ));
            }
            Ok(f64::from_bits(raw))
        }
        fn opt(name: &str, value: &str) -> Result<Option<String>, String> {
            match value {
                "none" => Ok(None),
                other => other
                    .strip_prefix("some ")
                    .map(|text| Some(text.to_string()))
                    .ok_or_else(|| {
                        format!("certificate field {name:?} has invalid optional {value:?}")
                    }),
            }
        }

        let system = field("system")?;
        let algorithm = field("algorithm")?;
        let target = field("target")?;
        let adversary_class = opt("adversary_class", &field("adversary_class")?)?;
        for (name, fixed) in [("hunger", HUNGER), ("left_bias", LEFT_BIAS_BITS)] {
            let value = field(name)?;
            if value != fixed {
                return Err(format!(
                    "certificate field {name:?} has {value:?}, not the model's {fixed:?}"
                ));
            }
        }
        let nr_range = int("nr_range", &field("nr_range")?)?;
        let symmetry_group = int("symmetry_group", &field("symmetry_group")?)?;
        let states = int("states", &field("states")?)?;
        let transitions = int("transitions", &field("transitions")?)?;
        let truncated = int("truncated", &field("truncated")?)?;
        let safety_violations = int("safety_violations", &field("safety_violations")?)?;
        let deadlock_states = int("deadlock_states", &field("deadlock_states")?)?;
        let fair_core_states = int("fair_core_states", &field("fair_core_states")?)?;
        let probability = bits("probability", &field("probability")?)?;
        let certified_probability = int("certified_probability", &field("certified_probability")?)?;
        let iterations = int("iterations", &field("iterations")?)?;
        let expected_steps = match field("expected_steps")?.as_str() {
            "none" => None,
            value => Some(bits("expected_steps", value)?),
        };
        let counterexample = opt("counterexample", &field("counterexample")?)?;
        if lines.next().is_some() {
            return Err("certificate has trailing lines".to_string());
        }
        Ok(Certificate {
            system,
            algorithm,
            target,
            adversary_class,
            nr_range,
            symmetry_group,
            states,
            transitions,
            truncated,
            safety_violations,
            deadlock_states,
            fair_core_states,
            probability,
            certified_probability,
            iterations,
            expected_steps,
            counterexample,
        })
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
            "model:             hunger={HUNGER} left-bias=0.5 nr-range={}",
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

    #[test]
    fn the_storage_codec_round_trips_and_is_a_fixed_point() {
        let mut certificate = gdp1_ring3_certificate();
        certificate.adversary_class = Some("fair schedulers with up to 1 crash-stop".to_string());
        certificate.expected_steps = Some(7.25);
        certificate.counterexample = Some("12 steps against \"ring\" (seed 3, lasso)".to_string());
        let encoded = certificate.encode();
        assert_eq!(encoded.lines().count(), Certificate::ENCODED_LINES);
        let decoded = Certificate::decode(&encoded).unwrap();
        assert_eq!(decoded, certificate);
        assert_eq!(decoded.encode(), encoded);
        assert_eq!(decoded.render(), certificate.render());
    }

    #[test]
    fn the_storage_codec_preserves_exact_f64_bits() {
        let mut certificate = gdp1_ring3_certificate();
        certificate.probability = 0.1 + 0.2; // not representable as a short decimal
        certificate.certified_probability = false;
        let decoded = Certificate::decode(&certificate.encode()).unwrap();
        assert_eq!(
            decoded.probability.to_bits(),
            certificate.probability.to_bits()
        );
    }

    #[test]
    fn the_storage_codec_rejects_torn_and_tampered_payloads() {
        let encoded = gdp1_ring3_certificate().encode();
        // Truncation after any line prefix is rejected.
        let torn: String = encoded.lines().take(7).collect::<Vec<_>>().join("\n");
        assert!(Certificate::decode(&torn).is_err());
        // Reordered fields are rejected.
        let mut lines: Vec<&str> = encoded.lines().collect();
        lines.swap(0, 1);
        assert!(Certificate::decode(&lines.join("\n")).is_err());
        // Trailing junk is rejected.
        assert!(Certificate::decode(&format!("{encoded}extra line\n")).is_err());
        // A corrupted f64 bit pattern is rejected, not guessed at.
        let tampered = encoded.replace("probability ", "probability zz");
        assert!(Certificate::decode(&tampered).is_err());
        // The model lines hold the one model: any other hunger or coin is
        // rejected.
        assert!(encoded.contains("\nhunger always\nleft_bias 3fe0000000000000\n"));
        let hungry = encoded.replace("hunger always", "hunger bernoulli(0.5)");
        assert!(Certificate::decode(&hungry).is_err());
        let biased = encoded.replace("left_bias 3fe0000000000000", "left_bias 3fd0000000000000");
        assert!(Certificate::decode(&biased).is_err());
    }
}
