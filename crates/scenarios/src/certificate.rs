//! The certificate lines of a certificate record: how the store writes and
//! reads one `gdp-mcheck` [`Certificate`].
//!
//! A certificate record's payload (`crate::check`) is six header fields
//! followed by one block per certificate; this module owns the block.  It
//! is 19 `field value` lines in a fixed order, with every `f64` stored as
//! its [`f64_bits`] and every optional field as `some <text>` or `none`.

use crate::report::{f64_bits, parse_bits, parse_int, payload_field};
use gdp_mcheck::Certificate;
use std::fmt::Write as _;

/// The two model lines of every certificate in a record, required
/// verbatim: the model is fixed (a scheduled thinking philosopher becomes
/// hungry, and the coin is fair, `left_bias` holding the bits of 0.5), and
/// the lines keep the record format of stores written while it was
/// configurable.
const MODEL_LINES: [(&str, &str); 2] = [("hunger", "always"), ("left_bias", "3fe0000000000000")];

/// Appends the 19 record lines of `c` to `out`.
pub(crate) fn encode_certificate(out: &mut String, c: &Certificate) {
    fn optional(value: Option<&str>) -> String {
        value.map_or_else(|| "none".to_string(), |text| format!("some {text}"))
    }
    let _ = writeln!(out, "system {}", c.system);
    let _ = writeln!(out, "algorithm {}", c.algorithm);
    let _ = writeln!(out, "target {}", c.target);
    let _ = writeln!(
        out,
        "adversary_class {}",
        optional(c.adversary_class.as_deref())
    );
    for (name, value) in MODEL_LINES {
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(out, "nr_range {}", c.nr_range);
    let _ = writeln!(out, "symmetry_group {}", c.symmetry_group);
    let _ = writeln!(out, "states {}", c.states);
    let _ = writeln!(out, "transitions {}", c.transitions);
    let _ = writeln!(out, "truncated {}", c.truncated);
    let _ = writeln!(out, "safety_violations {}", c.safety_violations);
    let _ = writeln!(out, "deadlock_states {}", c.deadlock_states);
    let _ = writeln!(out, "fair_core_states {}", c.fair_core_states);
    let _ = writeln!(out, "probability {}", f64_bits(c.probability));
    let _ = writeln!(out, "certified_probability {}", c.certified_probability);
    let _ = writeln!(out, "iterations {}", c.iterations);
    let _ = writeln!(
        out,
        "expected_steps {}",
        c.expected_steps
            .map_or_else(|| "none".to_string(), f64_bits)
    );
    let _ = writeln!(
        out,
        "counterexample {}",
        optional(c.counterexample.as_deref())
    );
}

/// Reads the next certificate's 19 lines, strictly: fixed field order and
/// the [`MODEL_LINES`] verbatim.  Lines after them are left to the caller.
pub(crate) fn decode_certificate(lines: &mut std::str::Lines<'_>) -> Result<Certificate, String> {
    fn optional(name: &str, value: &str) -> Result<Option<String>, String> {
        match value {
            "none" => Ok(None),
            other => other
                .strip_prefix("some ")
                .map(|text| Some(text.to_string()))
                .ok_or_else(|| format!("field {name:?} has invalid optional {value:?}")),
        }
    }
    let mut field = |name: &str| payload_field(lines, name);
    let system = field("system")?.to_string();
    let algorithm = field("algorithm")?.to_string();
    let target = field("target")?.to_string();
    let adversary_class = optional("adversary_class", field("adversary_class")?)?;
    for (name, fixed) in MODEL_LINES {
        let value = field(name)?;
        if value != fixed {
            return Err(format!(
                "field {name:?} has {value:?}, not the model's {fixed:?}"
            ));
        }
    }
    let nr_range = parse_int("nr_range", field("nr_range")?)?;
    let symmetry_group = parse_int("symmetry_group", field("symmetry_group")?)?;
    let states = parse_int("states", field("states")?)?;
    let transitions = parse_int("transitions", field("transitions")?)?;
    let truncated = parse_int("truncated", field("truncated")?)?;
    let safety_violations = parse_int("safety_violations", field("safety_violations")?)?;
    let deadlock_states = parse_int("deadlock_states", field("deadlock_states")?)?;
    let fair_core_states = parse_int("fair_core_states", field("fair_core_states")?)?;
    let probability = parse_bits("probability", field("probability")?)?;
    let certified_probability =
        parse_int("certified_probability", field("certified_probability")?)?;
    let iterations = parse_int("iterations", field("iterations")?)?;
    let expected_steps = match field("expected_steps")? {
        "none" => None,
        value => Some(parse_bits("expected_steps", value)?),
    };
    let counterexample = optional("counterexample", field("counterexample")?)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_check, CheckSpec};
    use crate::family::TopologyFamily;
    use gdp_algorithms::AlgorithmKind;

    fn gdp1_ring3_certificate() -> Certificate {
        let spec = CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1);
        run_check(&spec).unwrap().certificates.remove(0)
    }

    fn encode(certificate: &Certificate) -> String {
        let mut out = String::new();
        encode_certificate(&mut out, certificate);
        out
    }

    fn decode(encoded: &str) -> Result<Certificate, String> {
        decode_certificate(&mut encoded.lines())
    }

    #[test]
    fn the_storage_codec_round_trips_and_is_a_fixed_point() {
        let mut certificate = gdp1_ring3_certificate();
        certificate.adversary_class = Some("fair schedulers with up to 1 crash-stop".to_string());
        certificate.expected_steps = Some(7.25);
        certificate.counterexample = Some("12 steps against \"ring\" (seed 3, lasso)".to_string());
        let encoded = encode(&certificate);
        assert_eq!(encoded.lines().count(), 19);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, certificate);
        assert_eq!(encode(&decoded), encoded);
        assert_eq!(decoded.render(), certificate.render());
    }

    #[test]
    fn the_storage_codec_preserves_exact_f64_bits() {
        let mut certificate = gdp1_ring3_certificate();
        certificate.probability = 0.1 + 0.2; // not representable as a short decimal
        certificate.certified_probability = false;
        certificate.expected_steps = Some(1.0 / 3.0);
        let decoded = decode(&encode(&certificate)).unwrap();
        assert_eq!(
            decoded.probability.to_bits(),
            certificate.probability.to_bits()
        );
        assert_eq!(
            decoded.expected_steps.map(f64::to_bits),
            certificate.expected_steps.map(f64::to_bits)
        );
    }

    #[test]
    fn the_storage_codec_rejects_torn_and_tampered_payloads() {
        let encoded = encode(&gdp1_ring3_certificate());
        // Truncation after any line prefix is rejected.
        let lines: Vec<&str> = encoded.lines().collect();
        for keep in 0..lines.len() {
            assert!(decode(&lines[..keep].join("\n")).is_err(), "kept {keep}");
        }
        // Reordered fields are rejected.
        let mut reordered = lines.clone();
        reordered.swap(0, 1);
        assert!(decode(&reordered.join("\n")).is_err());
        // Exactly 19 lines are read: a trailing line is left for the
        // record decoder, which rejects it.
        let trailing = format!("{encoded}extra line\n");
        let mut rest = trailing.lines();
        decode_certificate(&mut rest).unwrap();
        assert_eq!(rest.next(), Some("extra line"));
        // A corrupted f64 bit pattern is rejected, not guessed at.
        let tampered = encoded.replace("probability ", "probability zz");
        assert!(decode(&tampered).is_err());
        // The model lines hold the one model: any other hunger or coin is
        // rejected.
        assert!(encoded.contains("\nhunger always\nleft_bias 3fe0000000000000\n"));
        let hungry = encoded.replace("hunger always", "hunger bernoulli(0.5)");
        assert!(decode(&hungry).is_err());
        let biased = encoded.replace("left_bias 3fe0000000000000", "left_bias 3fd0000000000000");
        assert!(decode(&biased).is_err());
    }
}
