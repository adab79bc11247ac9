//! Report serialization: hand-written JSON and CSV (this workspace is fully
//! offline and carries no serialization dependency; strings are escaped by
//! `gdp_observe::jsonl::escape_json`, the one escaper every JSON writer in
//! the workspace shares).

use crate::runner::CellResult;
use crate::spec::ScenarioSpec;
use gdp_observe::jsonl::escape_json;
use std::fmt::Write as _;
use std::path::Path;

/// The collected results of one sweep, plus the spec context needed to
/// reproduce it.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// Sweep name (from the spec).
    pub name: String,
    /// The spec's one-line grid summary.
    pub spec_summary: String,
    /// The adversary name.
    pub adversary: String,
    /// The seed policy string.
    pub seed_policy: String,
    /// Trials per cell.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// Per-cell results, in expansion order.
    pub cells: Vec<CellResult>,
}

impl SweepReport {
    /// Whether any cell observed a hard violation (true deadlock or safety
    /// breach) in any trial — the signal behind `gdp sweep`'s nonzero exit.
    #[must_use]
    pub fn violation_detected(&self) -> bool {
        self.cells.iter().any(CellResult::violation_detected)
    }
}

/// Formats an `f64` for the JSON/CSV artifacts: finite values with six
/// decimal places (enough to round-trip every rate and mean the estimators
/// produce from small-integer ratios), `null`/empty-safe otherwise.  The
/// one number formatter of the sweep and stress artifacts.
pub(crate) fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

/// Serializes a string as a JSON string literal.  Rust's `{:?}` is *almost*
/// JSON but escapes control characters Rust-style (`\u{1}`) instead of
/// JSON-style (`\u0001`), so user-supplied text (e.g. the sweep name) goes
/// through the workspace's JSON escaper.
fn json_str(value: &str) -> String {
    format!("\"{}\"", escape_json(value))
}

/// The CSV header row written by [`SweepReport::to_csv`].
#[must_use]
pub fn csv_header() -> &'static str {
    "cell,family,size,philosophers,forks,algorithm,adversary,trials,max_steps,seed,\
     deadlock_rate,lockout_rate,mean_hunger,first_meal_p50,first_meal_p90,first_meal_p99,\
     min_meals_mean,fairness_mean,\
     stuck_trials,unsafe_trials,exact_verdict,exact_progress_prob,exact_states,steps_per_sec"
}

impl SweepReport {
    /// Bundles `results` with the reproduction context of `spec`.
    #[must_use]
    pub fn new(spec: &ScenarioSpec, cells: Vec<CellResult>) -> Self {
        SweepReport {
            name: spec.name.clone(),
            spec_summary: spec.summary(),
            adversary: spec.adversary.name(),
            seed_policy: spec.seed_policy.name(),
            trials: spec.trials,
            max_steps: spec.max_steps,
            cells,
        }
    }

    /// Renders the report as a JSON document.
    ///
    /// With timing off (the default) the output is a pure function of the
    /// spec, so two runs — at any thread counts — produce identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"sweep\": {},", json_str(&self.name));
        let _ = writeln!(out, "  \"spec\": {},", json_str(&self.spec_summary));
        let _ = writeln!(out, "  \"adversary\": {},", json_str(&self.adversary));
        let _ = writeln!(out, "  \"seed_policy\": {},", json_str(&self.seed_policy));
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"max_steps\": {},", self.max_steps);
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                cell_json(c),
                if i + 1 < self.cells.len() { "," } else { "" },
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as CSV with the [`csv_header`] columns, one row
    /// per cell.  `steps_per_sec` is empty when timing was not recorded.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(csv_header());
        out.push('\n');
        for c in &self.cells {
            let (exact_verdict, exact_prob, exact_states) = match &c.exact {
                Some(exact) => (
                    exact.verdict.clone(),
                    num(exact.progress_probability),
                    exact.states.to_string(),
                ),
                None => (String::new(), String::new(), String::new()),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.cell,
                c.family,
                c.size,
                c.philosophers,
                c.forks,
                c.algorithm,
                c.adversary,
                c.trials,
                c.max_steps,
                c.seed,
                num(c.deadlock_rate),
                num(c.lockout_rate),
                num(c.mean_hunger),
                num(c.first_meal_p50),
                num(c.first_meal_p90),
                num(c.first_meal_p99),
                num(c.min_meals_mean),
                num(c.fairness_mean),
                c.stuck_trials,
                c.unsafe_trials,
                exact_verdict,
                exact_prob,
                exact_states,
                c.steps_per_sec.map(num).unwrap_or_default(),
            );
        }
        out
    }

    /// Writes [`Self::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes [`Self::to_csv`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

/// Renders one cell as a single-line JSON object — the exact shape embedded
/// in [`SweepReport::to_json`]'s `cells` array, and the per-cell object
/// `gdp serve` streams over the wire (so a served sweep and a written
/// artifact agree field for field, byte for byte).
#[must_use]
pub fn cell_json(c: &CellResult) -> String {
    let steps_per_sec = match c.steps_per_sec {
        Some(sps) => num(sps),
        None => "null".to_string(),
    };
    let (exact_verdict, exact_prob, exact_states) = match &c.exact {
        Some(exact) => (
            json_str(&exact.verdict),
            num(exact.progress_probability),
            exact.states.to_string(),
        ),
        None => ("null".to_string(), "null".to_string(), "null".to_string()),
    };
    format!(
        "{{\"cell\": {}, \"family\": {}, \"size\": {}, \
         \"philosophers\": {}, \"forks\": {}, \"algorithm\": {}, \
         \"adversary\": {}, \"trials\": {}, \"max_steps\": {}, \"seed\": {}, \
         \"deadlock_rate\": {}, \"lockout_rate\": {}, \"mean_hunger\": {}, \
         \"first_meal_p50\": {}, \"first_meal_p90\": {}, \"first_meal_p99\": {}, \
         \"min_meals_mean\": {}, \"fairness_mean\": {}, \
         \"stuck_trials\": {}, \"unsafe_trials\": {}, \
         \"exact_verdict\": {}, \"exact_progress_prob\": {}, \
         \"exact_states\": {}, \"steps_per_sec\": {}}}",
        json_str(&c.cell),
        json_str(&c.family),
        c.size,
        c.philosophers,
        c.forks,
        json_str(&c.algorithm),
        json_str(&c.adversary),
        c.trials,
        c.max_steps,
        c.seed,
        num(c.deadlock_rate),
        num(c.lockout_rate),
        num(c.mean_hunger),
        num(c.first_meal_p50),
        num(c.first_meal_p90),
        num(c.first_meal_p99),
        num(c.min_meals_mean),
        num(c.fairness_mean),
        c.stuck_trials,
        c.unsafe_trials,
        exact_verdict,
        exact_prob,
        exact_states,
        steps_per_sec,
    )
}

// ---------------------------------------------------------------------------
// Cell-record payload codec (the durable half of the serialization layer).
//
// The cell store (`crate::store`) persists one completed `CellResult` per
// record.  The payload is a strict line-oriented `field value` format in a
// fixed field order; floating-point fields are stored as the **exact bit
// pattern** (`f64::to_bits`, 16 hex digits) so a resumed sweep reproduces
// the JSON/CSV artifacts byte for byte — the `%.6f` rendering above would
// round-trip the *printed* value but not the summary statistics feeding it.
// The wall-clock `steps_per_sec` field is deliberately not persisted:
// stored cells are always the reproducible, timing-free shape.
// ---------------------------------------------------------------------------

/// Renders the exact bit pattern of an `f64` as 16 hex digits (shared with
/// the certificate-record codec in `crate::check`).
pub(crate) fn f64_bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Serializes the deterministic fields of a [`CellResult`] as a cell-record
/// payload.
pub(crate) fn encode_cell_payload(c: &CellResult) -> String {
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "cell {}", c.cell);
    let _ = writeln!(out, "family {}", c.family);
    let _ = writeln!(out, "size {}", c.size);
    let _ = writeln!(out, "philosophers {}", c.philosophers);
    let _ = writeln!(out, "forks {}", c.forks);
    let _ = writeln!(out, "algorithm {}", c.algorithm);
    let _ = writeln!(out, "adversary {}", c.adversary);
    let _ = writeln!(out, "trials {}", c.trials);
    let _ = writeln!(out, "max_steps {}", c.max_steps);
    let _ = writeln!(out, "seed {}", c.seed);
    let _ = writeln!(out, "deadlock_rate {}", f64_bits(c.deadlock_rate));
    let _ = writeln!(out, "lockout_rate {}", f64_bits(c.lockout_rate));
    let _ = writeln!(out, "mean_hunger {}", f64_bits(c.mean_hunger));
    let _ = writeln!(out, "first_meal_p50 {}", f64_bits(c.first_meal_p50));
    let _ = writeln!(out, "first_meal_p90 {}", f64_bits(c.first_meal_p90));
    let _ = writeln!(out, "first_meal_p99 {}", f64_bits(c.first_meal_p99));
    let _ = writeln!(out, "min_meals_mean {}", f64_bits(c.min_meals_mean));
    let _ = writeln!(out, "fairness_mean {}", f64_bits(c.fairness_mean));
    let _ = writeln!(out, "stuck_trials {}", c.stuck_trials);
    let _ = writeln!(out, "unsafe_trials {}", c.unsafe_trials);
    match &c.exact {
        Some(exact) => {
            let _ = writeln!(
                out,
                "exact {} {} {}",
                exact.verdict,
                f64_bits(exact.progress_probability),
                exact.states
            );
        }
        None => {
            let _ = writeln!(out, "exact none");
        }
    }
    out
}

/// Reads the next payload line, which must be the field `name`, and
/// returns its value: the strict field reader both record payload decoders
/// (cells here, certificates in `crate::check`) share.
pub(crate) fn payload_field<'a>(
    lines: &mut std::str::Lines<'a>,
    name: &str,
) -> Result<&'a str, String> {
    let line = lines
        .next()
        .ok_or_else(|| format!("payload truncated before field {name:?}"))?;
    let (key, value) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed payload line {line:?}"))?;
    if key != name {
        return Err(format!("expected field {name:?}, found {key:?}"));
    }
    Ok(value)
}

/// Parses the integer value of payload field `name`.
pub(crate) fn parse_int<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("field {name:?} has invalid value {value:?}"))
}

/// Parses the [`f64_bits`] value of payload field `name`.
pub(crate) fn parse_bits(name: &str, value: &str) -> Result<f64, String> {
    let raw = u64::from_str_radix(value, 16)
        .map_err(|_| format!("field {name:?} has invalid f64 bits {value:?}"))?;
    if value.len() != 16 {
        return Err(format!("field {name:?} has invalid f64 bits {value:?}"));
    }
    Ok(f64::from_bits(raw))
}

/// Parses a cell-record payload back into a [`CellResult`].
///
/// Parsing is strict — fixed field order, no extra or missing lines — so
/// any torn or hand-edited payload is rejected rather than guessed at.
pub(crate) fn decode_cell_payload(payload: &str) -> Result<CellResult, String> {
    let mut lines = payload.lines();
    let mut field = |name: &str| payload_field(&mut lines, name).map(str::to_string);
    let cell = field("cell")?;
    let family = field("family")?;
    let size = parse_int("size", &field("size")?)?;
    let philosophers = parse_int("philosophers", &field("philosophers")?)?;
    let forks = parse_int("forks", &field("forks")?)?;
    let algorithm = field("algorithm")?;
    let adversary = field("adversary")?;
    let trials = parse_int("trials", &field("trials")?)?;
    let max_steps = parse_int("max_steps", &field("max_steps")?)?;
    let seed = parse_int("seed", &field("seed")?)?;
    let deadlock_rate = parse_bits("deadlock_rate", &field("deadlock_rate")?)?;
    let lockout_rate = parse_bits("lockout_rate", &field("lockout_rate")?)?;
    let mean_hunger = parse_bits("mean_hunger", &field("mean_hunger")?)?;
    let first_meal_p50 = parse_bits("first_meal_p50", &field("first_meal_p50")?)?;
    let first_meal_p90 = parse_bits("first_meal_p90", &field("first_meal_p90")?)?;
    let first_meal_p99 = parse_bits("first_meal_p99", &field("first_meal_p99")?)?;
    let min_meals_mean = parse_bits("min_meals_mean", &field("min_meals_mean")?)?;
    let fairness_mean = parse_bits("fairness_mean", &field("fairness_mean")?)?;
    let stuck_trials = parse_int("stuck_trials", &field("stuck_trials")?)?;
    let unsafe_trials = parse_int("unsafe_trials", &field("unsafe_trials")?)?;
    let exact_line = field("exact")?;
    let exact = if exact_line == "none" {
        None
    } else {
        let mut parts = exact_line.split(' ');
        let verdict = parts
            .next()
            .filter(|v| !v.is_empty())
            .ok_or("exact field missing verdict")?
            .to_string();
        let probability = parse_bits(
            "exact probability",
            parts.next().ok_or("exact field missing probability")?,
        )?;
        let states = parse_int(
            "exact states",
            parts.next().ok_or("exact field missing states")?,
        )?;
        if parts.next().is_some() {
            return Err("exact field has trailing tokens".to_string());
        }
        Some(crate::check::ExactCellVerdict {
            verdict,
            progress_probability: probability,
            states,
        })
    };
    if lines.next().is_some() {
        return Err("payload has trailing lines".to_string());
    }
    Ok(CellResult {
        cell,
        family,
        size,
        philosophers,
        forks,
        algorithm,
        adversary,
        trials,
        max_steps,
        seed,
        deadlock_rate,
        lockout_rate,
        mean_hunger,
        first_meal_p50,
        first_meal_p90,
        first_meal_p99,
        min_meals_mean,
        fairness_mean,
        steps_per_sec: None,
        stuck_trials,
        unsafe_trials,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep, SweepOptions};
    use crate::spec::SeedPolicy;

    fn small_report() -> SweepReport {
        let spec = ScenarioSpec::new("fmt")
            .with_families_str("ring")
            .unwrap()
            .with_sizes([3, 4])
            .with_algorithms_str("gdp1")
            .unwrap()
            .with_trials(2)
            .with_max_steps(4_000)
            .with_seed_policy(SeedPolicy::Shared(5));
        run_sweep(&spec, &SweepOptions::quiet()).unwrap()
    }

    #[test]
    fn json_is_balanced_and_carries_every_cell() {
        let report = small_report();
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"cell\":").count(), report.cells.len());
        assert!(json.contains("\"sweep\": \"fmt\""));
        assert!(json.contains("\"deadlock_rate\": 0.000000"));
        // Timing was off: every throughput field is null.
        assert_eq!(
            json.matches("\"steps_per_sec\": null").count(),
            report.cells.len()
        );
    }

    #[test]
    fn json_strings_escape_json_style_not_rust_style() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("a\nb\t"), "\"a\\nb\\t\"");
        // Control characters must use four-digit JSON escapes, not Rust's
        // `\u{1}` form (which no JSON parser accepts).
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn csv_has_header_plus_one_row_per_cell() {
        let report = small_report();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + report.cells.len());
        assert_eq!(lines[0], csv_header());
        assert!(lines[1].starts_with("ring/n3/GDP1,ring,3,3,3,GDP1,"));
        // Every row has the full column count.
        let columns = csv_header().split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "row: {line}");
        }
    }

    #[test]
    fn cell_payload_round_trips_bit_exactly() {
        let mut report = small_report();
        report.cells[0].exact = Some(crate::check::ExactCellVerdict {
            verdict: "certified".to_string(),
            progress_probability: 1.0_f64 / 3.0,
            states: 12_345,
        });
        // A wall-clock field is deliberately dropped by the codec.
        report.cells[1].steps_per_sec = Some(123.456);
        for cell in &report.cells {
            let decoded = decode_cell_payload(&encode_cell_payload(cell)).unwrap();
            let mut expected = cell.clone();
            expected.steps_per_sec = None;
            assert_eq!(decoded, expected);
            assert_eq!(
                encode_cell_payload(&decoded),
                encode_cell_payload(cell),
                "re-encoding must be a fixed point"
            );
        }
    }

    #[test]
    fn cell_payload_decode_rejects_torn_and_tampered_input() {
        let payload = encode_cell_payload(&small_report().cells[0]);
        // Truncation at every line boundary fails loudly.
        let lines: Vec<&str> = payload.lines().collect();
        for keep in 0..lines.len() {
            let torn = lines[..keep].join("\n");
            assert!(decode_cell_payload(&torn).is_err(), "kept {keep} lines");
        }
        // Trailing garbage, reordered fields and bad floats fail too.
        assert!(decode_cell_payload(&format!("{payload}junk 1\n")).is_err());
        let mut reordered: Vec<&str> = payload.lines().collect();
        reordered.swap(0, 1);
        assert!(decode_cell_payload(&reordered.join("\n")).is_err());
        assert!(
            decode_cell_payload(&payload.replace("deadlock_rate ", "deadlock_rate zz")).is_err()
        );
    }

    #[test]
    fn files_round_trip_to_disk() {
        let report = small_report();
        let dir = std::env::temp_dir();
        let json_path = dir.join("gdp_scenarios_report_test.json");
        let csv_path = dir.join("gdp_scenarios_report_test.csv");
        report.write_json(&json_path).unwrap();
        report.write_csv(&csv_path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&json_path).unwrap(),
            report.to_json()
        );
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), report.to_csv());
        let _ = std::fs::remove_file(json_path);
        let _ = std::fs::remove_file(csv_path);
    }
}
