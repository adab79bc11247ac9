//! The line-delimited JSON request/response protocol.
//!
//! Requests are **flat** JSON objects, one per line: every value is a
//! string, a number, a boolean or `null` — never a nested object or array.
//! That keeps the hand-written parser (the container is offline, so there
//! is no serde) small enough to audit, and it is all a sweep spec needs:
//! list-valued axes travel as the same comma-separated spec strings the
//! `gdp sweep` CLI takes (`"families": "ring,star"`).
//!
//! Responses are also one JSON object per line, but they are *produced*,
//! not parsed, so they may nest (the per-cell `result` object, the metrics
//! export).  See `docs/SERVE.md` for the full schema.

use gdp_scenarios::{cell_json, CellResult, GridFields, ScenarioSpec, StoreStats};
use std::collections::BTreeMap;

/// One parsed flat-JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string (escapes decoded).
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Str(_) => "a string",
            JsonValue::Num(_) => "a number",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Null => "null",
        }
    }
}

/// Parses one flat JSON object (`{"key": value, ...}`; string, number,
/// boolean and `null` values only).
///
/// # Errors
///
/// A human-readable description of the first syntax problem, including the
/// rejection of nested objects/arrays.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = BTreeMap::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("request must be a JSON object ({...})".to_string()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars).map_err(|e| format!("object key: {e}"))?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                _ => return Err(format!("expected ':' after key {key:?}")),
            }
            skip_ws(&mut chars);
            let value = parse_value(&mut chars, line).map_err(|e| format!("key {key:?}: {e}"))?;
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                _ => return Err("expected ',' or '}' after a value".to_string()),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, stray)) = chars.next() {
        return Err(format!("trailing content after the object: {stray:?}"));
    }
    Ok(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices>) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected a '\"'-quoted string".to_string()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or_else(|| "\\u needs 4 hex digits".to_string())?;
                        code = code * 16 + digit;
                    }
                    // Surrogates are not paired up; the protocol never
                    // produces them and a lone one is simply invalid.
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                    );
                }
                other => return Err(format!("invalid escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
        }
    }
}

fn parse_value(
    chars: &mut std::iter::Peekable<std::str::CharIndices>,
    line: &str,
) -> Result<JsonValue, String> {
    match chars.peek().copied() {
        Some((_, '"')) => parse_string(chars).map(JsonValue::Str),
        Some((_, '{')) | Some((_, '[')) => Err(
            "nested objects/arrays are not allowed; list-valued fields travel as \
                 comma-separated spec strings (e.g. \"sizes\": \"6,12\")"
                .to_string(),
        ),
        Some((start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while let Some((i, c)) = chars.peek().copied() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    end = i + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            line[start..end]
                .parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number {:?}", &line[start..end]))
        }
        Some((start, _)) => {
            for (literal, value) in [
                ("true", JsonValue::Bool(true)),
                ("false", JsonValue::Bool(false)),
                ("null", JsonValue::Null),
            ] {
                if line[start..].starts_with(literal) {
                    for _ in 0..literal.len() {
                        chars.next();
                    }
                    return Ok(value);
                }
            }
            Err(format!("unexpected value starting at {:?}", &line[start..]))
        }
        None => Err("missing value".to_string()),
    }
}

/// One parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `{"type": "pong"}`.
    Ping,
    /// Metrics snapshot; answered with one `{"type": "metrics", ...}` line.
    Metrics,
    /// Graceful shutdown; answered with `{"type": "bye"}`, then the server
    /// drains and exits 0.
    Shutdown,
    /// A scenario sweep; answered with a `sweep_start` header, one `cell`
    /// line per grid cell in deterministic expansion order, and a
    /// digest-carrying `summary` footer.
    Sweep(SweepRequest),
}

/// The payload of a `sweep` request: the reconstructed spec plus the
/// exact-check budget (which is part of the store address).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// The scenario spec the request describes.
    pub spec: ScenarioSpec,
    /// The `gdp-mcheck` state budget when exact verdicts were requested.
    pub exact_check: Option<usize>,
}

fn field_str(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<String>, String> {
    match fields.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!(
            "field {key:?} must be a string, got {}",
            other.type_name()
        )),
    }
}

fn field_u64(fields: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<u64>, String> {
    match fields.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Num(n)) => {
            if n.fract() != 0.0 || *n < 0.0 || *n > u64::MAX as f64 {
                return Err(format!(
                    "field {key:?} must be a non-negative integer, got {n}"
                ));
            }
            Ok(Some(*n as u64))
        }
        Some(other) => Err(format!(
            "field {key:?} must be a number, got {}",
            other.type_name()
        )),
    }
}

/// The request fields the sweep parser understands; anything else is
/// rejected so client typos fail loudly instead of silently running the
/// default grid.
const SWEEP_FIELDS: &[&str] = &[
    "type",
    "name",
    "families",
    "sizes",
    "algorithms",
    "adversary",
    "trials",
    "steps",
    "seed",
    "seed_policy",
    "threads",
    "exact_check",
];

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of the first problem: JSON syntax, an
/// unknown `type`, an unknown field, or an invalid spec fragment.  Errors
/// never tear the connection down; the server answers with a non-retryable
/// `error` line and keeps reading.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_flat_object(line)?;
    let Some(kind) = field_str(&fields, "type")? else {
        return Err("missing \"type\" field (ping | metrics | sweep | shutdown)".to_string());
    };
    match kind.as_str() {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "sweep" => parse_sweep(&fields).map(Request::Sweep),
        other => Err(format!(
            "unknown request type {other:?} (ping | metrics | sweep | shutdown)"
        )),
    }
}

fn parse_sweep(fields: &BTreeMap<String, JsonValue>) -> Result<SweepRequest, String> {
    if let Some(unknown) = fields.keys().find(|k| !SWEEP_FIELDS.contains(&k.as_str())) {
        return Err(format!(
            "unknown sweep field {unknown:?} (known: {})",
            SWEEP_FIELDS.join(", ")
        ));
    }
    let grid = GridFields {
        name: field_str(fields, "name")?,
        families: field_str(fields, "families")?,
        sizes: field_str(fields, "sizes")?,
        algorithms: field_str(fields, "algorithms")?,
        adversary: field_str(fields, "adversary")?,
        trials: field_u64(fields, "trials")?,
        steps: field_u64(fields, "steps")?,
        seed: field_u64(fields, "seed")?,
        seed_policy: field_str(fields, "seed_policy")?,
        threads: field_u64(fields, "threads")?,
        exact_check: field_u64(fields, "exact_check")?,
    };
    // Per-cell Monte-Carlo threads default to 1 under serve: the worker
    // pool is the parallelism axis, and results are bitwise identical for
    // every value anyway (the store context deliberately excludes it).
    let (spec, exact_check) = grid
        .parse("serve", 1)
        .map_err(|e| format!("field {:?}: {}", e.key, e.message))?;
    Ok(SweepRequest { spec, exact_check })
}

// ---------------------------------------------------------------------------
// Response lines
// ---------------------------------------------------------------------------

/// JSON-escapes a string body (the same escape set `gdp-observe`'s JSONL
/// codec uses).
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `{"type":"pong"}` liveness answer.
#[must_use]
pub fn pong_line() -> String {
    "{\"type\":\"pong\"}".to_string()
}

/// The `{"type":"bye"}` shutdown acknowledgement.
#[must_use]
pub fn bye_line() -> String {
    "{\"type\":\"bye\"}".to_string()
}

/// One `error` line.  `retryable: true` means the request was rejected by a
/// transient condition (the compute queue was full) and may simply be
/// resubmitted; `false` means the request itself is wrong.
#[must_use]
pub fn error_line(message: &str, retryable: bool) -> String {
    format!(
        "{{\"type\":\"error\",\"retryable\":{retryable},\"message\":\"{}\"}}",
        json_escape(message)
    )
}

/// The header line opening a sweep response stream.
#[must_use]
pub fn sweep_start_line(spec: &ScenarioSpec, cells: usize, fingerprint: u64) -> String {
    format!(
        "{{\"type\":\"sweep_start\",\"name\":\"{}\",\"cells\":{cells},\
         \"fingerprint\":\"{fingerprint:016x}\"}}",
        json_escape(&spec.name)
    )
}

/// One streamed cell line: the grid `position`, where the bytes came from
/// (`"store"` or `"computed"`), and the full cell object — rendered by the
/// same [`cell_json`] that writes `gdp sweep`'s JSON artifact, so served
/// and written cells agree byte for byte.
#[must_use]
pub fn cell_line(position: usize, source: &str, result: &CellResult) -> String {
    format!(
        "{{\"type\":\"cell\",\"position\":{position},\"source\":\"{source}\",\"result\":{}}}",
        cell_json(result)
    )
}

/// The self-verifying summary footer: the store counters of the request
/// plus `digest`, the FNV-1a digest (`gdp_scenarios::stable_digest64`) of
/// the concatenated preceding `cell` lines, each with its trailing newline.
/// A client re-hashing the stream it received must reproduce `digest`
/// exactly — same contract as `gdp run --trace`'s footer.
#[must_use]
pub fn summary_line(cells: usize, stats: &StoreStats, digest: u64) -> String {
    format!(
        "{{\"type\":\"summary\",\"cells\":{cells},\"reused\":{},\"computed\":{},\
         \"quarantined\":{},\"digest\":\"{digest:016x}\"}}",
        stats.reused, stats.computed, stats.quarantined
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_scenarios::SeedPolicy;

    #[test]
    fn flat_objects_parse_with_every_value_kind() {
        let fields = parse_flat_object(
            r#" {"s": "a\"b\\c\nd", "n": -2.5, "i": 12, "t": true, "f": false, "z": null} "#,
        )
        .unwrap();
        assert_eq!(fields["s"], JsonValue::Str("a\"b\\c\nd".to_string()));
        assert_eq!(fields["n"], JsonValue::Num(-2.5));
        assert_eq!(fields["i"], JsonValue::Num(12.0));
        assert_eq!(fields["t"], JsonValue::Bool(true));
        assert_eq!(fields["f"], JsonValue::Bool(false));
        assert_eq!(fields["z"], JsonValue::Null);
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_objects_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "JSON object"),
            ("[1]", "JSON object"),
            ("{\"a\": {\"b\": 1}}", "nested"),
            ("{\"a\": [1]}", "nested"),
            ("{\"a\": 1, \"a\": 2}", "duplicate"),
            ("{\"a\": 1} x", "trailing"),
            ("{\"a\" 1}", "':'"),
            ("{\"a\": nope}", "unexpected value"),
            ("{\"a\": \"unterminated}", "unterminated"),
        ] {
            let err = parse_flat_object(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} -> {err}");
        }
    }

    #[test]
    fn requests_parse_and_unknown_types_fail() {
        assert_eq!(
            parse_request("{\"type\": \"ping\"}").unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request("{\"type\": \"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"type\": \"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert!(parse_request("{\"type\": \"nope\"}")
            .unwrap_err()
            .contains("unknown request type"));
        assert!(parse_request("{}").unwrap_err().contains("type"));
    }

    #[test]
    fn sweep_requests_reconstruct_the_cli_spec() {
        let Request::Sweep(req) = parse_request(
            r#"{"type": "sweep", "name": "t", "families": "ring,star", "sizes": "4,6",
                "algorithms": "gdp1", "adversary": "round-robin", "trials": 3,
                "steps": 8000, "seed": 9, "seed_policy": "shared"}"#,
        )
        .unwrap() else {
            panic!("expected a sweep request");
        };
        assert_eq!(req.spec.name, "t");
        assert_eq!(req.spec.trials, 3);
        assert_eq!(req.spec.max_steps, 8_000);
        assert_eq!(req.spec.seed_policy, SeedPolicy::Shared(9));
        assert_eq!(req.spec.threads, 1, "serve defaults per-cell threads to 1");
        assert_eq!(req.spec.expand().len(), 4);
        assert_eq!(req.exact_check, None);

        // Defaults: the stock 24-cell grid.
        let Request::Sweep(req) = parse_request("{\"type\": \"sweep\"}").unwrap() else {
            panic!("expected a sweep request");
        };
        assert_eq!(req.spec.expand().len(), 24);
    }

    #[test]
    fn sweep_requests_reject_unknown_fields_and_bad_values() {
        for (line, needle) in [
            (
                "{\"type\": \"sweep\", \"familiez\": \"ring\"}",
                "unknown sweep field",
            ),
            ("{\"type\": \"sweep\", \"trials\": -1}", "non-negative"),
            ("{\"type\": \"sweep\", \"trials\": 1.5}", "non-negative"),
            ("{\"type\": \"sweep\", \"trials\": \"three\"}", "number"),
            ("{\"type\": \"sweep\", \"sizes\": \"4,x\"}", "invalid size"),
            ("{\"type\": \"sweep\", \"families\": \"\"}", "list is empty"),
            ("{\"type\": \"sweep\", \"threads\": 0}", ">= 1"),
            (
                "{\"type\": \"sweep\", \"seed_policy\": \"psychic\"}",
                "invalid policy",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} -> {err}");
        }
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let stats = StoreStats {
            reused: 2,
            computed: 1,
            quarantined: 0,
        };
        for line in [
            pong_line(),
            bye_line(),
            error_line("queue \"full\"\n", true),
            summary_line(3, &stats, 0xdead_beef),
        ] {
            assert!(!line.contains('\n'), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(error_line("x", true).contains("\"retryable\":true"));
        let summary = summary_line(3, &stats, 0xdead_beef);
        assert!(summary.contains("\"reused\":2"));
        assert!(summary.contains("\"digest\":\"00000000deadbeef\""));
    }
}
