//! End-to-end tests of the gdp-observe trace export (`gdp run --trace`,
//! `gdp stress --trace`).
//!
//! The sim-side contract is the strong one: the trace bytes are a pure
//! function of the run spec — identical across runs — and the schedule
//! events they record replay (via
//! [`gdp_adversary::ReplayAdversary`]) to the exact final state the
//! footer's fingerprint names.  The runtime-side trace is a measurement,
//! not a fixture, so there the contract is structural: sorted by
//! `(actor, clock)`, schema-complete.

use gdp_adversary::ReplayAdversary;
use gdp_algorithms::AlgorithmKind;
use gdp_sim::{Engine, SimConfig};
use gdp_topology::PhilosopherId;
use std::path::PathBuf;
use std::process::{Command, Output};

fn gdp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdp"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("gdp binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gdp_trace_cli_{}_{name}", std::process::id()))
}

/// Pulls the unsigned integer value of `"key":` out of one JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the string value of `"key":"..."` out of one JSONL line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn run_trace(path: &std::path::Path) {
    let path = path.to_str().unwrap();
    let output = gdp(&[
        "run",
        "--topology",
        "ring",
        "--size",
        "5",
        "--algorithm",
        "gdp1",
        "--steps",
        "2000",
        "--seed",
        "0",
        "--trace",
        path,
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Two runs of one spec write byte-identical traces: the bytes are a pure
/// function of the spec.
#[test]
fn run_trace_is_byte_identical_across_runs() {
    let first = tmp("first.jsonl");
    let second = tmp("second.jsonl");
    run_trace(&first);
    run_trace(&second);
    let first_bytes = std::fs::read(&first).unwrap();
    assert!(!first_bytes.is_empty());
    assert_eq!(std::fs::read(&second).unwrap(), first_bytes);
    for path in [first, second] {
        let _ = std::fs::remove_file(path);
    }
}

/// The trace is self-verifying: replaying its schedule events through a
/// fresh engine (same spec, same seed, [`ReplayAdversary`]) reaches the
/// exact final state named by the footer's fingerprint.
#[test]
fn run_trace_replays_to_the_footer_fingerprint() {
    let path = tmp("replay.jsonl");
    run_trace(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let mut schedule = Vec::new();
    let mut footer_fingerprint = None;
    let mut footer_meals = None;
    for line in text.lines() {
        match field_str(line, "type").expect("every line carries a type") {
            "schedule" => schedule.push(PhilosopherId::new(
                u32::try_from(field_u64(line, "actor").unwrap()).unwrap(),
            )),
            "summary" => {
                footer_fingerprint = Some(field_str(line, "fingerprint").unwrap().to_string());
                footer_meals = field_u64(line, "meals");
            }
            _ => {}
        }
    }
    assert_eq!(schedule.len(), 2000, "one schedule event per step");
    let footer_fingerprint = footer_fingerprint.expect("trace ends in a summary footer");

    let family: gdp_scenarios::TopologyFamily = "ring".parse().unwrap();
    let topology = family.build(5, 0).unwrap();
    let mut engine = Engine::new(
        topology,
        AlgorithmKind::Gdp1.program(),
        SimConfig::default().with_seed(0),
    );
    let mut replay = ReplayAdversary::new(schedule);
    for _ in 0..2000 {
        engine.step_with(&mut replay);
    }
    assert!(replay.exhausted(), "replay must consume the whole schedule");
    assert_eq!(
        format!("{:016x}", engine.state_fingerprint()),
        footer_fingerprint,
        "replaying the trace must reach the recorded final state"
    );
    assert_eq!(Some(engine.total_meals()), footer_meals);
}

/// Schema smoke over the sim trace: every line is `{"clock":…,"type":…}`
/// first, schedule clocks count the steps `0..n`, and the protocol events
/// cover acquire/release/meal_start/meal_finish.
#[test]
fn run_trace_lines_are_schema_complete() {
    let path = tmp("schema.jsonl");
    run_trace(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let mut next_schedule_clock = 0;
    let mut seen = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(line.starts_with("{\"clock\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        let tag = field_str(line, "type").unwrap();
        seen.insert(tag.to_string());
        if tag == "schedule" {
            assert_eq!(field_u64(line, "clock"), Some(next_schedule_clock));
            next_schedule_clock += 1;
        }
    }
    // No "release" here: GDP1 folds its releases into `FinishEating`
    // (one atomic exit step), so a dedicated release event would be
    // synthesized, and the trace layer refuses to invent events.
    for tag in [
        "schedule",
        "acquire",
        "meal_start",
        "meal_finish",
        "summary",
    ] {
        assert!(seen.contains(tag), "missing event type {tag}: saw {seen:?}");
    }
}

/// The runtime trace is a measurement (real threads), but its export order
/// is pinned: sorted by `(actor, clock)` with per-actor clocks strictly
/// increasing, and it records every seat's meals.
#[test]
fn stress_trace_is_sorted_by_actor_then_clock() {
    let trace = tmp("stress.jsonl");
    let json = tmp("stress.json");
    let csv = tmp("stress.csv");
    let output = gdp(&[
        "stress",
        "--family",
        "ring",
        "--n",
        "4",
        "--algorithm",
        "gdp2",
        "--meals",
        "6",
        "--watchdog-ms",
        "60000",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    for f in [trace, json, csv] {
        let _ = std::fs::remove_file(f);
    }

    let mut last: Option<(u64, u64)> = None;
    let mut meal_finishes = 0;
    let mut actors = std::collections::BTreeSet::new();
    for line in text.lines() {
        let actor = field_u64(line, "actor").expect("runtime events carry an actor");
        let clock = field_u64(line, "clock").expect("every event carries a clock");
        let key = (actor, clock);
        // Non-strict: a schedule event and its protocol event share one
        // sequence number (they describe the same step of that seat).
        assert!(
            last.is_none_or(|prev| prev <= key),
            "(actor, clock) must be sorted: {last:?} then {key:?}"
        );
        last = Some(key);
        actors.insert(actor);
        if field_str(line, "type") == Some("meal_finish") {
            meal_finishes += 1;
        }
    }
    assert_eq!(actors.len(), 4, "every seat traced");
    assert_eq!(meal_finishes, 4 * 6, "one meal_finish per completed meal");
}
