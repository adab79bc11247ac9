//! End-to-end tests driving `gdp stress`: the acceptance gate of the
//! real-thread stress subsystem.  GDP1/GDP2/LR2 cells complete with every
//! philosopher fed and emit the schema-documented JSON/CSV artifacts
//! (byte-reproducible with timing off); the naive baseline terminates under
//! its watchdog bound either way.

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
    std::env::temp_dir().join(format!("gdp_stress_cli_{}_{name}", std::process::id()))
}

fn stress_args<'a>(
    algorithm: &'a str,
    json: &'a str,
    csv: &'a str,
    extra: &[&'a str],
) -> Vec<&'a str> {
    let mut args = vec![
        "stress",
        "--family",
        "ring",
        "--n",
        "5",
        "--algorithm",
        algorithm,
        "--meals",
        "8",
        "--watchdog-ms",
        "60000",
        "--json",
        json,
        "--csv",
        csv,
    ];
    args.extend_from_slice(extra);
    args
}

/// The ISSUE acceptance line: `gdp stress --algorithm gdp2 --family ring
/// --n 5` (and gdp1/lr2) completes with every philosopher fed and writes
/// the artifacts.
#[test]
fn gdp2_gdp1_lr2_stress_cells_feed_everyone_and_write_artifacts() {
    for algorithm in ["gdp2", "gdp1", "lr2"] {
        let json = tmp(&format!("{algorithm}.json"));
        let csv = tmp(&format!("{algorithm}.csv"));
        let output = gdp(&stress_args(
            algorithm,
            json.to_str().unwrap(),
            csv.to_str().unwrap(),
            &[],
        ));
        assert!(
            output.status.success(),
            "{algorithm}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let json_text = std::fs::read_to_string(&json).unwrap();
        assert!(
            json_text.contains("\"kind\": \"runtime_stress\""),
            "{json_text}"
        );
        assert!(json_text.contains("\"everyone_ate\": true"), "{json_text}");
        assert!(json_text.contains("\"watchdog_tripped\": false"));
        assert!(json_text.contains("\"total_meals\": 40"));
        // Timing off by default: the artifact carries no wall-clock fields.
        assert!(json_text.contains("\"elapsed_secs\": null"));
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        let lines: Vec<&str> = csv_text.lines().collect();
        assert_eq!(lines.len(), 2, "{algorithm}: header + one row");
        assert!(lines[0].starts_with("cell,family,size,"));
        assert!(lines[1].starts_with(&format!("ring/n5/{}", algorithm.to_uppercase())));
        let _ = std::fs::remove_file(json);
        let _ = std::fs::remove_file(csv);
    }
}

/// With timing off, two real-thread runs of the same meal-budget cell emit
/// byte-identical artifacts — the committed-artifact contract.
#[test]
fn stress_artifacts_are_byte_reproducible_without_timing() {
    let json_a = tmp("repro_a.json");
    let json_b = tmp("repro_b.json");
    let csv_a = tmp("repro_a.csv");
    let csv_b = tmp("repro_b.csv");
    for (json, csv) in [(&json_a, &csv_a), (&json_b, &csv_b)] {
        let output = gdp(&stress_args(
            "gdp2",
            json.to_str().unwrap(),
            csv.to_str().unwrap(),
            &[],
        ));
        assert!(output.status.success());
    }
    assert_eq!(
        std::fs::read(&json_a).unwrap(),
        std::fs::read(&json_b).unwrap(),
        "JSON must be byte-identical across runs"
    );
    assert_eq!(
        std::fs::read(&csv_a).unwrap(),
        std::fs::read(&csv_b).unwrap()
    );
    for f in [json_a, json_b, csv_a, csv_b] {
        let _ = std::fs::remove_file(f);
    }
}

/// `--timing` trades reproducibility for throughput and wait-histogram
/// fields.
#[test]
fn timing_flag_embeds_wall_clock_fields() {
    let json = tmp("timing.json");
    let csv = tmp("timing.csv");
    let output = gdp(&stress_args(
        "gdp2",
        json.to_str().unwrap(),
        csv.to_str().unwrap(),
        &["--timing"],
    ));
    assert!(output.status.success());
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"meals_per_sec\": "), "{json_text}");
    assert!(!json_text.contains("\"meals_per_sec\": null"));
    assert!(json_text.contains("\"wait_histogram_ns\": ["));
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(csv);
}

/// The naive baseline is runnable only because the watchdog bounds it: the
/// command must terminate promptly and report a well-formed artifact
/// whether or not this particular OS schedule hit the deadlock.  (The
/// deterministic deadlock verdict is pinned in tests/runtime_vs_sim.rs and
/// by `gdp check --algorithm naive`.)
#[test]
fn naive_is_watchdog_bounded() {
    let json = tmp("naive.json");
    let csv = tmp("naive.csv");
    let started = std::time::Instant::now();
    let output = gdp(&[
        "stress",
        "--family",
        "ring",
        "--n",
        "3",
        "--algorithm",
        "naive",
        "--meals",
        "3",
        "--watchdog-ms",
        "1500",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "the watchdog must bound the run"
    );
    // Exit 0 (squeezed through) or 1 (watchdog/starvation) — never a usage
    // error or a hang.
    let code = output.status.code().expect("no signal");
    assert!(code == 0 || code == 1, "unexpected exit {code}");
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"algorithm\": \"naive-left-right\""));
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(csv);
}

/// `--threads` drives a subset of seats; the report counts only those as
/// active.
#[test]
fn partial_thread_counts_drive_a_subset() {
    let json = tmp("threads.json");
    let csv = tmp("threads.csv");
    let output = gdp(&[
        "stress",
        "--family",
        "ring",
        "--n",
        "6",
        "--algorithm",
        "gdp2",
        "--threads",
        "2",
        "--meals",
        "4",
        "--watchdog-ms",
        "60000",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"threads\": 2"), "{json_text}");
    assert!(json_text.contains("\"total_meals\": 8"));
    assert!(json_text.contains("\"everyone_ate\": true"));
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(csv);
}

/// The whole artifacts of the `crash:2` cell below: seeded victims 3 and 4
/// eat 3 and 5 of their 8 meals, and the Jain index of the cut budgets is
/// below 1.
const CRASH_CELL_JSON: &str = r#"{
  "schema": 1,
  "kind": "runtime_stress",
  "cell": "ring/n5/GDP2",
  "family": "ring",
  "size": 5,
  "philosophers": 5,
  "forks": 5,
  "algorithm": "GDP2",
  "threads": 5,
  "load": "meals:8",
  "watchdog_ms": 60000,
  "seed": 0,
  "spin": 64,
  "crash_seats": 2,
  "crashed_seats": [3, 4],
  "total_meals": 32,
  "min_meals": 3,
  "max_meals": 8,
  "everyone_ate": true,
  "watchdog_tripped": false,
  "jain_fairness": 0.906195,
  "meals": [8, 8, 8, 3, 5],
  "elapsed_secs": null,
  "meals_per_sec": null,
  "mean_wait_micros": null,
  "first_meal_p50": null,
  "first_meal_p90": null,
  "first_meal_p99": null,
  "wait_histogram_ns": null
}
"#;
const CRASH_CELL_CSV: &str = "\
cell,family,size,philosophers,forks,algorithm,threads,load,watchdog_ms,seed,spin,crash_seats,crashed_seats,total_meals,min_meals,max_meals,everyone_ate,watchdog_tripped,jain_fairness,elapsed_secs,meals_per_sec,mean_wait_micros,first_meal_p50,first_meal_p90,first_meal_p99
ring/n5/GDP2,ring,5,5,5,GDP2,5,meals:8,60000,0,64,2,3;4,32,3,8,true,false,0.906195,,,,,,
";

/// `--adversary crash:<f>` injects seeded crash-stop seats: victims eat a
/// strict share of the budget, survivors finish theirs, the run still
/// succeeds (crashed seats are exempt from `everyone_ate`), and the
/// artifacts carry the crash columns, byte for byte.
#[test]
fn crash_adversary_shapes_the_load_and_reports_crash_columns() {
    let json = tmp("crash.json");
    let csv = tmp("crash.csv");
    let output = gdp(&stress_args(
        "gdp2",
        json.to_str().unwrap(),
        csv.to_str().unwrap(),
        &["--adversary", "crash:2"],
    ));
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(stdout.contains("2 crash-stop seat(s)"), "{stdout}");
    assert!(stdout.contains("crashed="), "{stdout}");
    assert_eq!(std::fs::read_to_string(&json).unwrap(), CRASH_CELL_JSON);
    assert_eq!(std::fs::read_to_string(&csv).unwrap(), CRASH_CELL_CSV);
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(csv);
}

/// Every fair catalog family is *accepted* by `gdp stress` (the OS
/// scheduler stands in for it; only crash:<f> shapes the load).
#[test]
fn fair_adversary_specs_are_accepted_with_a_note() {
    let json = tmp("fair_adv.json");
    let csv = tmp("fair_adv.csv");
    let output = gdp(&stress_args(
        "gdp2",
        json.to_str().unwrap(),
        csv.to_str().unwrap(),
        &["--adversary", "greedy-conflict"],
    ));
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(stdout.contains("subsumed by the OS scheduler"), "{stdout}");
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(csv);
}

/// Usage errors exit 2, like the other subcommands.
#[test]
fn stress_usage_errors_exit_2() {
    let output = gdp(&["stress", "--algorithm", "nope"]);
    assert_eq!(output.status.code(), Some(2));
    let output = gdp(&["stress", "--meals"]);
    assert_eq!(output.status.code(), Some(2));
    // Both spellings of the size flag: neither may silently win.
    let output = gdp(&["stress", "--n", "5", "--size", "6"]);
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("--n") && err.contains("--size"), "{err}");
}
