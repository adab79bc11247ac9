//! End-to-end tests driving the `gdp` binary: the `check` subcommand's
//! byte-reproducible certificates and the violation exit codes of
//! `run` / `sweep` / `check`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gdp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdp"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("gdp binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("utf-8 stderr")
}

/// The acceptance gate of the mcheck subsystem: `gdp check` on GDP1 over
/// the classic 5-ring emits a byte-reproducible certificate reporting a
/// worst-case progress probability of exactly 1, identical for every
/// `--threads` value.
#[test]
fn check_gdp1_ring5_certificate_is_byte_reproducible_across_threads() {
    let serial = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "5",
        "--algorithm",
        "gdp1",
        "--threads",
        "1",
    ]);
    assert!(
        serial.status.success(),
        "check must certify GDP1 on the 5-ring: {}",
        stderr(&serial)
    );
    let text = stdout(&serial);
    assert!(text.contains("worst-case P[progress]:  1 (exact"), "{text}");
    assert!(text.contains("verdict:           certified"), "{text}");
    assert!(text.contains("truncated:         false"), "{text}");

    let threaded = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "5",
        "--algorithm",
        "gdp1",
        "--threads",
        "2",
    ]);
    assert!(threaded.status.success());
    assert_eq!(
        serial.stdout, threaded.stdout,
        "certificates must be byte-identical for every --threads value"
    );
}

#[test]
fn check_finds_the_naive_deadlock_and_writes_the_counterexample_dot() {
    let dot_path: PathBuf =
        std::env::temp_dir().join(format!("gdp_check_cli_naive_{}.dot", std::process::id()));
    let output = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "naive",
        "--counterexample",
        dot_path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1), "violation exits 1");
    let text = stdout(&output);
    assert!(text.contains("deadlock states:   1"), "{text}");
    assert!(text.contains("worst-case P[progress]:  0 (exact"), "{text}");
    assert!(stderr(&output).contains("violation:"));
    let dot = std::fs::read_to_string(&dot_path).expect("counterexample DOT written");
    assert!(dot.starts_with("digraph counterexample"));
    let _ = std::fs::remove_file(&dot_path);
}

#[test]
fn check_proves_lr1_lockout_on_the_three_ring() {
    let output = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "lr1",
        "--target",
        "lockout",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    // One rotation orbit → one certificate, with sure starvation.
    assert_eq!(text.matches("gdp-mcheck certificate").count(), 1, "{text}");
    assert!(text.contains("philosopher P0 eats"), "{text}");
    assert!(text.contains("0 (exact"), "{text}");
    assert!(text.contains("counterexample:"), "{text}");
}

/// Restricted adversary classes end to end: the crash-stop class defeats
/// GDP1 progress even on the 3-ring (exit 1, class named in the
/// certificate), while the k-bounded class — a subset of all fair
/// schedulers — keeps it certified (exit 0).
#[test]
fn check_restricted_adversary_classes_flip_the_gdp1_verdict() {
    let crash = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "gdp1",
        "--adversary",
        "crash:1",
    ]);
    assert_eq!(crash.status.code(), Some(1), "{}", stderr(&crash));
    let text = stdout(&crash);
    assert!(
        text.contains("adversaries:       fair schedulers with up to 1 crash-stop fault(s)"),
        "{text}"
    );
    assert!(text.contains("0 (exact"), "{text}");

    let kbounded = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "gdp1",
        "--adversary",
        "kbounded:2",
    ]);
    assert!(kbounded.status.success(), "{}", stderr(&kbounded));
    let text = stdout(&kbounded);
    assert!(
        text.contains("adversaries:       k-bounded-fair schedulers (k=2)"),
        "{text}"
    );
    assert!(text.contains("verdict:           certified"), "{text}");
}

#[test]
fn check_with_exhausted_budget_is_inconclusive_and_exits_3() {
    let output = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "5",
        "--algorithm",
        "gdp1",
        "--max-states",
        "500",
    ]);
    assert_eq!(output.status.code(), Some(3));
    assert!(stdout(&output).contains("verdict:           inconclusive"));
    assert!(stderr(&output).contains("inconclusive:"));
}

#[test]
fn run_exits_nonzero_on_a_true_deadlock_and_zero_otherwise() {
    let deadlocked = gdp(&[
        "run",
        "--topology",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "naive",
        "--adversary",
        "round-robin",
        "--steps",
        "500",
    ]);
    assert_eq!(deadlocked.status.code(), Some(1), "{}", stderr(&deadlocked));
    assert!(stderr(&deadlocked).contains("true deadlock"));

    let healthy = gdp(&[
        "run",
        "--topology",
        "ring",
        "--size",
        "3",
        "--algorithm",
        "gdp1",
        "--adversary",
        "round-robin",
        "--steps",
        "500",
    ]);
    assert!(healthy.status.success(), "{}", stderr(&healthy));
}

#[test]
fn sweep_exits_nonzero_when_a_cell_deadlocks_and_reports_exact_columns() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("gdp_check_cli_sweep_{}.json", std::process::id()));
    let csv = dir.join(format!("gdp_check_cli_sweep_{}.csv", std::process::id()));
    let output = gdp(&[
        "sweep",
        "--families",
        "ring",
        "--sizes",
        "3",
        "--algorithms",
        "gdp1,naive",
        "--adversary",
        "round-robin",
        "--trials",
        "2",
        "--steps",
        "2000",
        "--check",
        "--check-states",
        "100000",
        "--quiet",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(stderr(&output).contains("ring/n3/naive-left-right"));

    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"exact_verdict\": \"certified\""));
    assert!(json_text.contains("\"exact_verdict\": \"violated\""));
    assert!(json_text.contains("\"stuck_trials\": 2"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text
        .lines()
        .next()
        .unwrap()
        .contains("stuck_trials,unsafe_trials,exact_verdict"));
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn usage_errors_exit_2() {
    let output = gdp(&["check", "--family", "ring", "--size", "3", "--bogus"]);
    assert_eq!(output.status.code(), Some(2));
    let output = gdp(&["frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
    // Both spellings of the family flag: neither may silently win.
    let output = gdp(&["check", "--family", "ring", "--topology", "star"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains("--family") && err.contains("--topology"),
        "{err}"
    );
    assert!(stdout(&output).is_empty());
}
