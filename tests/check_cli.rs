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
/// worst-case progress probability of exactly 1 over its pinned state
/// space, identical for every `--threads` value.
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
    assert!(
        text.contains(
            "state space:       4012473 canonical states, 12025250 transitions (symmetry group 5)"
        ),
        "{text}"
    );

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

/// The whole certificate of the ring-4 GDP1 check, line for line: the
/// `model:` line spells out the paper's fixed model (always hungry, fair
/// coin, priority numbers from `[1, k]`).
#[test]
fn check_gdp1_ring4_certificate_is_pinned_line_for_line() {
    let output = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "4",
        "--algorithm",
        "gdp1",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(
        stdout(&output),
        "\
cell:              ring/n4/GDP1
gdp-mcheck certificate
system:            topology(n=4, k=4, max_sharing=2)
algorithm:         GDP1
target:            progress (some philosopher eats)
model:             hunger=always left-bias=0.5 nr-range=4
state space:       62914 canonical states, 164442 transitions (symmetry group 4)
truncated:         false
safety:            ok (mutual exclusion, eating-implies-both-forks)
deadlock states:   0
fair avoid cores:  0 states
worst-case P[progress]:  1 (exact: no fair adversary avoid-component exists)
verdict:           certified
overall verdict:   certified
"
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

/// The courteous algorithms' models, pinned: LR2 and GDP2 are the only users
/// of the request lists and guest books, so their states carry the
/// variable-length tail of the exact state encoding.  A guest book keeps
/// only the order of its signers, so the lockout models are finite and
/// decide without a budget: LR2 keeps P0 fed, and a fair adversary surely
/// starves P0 under GDP2.  Each certificate is byte-identical at one and
/// two threads.
#[test]
fn check_pins_the_lr2_and_gdp2_models_on_the_three_ring() {
    let cases: [(&[&str], &str, &str, i32); 4] = [
        (
            &["--algorithm", "gdp2"],
            "7840 canonical states, 16964 transitions (symmetry group 3)",
            "certified",
            0,
        ),
        (
            &["--algorithm", "lr2"],
            "592 canonical states, 1208 transitions (symmetry group 3)",
            "certified",
            0,
        ),
        (
            &["--algorithm", "gdp2", "--target", "lockout"],
            "76286 canonical states, 207771 transitions (symmetry group 1)",
            "violated",
            1,
        ),
        (
            &["--algorithm", "lr2", "--target", "lockout"],
            "7550 canonical states, 22456 transitions (symmetry group 1)",
            "certified",
            0,
        ),
    ];
    for (flags, state_space, verdict, code) in cases {
        let run = |threads: &str| {
            let mut args = vec!["check", "--family", "ring", "--size", "3"];
            args.extend_from_slice(flags);
            args.extend_from_slice(&["--threads", threads]);
            gdp(&args)
        };
        let serial = run("1");
        assert_eq!(
            serial.status.code(),
            Some(code),
            "{flags:?}: {}",
            stderr(&serial)
        );
        let text = stdout(&serial);
        assert!(
            text.contains(&format!("state space:       {state_space}\n")),
            "{text}"
        );
        assert!(
            text.contains(&format!("overall verdict:   {verdict}\n")),
            "{text}"
        );
        if flags.contains(&"gdp2") && flags.contains(&"lockout") {
            assert!(
                text.contains("worst-case P[target]:  0 ")
                    && text.contains(
                        "counterexample:    360 steps against \"philosopher P0 eats\" \
                         (seed 0, lasso from step 14)\n"
                    ),
                "{text}"
            );
        }
        let threaded = run("2");
        assert_eq!(threaded.status.code(), Some(code));
        assert_eq!(serial.stdout, threaded.stdout, "{flags:?}");
    }
}

/// A truncated build decides nothing, so it prints no counterexample
/// either: the LR2 3-ring lockout fragment below has no fair avoid core,
/// and the whole 7,550-state model certifies.
#[test]
fn check_with_exhausted_budget_is_inconclusive_and_exits_3() {
    let dot = std::env::temp_dir().join(format!("gdp_inconclusive_{}.dot", std::process::id()));
    let dot = dot.to_str().expect("utf-8 temp path");
    for cell in [
        &[
            "--family",
            "ring",
            "--size",
            "5",
            "--algorithm",
            "gdp1",
            "--max-states",
            "500",
        ][..],
        &[
            "--family",
            "ring",
            "--size",
            "3",
            "--algorithm",
            "lr2",
            "--target",
            "lockout",
            "--max-states",
            "7000",
        ],
    ] {
        let output = gdp(&[&["check"], cell].concat());
        assert_eq!(output.status.code(), Some(3), "{cell:?}");
        let text = stdout(&output);
        assert!(text.contains("verdict:           inconclusive"), "{text}");
        assert!(!text.contains("counterexample:"), "{text}");
        assert!(stderr(&output).contains("inconclusive:"));
        let output = gdp(&[&["check"], cell, &["--counterexample", dot]].concat());
        assert_eq!(output.status.code(), Some(3), "{cell:?}");
        assert!(
            stdout(&output).contains(&format!("no counterexample to write to {dot}")),
            "{cell:?}"
        );
    }
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

    // The whole report of a healthy run, first-meal histogram included.
    let healthy = gdp(&[
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
    ]);
    assert!(healthy.status.success(), "{}", stderr(&healthy));
    assert_eq!(
        stdout(&healthy),
        "\
topology ring (n=5): topology(n=5, k=5, max_sharing=2)
run      GDP1 under uniform-random for 2000 steps (seed 0)
metrics  steps=2000 meals=216 thru/kstep=108.00 progress=true everyone=true starved=0 jain=0.968
         P0: 45 meals
         P1: 48 meals
         P2: 42 meals
         P3: 52 meals
         P4: 29 meals
observe  first-meal steps p50=32 p90=32 p99=32 over 5 eater(s) \
(log2-bucket floor estimate, e <= t < max(2e, 2))
"
    );
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
    // `gdp run` takes no worker count: its trace is encoded on one thread.
    let output = gdp(&["run", "--threads", "2"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stdout(&output).is_empty());
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
    // The topology seed is a number, named in the one error line.
    let output = gdp(&["check", "--family", "random-regular:3", "--seed", "x7"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("seed") && err.contains("x7"), "{err}");
    assert!(stdout(&output).is_empty());
    // Product builds are quotient-free: an explicit `--symmetry on` with a
    // restricted class is refused, not silently ignored.
    for class in ["kbounded:2", "crash:1"] {
        let output = gdp(&[
            "check",
            "--size",
            "3",
            "--adversary",
            class,
            "--symmetry",
            "on",
        ]);
        assert_eq!(output.status.code(), Some(2), "{class}");
        let err = stderr(&output);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains("--symmetry on") && err.contains(class),
            "{err}"
        );
        assert!(stdout(&output).is_empty());
    }
    // Nor may an asymmetric program be quotiented: ordered-forks branches
    // on global fork identifiers.
    let output = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "4",
        "--algorithm",
        "ordered",
        "--symmetry",
        "on",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains("--symmetry on") && err.contains("ordered-forks"),
        "{err}"
    );
    assert!(stdout(&output).is_empty());
}

/// No checker input panics.  A 66-philosopher model (`complete` at size 12,
/// in the default sweep grid) has more choices than one 64-bit word: the
/// fair-core filter sizes its coverage sets by the choice count, so the
/// truncated check ends inconclusive, alone and inside `sweep --check`.
/// The product classes keep their per-state masks in one word, so a
/// topology past their limit is a usage error naming the limit.
#[test]
fn checker_inputs_past_the_bitmask_limits_never_panic() {
    let output = gdp(&[
        "check",
        "--family",
        "complete",
        "--size",
        "12",
        "--max-states",
        "2000",
    ]);
    assert_eq!(output.status.code(), Some(3), "{}", stderr(&output));
    assert!(stdout(&output).contains("overall verdict:   inconclusive\n"));

    let json = std::env::temp_dir().join(format!("gdp_check_cli_k12_{}.json", std::process::id()));
    let csv = json.with_extension("csv");
    let output = gdp(&[
        "sweep",
        "--families",
        "complete",
        "--sizes",
        "12",
        "--algorithms",
        "gdp1",
        "--trials",
        "1",
        "--steps",
        "100",
        "--check",
        "--check-states",
        "1000",
        "--quiet",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(
        json_text.contains("\"exact_verdict\": \"inconclusive\""),
        "{json_text}"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&csv);

    for (family, size, class, limit) in [
        ("complete", "12", "kbounded:2", "63"),
        ("star", "40", "crash:1", "32"),
    ] {
        let output = gdp(&[
            "check",
            "--family",
            family,
            "--size",
            size,
            "--adversary",
            class,
            "--max-states",
            "2000",
        ]);
        assert_eq!(output.status.code(), Some(2), "{class}");
        let err = stderr(&output);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains(class) && err.contains(&format!("up to {limit} philosophers")),
            "{err}"
        );
        assert!(stdout(&output).is_empty());
    }
}

/// `gdp list` is pinned byte for byte: its adversary rows are the only
/// place the catalog's fairness classes and family descriptions are
/// printed, so a change to `ADVERSARY_CATALOG` (or to the topology,
/// algorithm and exact-class tables beside it) shows up here.
#[test]
fn list_prints_every_catalog_byte_for_byte() {
    let output = gdp(&["list"]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(
        stdout(&output),
        "\
TOPOLOGY FAMILIES (--families / --topology; size n per family):
  ring                       n philosophers = n forks               classic Dijkstra ring (the LR1/LR2 safe zone)
  shared-ring[:sharing]      n forks, n*sharing philosophers        ring with parallel philosophers per edge (Figure 1)
  grid                       smallest square >= n forks             open lattice, philosophers on the edges
  torus                      smallest square >= n forks, side >= 3  wraparound lattice, every fork shared by 4
  complete                   n forks, n(n-1)/2 philosophers         complete conflict graph (Theorem 3 worst case)
  star                       n spoke philosophers                   one hub fork shared by all spokes (acyclic)
  barbell[:bridge]           two K_(n/2) cliques + bridge           dense communities coupled by a sparse path
  theta[:paths]              n philosophers over `paths` hub-to-hub paths generalized theta graph (Theorem 2 witness)
  random-regular[:degree]    n forks, n*degree/2 philosophers       seeded random degree-regular conflict graph

ALGORITHMS (--algorithms / --algorithm):
  LR1                        Lehmann-Rabin 1: random first fork; progress on classic rings only
  LR2                        Lehmann-Rabin 2: courteous variant; lockout-free on classic rings only
  GDP1                       Herescu-Palamidessi GDP1: random fork priorities; progress on every topology
  GDP2                       Herescu-Palamidessi GDP2: GDP1 + courtesy at the first take; not lockout-free, even on the 3-ring
  ordered-forks              Dijkstra ordered forks: asymmetric deterministic baseline
  naive-left-right           naive take-left-then-right: symmetric but deadlocks on rings

ADVERSARIES (--adversary; catalog in docs/ADVERSARIES.md):
  round-robin                bounded-fair             fair cyclic scheduling (bound n)
  uniform-random             probabilistically-fair   fair random scheduling, re-seeded per trial
  max-wait                   bounded-fair             adaptive FIFO: longest-waiting enabled philosopher first
  kbounded:<k>               bounded-fair             round-robin dwelling k steps per philosopher (bound k*n)
  blocking                   guarded-fair             blocking adversary, growing stubbornness (fairness bites)
  blocking:<bound>           guarded-fair             blocking adversary, constant stubbornness bound
  greedy-conflict            guarded-fair             adaptive contention maximizer, growing stubbornness
  greedy-conflict:<bound>    guarded-fair             adaptive contention maximizer, constant bound
  crash:<f>                  crash-faulty             f seeded philosophers crash-stop mid-protocol

EXACT ADVERSARY CLASSES (gdp check --adversary):
  fair                       all fair schedulers (the paper's default)
  kbounded:<k>               only k-bounded-fair schedulers (product MDP)
  crash:<f>                  fair scheduling + up to f crash-stop faults
"
    );
}

/// A reader that goes away early (`gdp sweep … | head -1`) ends `list`,
/// `run` and `sweep` by SIGPIPE, as it ends any Unix filter, not by a
/// `println!` panic on the broken pipe (exit 101).
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_the_command_by_sigpipe_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("gdp-sigpipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (json, csv) = (dir.join("sweep.json"), dir.join("sweep.csv"));
    let sweep = [
        "sweep",
        "--families",
        "ring",
        "--sizes",
        "3",
        "--algorithms",
        "gdp1",
        "--trials",
        "1",
        "--steps",
        "100",
        "--json",
        json.to_str().expect("utf-8 path"),
        "--csv",
        csv.to_str().expect("utf-8 path"),
    ];
    let run = ["run", "--size", "3", "--steps", "100"];
    for args in [&["list"][..], &run, &sweep] {
        // The read end is closed before the child starts, so its first
        // write to stdout finds no reader.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_gdp"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("gdp binary runs");
        let stderr = stderr(&output);
        assert!(!stderr.contains("panicked"), "gdp {args:?}: {stderr}");
        assert_eq!(
            output.status.signal(),
            Some(13),
            "gdp {args:?} must end by SIGPIPE: {:?}, {stderr}",
            output.status
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
