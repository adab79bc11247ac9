//! Fault-injection and property tests for the store lifecycle commands:
//! `gdp store gc` retires exactly the records its manifest disowns, and
//! `gdp store compact` survives SIGKILL at seeded-random points without
//! ever losing or corrupting a live record — six rounds, each byte-compared
//! against an uninterrupted compaction of a pristine copy.
//!
//! The same battery drives the certificate cache through corruption
//! (truncate, bit-flip, wrong-key swap) and version-skew: a corrupt record
//! is quarantined and recomputed, never trusted; a *future*-format record
//! is rejected loudly with the file left in place.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp_lifecycle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one store-backed sweep of a small 4-cell grid into `store`, with
/// the given trial count and extra flags (so two sweeps can differ in spec
/// fingerprint).
fn populate(store: &Path, work: &Path, name: &str, trials: &str, extra: &[&str]) -> Output {
    let store_s = store.to_string_lossy().into_owned();
    let json = work
        .join(format!("{name}.json"))
        .to_string_lossy()
        .into_owned();
    let csv = work
        .join(format!("{name}.csv"))
        .to_string_lossy()
        .into_owned();
    let mut args = vec![
        "sweep",
        "--families",
        "ring,star",
        "--sizes",
        "4",
        "--algorithms",
        "lr1,gdp1",
        "--trials",
        trials,
        "--steps",
        "4000",
        "--quiet",
        "--resume",
        "--store",
        &store_s,
        "--json",
        &json,
        "--csv",
        &csv,
    ];
    args.extend_from_slice(extra);
    gdp(&args)
}

/// Every file under `dir`, as relative path -> contents.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Recursive copy (directories + files only; the store uses nothing else).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

#[test]
fn gc_retires_only_the_records_the_manifest_disowns() {
    let work = temp_dir("gc");
    let store = work.join("store");
    let store_s = store.to_string_lossy().into_owned();

    // Two specs share the store: A (trials 4) and B (trials 5).
    let a = populate(&store, &work, "a", "4", &[]);
    assert!(stdout(&a).contains("4 computed"), "{}", stdout(&a));
    let b = populate(&store, &work, "b", "5", &[]);
    assert!(stdout(&b).contains("4 computed"), "{}", stdout(&b));

    // The manifest keeps spec A: its context note, written by the sweep,
    // is the exact line gc matches against.
    let manifest = work.join("manifest.txt");
    let mut kept = String::from("# retained specs\n\n");
    for entry in std::fs::read_dir(&store).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("spec-") && name.ends_with(".context") {
            let context = std::fs::read_to_string(&path).unwrap();
            if context.contains("trials=4") {
                kept.push_str(context.trim());
                kept.push('\n');
            }
        }
    }
    std::fs::write(&manifest, &kept).unwrap();
    let manifest_s = manifest.to_string_lossy().into_owned();

    // Dry run: the report names the damage, the store is untouched.
    let dry = gdp(&[
        "store",
        "gc",
        "--store",
        &store_s,
        "--manifest",
        &manifest_s,
        "--dry-run",
    ]);
    assert!(dry.status.success(), "{}", stderr(&dry));
    let text = stdout(&dry);
    assert!(
        text.contains("retained 4 record(s), retired 4 record(s)") && text.contains("(dry run)"),
        "{text}"
    );
    let warm_b = populate(&store, &work, "b", "5", &[]);
    assert!(
        stdout(&warm_b).contains("4 reused, 0 computed"),
        "a dry run must not delete anything: {}",
        stdout(&warm_b)
    );

    // Real gc: spec B's records and context note are retired; spec A still
    // answers every cell, spec B recomputes from scratch.
    let gc = gdp(&[
        "store",
        "gc",
        "--store",
        &store_s,
        "--manifest",
        &manifest_s,
    ]);
    assert!(gc.status.success(), "{}", stderr(&gc));
    let text = stdout(&gc);
    assert!(
        text.contains("retained 4 record(s), retired 4 record(s) and 1 context note(s)"),
        "{text}"
    );
    assert!(!text.contains("(dry run)"), "{text}");
    let warm_a = populate(&store, &work, "a", "4", &[]);
    assert!(
        stdout(&warm_a).contains("4 reused, 0 computed"),
        "gc must keep every manifest-matched record: {}",
        stdout(&warm_a)
    );
    let cold_b = populate(&store, &work, "b", "5", &[]);
    assert!(
        stdout(&cold_b).contains("0 reused, 4 computed"),
        "gc must have retired the disowned spec: {}",
        stdout(&cold_b)
    );

    let _ = std::fs::remove_dir_all(&work);
}

/// SIGKILL a real `gdp store compact` child at seeded-random points, six
/// rounds.  Each round starts from the same pristine store; after the kill
/// the original records must still answer, a rerun must converge, and the
/// converged directory must be byte-identical to an uninterrupted
/// compaction — no record lost, none corrupted, for any kill point.
#[test]
fn sigkilled_compactions_never_lose_or_corrupt_a_live_record() {
    let work = temp_dir("kill_compact");
    let pristine = work.join("pristine");

    // A mixed store: two specs' worth of MC cell records (8) plus the
    // checked sweep's certificate records (4), plus debris for compact to
    // drop.
    populate(&pristine, &work, "mc", "4", &[]);
    populate(
        &pristine,
        &work,
        "checked",
        "4",
        &["--check", "--check-states", "8000", "--name", "checked"],
    );
    std::fs::write(pristine.join("cells").join("x.tmp.9.9"), b"torn").unwrap();
    std::fs::write(pristine.join("quarantine").join("old-1234.cell"), b"bad").unwrap();

    // Reference: compact an untouched copy, uninterrupted.
    let reference = work.join("reference");
    copy_dir(&pristine, &reference);
    let ref_out = gdp(&["store", "compact", "--store", &reference.to_string_lossy()]);
    assert!(ref_out.status.success(), "{}", stderr(&ref_out));
    let text = stdout(&ref_out);
    assert!(text.contains("12 live record(s) rewritten"), "{text}");
    assert!(text.contains("1 quarantined file(s) dropped"), "{text}");
    let want = snapshot(&reference);

    let mut schedule = ChaCha8Rng::seed_from_u64(0xFA17_1217);
    for round in 0..6 {
        let victim = work.join(format!("round{round}"));
        copy_dir(&pristine, &victim);
        let victim_s = victim.to_string_lossy().into_owned();
        let mut child = Command::new(env!("CARGO_BIN_EXE_gdp"))
            .args(["store", "compact", "--store", &victim_s])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("compact child spawns");
        let delay_ms: u64 = schedule.gen_range(0..=12);
        std::thread::sleep(Duration::from_millis(delay_ms));
        let _ = child.kill();
        let _ = child.wait();

        // Converge: compaction's crash recovery makes the rerun land in the
        // exact state the uninterrupted run produces, whatever the kill hit
        // (scratch build, first rename, second rename, backup removal).
        let rerun = gdp(&["store", "compact", "--store", &victim_s]);
        assert!(
            rerun.status.success(),
            "round {round}: rerun after SIGKILL must converge: {}",
            stderr(&rerun)
        );
        assert_eq!(
            snapshot(&victim),
            want,
            "round {round} (delay {delay_ms}ms): converged store differs from the \
             uninterrupted compaction"
        );
        let _ = std::fs::remove_dir_all(&victim);
    }

    let _ = std::fs::remove_dir_all(&work);
}

/// The certificate-cache corruption gauntlet, end to end through the CLI:
/// truncated, bit-flipped and key-swapped records are each quarantined and
/// recomputed — the warm report never differs from the cold one, and a bad
/// record is never trusted.
#[test]
fn corrupt_certificate_records_are_quarantined_never_trusted() {
    type Corruption<'a> = (&'a str, &'a dyn Fn(&Path, &Path));
    let cases: &[Corruption] = &[
        ("truncate", &|a, _| {
            let raw = std::fs::read(a).unwrap();
            std::fs::write(a, &raw[..raw.len() / 2]).unwrap();
        }),
        ("bitflip", &|a, _| {
            let mut raw = std::fs::read(a).unwrap();
            let target = raw.len() - 20;
            raw[target] ^= 0x04;
            std::fs::write(a, raw).unwrap();
        }),
        // Swap two records' file contents: each is internally consistent
        // but stored under the other's address, so the cell-key cross-check
        // must reject both.
        ("wrong-key", &|a, b| {
            let raw_a = std::fs::read(a).unwrap();
            let raw_b = std::fs::read(b).unwrap();
            std::fs::write(a, raw_b).unwrap();
            std::fs::write(b, raw_a).unwrap();
        }),
    ];
    for (tag, corrupt) in cases {
        let work = temp_dir(&format!("cert_corrupt_{tag}"));
        let store = work.join("store");
        let store_s = store.to_string_lossy().into_owned();
        let check = |extra: &[&str]| {
            let mut args = vec![
                "check",
                "--family",
                "ring",
                "--size",
                "4",
                "--algorithm",
                "gdp1",
                "--store",
                &store_s,
            ];
            args.extend_from_slice(extra);
            gdp(&args)
        };
        let records = || -> Vec<PathBuf> {
            std::fs::read_dir(store.join("certs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "cert"))
                .collect()
        };
        let cold = check(&[]);
        assert!(cold.status.success(), "{tag}: {}", stderr(&cold));
        let [checked] = records()
            .try_into()
            .expect("one record after the cold check");
        // A second record (different adversary class) is the swap partner.
        let other = check(&["--adversary", "kbounded:1"]);
        assert!(other.status.success(), "{tag}: {}", stderr(&other));
        let partner: Vec<PathBuf> = records().into_iter().filter(|p| *p != checked).collect();
        assert_eq!(partner.len(), 1, "{tag}");
        corrupt(&checked, &partner[0]);

        let warm = check(&["--resume"]);
        assert!(warm.status.success(), "{tag}: {}", stderr(&warm));
        assert_eq!(
            cold.stdout, warm.stdout,
            "{tag}: recomputed report must not differ from the cold one"
        );
        assert!(
            stderr(&warm).contains("computed certificates: 1"),
            "{tag}: a corrupt record must be recomputed, not trusted: {}",
            stderr(&warm)
        );
        assert!(
            std::fs::read_dir(store.join("quarantine")).unwrap().count() >= 1,
            "{tag}: the rejected record must be preserved in quarantine"
        );
        // The re-saved record answers the next warm check.
        let again = check(&["--resume"]);
        assert!(
            stderr(&again).contains("reused certificates: 1"),
            "{tag}: {}",
            stderr(&again)
        );
        let _ = std::fs::remove_dir_all(&work);
    }
}

/// Version-skew, end to end: records stamped with a *future* store format
/// are rejected loudly (exit 2, "newer"), never quarantined and never
/// silently recomputed over — for certificate records under `gdp check`
/// and for cell records under `gdp sweep --resume` alike.
#[test]
fn future_format_records_fail_loudly_instead_of_quarantining() {
    let work = temp_dir("future_format");
    let store = work.join("store");
    let store_s = store.to_string_lossy().into_owned();

    // Certificate record path.
    let cold = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "4",
        "--algorithm",
        "gdp1",
        "--store",
        &store_s,
    ]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let cert = std::fs::read_dir(store.join("certs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "cert"))
        .expect("a certificate record exists");
    let raw = std::fs::read_to_string(&cert).unwrap();
    std::fs::write(
        &cert,
        raw.replacen("gdp-cell-store v3", "gdp-cell-store v9", 1),
    )
    .unwrap();
    let warm = gdp(&[
        "check",
        "--family",
        "ring",
        "--size",
        "4",
        "--algorithm",
        "gdp1",
        "--store",
        &store_s,
        "--resume",
    ]);
    assert_eq!(warm.status.code(), Some(2), "{}", stderr(&warm));
    assert!(stderr(&warm).contains("newer"), "{}", stderr(&warm));
    assert!(
        cert.is_file(),
        "the future-format record must be left alone"
    );
    assert_eq!(
        std::fs::read_dir(store.join("quarantine")).unwrap().count(),
        0,
        "nothing may be quarantined for being too new"
    );

    // Cell record path.
    let first = populate(&store, &work, "sweep", "4", &[]);
    assert!(stdout(&first).contains("4 computed"), "{}", stdout(&first));
    let cell = std::fs::read_dir(store.join("cells"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "cell"))
        .expect("a cell record exists");
    let raw = std::fs::read_to_string(&cell).unwrap();
    std::fs::write(
        &cell,
        raw.replacen("gdp-cell-store v3", "gdp-cell-store v9", 1),
    )
    .unwrap();
    let resumed = populate(&store, &work, "sweep", "4", &[]);
    assert_eq!(resumed.status.code(), Some(2), "{}", stderr(&resumed));
    assert!(stderr(&resumed).contains("newer"), "{}", stderr(&resumed));
    assert!(cell.is_file());

    let _ = std::fs::remove_dir_all(&work);
}
