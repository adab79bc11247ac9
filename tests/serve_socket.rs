//! End-to-end `gdp serve` exercises over a real TCP socket.
//!
//! The acceptance gate of the cache-answering service:
//!
//! * the **cache proof over the wire** — the default 24-cell spec submitted
//!   twice to one running server yields byte-identical cell payloads, with
//!   the second pass served entirely from the store (`reused == cells`,
//!   `computed == 0`) and a summary digest the client can re-derive from
//!   the stream it received;
//! * the **kill -9 / restart cycle** — a server SIGKILLed mid-sweep loses
//!   at most the cells in flight; a fresh server on the same store resumes
//!   (cells already streamed come back as hits) with **zero quarantines**
//!   from the dead server's own scratch files, which the restart sweeps;
//! * **CLI/serve parity** — a request setting every sweep field serves the
//!   cell objects `gdp sweep` writes for the matching flags, byte for byte;
//! * **the two failing lookups** — a bit-flipped record is quarantined and
//!   recomputed into the cold pass's bytes, and a record stamped with a
//!   newer store format gets one non-retryable error and stays in place;
//! * **the store is opened once, at start** — requests neither list nor
//!   sweep it (a planted scratch file survives a sweep request, and the
//!   next server start sweeps it), and a store that cannot be opened fails
//!   the server before it listens;
//! * **the line limit** — an over-long request line gets one error line and
//!   EOF, and the server keeps answering other connections.

use gdp_scenarios::stable_digest64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The stock 24-cell grid with a test-sized budget (the default 20 x 40 000
/// would dominate the suite's runtime without proving anything extra).
const SWEEP_REQUEST: &str = r#"{"type": "sweep", "trials": 3, "steps": 8000}"#;
const CELLS: u64 = 24;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp_serve_socket_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `gdp serve` child plus a connected client.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    client: TcpStream,
    responses: BufReader<TcpStream>,
}

impl Server {
    /// Spawns `gdp serve` on a free port over `store`, waits for the
    /// `listening` line, and connects.
    fn start(store: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gdp"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                &store.to_string_lossy(),
                "--workers",
                "2",
                "--queue",
                "64",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve child spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"));
        let client = TcpStream::connect(addr).expect("connect to serve");
        client
            .set_read_timeout(Some(Duration::from_secs(300)))
            .unwrap();
        let responses = BufReader::new(client.try_clone().unwrap());
        Server {
            child,
            stdout,
            client,
            responses,
        }
    }

    fn send(&mut self, request: &str) {
        self.client.write_all(request.as_bytes()).unwrap();
        self.client.write_all(b"\n").unwrap();
        self.client.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.responses.read_line(&mut line).expect("response line");
        assert!(!line.is_empty(), "server closed the stream unexpectedly");
        line.trim_end().to_string()
    }

    /// Reads one full sweep response: (cell lines in order, summary line).
    fn read_sweep(&mut self) -> (Vec<String>, String) {
        let start = self.read_line();
        assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
        let mut cells = Vec::new();
        loop {
            let line = self.read_line();
            if line.contains("\"type\":\"summary\"") {
                return (cells, line);
            }
            assert!(line.contains("\"type\":\"cell\""), "{line}");
            cells.push(line);
        }
    }

    /// Sends `shutdown`, expects `bye`, and asserts the graceful exit 0.
    fn shutdown(mut self) {
        self.send("{\"type\": \"shutdown\"}");
        assert_eq!(self.read_line(), "{\"type\":\"bye\"}");
        let status = self.child.wait().expect("serve child exits");
        assert!(
            status.success(),
            "graceful shutdown must exit 0, got {status:?}"
        );
        // The drain banner is part of the contract (workers finished).
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("gdp serve stopped"), "{rest}");
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    let tagged = format!("\"{key}\":");
    let rest = &line[line
        .find(&tagged)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tagged.len()..];
    rest.trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Every `*.tmp.*` scratch file under `dir` (recursively).
fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(tmp_files(&path));
        } else if path.to_string_lossy().contains(".tmp.") {
            found.push(path);
        }
    }
    found
}

fn quarantine_count(store: &Path) -> usize {
    std::fs::read_dir(store.join("quarantine")).map_or(0, |entries| entries.count())
}

#[test]
fn second_submission_is_served_entirely_from_the_store_byte_for_byte() {
    let work = temp_dir("cache_proof");
    let store = work.join("store");
    let mut server = Server::start(&store);

    // Cold pass: the full default grid computes.
    server.send(SWEEP_REQUEST);
    let (first_cells, first_summary) = server.read_sweep();
    assert_eq!(first_cells.len() as u64, CELLS);
    assert_eq!(field_u64(&first_summary, "cells"), CELLS);
    assert_eq!(field_u64(&first_summary, "computed"), CELLS);
    assert_eq!(field_u64(&first_summary, "reused"), 0);

    // Warm pass: reused == cells, computed == 0, payloads byte-identical.
    server.send(SWEEP_REQUEST);
    let (second_cells, second_summary) = server.read_sweep();
    assert_eq!(field_u64(&second_summary, "reused"), CELLS);
    assert_eq!(field_u64(&second_summary, "computed"), 0);
    assert_eq!(field_u64(&second_summary, "quarantined"), 0);
    for (position, (first, second)) in first_cells.iter().zip(&second_cells).enumerate() {
        assert!(second.contains("\"source\":\"store\""), "{second}");
        assert_eq!(
            first.replace("\"source\":\"computed\"", "\"source\":\"store\""),
            *second,
            "cell payload at position {position} must be byte-identical"
        );
    }

    // The summary digest is re-derivable from the received stream.
    let mut streamed = String::new();
    for line in &second_cells {
        streamed.push_str(line);
        streamed.push('\n');
    }
    let digest = format!(
        "\"digest\":\"{:016x}\"",
        stable_digest64(streamed.as_bytes())
    );
    assert!(second_summary.contains(&digest), "{second_summary}");

    // The metrics endpoint saw both passes.
    server.send("{\"type\": \"metrics\"}");
    let metrics = server.read_line();
    assert!(metrics.contains("\"type\":\"metrics\""), "{metrics}");
    assert_eq!(field_u64(&metrics, "serve.store_hits"), CELLS);
    assert_eq!(field_u64(&metrics, "serve.cells_computed"), CELLS);
    assert_eq!(field_u64(&metrics, "serve.cells_streamed"), 2 * CELLS);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_sigkilled_server_resumes_from_its_store_without_quarantines() {
    let work = temp_dir("kill9");
    let store = work.join("store");
    let mut server = Server::start(&store);

    // Start the sweep and wait for some cells to stream (each streamed
    // cell was saved to the store before it was emitted), then SIGKILL the
    // server mid-sweep — no drain, no cleanup.
    server.send(SWEEP_REQUEST);
    let start = server.read_line();
    assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
    let mut streamed = 0u64;
    while streamed < 6 {
        let line = server.read_line();
        if line.contains("\"type\":\"cell\"") {
            streamed += 1;
        }
    }
    server.child.kill().expect("SIGKILL serve");
    let _ = server.child.wait();

    // A fresh server on the same store resumes: everything already
    // persisted comes back as a hit, nothing the dead server left behind
    // (scratch files included) quarantines.
    let mut server = Server::start(&store);
    server.send(SWEEP_REQUEST);
    let (cells, summary) = server.read_sweep();
    assert_eq!(cells.len() as u64, CELLS);
    let reused = field_u64(&summary, "reused");
    let computed = field_u64(&summary, "computed");
    assert!(
        reused >= streamed,
        "at least the {streamed} streamed cells must resume as hits, got {reused}"
    );
    assert_eq!(reused + computed, CELLS, "{summary}");
    assert_eq!(
        field_u64(&summary, "quarantined"),
        0,
        "the server's own scratch files must never quarantine: {summary}"
    );
    assert_eq!(quarantine_count(&store), 0);
    assert_eq!(
        tmp_files(&store),
        Vec::<PathBuf>::new(),
        "restart must sweep stale scratch files"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

/// A sweep request setting every field, and the `gdp sweep` flags that mean
/// the same grid.
const EVERY_FIELD: &str = concat!(
    r#"{"type": "sweep", "name": "parity", "families": "ring,star", "sizes": "4,5", "#,
    r#""algorithms": "gdp1,lr1", "adversary": "blocking:2000", "trials": 3, "steps": 5000, "#,
    r#""seed": 7, "seed_policy": "shared", "threads": 2, "exact_check": 200000}"#,
);
const EVERY_FLAG: &str = "sweep --name parity --families ring,star --sizes 4,5 \
    --algorithms gdp1,lr1 --adversary blocking:2000 --trials 3 --steps 5000 --seed 7 \
    --seed-policy shared --threads 2 --check --check-states 200000 --quiet";

#[test]
fn a_request_setting_every_field_serves_the_cells_gdp_sweep_writes() {
    let work = temp_dir("parity");
    let mut server = Server::start(&work.join("store"));
    server.send(EVERY_FIELD);
    let (cells, _) = server.read_sweep();
    server.shutdown();
    let served: Vec<&str> = cells
        .iter()
        .map(|line| {
            let result = line.split_once("\"result\":").expect("result object").1;
            result.strip_suffix('}').expect("closing brace")
        })
        .collect();

    let json = work.join("parity.json");
    let output = Command::new(env!("CARGO_BIN_EXE_gdp"))
        .args(EVERY_FLAG.split_whitespace())
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(work.join("parity.csv"))
        .output()
        .expect("gdp sweep runs");
    let written = std::fs::read_to_string(&json).unwrap_or_else(|e| {
        panic!("{e}: {}", String::from_utf8_lossy(&output.stderr));
    });
    let written: Vec<&str> = written
        .lines()
        .filter(|line| line.starts_with("    {"))
        .map(|line| line.trim_start().trim_end_matches(','))
        .collect();
    assert_eq!(served.len(), 8);
    assert_eq!(
        served, written,
        "served cells must equal the written artifact"
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// A two-cell grid small enough to recompute in milliseconds.
const SMALL_REQUEST: &str = r#"{"type": "sweep", "families": "ring", "sizes": "4,5", "algorithms": "gdp1", "trials": 2, "steps": 4000}"#;

/// The store's cell record files, sorted by name.
fn cell_records(store: &Path) -> Vec<PathBuf> {
    let mut records: Vec<PathBuf> = std::fs::read_dir(store.join("cells"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    records.sort();
    records
}

#[test]
fn a_bit_flipped_record_is_quarantined_and_recomputed_byte_identically() {
    let work = temp_dir("bitflip");
    let store = work.join("store");
    let mut server = Server::start(&store);
    server.send(SMALL_REQUEST);
    let (cold, _) = server.read_sweep();

    let records = cell_records(&store);
    assert_eq!(records.len(), 2);
    let mut raw = std::fs::read(&records[0]).unwrap();
    let target = raw.len() - 20;
    raw[target] ^= 0x04;
    std::fs::write(&records[0], raw).unwrap();

    server.send(SMALL_REQUEST);
    let (warm, summary) = server.read_sweep();
    assert_eq!(field_u64(&summary, "quarantined"), 1, "{summary}");
    assert_eq!(field_u64(&summary, "computed"), 1, "{summary}");
    assert_eq!(field_u64(&summary, "reused"), 1, "{summary}");
    let unsourced = |line: &String| line.replace("\"source\":\"store\"", "\"source\":\"computed\"");
    assert_eq!(
        warm.iter().map(unsourced).collect::<Vec<_>>(),
        cold,
        "the recomputed stream must equal the cold pass"
    );
    let name = records[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let quarantined: Vec<String> = std::fs::read_dir(store.join("quarantine"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(quarantined, [format!("{name}.checksum")]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_newer_format_record_gets_one_nonretryable_error_and_stays_in_place() {
    let work = temp_dir("newer");
    let store = work.join("store");
    let mut server = Server::start(&store);
    server.send(SMALL_REQUEST);
    server.read_sweep();

    let record = cell_records(&store).remove(1);
    let raw = std::fs::read_to_string(&record).unwrap();
    let restamped = raw.replacen("gdp-cell-store v3", "gdp-cell-store v9", 1);
    assert_ne!(raw, restamped);
    std::fs::write(&record, &restamped).unwrap();

    server.send(SMALL_REQUEST);
    let error = server.read_line();
    assert!(error.contains("\"type\":\"error\""), "{error}");
    assert!(error.contains("\"retryable\":false"), "{error}");
    assert!(error.contains("newer"), "{error}");
    // Exactly one line answers the sweep: the next line is the ping's.
    server.send("{\"type\": \"ping\"}");
    assert_eq!(server.read_line(), "{\"type\":\"pong\"}");
    assert_eq!(std::fs::read_to_string(&record).unwrap(), restamped);
    assert_eq!(quarantine_count(&store), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn requests_leave_the_store_unswept_and_a_restart_sweeps_it() {
    let work = temp_dir("open_once");
    let store = work.join("store");
    let mut server = Server::start(&store);
    // The server opened the store before its banner.
    assert!(store.join("cells").is_dir());
    let planted = store.join("cells").join("x.tmp.1.2");
    std::fs::write(&planted, b"torn write").unwrap();

    server.send(SMALL_REQUEST);
    let (cells, _) = server.read_sweep();
    assert_eq!(cells.len(), 2);
    assert!(
        planted.exists(),
        "a request must neither list nor sweep the store"
    );
    server.shutdown();

    let server = Server::start(&store);
    assert!(
        !planted.exists(),
        "a server start sweeps stale scratch files"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_store_that_cannot_be_opened_fails_the_server_before_it_listens() {
    let work = temp_dir("unopenable");
    let not_a_dir = work.join("store");
    std::fs::write(&not_a_dir, b"a file where the store should be").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--store"])
        .arg(&not_a_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve child spawns");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .unwrap();
    if !banner.is_empty() {
        let _ = child.kill();
        let _ = child.wait();
        panic!("served on a store it cannot open: {banner}");
    }
    let output = child.wait_with_output().expect("serve child exits");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot open store"), "{stderr}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn an_over_long_request_line_gets_one_error_and_eof() {
    let work = temp_dir("line_limit");
    let mut server = Server::start(&work.join("store"));
    let addr = server.client.peer_addr().unwrap();
    // One MiB without a newline.  The server stops reading at its limit
    // and closes, so the tail of this write may fail: only the answer
    // matters.
    let _ = server.client.write_all(&vec![b'x'; 1 << 20]);
    let error = server.read_line();
    assert!(error.contains("\"type\":\"error\""), "{error}");
    assert!(error.contains("\"retryable\":false"), "{error}");
    assert!(error.contains("65536-byte limit"), "{error}");
    let mut rest = String::new();
    assert_eq!(
        server.responses.read_line(&mut rest).unwrap(),
        0,
        "EOF after the error, got {rest:?}"
    );

    // The server itself is fine: a fresh connection is answered.
    server.client = TcpStream::connect(addr).unwrap();
    server.responses = BufReader::new(server.client.try_clone().unwrap());
    server.send("{\"type\": \"ping\"}");
    assert_eq!(server.read_line(), "{\"type\":\"pong\"}");
    server.send("{\"type\": \"metrics\"}");
    let metrics = server.read_line();
    assert_eq!(field_u64(&metrics, "serve.line_rejections"), 1, "{metrics}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}
