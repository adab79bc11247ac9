//! The TCP server: accept loop, per-connection protocol driver, and the
//! cache-answering sweep pipeline.
//!
//! ## Request pipeline (one `sweep` request)
//!
//! 1. **Derive** the request's spec handle ([`CellStore::for_spec`]) from
//!    the store the server opened once, at start.  The store is
//!    content-addressed by spec fingerprint, so different specs coexist in
//!    one directory, and deriving a handle lists no directory: a request
//!    costs the cells it names, not the records stored.
//! 2. **Look up** every cell of the deterministic grid expansion, in
//!    order, with the per-cell store step `gdp sweep --resume` runs
//!    ([`lookup_cell`], then [`compute_and_save`] in the workers).  Hits
//!    are answered straight from the store; misses (and quarantined
//!    records) become compute jobs.
//! 3. **Admit or reject**: every miss is submitted to the bounded worker
//!    pool *before anything is streamed*; if the queue fills, the whole
//!    request is rejected with one retryable `error` line — a client never
//!    receives a partial stream due to backpressure.
//! 4. **Stream** cell lines in grid order (computed results arriving out of
//!    order are buffered until their position is due), then the summary
//!    footer whose `digest` lets the client verify the stream it received.
//!    The stream is flushed after `sweep_start`, right before each wait for
//!    a computed cell, and after the footer, so a client never waits for a
//!    line the server has already produced.
//!
//! ## Shutdown
//!
//! SIGTERM/SIGINT (via [`signal`]) or a `shutdown` request stop the accept
//! loop; open connections finish their in-flight requests, the pool drains
//! every admitted job (each saves its cell to the store — nothing admitted
//! is abandoned), and the process exits 0.  A SIGKILLed server is the
//! crash-safety case the store already handles: completed cells persist,
//! the cell in flight is lost, and the next server sweeps the stale
//! scratch files when it opens the store, at start.

use crate::metrics::ServeMetrics;
use crate::pool::WorkerPool;
use crate::protocol::{self, Request, SweepRequest};
use crate::signal;
use gdp_observe::{Event, SharedSink};
use gdp_scenarios::{
    compute_and_save, lookup_cell, stable_digest64, CellResult, CellStore, StoreStats, SweepOptions,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read blocks before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(150);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// The longest request line the server buffers.  Real requests are a few
/// hundred bytes; a longer line is answered with one non-retryable error
/// and the connection closes, since the same line can never fit.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Configuration for [`run_serve`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port; the
    /// resolved address is printed on the `listening` line).
    pub addr: String,
    /// The shared cell-store directory backing the cache.
    pub store_dir: PathBuf,
    /// Compute workers (`0` = all cores).
    pub workers: usize,
    /// Bound on queued (not yet running) compute jobs; beyond it, sweep
    /// requests are rejected with a retryable error.
    pub queue_capacity: usize,
}

/// Everything a connection thread shares with the accept loop.
struct ServerState {
    /// The store, opened bare once at start; each request derives its spec
    /// handle from it.
    store: CellStore,
    pool: WorkerPool,
    metrics: Arc<ServeMetrics>,
    /// Set by a `shutdown` protocol request.  Per-server (unlike the
    /// process-wide signal flag) so one server's shutdown cannot stop
    /// another in the same process — which is exactly the situation in the
    /// test binaries.
    local_shutdown: AtomicBool,
}

impl ServerState {
    /// Opens the store (creating its layout and sweeping stale scratch
    /// files) and starts the worker pool.
    fn new(config: &ServeConfig, workers: usize) -> io::Result<ServerState> {
        let store = CellStore::open_bare(&config.store_dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot open store {}: {e}", config.store_dir.display()),
            )
        })?;
        Ok(ServerState {
            store,
            pool: WorkerPool::new(workers, config.queue_capacity),
            metrics: Arc::new(ServeMetrics::new()),
            local_shutdown: AtomicBool::new(false),
        })
    }

    fn should_stop(&self) -> bool {
        self.local_shutdown.load(Ordering::Relaxed) || signal::requested()
    }

    fn begin_shutdown(&self) {
        self.local_shutdown.store(true, Ordering::Relaxed);
    }
}

/// Runs the service until SIGTERM/SIGINT or a `shutdown` request, then
/// drains gracefully and returns.
///
/// # Errors
///
/// Propagates binding/listener I/O errors; per-connection errors only end
/// that connection.
pub fn run_serve(config: ServeConfig) -> io::Result<()> {
    signal::install();
    let listener = TcpListener::bind(&config.addr)?;
    serve_on(listener, &config)
}

/// The accept loop over an already-bound listener (separated from
/// [`run_serve`] so tests can bind port 0 and learn the port first).
fn serve_on(listener: TcpListener, config: &ServeConfig) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        config.workers
    };
    let state = Arc::new(ServerState::new(config, workers)?);
    println!(
        "gdp serve listening on {local} (store {}, {workers} worker(s), queue capacity {})",
        config.store_dir.display(),
        config.queue_capacity.max(1),
    );
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !state.should_stop() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.metrics.note_connection();
                let state = state.clone();
                connections.push(std::thread::spawn(move || {
                    handle_connection(stream, &state)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        connections.retain(|handle| !handle.is_finished());
    }
    println!(
        "gdp serve draining: {} open connection(s), {} queued job(s)",
        connections.len(),
        state.pool.queue_depth(),
    );
    for handle in connections {
        let _ = handle.join();
    }
    state.pool.shutdown();
    let registry = state.metrics.registry();
    println!(
        "gdp serve stopped: {} request(s), {} cell(s) streamed \
         ({} store hit(s), {} computed), {} queue rejection(s)",
        registry.counter("serve.requests"),
        registry.counter("serve.cells_streamed"),
        registry.counter("serve.store_hits"),
        registry.counter("serve.cells_computed"),
        registry.counter("serve.queue_rejections"),
    );
    Ok(())
}

/// Whether to keep reading requests from this connection.
enum Control {
    Continue,
    Close,
}

fn handle_connection(reader: TcpStream, state: &Arc<ServerState>) {
    let _ = reader.set_nodelay(true);
    // A finite read timeout keeps an idle connection from pinning the
    // drain: the loop re-checks the shutdown flag every READ_POLL.
    let _ = reader.set_read_timeout(Some(READ_POLL));
    let Ok(writer) = reader.try_clone() else {
        return;
    };
    let mut reader = reader;
    let mut writer = io::BufWriter::new(writer);
    let mut buffered: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let newline = buffered.iter().position(|&b| b == b'\n');
        if newline.unwrap_or(buffered.len()) > MAX_LINE_BYTES {
            state.metrics.note_line_rejection();
            let message = format!(
                "request line exceeds the {MAX_LINE_BYTES}-byte limit; closing the connection"
            );
            let _ = writeln!(writer, "{}", protocol::error_line(&message, false));
            let _ = writer.flush();
            // Send FIN after the error line, so the client reads the line
            // and then EOF even though its unread bytes make the close a
            // reset.
            let _ = writer.get_ref().shutdown(Shutdown::Write);
            break;
        }
        if let Some(newline) = newline {
            let raw: Vec<u8> = buffered.drain(..=newline).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match handle_request(line, &mut writer, state) {
                Ok(Control::Continue) => continue,
                // Protocol close or the client went away mid-stream.
                Ok(Control::Close) | Err(_) => break,
            }
        }
        if state.should_stop() {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buffered.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    let _ = writer.flush();
}

fn handle_request(
    line: &str,
    writer: &mut impl Write,
    state: &Arc<ServerState>,
) -> io::Result<Control> {
    state.metrics.note_request();
    let started = Instant::now();
    let control = match protocol::parse_request(line) {
        Err(message) => {
            writeln!(writer, "{}", protocol::error_line(&message, false))?;
            Control::Continue
        }
        Ok(Request::Ping) => {
            writeln!(writer, "{}", protocol::pong_line())?;
            Control::Continue
        }
        Ok(Request::Metrics) => {
            writeln!(writer, "{}", state.metrics.to_json_line())?;
            Control::Continue
        }
        Ok(Request::Shutdown) => {
            writeln!(writer, "{}", protocol::bye_line())?;
            state.begin_shutdown();
            Control::Close
        }
        Ok(Request::Sweep(request)) => {
            handle_sweep(&request, writer, state)?;
            Control::Continue
        }
    };
    writer.flush()?;
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.metrics.note_request_us(micros);
    Ok(control)
}

/// One worker's verdict on one cell, keyed by grid position.
type CellOutcome = (usize, Result<CellResult, String>);

fn handle_sweep(
    request: &SweepRequest,
    writer: &mut impl Write,
    state: &Arc<ServerState>,
) -> io::Result<()> {
    let spec = Arc::new(request.spec.clone());
    let store = match state.store.for_spec(&spec, request.exact_check) {
        Ok(store) => Arc::new(store),
        Err(e) => {
            let message = format!("cannot record this spec's context in the store: {e}");
            writeln!(writer, "{}", protocol::error_line(&message, false))?;
            return Ok(());
        }
    };
    let cells = spec.expand();
    let sink: SharedSink = state.metrics.clone();
    let options = SweepOptions {
        exact_check: request.exact_check,
        sink: Some(sink.clone()),
        ..SweepOptions::default()
    };

    // Phase 1: consult the cache for every cell, in grid order — the first
    // half of the per-cell store step `gdp sweep --resume` runs.
    let mut stats = StoreStats::default();
    let mut hits: BTreeMap<usize, CellResult> = BTreeMap::new();
    let mut misses: Vec<usize> = Vec::new();
    for (position, cell) in cells.iter().enumerate() {
        match lookup_cell(&store, cell, position, &options, &mut stats) {
            Ok(Some(result)) => {
                hits.insert(position, result);
            }
            Ok(None) => misses.push(position),
            Err(e) => {
                writeln!(writer, "{}", protocol::error_line(&e.to_string(), false))?;
                return Ok(());
            }
        }
    }

    // Phase 2: admit every miss before streaming anything, so a full queue
    // rejects the request with a single retryable line and no partial
    // stream.  Jobs admitted before the rejection still run and still save
    // their cells — the next submission of this spec will find them as
    // hits, which is the retry contract.  Each job runs the second half of
    // the per-cell store step; `cell_start`/`cell_finish` bracket computed
    // cells only, which is what `serve.cells_computed` counts.
    let (results_tx, results_rx) = mpsc::channel::<CellOutcome>();
    for &position in &misses {
        let cell = cells[position].clone();
        let spec = spec.clone();
        let store = store.clone();
        let sink = sink.clone();
        let options = options.clone();
        let results_tx = results_tx.clone();
        let job = Box::new(move || {
            let clock = position as u64;
            sink.record(&Event::CellStart {
                clock,
                cell: cell.key.clone(),
            });
            let outcome = compute_and_save(&spec, &cell, position, &options, &store, true)
                .map_err(|e| e.to_string());
            if outcome.is_ok() {
                sink.record(&Event::CellFinish {
                    clock,
                    cell: cell.key.clone(),
                });
            }
            let _ = results_tx.send((position, outcome));
        });
        match state.pool.try_submit(job) {
            Ok(depth) => state.metrics.note_queue_depth(depth),
            Err(_) => {
                state.metrics.note_queue_rejection();
                let message = format!(
                    "compute queue is full ({} job(s) already waiting); retry shortly — \
                     cells admitted so far will be store hits",
                    state.pool.queue_depth(),
                );
                writeln!(writer, "{}", protocol::error_line(&message, true))?;
                return Ok(());
            }
        }
    }
    drop(results_tx);
    state.metrics.note_sweep();

    // Phase 3: stream in deterministic grid order, buffering computed
    // results that arrive early, and close with the digest footer.  The
    // stream is flushed only where the client would otherwise wait on bytes
    // already written: after `sweep_start` (the admission signal), before
    // each blocking wait for a computed cell, and after the footer (in
    // `handle_request`).
    writeln!(
        writer,
        "{}",
        protocol::sweep_start_line(&spec, cells.len(), store.fingerprint())
    )?;
    writer.flush()?;
    let mut streamed = String::new();
    let mut early: BTreeMap<usize, CellResult> = BTreeMap::new();
    for position in 0..cells.len() {
        let (source, result) = if let Some(result) = hits.remove(&position) {
            ("store", result)
        } else {
            loop {
                if let Some(result) = early.remove(&position) {
                    break ("computed", result);
                }
                writer.flush()?;
                match results_rx.recv() {
                    Ok((ready, Ok(result))) => {
                        stats.computed += 1;
                        early.insert(ready, result);
                    }
                    Ok((ready, Err(message))) => {
                        let message = format!(
                            "cell {} (grid position {ready}) failed: {message}",
                            cells[ready].key,
                        );
                        writeln!(writer, "{}", protocol::error_line(&message, false))?;
                        return Ok(());
                    }
                    Err(_) => {
                        // A worker died without reporting (job panicked).
                        let message = "a compute worker vanished before reporting its cell";
                        writeln!(writer, "{}", protocol::error_line(message, false))?;
                        return Ok(());
                    }
                }
            }
        };
        let line = protocol::cell_line(position, source, &result);
        writeln!(writer, "{line}")?;
        streamed.push_str(&line);
        streamed.push('\n');
        state.metrics.note_cell_streamed();
    }
    let digest = stable_digest64(streamed.as_bytes());
    writeln!(
        writer,
        "{}",
        protocol::summary_line(cells.len(), &stats, digest)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gdp_serve_test_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Binds port 0, serves on a background thread, and returns a connected
    /// client plus the server handle.
    fn start_server(store: &std::path::Path) -> (TcpStream, JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            addr: addr.to_string(),
            store_dir: store.to_path_buf(),
            workers: 2,
            queue_capacity: 64,
        };
        let server = std::thread::spawn(move || serve_on(listener, &config));
        let client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        (client, server)
    }

    fn send(client: &mut TcpStream, line: &str) {
        client.write_all(line.as_bytes()).unwrap();
        client.write_all(b"\n").unwrap();
        client.flush().unwrap();
    }

    fn read_line(reader: &mut impl BufRead) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Reads one full sweep response; returns (cell lines, summary line).
    fn read_sweep(reader: &mut impl BufRead) -> (Vec<String>, String) {
        let start = read_line(reader);
        assert!(start.contains("\"type\":\"sweep_start\""), "{start}");
        let mut cell_lines = Vec::new();
        loop {
            let line = read_line(reader);
            if line.contains("\"type\":\"summary\"") {
                return (cell_lines, line);
            }
            assert!(line.contains("\"type\":\"cell\""), "{line}");
            cell_lines.push(line);
        }
    }

    fn field_u64(line: &str, key: &str) -> u64 {
        let tagged = format!("\"{key}\":");
        let rest = &line[line.find(&tagged).unwrap() + tagged.len()..];
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }

    const TINY_SWEEP: &str = "{\"type\": \"sweep\", \"families\": \"ring,star\", \
         \"sizes\": \"4\", \"algorithms\": \"gdp1\", \"trials\": 2, \"steps\": 4000}";

    #[test]
    fn serves_misses_then_hits_with_identical_bytes_and_a_verifiable_digest() {
        let store = temp_store("cache");
        let (mut client, server) = start_server(&store);
        let mut responses = io::BufReader::new(client.try_clone().unwrap());

        send(&mut client, "{\"type\": \"ping\"}");
        assert_eq!(read_line(&mut responses), protocol::pong_line());

        // Cold pass: everything computes.
        send(&mut client, TINY_SWEEP);
        let (first_cells, first_summary) = read_sweep(&mut responses);
        assert_eq!(first_cells.len(), 2);
        assert_eq!(field_u64(&first_summary, "computed"), 2);
        assert_eq!(field_u64(&first_summary, "reused"), 0);
        assert!(first_cells[0].contains("\"source\":\"computed\""));

        // Warm pass: pure cache, byte-identical payloads, same digest.
        send(&mut client, TINY_SWEEP);
        let (second_cells, second_summary) = read_sweep(&mut responses);
        assert_eq!(field_u64(&second_summary, "computed"), 0);
        assert_eq!(field_u64(&second_summary, "reused"), 2);
        for (first, second) in first_cells.iter().zip(&second_cells) {
            assert_eq!(
                first.replace("\"source\":\"computed\"", "\"source\":\"store\""),
                *second,
                "served bytes must not depend on the source"
            );
        }
        // The footer digest is the FNV of the cell lines as received.
        let mut streamed = String::new();
        for line in &second_cells {
            streamed.push_str(line);
            streamed.push('\n');
        }
        let digest = format!("{:016x}", stable_digest64(streamed.as_bytes()));
        assert!(second_summary.contains(&digest), "{second_summary}");

        // Metrics counted both passes.
        send(&mut client, "{\"type\": \"metrics\"}");
        let metrics = read_line(&mut responses);
        assert!(metrics.contains("\"serve.store_hits\": 2"), "{metrics}");
        assert!(metrics.contains("\"serve.cells_computed\": 2"), "{metrics}");

        send(&mut client, "{\"type\": \"shutdown\"}");
        assert_eq!(read_line(&mut responses), protocol::bye_line());
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&store);
    }

    /// A `Write` that keeps the bytes and counts the flushes.
    #[derive(Default)]
    struct FlushCounter {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// Reads one sweep answer verbatim, `sweep_start` through `summary`.
    fn read_answer(reader: &mut impl BufRead) -> String {
        let mut answer = String::new();
        loop {
            let start = answer.len();
            assert!(reader.read_line(&mut answer).unwrap() > 0, "{answer}");
            if answer[start..].contains("\"type\":\"summary\"") {
                return answer;
            }
        }
    }

    #[test]
    fn a_sweep_flushes_only_before_the_server_waits() {
        let store = temp_store("flushes");
        let Ok(Request::Sweep(request)) = protocol::parse_request(TINY_SWEEP) else {
            panic!("TINY_SWEEP is a sweep request");
        };
        let record = CellStore::open(&store, &request.spec, request.exact_check)
            .unwrap()
            .record_path(&request.spec.expand()[1].key);

        // The reference bytes, as a client reads them off the socket: an
        // all-hit answer, then one whose second cell was recomputed.
        let (mut client, server) = start_server(&store);
        let mut responses = io::BufReader::new(client.try_clone().unwrap());
        send(&mut client, TINY_SWEEP);
        read_answer(&mut responses);
        send(&mut client, TINY_SWEEP);
        let all_hits = read_answer(&mut responses);
        std::fs::remove_file(&record).unwrap();
        send(&mut client, TINY_SWEEP);
        let one_miss = read_answer(&mut responses);
        send(&mut client, "{\"type\": \"shutdown\"}");
        assert_eq!(read_line(&mut responses), protocol::bye_line());
        server.join().unwrap().unwrap();

        let config = ServeConfig {
            addr: String::new(),
            store_dir: store.clone(),
            workers: 2,
            queue_capacity: 64,
        };
        let state = Arc::new(ServerState::new(&config, config.workers).unwrap());
        let sweep = || {
            let mut out = FlushCounter::default();
            handle_sweep(&request, &mut out, &state).unwrap();
            (String::from_utf8(out.bytes).unwrap(), out.flushes)
        };
        // All hits: one flush, after `sweep_start`; `handle_request`
        // flushes the footer.
        let (bytes, flushes) = sweep();
        assert_eq!(flushes, 1, "all hits");
        assert_eq!(bytes, all_hits);
        // One miss: one more, right before the wait for its result.
        std::fs::remove_file(&record).unwrap();
        let (bytes, flushes) = sweep();
        assert_eq!(flushes, 2, "one miss");
        assert_eq!(bytes, one_miss);
        state.pool.shutdown();
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn bad_requests_get_nonretryable_errors_and_keep_the_connection() {
        let store = temp_store("errors");
        let (mut client, server) = start_server(&store);
        let mut responses = io::BufReader::new(client.try_clone().unwrap());

        send(&mut client, "not json at all");
        let error = read_line(&mut responses);
        assert!(error.contains("\"type\":\"error\""), "{error}");
        assert!(error.contains("\"retryable\":false"), "{error}");

        send(
            &mut client,
            "{\"type\": \"sweep\", \"seed_policy\": \"psychic\"}",
        );
        let error = read_line(&mut responses);
        assert!(error.contains("\"type\":\"error\""), "{error}");
        assert!(error.contains("invalid policy"), "{error}");

        // The connection survived both errors.
        send(&mut client, "{\"type\": \"ping\"}");
        assert_eq!(read_line(&mut responses), protocol::pong_line());

        send(&mut client, "{\"type\": \"shutdown\"}");
        assert_eq!(read_line(&mut responses), protocol::bye_line());
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&store);
    }
}
