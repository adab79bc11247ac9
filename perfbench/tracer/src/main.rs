//! Traced in-process replicas of the benchmark workloads.
//!
//! Each subcommand calls the crates' public functions the way the `gdp`
//! binary does, records one span (name, label, parent, start, end) around
//! every call into a layer, keeps the spans in memory and writes them as
//! JSONL when the work is done.  The last stdout line is one JSON object of
//! facts (wall time, counts) that `perfbench/run.py` folds into the
//! per-layer metrics.  Nothing here changes the crates: spans sit only at
//! the boundaries this program can see from outside.
//!
//! ```text
//! tracer check        --size N --threads T --spans F --render F
//! tracer build        --size N --threads T
//! tracer sweep        --seed S --threads T --trials K --spans F [--json F --csv F]
//! tracer sim          --steps N
//! tracer serve-replay --store DIR --requests F --spans F --digests F
//! tracer stress       --meals M --seed S --spans F
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::estimate_liveness;
use gdp_analysis::TrialConfig;
use gdp_mcheck::{build_mdp, solve, BuildOptions, Certificate, CheckTarget, SolveOptions};
use gdp_scenarios::{
    compute_cell, run_stress, stable_digest64, CellResult, CellStore, CheckReport, CheckSpec,
    ScenarioSpec, SeedPolicy, StoreLookup, StressLoad, StressSpec, SweepOptions, SweepReport,
    TopologyFamily,
};
use gdp_serve::protocol::{cell_line, parse_request, Request};
use gdp_sim::{Engine, SimConfig, StopCondition, UniformRandomAdversary};

/// Counts heap allocations while [`COUNTING`] is set (the `sim` probe's
/// allocations-per-step figure); otherwise a plain pass-through.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System` for `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Span {
    name: &'static str,
    label: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// An in-memory span recorder for the calling thread.  Library calls that
/// fan out over threads sit inside one span, so a single recorder is enough.
/// A disabled recorder runs the same work and records nothing: the untraced
/// side of the tracing-overhead ratio.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `--spans <path>`; the path `-` disables recording.
    fn new(args: &Args) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: args.text("spans") != "-",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `work` inside a span named `name`; spans opened by `work` become
    /// its children.
    fn span<T>(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return work(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.into(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos();
        out
    }

    fn wall_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn write(&self, path: &str) {
        if !self.enabled {
            return;
        }
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"label\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.label, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }
}

fn fail(message: &str) -> ! {
    eprintln!("tracer: {message}");
    std::process::exit(2);
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut map = HashMap::new();
        for pair in argv.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    map.insert(key[2..].to_string(), value.clone());
                }
                _ => fail(&format!("expected --key value pairs, got {pair:?}")),
            }
        }
        Args(map)
    }

    fn text(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.text(key)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key} is not a number")))
    }
}

fn gdp1() -> AlgorithmKind {
    "gdp1".parse().expect("gdp1 is a catalog algorithm")
}

fn check_build_options(threads: usize) -> BuildOptions {
    // The options `gdp check --family ring --algorithm gdp1` resolves to:
    // the default 6M-state budget and the symmetry quotient GDP1 admits.
    BuildOptions::default()
        .with_max_states(CheckSpec::new(TopologyFamily::Ring, 0, gdp1()).max_states)
        .with_symmetry(gdp1().is_relabelling_invariant())
        .with_threads(threads)
}

/// The `gdp check --family ring --size N --algorithm gdp1` pipeline, one
/// span per stage; the rendered report must equal the binary's stdout.
fn cmd_check(args: &Args) -> String {
    let size: usize = args.num("size");
    let threads: usize = args.num("threads");
    let mut tracer = Tracer::new(args);
    let topology = tracer.span("topology.build", "", |_| {
        TopologyFamily::Ring
            .build(size, 0)
            .unwrap_or_else(|e| fail(&format!("ring n={size}: {e}")))
    });
    let program = gdp1().program();
    let options = check_build_options(threads);
    let mdp = tracer.span("mcheck.build", "", |_| {
        build_mdp(&topology, &program, CheckTarget::Progress, &options)
    });
    let solution = tracer.span("mcheck.solve", "", |_| {
        solve(&mdp, &SolveOptions::default())
    });
    let report = tracer.span("mcheck.certificate", "", |_| {
        let certificate = Certificate::new(
            &topology,
            gdp1().name(),
            CheckTarget::Progress,
            &options.sim,
            &mdp,
            &solution,
            None,
        );
        CheckReport {
            cell: CheckSpec::new(TopologyFamily::Ring, size, gdp1()).cell_key(),
            certificates: vec![certificate],
            counterexample: None,
            counterexample_dot: None,
        }
        .render()
    });
    let (states, transitions) = (mdp.num_states, mdp.num_transitions());
    tracer.span("mcheck.free", "", |_| drop(mdp));
    let wall_s = tracer.wall_s();
    tracer.write(args.text("spans"));
    let render = args.text("render");
    std::fs::write(render, report).unwrap_or_else(|e| fail(&format!("writing {render}: {e}")));
    format!("{{\"wall_s\":{wall_s},\"states\":{states},\"transitions\":{transitions}}}")
}

/// `build_mdp` alone, for the 1-thread build time and its peak RSS (read by
/// the parent process from this process's resource usage).
fn cmd_build(args: &Args) -> String {
    let size: usize = args.num("size");
    let topology = TopologyFamily::Ring
        .build(size, 0)
        .unwrap_or_else(|e| fail(&format!("ring n={size}: {e}")));
    let options = check_build_options(args.num("threads"));
    let started = Instant::now();
    let mdp = build_mdp(
        &topology,
        &gdp1().program(),
        CheckTarget::Progress,
        &options,
    );
    let build_s = started.elapsed().as_secs_f64();
    format!("{{\"build_s\":{build_s},\"states\":{}}}", mdp.num_states)
}

/// The default `gdp sweep` grid, computed cell by cell as
/// `gdp_scenarios::compute_cell` does, with the topology build and the
/// Monte-Carlo batch in spans of their own.  The written JSON/CSV must equal
/// the binary's artifacts byte for byte.
fn cmd_sweep(args: &Args) -> String {
    let spec = ScenarioSpec::new("sweep")
        .with_trials(args.num("trials"))
        .with_seed_policy(SeedPolicy::PerCell(args.num("seed")))
        .with_threads(args.num("threads"));
    let mut tracer = Tracer::new(args);
    let mut cells = Vec::new();
    for cell in spec.expand() {
        let result = tracer.span("runner.cell", cell.key.clone(), |tracer| {
            let topology = tracer.span("topology.build", cell.key.clone(), |_| {
                cell.family
                    .build(cell.size, cell.seed)
                    .unwrap_or_else(|e| fail(&format!("cell {}: {e}", cell.key)))
            });
            let program = cell.algorithm.program();
            let config = TrialConfig {
                trials: spec.trials,
                max_steps: spec.max_steps,
                base_seed: cell.seed,
                threads: spec.threads,
                sim: SimConfig::default(),
            };
            let adversary = spec.adversary;
            let estimate = tracer.span("analysis.cell", cell.key.clone(), |_| {
                estimate_liveness(
                    &topology,
                    &program,
                    |trial| adversary.build(cell.seed, trial),
                    &config,
                )
            });
            let (progress, lockout) = (&estimate.progress, &estimate.lockout);
            CellResult {
                cell: cell.key.clone(),
                family: cell.family.name(),
                size: cell.size,
                philosophers: topology.num_philosophers(),
                forks: topology.num_forks(),
                algorithm: cell.algorithm.name().to_string(),
                adversary: spec.adversary.name(),
                trials: spec.trials,
                max_steps: spec.max_steps,
                seed: cell.seed,
                deadlock_rate: 1.0 - progress.progress_fraction,
                lockout_rate: 1.0 - lockout.lockout_free_fraction,
                mean_hunger: progress.first_meal_mean,
                first_meal_p50: progress.first_meal_p50,
                first_meal_p90: progress.first_meal_p90,
                first_meal_p99: progress.first_meal_p99,
                min_meals_mean: lockout.min_meals_mean,
                fairness_mean: lockout.fairness_mean,
                steps_per_sec: None,
                stuck_trials: estimate.violations.stuck_trials,
                unsafe_trials: estimate.violations.unsafe_trials,
                exact: None,
            }
        });
        cells.push(result);
    }
    let report = SweepReport::new(&spec, cells);
    let (json, csv) = tracer.span("report.encode", "", |_| (report.to_json(), report.to_csv()));
    let wall_s = tracer.wall_s();
    tracer.write(args.text("spans"));
    for (key, body) in [("json", &json), ("csv", &csv)] {
        if let Some(path) = args.0.get(key) {
            std::fs::write(path, body).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        }
    }
    format!("{{\"wall_s\":{wall_s}}}")
}

/// `Engine::run` on one thread: ring-50 GDP1 under the uniform-random
/// scheduler, with the allocation counter on.
fn cmd_sim(args: &Args) -> String {
    let steps: u64 = args.num("steps");
    let topology = TopologyFamily::Ring
        .build(50, 0)
        .unwrap_or_else(|e| fail(&format!("ring n=50: {e}")));
    let mut engine = Engine::new(
        topology,
        gdp1().program(),
        SimConfig::default().with_seed(7),
    );
    let mut adversary = UniformRandomAdversary::new(7);
    COUNTING.store(true, Ordering::Relaxed);
    let started = Instant::now();
    let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
    let run_s = started.elapsed().as_secs_f64();
    COUNTING.store(false, Ordering::Relaxed);
    let outcome = std::hint::black_box(outcome);
    format!(
        "{{\"run_s\":{run_s},\"steps\":{},\"allocations\":{}}}",
        outcome.steps,
        ALLOCATIONS.load(Ordering::Relaxed)
    )
}

/// Replays serve requests in-process against a store, in the server's
/// order: parse, open, one lookup per cell, compute and save each miss,
/// then render every cell line and digest them as the summary footer does.
fn cmd_serve_replay(args: &Args) -> String {
    let store_dir = args.text("store");
    let records = std::fs::read_dir(format!("{store_dir}/cells"))
        .map(|dir| dir.count())
        .unwrap_or(0);
    let requests = std::fs::read_to_string(args.text("requests"))
        .unwrap_or_else(|e| fail(&format!("reading requests: {e}")));
    let mut tracer = Tracer::new(args);
    let mut digests = String::new();
    for (index, line) in requests.lines().enumerate() {
        let label = format!("r{index}");
        let digest = tracer.span("serve.request", label.clone(), |tracer| {
            let request = tracer.span("serve.parse", label.clone(), |_| parse_request(line));
            let Ok(Request::Sweep(request)) = request else {
                fail(&format!("request {index} is not a sweep: {line}"));
            };
            let spec = &request.spec;
            let store = tracer.span("store.open", label.clone(), |_| {
                CellStore::open(store_dir, spec, request.exact_check)
                    .unwrap_or_else(|e| fail(&format!("opening {store_dir}: {e}")))
            });
            let mut streamed = String::new();
            for (position, cell) in spec.expand().iter().enumerate() {
                let lookup = tracer.span("store.lookup", cell.key.clone(), |_| {
                    store.lookup(&cell.key)
                });
                let (source, result) = match lookup {
                    StoreLookup::Hit(result) => ("store", *result),
                    StoreLookup::Absent => {
                        let result = tracer.span("runner.compute_cell", cell.key.clone(), |_| {
                            compute_cell(spec, cell, &SweepOptions::quiet())
                                .unwrap_or_else(|e| fail(&format!("cell {}: {e}", cell.key)))
                        });
                        tracer.span("store.save", cell.key.clone(), |_| {
                            store
                                .save(&result)
                                .unwrap_or_else(|e| fail(&format!("saving {}: {e}", cell.key)))
                        });
                        ("computed", result)
                    }
                    _ => fail(&format!(
                        "cell {}: record quarantined or unsupported",
                        cell.key
                    )),
                };
                let line = tracer.span("report.cell_json", cell.key.clone(), |_| {
                    cell_line(position, source, &result)
                });
                streamed.push_str(&line);
                streamed.push('\n');
            }
            stable_digest64(streamed.as_bytes())
        });
        let _ = writeln!(digests, "{digest:016x}");
    }
    let wall_s = tracer.wall_s();
    tracer.write(args.text("spans"));
    let path = args.text("digests");
    std::fs::write(path, digests).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    format!("{{\"wall_s\":{wall_s},\"records\":{records}}}")
}

/// `gdp stress --family ring --n 3 --threads 2 --timing` in-process.
fn cmd_stress(args: &Args) -> String {
    let meals: u64 = args.num("meals");
    let spec = StressSpec {
        threads: 2,
        load: StressLoad::MealsPerSeat(meals),
        seed: args.num("seed"),
        ..StressSpec::new(
            TopologyFamily::Ring,
            3,
            "gdp2".parse().expect("gdp2 is a catalog algorithm"),
        )
    };
    let mut tracer = Tracer::new(args);
    let report = tracer.span("runtime.run_stress", spec.cell(), |_| {
        run_stress(&spec, true).unwrap_or_else(|e| fail(&e))
    });
    if !report.succeeded() {
        fail("stress run left a seat unfed or tripped the watchdog");
    }
    let wall_s = tracer.wall_s();
    tracer.write(args.text("spans"));
    format!("{{\"wall_s\":{wall_s},\"meals\":{}}}", report.total_meals)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        fail("usage: tracer <check|build|sweep|sim|serve-replay|stress> --key value ...");
    };
    let args = Args::parse(rest);
    let facts = match command.as_str() {
        "check" => cmd_check(&args),
        "build" => cmd_build(&args),
        "sweep" => cmd_sweep(&args),
        "sim" => cmd_sim(&args),
        "serve-replay" => cmd_serve_replay(&args),
        "stress" => cmd_stress(&args),
        other => fail(&format!("unknown command {other:?}")),
    };
    println!("{facts}");
}
