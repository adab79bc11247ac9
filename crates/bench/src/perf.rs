//! The engine-hot-loop performance harness and the machine-readable
//! `BENCH_results.json` emitter.
//!
//! Every figure here is wall-clock based and meant as a *trajectory marker*:
//! future PRs re-run `report --perf-only` and compare against the committed
//! `BENCH_results.json`.  These families are measured:
//!
//! * **steps/sec** of the adversary-driven hot loop (`step_with`) for GDP1
//!   on classic rings of increasing size;
//! * **allocations/step** over the same loop, counted by
//!   [`crate::alloc_counter`] when the binary installs the counting
//!   allocator (the zero-allocation-views claim, empirically);
//! * **trials/sec** of the Monte-Carlo layer, serial vs parallel, plus the
//!   bitwise-equality check between the two estimates;
//! * **cells/sec** of the scenario-sweep layer (`gdp-scenarios`) over a
//!   mixed-family grid, again with the serial-vs-parallel identity check;
//! * **cold vs warm resume** of the crash-safe cell store over the same
//!   grid: wall-clock of computing + persisting every cell against a
//!   full-cache `--resume`, with the store hit rate and the bitwise
//!   identity of the two reports;
//! * **states/sec** of the exact model checker (`gdp-mcheck`) building the
//!   GDP1 4-ring MDP, plus the snapshot-vs-replay exploration comparison
//!   on the same ring.  Two ratios are recorded: the exact **engine-step
//!   work ratio** (how many× more engine steps the replay scheme
//!   re-executes — deterministic, ≥10× on the 4-ring space,
//!   test-enforced) and the measured **wall-clock speedup** (smaller,
//!   since both explorers share the per-state fingerprinting/safety
//!   analysis; grows with fragment depth);
//! * **cold vs warm certificate cache** of `gdp check --store`: an exact
//!   GDP1 check of the classic 5-ring computed and persisted as a
//!   certificate record, then re-answered from the store, with the
//!   bitwise identity of the two rendered reports;
//! * **tracing overhead** of the gdp-observe event layer: the hot loop
//!   with the sink detached vs attached to a counting sink.  The
//!   detached figure must stay within the `engine_hot_loop` budget — the
//!   sink-off path is a single untaken branch per step.
//!
//! Wall-clock caveat: every figure is one shot with no spread, and the
//! parallel figures scale only with the cores the host gives the run.
//! Treat ratios, not absolutes, as the trajectory, and measure claimed
//! speed-ups with the benchmark of record (`python3 perfbench/run.py`) —
//! see `docs/PERFORMANCE.md`.

use crate::alloc_counter;
use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::{estimate_lockout_freedom, LockoutEstimate};
use gdp_analysis::{explore, explore_via_replay, TrialConfig};
use gdp_mcheck::{build_mdp, solve, BuildOptions, CheckTarget, SolveOptions};
use gdp_scenarios::{run_sweep, ScenarioSpec, SweepOptions};
use gdp_sim::{Engine, SimConfig, UniformRandomAdversary};
use gdp_topology::builders::classic_ring;
use std::fmt::Write as _;
use std::time::Instant;

/// Hot-loop measurement for one ring size.
#[derive(Clone, Copy, Debug)]
pub struct HotLoopSample {
    /// Number of philosophers (= forks) in the ring.
    pub n: usize,
    /// Steps executed in the timed region.
    pub steps: u64,
    /// Steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Allocation events per step (`None` when the binary did not install
    /// the counting allocator).
    pub allocations_per_step: Option<f64>,
}

/// Serial-vs-parallel Monte-Carlo measurement.
#[derive(Clone, Debug)]
pub struct MonteCarloSample {
    /// Ring size used.
    pub n: usize,
    /// Trials per batch.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// Worker threads used by the parallel batch.
    pub threads: usize,
    /// Trials per second, serial runner.
    pub serial_trials_per_sec: f64,
    /// Trials per second, parallel runner.
    pub parallel_trials_per_sec: f64,
    /// `parallel / serial` throughput ratio.
    pub speedup: f64,
    /// Whether the two estimates were bitwise-identical (must be `true`).
    pub identical: bool,
}

/// Scenario-sweep throughput measurement.
#[derive(Clone, Debug)]
pub struct ScenarioSweepSample {
    /// Cells in the measured grid.
    pub cells: usize,
    /// Trials per cell.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// Grid cells completed per second (parallel run).
    pub cells_per_sec: f64,
    /// `serial / parallel` wall-clock ratio for the whole sweep.
    pub speedup: f64,
    /// Whether the serial and parallel sweeps were bitwise-identical
    /// (must be `true`).
    pub identical: bool,
}

/// Crash-safe store measurement: a cold store-backed sweep vs a warm
/// resume of the same grid from the populated store.
#[derive(Clone, Debug)]
pub struct SweepResumeSample {
    /// Cells in the measured grid.
    pub cells: usize,
    /// Trials per cell.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// Wall-clock seconds of the cold run (every cell computed and
    /// persisted).
    pub cold_secs: f64,
    /// Wall-clock seconds of the warm resume (every cell reused from the
    /// store).
    pub warm_secs: f64,
    /// `warm / cold` wall-clock ratio — how cheap a full-cache resume is.
    pub warm_vs_cold_ratio: f64,
    /// Fraction of the warm run's cells served from the store (must be 1).
    pub store_hit_rate: f64,
    /// Whether the cold and warm reports were bitwise-identical (must be
    /// `true`).
    pub identical: bool,
}

/// Certificate-cache measurement: a cold exact check (computed and
/// persisted as a certificate record) vs a warm `--resume` of the same
/// check answered entirely from the store.
#[derive(Clone, Debug)]
pub struct CheckCacheSample {
    /// The cached cell's store key (family/size/algorithm@seed).
    pub cell: String,
    /// Wall-clock seconds of the cold check (state space explored,
    /// certificates computed and persisted).
    pub cold_secs: f64,
    /// Wall-clock seconds of the warm check (certificates decoded from the
    /// store, nothing explored).
    pub warm_secs: f64,
    /// `warm / cold` wall-clock ratio — how cheap a cache hit is.
    pub warm_vs_cold_ratio: f64,
    /// Fraction of the warm run's certificates served from the store
    /// (must be 1).
    pub hit_rate: f64,
    /// Whether the cold and warm rendered reports were bitwise-identical
    /// (must be `true`).
    pub bitwise_identical: bool,
}

/// Exact-model-checking throughput measurement.
#[derive(Clone, Debug)]
pub struct McheckSample {
    /// Ring size of the checked system.
    pub n: usize,
    /// Canonical states of the GDP1 progress MDP.
    pub states: usize,
    /// Stored transitions.
    pub transitions: usize,
    /// Canonical states discovered per second (model construction).
    pub states_per_sec: f64,
    /// Whether the check certified worst-case progress probability 1
    /// (must be `true`).
    pub certified: bool,
    /// Wall-clock seconds of the snapshot/restore seeded explorer on the
    /// GDP1 ring state space.
    pub snapshot_explore_secs: f64,
    /// Wall-clock seconds of the replay-based reference explorer on the
    /// same space.
    pub replay_explore_secs: f64,
    /// `replay / snapshot` wall-clock ratio.
    pub wall_clock_speedup: f64,
    /// Exact `replay / snapshot` engine-step work ratio (deterministic;
    /// the PR-3 contract: ≥ 10 on the 4-ring space).
    pub engine_step_work_ratio: f64,
    /// Whether the two explorers produced identical reports (must be
    /// `true`).
    pub identical_reports: bool,
}

/// Real-thread stress measurement: the algorithm-generic runtime driving
/// one contending OS thread per philosopher, plus the padded-vs-packed
/// counter-layout comparison guarding the false-sharing fix.
#[derive(Clone, Debug)]
pub struct RuntimeStressSample {
    /// Ring size (philosophers = forks = threads).
    pub n: usize,
    /// Algorithm interpreted by the seats.
    pub algorithm: &'static str,
    /// Meal budget per seat.
    pub meals_per_seat: u64,
    /// Total meals completed.
    pub total_meals: u64,
    /// Meals per wall-clock second across the table.
    pub meals_per_sec: f64,
    /// Jain fairness index of the meal distribution (1.0 on a completed
    /// meal-budget run).
    pub jain_fairness: f64,
    /// Whether every philosopher fed (must be `true`).
    pub everyone_ate: bool,
    /// Counter bumps per second with the runtime's cache-line-padded
    /// per-philosopher layout ([`gdp_runtime::SeatCounters`]).
    pub padded_bumps_per_sec: f64,
    /// Counter bumps per second with adjacent unpadded `AtomicU64`s (the
    /// false-sharing layout the fix replaced).
    pub packed_bumps_per_sec: f64,
    /// `padded / packed` throughput ratio.  ≈1 on one core; grows with the
    /// cores that contend, as false sharing starts to bite.
    pub padding_speedup: f64,
}

/// Tracing-overhead measurement: the adversary-driven hot loop with the
/// event sink detached vs attached to a [`gdp_observe::CountingSink`].
/// The detached figure is the price everyone pays (a `None` branch per
/// step — the ISSUE budget is ≲2% vs `engine_hot_loop`); the attached
/// figure is the floor cost of tracing itself.
#[derive(Clone, Copy, Debug)]
pub struct TraceOverheadSample {
    /// Ring size.
    pub n: usize,
    /// Steps executed in each timed region.
    pub steps: u64,
    /// Steps per second with no sink installed.
    pub off_steps_per_sec: f64,
    /// Steps per second with the counting sink attached.
    pub on_steps_per_sec: f64,
    /// `off / on` throughput ratio (≥ 1; how much tracing costs when on).
    pub tracing_cost_ratio: f64,
    /// Events the sink counted during the traced region (> steps: one
    /// schedule event per step plus the protocol events).
    pub events: u64,
}

/// Everything `BENCH_results.json` records.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Hot-loop samples, one per ring size.
    pub hot_loop: Vec<HotLoopSample>,
    /// The same loop with views rebuilt from scratch each step (the
    /// pre-refactor behaviour), for comparison.
    pub hot_loop_rebuild: Vec<HotLoopSample>,
    /// The Monte-Carlo serial-vs-parallel sample.
    pub montecarlo: MonteCarloSample,
    /// The scenario-sweep serial-vs-parallel sample.
    pub scenario_sweep: ScenarioSweepSample,
    /// The crash-safe store cold-vs-warm-resume sample.
    pub sweep_resume: SweepResumeSample,
    /// The exact-checker state-space sample.
    pub mcheck_state_space: McheckSample,
    /// The real-thread runtime stress sample.
    pub runtime_stress: RuntimeStressSample,
    /// The tracing-overhead sample (sink detached vs attached).
    pub trace_overhead: TraceOverheadSample,
    /// The certificate-cache cold-vs-warm check sample.
    pub check_cache: CheckCacheSample,
}

/// Runs `steps` adversary-driven steps of GDP1 on a fresh classic `n`-ring
/// and returns the total meals (the timed kernel of the hot-loop bench).
#[must_use]
pub fn hot_loop_kernel(n: usize, steps: u64, seed: u64) -> u64 {
    let mut engine = Engine::new(
        classic_ring(n).expect("bench ring size is valid"),
        AlgorithmKind::Gdp1.program(),
        SimConfig::default().with_seed(seed),
    );
    let mut adversary = UniformRandomAdversary::new(seed ^ 0xBEEF);
    for _ in 0..steps {
        engine.step_with(&mut adversary);
    }
    engine.total_meals()
}

/// Shared skeleton of the hot-loop measurements: construct engine and
/// adversary *outside* the timed-and-counted region, warm up for a quarter
/// of the step budget (so per-meal bookkeeping buffers reach steady-state
/// capacity), then time and allocation-count `steps` iterations of
/// `step_body`.
fn measure_stepping<B>(n: usize, steps: u64, mut step_body: B) -> HotLoopSample
where
    B: FnMut(&mut Engine<gdp_algorithms::AnyProgram>, &mut UniformRandomAdversary),
{
    let mut engine = Engine::new(
        classic_ring(n).expect("bench ring size is valid"),
        AlgorithmKind::Gdp1.program(),
        SimConfig::default().with_seed(42),
    );
    let mut adversary = UniformRandomAdversary::new(7);
    for _ in 0..steps / 4 {
        engine.step_with(&mut adversary);
    }
    let tracking = alloc_counter::tracking_active();
    let started = Instant::now();
    let (events, ()) = alloc_counter::count_allocations(|| {
        for _ in 0..steps {
            step_body(&mut engine, &mut adversary);
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    HotLoopSample {
        n,
        steps,
        steps_per_sec: steps as f64 / elapsed,
        allocations_per_step: tracking.then(|| events as f64 / steps as f64),
    }
}

/// Measures steps/sec and allocations/step of the steady-state stepping
/// loop for one ring size.
#[must_use]
pub fn measure_hot_loop(n: usize, steps: u64) -> HotLoopSample {
    measure_stepping(n, steps, |engine, adversary| {
        engine.step_with(adversary);
    })
}

/// Measures the same loop with the views additionally rebuilt from scratch
/// on every step — the work the engine performed *before* the incremental
/// view buffer existed.  Kept as a same-binary comparison point for the
/// steps/sec and allocations/step figures.
#[must_use]
pub fn measure_hot_loop_rebuild_every_step(n: usize, steps: u64) -> HotLoopSample {
    measure_stepping(n, steps, |engine, adversary| {
        let views = engine.rebuilt_views();
        std::hint::black_box(&views);
        engine.step_with(adversary);
    })
}

fn timed_lockout(n: usize, config: &TrialConfig) -> (f64, LockoutEstimate) {
    let topology = classic_ring(n).expect("bench ring size is valid");
    let program = AlgorithmKind::Gdp1.program();
    let started = Instant::now();
    // Lockout estimation runs every trial for the full step budget (the stop
    // condition is `MaxSteps`), so each trial is a fixed amount of work and
    // trials/sec is a meaningful throughput figure.
    let estimate =
        estimate_lockout_freedom(&topology, &program, UniformRandomAdversary::new, config);
    (started.elapsed().as_secs_f64(), estimate)
}

/// Measures serial vs parallel Monte-Carlo throughput on the classic
/// `n`-ring and checks the two estimates are identical.
#[must_use]
pub fn measure_montecarlo(n: usize, trials: u64, max_steps: u64) -> MonteCarloSample {
    let serial_config = TrialConfig::new(trials, max_steps)
        .with_base_seed(3)
        .with_threads(1);
    let parallel_config = serial_config.clone().with_threads(0);
    let threads = parallel_config.effective_threads();
    let (serial_secs, serial_estimate) = timed_lockout(n, &serial_config);
    let (parallel_secs, parallel_estimate) = timed_lockout(n, &parallel_config);
    MonteCarloSample {
        n,
        trials,
        max_steps,
        threads,
        serial_trials_per_sec: trials as f64 / serial_secs,
        parallel_trials_per_sec: trials as f64 / parallel_secs,
        speedup: serial_secs / parallel_secs,
        identical: serial_estimate == parallel_estimate,
    }
}

/// The families measured by [`measure_scenario_sweep`] (also recorded in
/// the JSON so the metadata cannot drift from the measurement).
const SWEEP_PERF_FAMILIES: &str = "ring,torus,complete,random-regular:3";

/// The grid measured by [`measure_scenario_sweep`]: four families at two
/// sizes under GDP1, the shape of the default `gdp sweep` cut down to a
/// perf-sized budget.
fn sweep_perf_spec() -> ScenarioSpec {
    ScenarioSpec::new("perf")
        .with_families_str(SWEEP_PERF_FAMILIES)
        .expect("perf families parse")
        .with_sizes([8, 16])
        .with_algorithms_str("gdp1")
        .expect("perf algorithms parse")
        .with_trials(16)
        .with_max_steps(20_000)
}

/// Measures serial vs parallel scenario-sweep throughput and checks the two
/// reports are bitwise-identical (the sweep-level determinism contract).
#[must_use]
pub fn measure_scenario_sweep() -> ScenarioSweepSample {
    let spec = sweep_perf_spec();
    let quiet = SweepOptions::quiet();
    let started = Instant::now();
    let serial = run_sweep(&spec.clone().with_threads(1), &quiet).expect("perf sweep (serial)");
    let serial_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let parallel = run_sweep(&spec.with_threads(0), &quiet).expect("perf sweep (parallel)");
    let parallel_secs = started.elapsed().as_secs_f64();
    ScenarioSweepSample {
        cells: parallel.cells.len(),
        trials: serial.trials,
        max_steps: serial.max_steps,
        cells_per_sec: parallel.cells.len() as f64 / parallel_secs,
        speedup: serial_secs / parallel_secs,
        identical: serial == parallel,
    }
}

/// Measures the crash-safe cell store on the perf grid: a cold
/// store-backed sweep (compute + persist every cell) against a warm resume
/// (every cell reused), checking the two reports are bitwise-identical.
/// The warm figure is the floor cost of `gdp sweep --store --resume` after
/// an interruption at the finish line.
///
/// # Panics
///
/// Panics when the store directory cannot be created or a sweep fails —
/// both are defects of the bench environment.
#[must_use]
pub fn measure_sweep_resume() -> SweepResumeSample {
    use gdp_scenarios::{run_sweep_durable, CellStore};
    let spec = sweep_perf_spec();
    let quiet = SweepOptions::quiet();
    let dir = std::env::temp_dir().join(format!("gdp_bench_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::open(&dir, &spec, None).expect("bench store opens");

    let started = Instant::now();
    let (cold, cold_stats) = run_sweep_durable(&spec, &quiet, Some(&store), true, None, |_| {})
        .expect("perf sweep (cold store)");
    let cold_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (warm, warm_stats) = run_sweep_durable(&spec, &quiet, Some(&store), true, None, |_| {})
        .expect("perf sweep (warm resume)");
    let warm_secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold_stats.computed as usize, cold.cells.len());
    SweepResumeSample {
        cells: warm.cells.len(),
        trials: warm.trials,
        max_steps: warm.max_steps,
        cold_secs,
        warm_secs,
        warm_vs_cold_ratio: warm_secs / cold_secs,
        store_hit_rate: warm_stats.reused as f64 / warm.cells.len() as f64,
        identical: cold == warm,
    }
}

/// Measures the certificate cache behind `gdp check --store`: a cold
/// exact check of GDP1 on the classic 5-ring against a warm `--resume`
/// answered entirely from the persisted certificate record, with the
/// bitwise identity of the two rendered reports.
///
/// The warm figure is the floor cost of re-asking a question the store
/// has already answered — decode-and-verify instead of state-space
/// exploration.
///
/// # Panics
///
/// Panics when the store directory cannot be created or a check fails —
/// both are defects of the bench environment.
#[must_use]
pub fn measure_check_cache() -> CheckCacheSample {
    use gdp_scenarios::{run_check_cached, CellStore, CheckSpec, TopologyFamily};
    let spec = CheckSpec::new(TopologyFamily::Ring, 5, AlgorithmKind::Gdp1);
    let dir = std::env::temp_dir().join(format!("gdp_bench_checkcache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::open_bare(&dir).expect("bench cert store opens");

    let started = Instant::now();
    let (cold, cold_stats) =
        run_check_cached(&spec, &store, true).expect("perf check (cold cache)");
    let cold_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (warm, warm_stats) =
        run_check_cached(&spec, &store, true).expect("perf check (warm cache)");
    let warm_secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        cold_stats.computed, 1,
        "cold check must compute its certificate"
    );
    CheckCacheSample {
        cell: spec.cert_key(),
        cold_secs,
        warm_secs,
        warm_vs_cold_ratio: warm_secs / cold_secs,
        hit_rate: warm_stats.reused as f64,
        bitwise_identical: cold.render() == warm.render(),
    }
}

/// Budget for the snapshot-vs-replay exploration comparison: the full
/// per-seed GDP1 state space of the 4-ring fits comfortably.
const EXPLORE_BUDGET: (usize, usize) = (200_000, 400);

/// Measures the exact checker: GDP1 progress MDP construction throughput
/// on the classic `n`-ring, and the snapshot-vs-replay seeded-exploration
/// comparison on the same ring's GDP1 space.
#[must_use]
pub fn measure_mcheck(n: usize) -> McheckSample {
    let ring = classic_ring(n).expect("bench ring size is valid");
    let program = AlgorithmKind::Gdp1.program();
    let started = Instant::now();
    let mdp = build_mdp(
        &ring,
        &program,
        CheckTarget::Progress,
        &BuildOptions::default(),
    );
    let build_secs = started.elapsed().as_secs_f64();
    let solution = solve(&mdp, &SolveOptions::default());

    let (max_states, max_depth) = EXPLORE_BUDGET;
    let started = Instant::now();
    let (snapshot_report, work) =
        gdp_mcheck::explore_realization_with_work(&ring, &program, 0, max_states, max_depth);
    let snapshot_explore_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let replay_report = explore_via_replay(&ring, &program, 0, max_states, max_depth);
    let replay_explore_secs = started.elapsed().as_secs_f64();
    // Shape sanity: the library delegate must agree with the direct call.
    debug_assert_eq!(
        snapshot_report,
        explore(&ring, &program, 0, max_states, max_depth)
    );

    McheckSample {
        n,
        states: mdp.num_states,
        transitions: mdp.num_transitions(),
        states_per_sec: mdp.num_states as f64 / build_secs,
        certified: solution.holds_with_probability_one(),
        snapshot_explore_secs,
        replay_explore_secs,
        wall_clock_speedup: replay_explore_secs / snapshot_explore_secs,
        engine_step_work_ratio: work.step_ratio(),
        identical_reports: snapshot_report == replay_report,
    }
}

/// Measures the tracing overhead: the [`measure_hot_loop`] skeleton run
/// twice on the same ring, once with the engine's event sink detached
/// (the default `None` — one untaken branch per step) and once with a
/// [`gdp_observe::CountingSink`] attached (the cheapest possible real
/// sink: one relaxed atomic bump per event, no buffering).
#[must_use]
pub fn measure_trace_overhead(n: usize, steps: u64) -> TraceOverheadSample {
    let off = measure_stepping(n, steps, |engine, adversary| {
        engine.step_with(adversary);
    });
    let sink = std::sync::Arc::new(gdp_observe::CountingSink::new());
    let mut engine = Engine::new(
        classic_ring(n).expect("bench ring size is valid"),
        AlgorithmKind::Gdp1.program(),
        SimConfig::default().with_seed(42),
    );
    engine.set_event_sink(Some(sink.clone()));
    let mut adversary = UniformRandomAdversary::new(7);
    for _ in 0..steps / 4 {
        engine.step_with(&mut adversary);
    }
    let counted_before = sink.count();
    let started = Instant::now();
    for _ in 0..steps {
        engine.step_with(&mut adversary);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let on_steps_per_sec = steps as f64 / elapsed;
    TraceOverheadSample {
        n,
        steps,
        off_steps_per_sec: off.steps_per_sec,
        on_steps_per_sec,
        tracing_cost_ratio: off.steps_per_sec / on_steps_per_sec,
        events: sink.count() - counted_before,
    }
}

/// Threads used by the counter-bump comparison and bumps per thread.
const BUMP_THREADS: usize = 4;
const BUMPS_PER_THREAD: u64 = 2_000_000;

/// Times one thread per counter in `counters`, each bumping its own
/// counter `BUMPS_PER_THREAD` times via `bump`.  Returns total bumps per
/// second.
fn timed_bumps<T: Sync>(counters: &[T], bump: impl Fn(&T) + Sync) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for counter in counters {
            let bump = &bump;
            scope.spawn(move || {
                for _ in 0..BUMPS_PER_THREAD {
                    bump(counter);
                }
            });
        }
    });
    (counters.len() as u64 * BUMPS_PER_THREAD) as f64 / started.elapsed().as_secs_f64()
}

/// Measures the real-thread runtime: a GDP2 meal-budget stress run on the
/// classic `n`-ring (one contending OS thread per philosopher), plus the
/// padded-vs-packed counter-layout comparison that guards the
/// `DiningTable` false-sharing fix.
#[must_use]
pub fn measure_runtime_stress(n: usize, meals_per_seat: u64) -> RuntimeStressSample {
    use gdp_scenarios::{run_stress, StressLoad, StressSpec, TopologyFamily};
    let spec = StressSpec {
        load: StressLoad::MealsPerSeat(meals_per_seat),
        ..StressSpec::new(TopologyFamily::Ring, n, AlgorithmKind::Gdp2)
    };
    let report = run_stress(&spec, true).expect("perf stress cell builds");
    let timing = report.timing.as_ref().expect("timing requested");

    // The layout comparison: each thread hammers its own counter, exactly
    // the runtime's per-philosopher access pattern.  Padded = the layout
    // DiningTable uses (one cache line per philosopher, alignment
    // test-enforced in gdp-runtime); packed = adjacent atomics sharing
    // lines.
    let padded: Vec<gdp_runtime::SeatCounters> = (0..BUMP_THREADS)
        .map(|_| gdp_runtime::SeatCounters::new())
        .collect();
    let padded_bumps_per_sec = timed_bumps(&padded, |c| c.record_meal());
    let packed: Vec<std::sync::atomic::AtomicU64> = (0..BUMP_THREADS)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let packed_bumps_per_sec = timed_bumps(&packed, |c| {
        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });

    RuntimeStressSample {
        n,
        algorithm: "GDP2",
        meals_per_seat,
        total_meals: report.total_meals,
        meals_per_sec: timing.meals_per_sec,
        jain_fairness: report.jain_fairness,
        everyone_ate: report.everyone_ate,
        padded_bumps_per_sec,
        packed_bumps_per_sec,
        padding_speedup: padded_bumps_per_sec / packed_bumps_per_sec,
    }
}

/// Runs the full perf suite with the default sizes used by
/// `BENCH_results.json`.
#[must_use]
pub fn run_perf_suite() -> PerfReport {
    let sizes = [5usize, 50, 500];
    let hot_loop = sizes
        .into_iter()
        .map(|n| measure_hot_loop(n, 400_000))
        .collect();
    let hot_loop_rebuild = sizes
        .into_iter()
        .map(|n| measure_hot_loop_rebuild_every_step(n, 100_000))
        .collect();
    // Trials long enough that spawning threads is noise, many enough that
    // every core gets work.
    let montecarlo = measure_montecarlo(50, 64, 40_000);
    let scenario_sweep = measure_scenario_sweep();
    let sweep_resume = measure_sweep_resume();
    let mcheck_state_space = measure_mcheck(4);
    let runtime_stress = measure_runtime_stress(8, 400);
    let trace_overhead = measure_trace_overhead(50, 400_000);
    let check_cache = measure_check_cache();
    PerfReport {
        hot_loop,
        hot_loop_rebuild,
        montecarlo,
        scenario_sweep,
        sweep_resume,
        mcheck_state_space,
        runtime_stress,
        trace_overhead,
        check_cache,
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

/// Like [`json_f64`] at microsecond-scale precision, for the warm-resume
/// figures (a full-cache resume is sub-millisecond and would round to 0).
fn json_f64_fine(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

impl PerfReport {
    fn write_samples(out: &mut String, samples: &[HotLoopSample]) {
        for (i, sample) in samples.iter().enumerate() {
            let allocations = match sample.allocations_per_step {
                Some(a) => format!("{a:.4}"),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"topology\": \"classic-ring-{}\", \"algorithm\": \"GDP1\", \
                 \"steps\": {}, \"steps_per_sec\": {}, \"allocations_per_step\": {}}}{}",
                sample.n,
                sample.steps,
                json_f64(sample.steps_per_sec),
                allocations,
                if i + 1 < samples.len() { "," } else { "" },
            );
        }
    }

    /// Renders the report as the `BENCH_results.json` document (stable,
    /// hand-written JSON — this workspace is fully offline and carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"engine_hot_loop\": [\n");
        Self::write_samples(&mut out, &self.hot_loop);
        out.push_str("  ],\n  \"engine_hot_loop_rebuild_every_step\": [\n");
        Self::write_samples(&mut out, &self.hot_loop_rebuild);
        let mc = &self.montecarlo;
        let _ = write!(
            out,
            "  ],\n  \"montecarlo\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"trials\": {},\n    \"max_steps\": {},\n    \
             \"threads\": {},\n    \"serial_trials_per_sec\": {},\n    \
             \"parallel_trials_per_sec\": {},\n    \"speedup\": {},\n    \
             \"bitwise_identical\": {}\n  }},\n",
            mc.n,
            mc.trials,
            mc.max_steps,
            mc.threads,
            json_f64(mc.serial_trials_per_sec),
            json_f64(mc.parallel_trials_per_sec),
            json_f64(mc.speedup),
            mc.identical,
        );
        let sweep = &self.scenario_sweep;
        let _ = write!(
            out,
            "  \"scenario_sweep\": {{\n    \"families\": \"{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"cells\": {},\n    \"trials\": {},\n    \
             \"max_steps\": {},\n    \"cells_per_sec\": {},\n    \"speedup\": {},\n    \
             \"bitwise_identical\": {}\n  }},\n",
            SWEEP_PERF_FAMILIES,
            sweep.cells,
            sweep.trials,
            sweep.max_steps,
            json_f64(sweep.cells_per_sec),
            json_f64(sweep.speedup),
            sweep.identical,
        );
        let resume = &self.sweep_resume;
        let _ = write!(
            out,
            "  \"sweep_resume\": {{\n    \"families\": \"{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"cells\": {},\n    \"trials\": {},\n    \
             \"max_steps\": {},\n    \"cold_secs\": {},\n    \"warm_secs\": {},\n    \
             \"warm_vs_cold_ratio\": {},\n    \"store_hit_rate\": {},\n    \
             \"bitwise_identical\": {}\n  }},\n",
            SWEEP_PERF_FAMILIES,
            resume.cells,
            resume.trials,
            resume.max_steps,
            json_f64(resume.cold_secs),
            json_f64_fine(resume.warm_secs),
            json_f64_fine(resume.warm_vs_cold_ratio),
            json_f64(resume.store_hit_rate),
            resume.identical,
        );
        let mcheck = &self.mcheck_state_space;
        let _ = write!(
            out,
            "  \"mcheck_state_space\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"states\": {},\n    \"transitions\": {},\n    \
             \"states_per_sec\": {},\n    \"certified_progress_one\": {},\n    \
             \"snapshot_explore_secs\": {},\n    \"replay_explore_secs\": {},\n    \
             \"wall_clock_speedup\": {},\n    \"engine_step_work_ratio\": {},\n    \
             \"identical_reports\": {}\n  }},\n",
            mcheck.n,
            mcheck.states,
            mcheck.transitions,
            json_f64(mcheck.states_per_sec),
            mcheck.certified,
            json_f64(mcheck.snapshot_explore_secs),
            json_f64(mcheck.replay_explore_secs),
            json_f64(mcheck.wall_clock_speedup),
            json_f64(mcheck.engine_step_work_ratio),
            mcheck.identical_reports,
        );
        let stress = &self.runtime_stress;
        let _ = write!(
            out,
            "  \"runtime_stress\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"{}\",\n    \"threads\": {},\n    \"meals_per_seat\": {},\n    \
             \"total_meals\": {},\n    \"meals_per_sec\": {},\n    \
             \"jain_fairness\": {},\n    \"everyone_ate\": {},\n    \
             \"padded_bumps_per_sec\": {},\n    \"packed_bumps_per_sec\": {},\n    \
             \"padding_speedup\": {}\n  }},\n",
            stress.n,
            stress.algorithm,
            stress.n,
            stress.meals_per_seat,
            stress.total_meals,
            json_f64(stress.meals_per_sec),
            json_f64(stress.jain_fairness),
            stress.everyone_ate,
            json_f64(stress.padded_bumps_per_sec),
            json_f64(stress.packed_bumps_per_sec),
            json_f64(stress.padding_speedup),
        );
        let trace = &self.trace_overhead;
        let _ = write!(
            out,
            "  \"trace_overhead\": {{\n    \"topology\": \"classic-ring-{}\",\n    \
             \"algorithm\": \"GDP1\",\n    \"steps\": {},\n    \
             \"off_steps_per_sec\": {},\n    \"on_steps_per_sec\": {},\n    \
             \"tracing_cost_ratio\": {},\n    \"events\": {}\n  }},\n",
            trace.n,
            trace.steps,
            json_f64(trace.off_steps_per_sec),
            json_f64(trace.on_steps_per_sec),
            json_f64(trace.tracing_cost_ratio),
            trace.events,
        );
        let cache = &self.check_cache;
        let _ = write!(
            out,
            "  \"check_cache\": {{\n    \"cell\": \"{}\",\n    \
             \"cold_secs\": {},\n    \"warm_secs\": {},\n    \
             \"warm_vs_cold_ratio\": {},\n    \"hit_rate\": {},\n    \
             \"bitwise_identical\": {}\n  }}\n}}\n",
            cache.cell,
            json_f64(cache.cold_secs),
            json_f64_fine(cache.warm_secs),
            json_f64_fine(cache.warm_vs_cold_ratio),
            json_f64(cache.hit_rate),
            cache.bitwise_identical,
        );
        out
    }

    /// Writes [`Self::to_json`] to `path` and prints a human summary.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from writing the file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())?;
        println!("perf: wrote {path}");
        let print_samples = |label: &str, samples: &[HotLoopSample]| {
            for sample in samples {
                println!(
                    "perf: {label} ring-{:<4} {:>12.0} steps/sec  allocations/step: {}",
                    sample.n,
                    sample.steps_per_sec,
                    sample
                        .allocations_per_step
                        .map_or("untracked".to_string(), |a| format!("{a:.4}")),
                );
            }
        };
        print_samples("engine_hot_loop", &self.hot_loop);
        print_samples("rebuild-every-step", &self.hot_loop_rebuild);
        let mc = &self.montecarlo;
        println!(
            "perf: montecarlo ring-{} {} trials x {} steps: serial {:.1} trials/s, \
             parallel({} threads) {:.1} trials/s, speedup {:.2}x, identical={}",
            mc.n,
            mc.trials,
            mc.max_steps,
            mc.serial_trials_per_sec,
            mc.threads,
            mc.parallel_trials_per_sec,
            mc.speedup,
            mc.identical,
        );
        let sweep = &self.scenario_sweep;
        println!(
            "perf: scenario_sweep {} cells ({} trials x {} steps each): \
             {:.2} cells/s, speedup {:.2}x, identical={}",
            sweep.cells,
            sweep.trials,
            sweep.max_steps,
            sweep.cells_per_sec,
            sweep.speedup,
            sweep.identical,
        );
        let resume = &self.sweep_resume;
        println!(
            "perf: sweep_resume {} cells: cold {:.3}s vs warm resume {:.3}s \
             ({:.4}x), hit rate {:.2}, identical={}",
            resume.cells,
            resume.cold_secs,
            resume.warm_secs,
            resume.warm_vs_cold_ratio,
            resume.store_hit_rate,
            resume.identical,
        );
        let mcheck = &self.mcheck_state_space;
        println!(
            "perf: mcheck ring-{} GDP1 {} states ({} transitions) at {:.0} states/s, \
             certified={}; snapshot explore {:.3}s vs replay {:.3}s \
             ({:.1}x wall-clock, {:.1}x engine-step work), identical={}",
            mcheck.n,
            mcheck.states,
            mcheck.transitions,
            mcheck.states_per_sec,
            mcheck.certified,
            mcheck.snapshot_explore_secs,
            mcheck.replay_explore_secs,
            mcheck.wall_clock_speedup,
            mcheck.engine_step_work_ratio,
            mcheck.identical_reports,
        );
        let stress = &self.runtime_stress;
        println!(
            "perf: runtime_stress ring-{} GDP2 x {} real threads, {} meals/seat: \
             {:.0} meals/s, jain={:.4}, everyone_ate={}; counter bumps \
             padded {:.1}M/s vs packed {:.1}M/s ({:.2}x)",
            stress.n,
            stress.n,
            stress.meals_per_seat,
            stress.meals_per_sec,
            stress.jain_fairness,
            stress.everyone_ate,
            stress.padded_bumps_per_sec / 1e6,
            stress.packed_bumps_per_sec / 1e6,
            stress.padding_speedup,
        );
        let trace = &self.trace_overhead;
        println!(
            "perf: trace_overhead ring-{} sink off {:.0} steps/s vs counting sink \
             {:.0} steps/s ({:.3}x cost when on, {} events)",
            trace.n,
            trace.off_steps_per_sec,
            trace.on_steps_per_sec,
            trace.tracing_cost_ratio,
            trace.events,
        );
        let cache = &self.check_cache;
        println!(
            "perf: check_cache {}: cold {:.3}s vs warm {:.4}s ({:.4}x), \
             hit rate {:.2}, bitwise_identical={}",
            cache.cell,
            cache.cold_secs,
            cache.warm_secs,
            cache.warm_vs_cold_ratio,
            cache.hit_rate,
            cache.bitwise_identical,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_loop_kernel_makes_progress() {
        assert!(hot_loop_kernel(5, 20_000, 1) > 0);
    }

    #[test]
    fn perf_json_is_well_formed_enough() {
        // Tiny sizes: this is a shape test, not a measurement.
        let report = PerfReport {
            hot_loop: vec![measure_hot_loop(5, 2_000)],
            hot_loop_rebuild: vec![measure_hot_loop_rebuild_every_step(5, 2_000)],
            montecarlo: measure_montecarlo(5, 4, 2_000),
            scenario_sweep: ScenarioSweepSample {
                cells: 8,
                trials: 16,
                max_steps: 20_000,
                cells_per_sec: 3.5,
                speedup: 1.0,
                identical: true,
            },
            sweep_resume: SweepResumeSample {
                cells: 8,
                trials: 16,
                max_steps: 20_000,
                cold_secs: 2.0,
                warm_secs: 0.01,
                warm_vs_cold_ratio: 0.005,
                store_hit_rate: 1.0,
                identical: true,
            },
            mcheck_state_space: measure_mcheck(3),
            runtime_stress: RuntimeStressSample {
                n: 8,
                algorithm: "GDP2",
                meals_per_seat: 400,
                total_meals: 3_200,
                meals_per_sec: 1_000.0,
                jain_fairness: 1.0,
                everyone_ate: true,
                padded_bumps_per_sec: 5e7,
                packed_bumps_per_sec: 4e7,
                padding_speedup: 1.25,
            },
            trace_overhead: TraceOverheadSample {
                n: 50,
                steps: 400_000,
                off_steps_per_sec: 4e6,
                on_steps_per_sec: 3.6e6,
                tracing_cost_ratio: 1.11,
                events: 540_000,
            },
            check_cache: CheckCacheSample {
                cell: "ring/n5/GDP1@s0".to_string(),
                cold_secs: 0.5,
                warm_secs: 0.001,
                warm_vs_cold_ratio: 0.002,
                hit_rate: 1.0,
                bitwise_identical: true,
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"engine_hot_loop\""));
        assert!(json.contains("\"steps_per_sec\""));
        assert!(json.contains("\"scenario_sweep\""));
        assert!(json.contains("\"cells_per_sec\""));
        assert!(json.contains("\"sweep_resume\""));
        assert!(json.contains("\"store_hit_rate\""));
        assert!(json.contains("\"mcheck_state_space\""));
        assert!(json.contains("\"engine_step_work_ratio\""));
        assert!(json.contains("\"runtime_stress\""));
        assert!(json.contains("\"padding_speedup\""));
        assert!(json.contains("\"trace_overhead\""));
        assert!(json.contains("\"tracing_cost_ratio\""));
        assert!(json.contains("\"check_cache\""));
        assert!(json.contains("\"hit_rate\""));
        assert!(json.contains("\"bitwise_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.montecarlo.identical);
    }

    /// The acceptance contract of the stress sample: every philosopher fed,
    /// fairness exactly 1 on a completed meal-budget run, and both counter
    /// layouts measured with finite throughput.  (The padded-vs-packed
    /// *ratio* is recorded in BENCH_results.json, not asserted: on one core
    /// the layouts tie; the structural guard is the alignment test in
    /// gdp-runtime.)
    #[test]
    fn runtime_stress_sample_feeds_everyone_and_measures_both_layouts() {
        let sample = measure_runtime_stress(4, 30);
        assert!(sample.everyone_ate);
        assert_eq!(sample.total_meals, 120);
        assert_eq!(sample.jain_fairness, 1.0);
        assert!(sample.meals_per_sec > 0.0);
        assert!(sample.padded_bumps_per_sec.is_finite() && sample.padded_bumps_per_sec > 0.0);
        assert!(sample.packed_bumps_per_sec.is_finite() && sample.packed_bumps_per_sec > 0.0);
        assert!(sample.padding_speedup.is_finite());
    }

    /// The snapshot/restore contract of the PR-3 refactor, on the 4-ring
    /// state space: the replay-based reference re-executes ≥10× the engine
    /// steps of the snapshot walk (exact and deterministic — each replay
    /// expansion re-simulates the whole decision prefix), the measured
    /// wall-clock follows with a smaller but real factor, the two
    /// explorers agree exactly, and the exact checker certifies GDP1
    /// progress there.
    #[test]
    fn mcheck_sample_certifies_and_snapshot_exploration_beats_replay_10x() {
        let sample = measure_mcheck(4);
        assert!(sample.certified, "GDP1 ring-4 progress must certify");
        assert!(sample.identical_reports, "explorers must agree exactly");
        assert!(sample.states > 10_000, "ring-4 space is nontrivial");
        assert!(
            sample.engine_step_work_ratio >= 10.0,
            "replay must re-execute >=10x the engine steps, got {:.1}x",
            sample.engine_step_work_ratio
        );
        // The wall-clock ratio is recorded in BENCH_results.json but not
        // asserted here: timing two sequential runs inside a parallel test
        // suite is load-sensitive, and the deterministic work ratio above
        // already pins the contract.
        assert!(sample.wall_clock_speedup.is_finite());
    }

    /// The shape contract of the overhead sample: the counting sink sees
    /// more events than steps (every step emits a schedule event, eaters
    /// add protocol events) and both throughput figures are real.  (The
    /// *ratio* is recorded in BENCH_results.json, not asserted here —
    /// timing inside a parallel test suite is load-sensitive; the ≤2%
    /// budget for the detached path is read off that file, against the
    /// `engine_hot_loop` figure.)
    #[test]
    fn trace_overhead_sample_counts_events_and_measures_both_modes() {
        let sample = measure_trace_overhead(5, 10_000);
        assert!(sample.events > sample.steps);
        assert!(sample.off_steps_per_sec > 0.0);
        assert!(sample.on_steps_per_sec > 0.0);
        assert!(sample.tracing_cost_ratio.is_finite());
    }

    #[test]
    fn scenario_sweep_sample_is_identical_and_counts_cells() {
        let sample = measure_scenario_sweep();
        assert!(sample.identical, "sweep must be thread-count independent");
        assert_eq!(sample.cells, 8);
        assert!(sample.cells_per_sec > 0.0);
    }

    /// The store contract as seen from the bench: a warm resume reuses the
    /// whole grid (hit rate 1) and reproduces the cold report exactly.
    /// (The warm/cold wall-clock *ratio* is recorded, not asserted: it is
    /// load-sensitive inside a parallel test suite.)
    #[test]
    fn sweep_resume_sample_hits_the_whole_store_and_is_identical() {
        let sample = measure_sweep_resume();
        assert!(
            sample.identical,
            "warm resume must reproduce the cold report"
        );
        assert_eq!(sample.store_hit_rate, 1.0);
        assert_eq!(sample.cells, 8);
        assert!(sample.warm_vs_cold_ratio.is_finite() && sample.warm_vs_cold_ratio > 0.0);
    }

    /// The tentpole acceptance contract of the certificate cache sample:
    /// the warm check is served entirely from the store (hit rate 1) and
    /// renders bitwise-identically to the cold computation.
    #[test]
    fn check_cache_sample_hits_the_store_and_is_bitwise_identical() {
        let sample = measure_check_cache();
        assert!(
            sample.bitwise_identical,
            "warm check must reproduce the cold report byte for byte"
        );
        assert_eq!(sample.hit_rate, 1.0);
        assert_eq!(sample.cell, "ring/n5/GDP1@s0");
        assert!(sample.warm_vs_cold_ratio.is_finite() && sample.warm_vs_cold_ratio > 0.0);
    }
}
