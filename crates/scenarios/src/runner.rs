//! The batch runner: drives every cell of an expanded grid through the
//! Monte-Carlo estimators and reduces it to a [`CellResult`].

use crate::check::{
    run_check, run_check_cached, sweep_check_class, CheckReport, CheckSpec, CheckStoreError,
    ExactCellVerdict,
};
use crate::report::SweepReport;
use crate::spec::{ScenarioCell, ScenarioSpec};
use crate::store::{newer_format, CellStore, Lookup, ShardSpec, StoreStats};
use gdp_analysis::montecarlo::estimate_liveness;
use gdp_analysis::TrialConfig;
use gdp_observe::Event;
use gdp_sim::SimConfig;
use gdp_topology::TopologyError;
use std::fmt;
use std::time::Instant;

/// Everything measured for one cell of the grid.
///
/// All fields except [`steps_per_sec`](Self::steps_per_sec) are derived
/// purely from seeds, so they are identical for every thread count; the
/// throughput field is wall-clock and only recorded when
/// [`SweepOptions::record_timing`] is set.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Stable cell key, `"<family>/n<size>/<ALGORITHM>"`.
    pub cell: String,
    /// Family name (re-parseable).
    pub family: String,
    /// The scale parameter the cell was built from.
    pub size: usize,
    /// Philosophers in the realized topology.
    pub philosophers: usize,
    /// Forks in the realized topology.
    pub forks: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Adversary name.
    pub adversary: String,
    /// Trials run.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// The resolved cell seed.
    pub seed: u64,
    /// Fraction of trials in which **no** philosopher ate within the budget
    /// (the finite-horizon deadlock/no-progress signature).
    pub deadlock_rate: f64,
    /// Fraction of trials in which at least one philosopher starved (the
    /// finite-horizon lockout signature).
    pub lockout_rate: f64,
    /// Mean first-meal step over the progressing trials (how long hunger
    /// lasts before the system first serves a meal); `0` when no trial
    /// progressed.
    pub mean_hunger: f64,
    /// Median first-meal step over the progressing trials (step-denominated;
    /// exact nearest-rank percentile, so bitwise thread-independent).
    pub first_meal_p50: f64,
    /// 90th-percentile first-meal step over the progressing trials.
    pub first_meal_p90: f64,
    /// 99th-percentile first-meal step over the progressing trials.
    pub first_meal_p99: f64,
    /// Mean over trials of the minimum meal count across philosophers.
    pub min_meals_mean: f64,
    /// Mean Jain fairness index of the per-philosopher meal counts.
    pub fairness_mean: f64,
    /// Scheduler steps per wall-clock second over the cell's trial batch
    /// (`trials * max_steps` steps of fixed work); `None` unless timing was
    /// recorded.
    pub steps_per_sec: Option<f64>,
    /// Trials whose final state was a **true deadlock** (no scheduling
    /// choice and no random outcome can ever change it).
    pub stuck_trials: u64,
    /// Trials whose final state violated the safety invariants.
    pub unsafe_trials: u64,
    /// The exact worst-case progress verdict for this cell, when the sweep
    /// ran with [`SweepOptions::exact_check`].
    pub exact: Option<ExactCellVerdict>,
}

impl CellResult {
    /// Whether a hard violation (true deadlock or safety breach) was
    /// observed in any trial — the signal behind `gdp sweep`'s nonzero
    /// exit.  Exact verdicts do not trip this: a `violated` exact verdict
    /// for LR1 is the *expected* theorem, not a defect of the run.
    #[must_use]
    pub fn violation_detected(&self) -> bool {
        self.stuck_trials > 0 || self.unsafe_trials > 0
    }

    /// One aligned human-readable row (the `gdp sweep` console format).
    #[must_use]
    pub fn row(&self) -> String {
        format!(
            "{:<28} n={:<3} k={:<3} {:<6} deadlock={:>5.2} lockout={:>5.2} hunger={:>8.1} jain={:>5.3}{}{}{}",
            self.cell,
            self.philosophers,
            self.forks,
            self.algorithm,
            self.deadlock_rate,
            self.lockout_rate,
            self.mean_hunger,
            self.fairness_mean,
            if self.violation_detected() {
                format!(" VIOLATION(stuck={} unsafe={})", self.stuck_trials, self.unsafe_trials)
            } else {
                String::new()
            },
            match &self.exact {
                Some(exact) => format!(" exact={}({:.3})", exact.verdict, exact.progress_probability),
                None => String::new(),
            },
            match self.steps_per_sec {
                Some(sps) => format!(" {:>10.0} steps/s", sps),
                None => String::new(),
            }
        )
    }
}

/// Options controlling a sweep run.
#[derive(Clone, Default)]
pub struct SweepOptions {
    /// Record wall-clock throughput per cell.  Timing makes the JSON/CSV
    /// artifacts non-reproducible across machines and runs, so it is off by
    /// default and the determinism tests keep it off.
    pub record_timing: bool,
    /// Print each cell's row to stdout as it completes.
    pub progress: bool,
    /// Attach an exact worst-case progress verdict (`gdp-mcheck`) to every
    /// cell, with the given canonical-state budget; cells whose automaton
    /// exceeds the budget report `inconclusive`.  The verdicts are a pure
    /// function of the spec, so reproducibility is preserved.
    pub exact_check: Option<usize>,
    /// Structured-event sink for cell lifecycle, store and certificate-cache
    /// events (`cell_start`/`cell_finish`/`store_hit`/`store_miss`/
    /// `store_quarantine`/`cert_hit`/`cert_miss`).  The sweep's logical
    /// clock is the cell's position in the deterministic grid expansion, so
    /// with a fixed spec the emitted stream is the same for every thread
    /// count.
    pub sink: Option<gdp_observe::SharedSink>,
}

impl fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepOptions")
            .field("record_timing", &self.record_timing)
            .field("progress", &self.progress)
            .field("exact_check", &self.exact_check)
            .field("sink", &self.sink.as_ref().map(|_| "<EventSink>"))
            .finish()
    }
}

impl SweepOptions {
    /// No timing, no console output: the reproducible-artifact configuration.
    #[must_use]
    pub fn quiet() -> Self {
        SweepOptions::default()
    }

    /// Timing and console output on: the interactive CLI configuration.
    #[must_use]
    pub fn interactive() -> Self {
        SweepOptions {
            record_timing: true,
            progress: true,
            ..SweepOptions::default()
        }
    }
}

/// Error produced by a sweep run.
#[derive(Debug)]
pub enum SweepError {
    /// A cell's topology parameters were invalid for its family.
    Topology {
        /// The offending cell key.
        cell: String,
        /// The underlying builder error.
        source: TopologyError,
    },
    /// The spec expands to an empty grid.
    EmptyGrid,
    /// A completed cell could not be persisted to the attached store.
    Store {
        /// The cell whose record failed to persist.
        cell: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A store record carries a format version newer than this build.
    /// The record is presumed valid to a newer build and left untouched;
    /// the sweep refuses to shadow it rather than quarantining it.
    UnsupportedStore {
        /// The cell whose record is unreadable to this build.
        cell: String,
        /// The record's declared format version.
        version: u32,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Topology { cell, source } => {
                write!(f, "cell {cell}: {source}")
            }
            SweepError::EmptyGrid => write!(f, "the scenario grid is empty"),
            SweepError::Store { cell, message } => {
                write!(f, "cell {cell}: store write failed: {message}")
            }
            SweepError::UnsupportedStore { cell, version } => f.write_str(&newer_format(
                &format!("cell {cell}: store record"),
                *version,
            )),
        }
    }
}

impl std::error::Error for SweepError {}

/// Computes one cell of a grid: progress and lockout estimation over the
/// cell's trial budget (plus the exact verdict when
/// [`SweepOptions::exact_check`] is set).
///
/// Results are a pure function of `(spec store context, cell key)` —
/// bitwise identical for every thread count and every scheduling of
/// concurrent callers — which is what makes them cacheable in a shared
/// [`CellStore`]; [`compute_and_save`] is the store-backed variant.
///
/// # Errors
///
/// [`SweepError::Topology`] when the cell's topology parameters are invalid
/// for its family.
pub fn compute_cell(
    spec: &ScenarioSpec,
    cell: &ScenarioCell,
    options: &SweepOptions,
) -> Result<CellResult, SweepError> {
    compute_with(spec, cell, options, |check| {
        run_check(check).map_err(|message| check_failed(cell, message))
    })
}

/// The error a failed exact check of `cell` surfaces as.
fn check_failed(cell: &ScenarioCell, message: String) -> SweepError {
    SweepError::Topology {
        cell: cell.key.clone(),
        source: TopologyError::InvalidParameter { message },
    }
}

/// Records `event` into the options' sink, if one is attached.
fn emit(options: &SweepOptions, event: Event) {
    if let Some(sink) = &options.sink {
        sink.record(&event);
    }
}

/// Looks `cell` up in `store`: the first half of the per-cell store step
/// that `gdp sweep --store --resume` and `gdp serve` share.  Emits the
/// cell's `store_hit`, `store_quarantine` or `store_miss` event at its grid
/// `position` into [`SweepOptions::sink`], tallies `reused` or
/// `quarantined` in `stats`, and returns the verified stored result on a
/// hit.  `None` means the cell must be computed with [`compute_and_save`].
///
/// # Errors
///
/// [`SweepError::UnsupportedStore`] when the record belongs to a newer
/// store format; it is left in place and must not be shadowed.
pub fn lookup_cell(
    store: &CellStore,
    cell: &ScenarioCell,
    position: usize,
    options: &SweepOptions,
    stats: &mut StoreStats,
) -> Result<Option<CellResult>, SweepError> {
    let (clock, key) = (position as u64, cell.key.clone());
    let (event, hit) = match store.lookup(&cell.key) {
        Lookup::Hit(result) => {
            stats.reused += 1;
            (Event::StoreHit { clock, cell: key }, Some(*result))
        }
        Lookup::Quarantined { .. } => {
            stats.quarantined += 1;
            (Event::StoreQuarantine { clock, cell: key }, None)
        }
        Lookup::Absent => (Event::StoreMiss { clock, cell: key }, None),
        Lookup::Unsupported { version } => {
            return Err(SweepError::UnsupportedStore { cell: key, version });
        }
    };
    emit(options, event);
    Ok(hit)
}

/// The second half of the per-cell store step: computes `cell` with its
/// exact verdict routed through `store`'s **certificate cache**, emitting
/// `cert_hit` or `cert_miss` at its grid `position` when the sweep checks,
/// and persists the result.  Every computed certificate is saved, and with
/// `resume` a verified certificate record answers the check from disk —
/// byte-identical, certificates being byte-reproducible — so a resumed
/// `sweep --check` restores its exact columns without re-solving the MDP
/// even when the MC cell record was lost.
///
/// # Errors
///
/// As [`compute_cell`], plus [`SweepError::Store`] when a record cannot be
/// persisted and [`SweepError::UnsupportedStore`] when the certificate
/// record belongs to a newer store format.
pub fn compute_and_save(
    spec: &ScenarioSpec,
    cell: &ScenarioCell,
    position: usize,
    options: &SweepOptions,
    store: &CellStore,
    resume: bool,
) -> Result<CellResult, SweepError> {
    let store_failed = |message: String| SweepError::Store {
        cell: cell.key.clone(),
        message,
    };
    let result = compute_with(spec, cell, options, |check| {
        let (report, stats) = run_check_cached(check, store, resume).map_err(|e| match e {
            CheckStoreError::Check(message) => check_failed(cell, message),
            CheckStoreError::Unsupported { version, .. } => SweepError::UnsupportedStore {
                cell: cell.key.clone(),
                version,
            },
            other => store_failed(other.to_string()),
        })?;
        let (clock, key) = (position as u64, cell.key.clone());
        emit(
            options,
            if stats.reused > 0 {
                Event::CertHit { clock, cell: key }
            } else {
                Event::CertMiss { clock, cell: key }
            },
        );
        Ok(report)
    })?;
    store
        .save(&result)
        .map_err(|e| store_failed(e.to_string()))?;
    Ok(result)
}

/// [`compute_cell`] with the exact check answered by `check`.
fn compute_with(
    spec: &ScenarioSpec,
    cell: &ScenarioCell,
    options: &SweepOptions,
    check: impl FnOnce(&CheckSpec) -> Result<CheckReport, SweepError>,
) -> Result<CellResult, SweepError> {
    let topology =
        cell.family
            .build(cell.size, cell.seed)
            .map_err(|source| SweepError::Topology {
                cell: cell.key.clone(),
                source,
            })?;
    let program = cell.algorithm.program();
    let config = TrialConfig {
        trials: spec.trials,
        max_steps: spec.max_steps,
        base_seed: cell.seed,
        threads: spec.threads,
        sim: SimConfig::default(),
    };
    let adversary_spec = spec.adversary;
    let make_adversary = |trial: u64| adversary_spec.build(cell.seed, trial);

    // One combined batch yields both liveness estimates: every trial runs
    // the full budget, so it is a fixed amount of work and the honest basis
    // for a throughput figure.
    let started = Instant::now();
    let estimate = estimate_liveness(&topology, &program, make_adversary, &config);
    let elapsed_secs = started.elapsed().as_secs_f64();
    let (progress, lockout) = (estimate.progress.clone(), estimate.lockout.clone());

    let steps_per_sec = options
        .record_timing
        .then(|| (spec.trials * spec.max_steps) as f64 / elapsed_secs);

    let exact = match options.exact_check {
        Some(max_states) => {
            let check_spec = CheckSpec {
                max_states,
                threads: spec.threads,
                topology_seed: cell.seed,
                // Quantify over the class the sweep's scheduler belongs
                // to, so a crash:<f> row never pairs faulty MC columns
                // with an all-fair "certified".
                adversary: sweep_check_class(spec.adversary),
                ..CheckSpec::new(cell.family, cell.size, cell.algorithm)
            };
            Some(ExactCellVerdict::from_report(&check(&check_spec)?))
        }
        None => None,
    };

    Ok(CellResult {
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
        steps_per_sec,
        stuck_trials: estimate.violations.stuck_trials,
        unsafe_trials: estimate.violations.unsafe_trials,
        exact,
    })
}

/// Runs the whole sweep, invoking `on_cell` as each cell completes (the
/// streaming hook used by the CLI), and returns the collected report.
///
/// Cells run sequentially in expansion order; each cell's trials are fanned
/// out over [`ScenarioSpec::threads`] workers with the bitwise-deterministic
/// trial runner, so the report content is independent of the thread count.
///
/// # Errors
///
/// Fails fast on the first cell whose topology parameters are invalid, or
/// when the grid is empty.
pub fn run_sweep_with<F>(
    spec: &ScenarioSpec,
    options: &SweepOptions,
    on_cell: F,
) -> Result<SweepReport, SweepError>
where
    F: FnMut(&CellResult),
{
    run_sweep_durable(spec, options, None, false, None, on_cell).map(|(report, _)| report)
}

/// The durable variant of [`run_sweep_with`]: the crash-safe sweep loop
/// behind `gdp sweep --store/--resume/--shard`.
///
/// * With a `store` attached, every computed cell is persisted atomically
///   the moment it completes, so an interrupted run loses at most the cell
///   in flight.
/// * With `resume` additionally set, each cell is first looked up in the
///   store; verified-complete records are reused bit-for-bit (the report is
///   indistinguishable from recomputing) and invalid ones are quarantined
///   and recomputed.
/// * With a `shard`, only the cells the shard owns are processed.  A shard
///   of a nonempty grid may legitimately own zero cells and yields an empty
///   report; [`SweepError::EmptyGrid`] still flags a spec whose *full*
///   expansion is empty.
///
/// Cached cells flow through `on_cell` and the progress printer exactly
/// like computed ones.
///
/// # Errors
///
/// As [`run_sweep_with`], plus [`SweepError::Store`] when a record cannot
/// be persisted.
pub fn run_sweep_durable<F>(
    spec: &ScenarioSpec,
    options: &SweepOptions,
    store: Option<&CellStore>,
    resume: bool,
    shard: Option<ShardSpec>,
    mut on_cell: F,
) -> Result<(SweepReport, StoreStats), SweepError>
where
    F: FnMut(&CellResult),
{
    let cells = spec.expand();
    if cells.is_empty() {
        return Err(SweepError::EmptyGrid);
    }
    let shard = shard.unwrap_or_else(ShardSpec::full);
    let mut stats = StoreStats::default();
    let mut results = Vec::with_capacity(cells.len().div_ceil(shard.count));
    for (position, cell) in cells.iter().enumerate() {
        if !shard.owns(position) {
            continue;
        }
        let clock = position as u64;
        emit(
            options,
            Event::CellStart {
                clock,
                cell: cell.key.clone(),
            },
        );
        let cached = match store {
            Some(store) if resume => lookup_cell(store, cell, position, options, &mut stats)?,
            _ => None,
        };
        let result = match cached {
            Some(result) => result,
            None => {
                stats.computed += 1;
                match store {
                    Some(store) => compute_and_save(spec, cell, position, options, store, resume)?,
                    None => compute_cell(spec, cell, options)?,
                }
            }
        };
        if options.progress {
            println!("{}", result.row());
        }
        emit(
            options,
            Event::CellFinish {
                clock,
                cell: cell.key.clone(),
            },
        );
        on_cell(&result);
        results.push(result);
    }
    Ok((SweepReport::new(spec, results), stats))
}

/// [`run_sweep_with`] without a streaming hook.
///
/// # Errors
///
/// See [`run_sweep_with`].
pub fn run_sweep(spec: &ScenarioSpec, options: &SweepOptions) -> Result<SweepReport, SweepError> {
    run_sweep_with(spec, options, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdversaryKind, SeedPolicy};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new("tiny")
            .with_families_str("ring,star")
            .unwrap()
            .with_sizes([4])
            .with_algorithms_str("gdp1")
            .unwrap()
            .with_trials(3)
            .with_max_steps(8_000)
            .with_seed_policy(SeedPolicy::PerCell(1))
    }

    #[test]
    fn sweep_runs_and_reports_every_cell() {
        let report = run_sweep(&tiny_spec(), &SweepOptions::quiet()).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.trials, 3);
            assert_eq!(cell.deadlock_rate, 0.0, "GDP1 must progress: {}", cell.cell);
            assert!(
                cell.steps_per_sec.is_none(),
                "quiet sweeps record no timing"
            );
            // First-meal percentiles are exact nearest-rank figures over the
            // progressing trials, so they must be ordered and positive here.
            assert!(cell.first_meal_p50 > 0.0, "{}", cell.cell);
            assert!(cell.first_meal_p90 >= cell.first_meal_p50, "{}", cell.cell);
            assert!(cell.first_meal_p99 >= cell.first_meal_p90, "{}", cell.cell);
        }
    }

    #[test]
    fn sweep_sink_sees_cell_lifecycle_events_keyed_by_grid_position() {
        use gdp_observe::{Event, MemorySink};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let options = SweepOptions {
            sink: Some(sink.clone()),
            ..SweepOptions::default()
        };
        let report = run_sweep(&tiny_spec(), &options).unwrap();
        let events = sink.take();
        // One cell_start + one cell_finish per cell, clocked by grid
        // position; no store events without a store attached.
        let starts: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::CellStart { clock, cell } => Some((*clock, cell.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            vec![
                (0, "ring/n4/GDP1".to_string()),
                (1, "star/n4/GDP1".to_string())
            ]
        );
        let finishes = events
            .iter()
            .filter(|e| matches!(e, Event::CellFinish { .. }))
            .count();
        assert_eq!(finishes, report.cells.len());
        assert_eq!(events.len(), 2 * report.cells.len());

        // A checked resume over a store holding one valid record, one
        // bit-flipped record and one missing cell (whose certificate is
        // gone too): per grid position, cell_start, then the lookup
        // outcome, then the certificate-cache outcome of a computed cell,
        // then cell_finish.
        let spec = tiny_spec()
            .with_families_str("ring")
            .unwrap()
            .with_sizes([3, 4, 5]);
        let dir = std::env::temp_dir().join(format!(
            "gdp_runner_events_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let checked = SweepOptions {
            exact_check: Some(2_000),
            ..SweepOptions::default()
        };
        let store = CellStore::open(&dir, &spec, checked.exact_check).unwrap();
        run_sweep_durable(&spec, &checked, Some(&store), false, None, |_| {}).unwrap();
        let flipped = store.record_path("ring/n4/GDP1");
        let mut raw = std::fs::read(&flipped).unwrap();
        let target = raw.len() - 20;
        raw[target] ^= 0x04;
        std::fs::write(&flipped, raw).unwrap();
        std::fs::remove_file(store.record_path("ring/n5/GDP1")).unwrap();
        for entry in std::fs::read_dir(dir.join("certs")).unwrap() {
            let path = entry.unwrap().path();
            if path.to_string_lossy().contains("ring_n5_GDP1") {
                std::fs::remove_file(path).unwrap();
            }
        }
        let sink = Arc::new(MemorySink::new());
        let options = SweepOptions {
            sink: Some(sink.clone()),
            ..checked
        };
        let (_, stats) =
            run_sweep_durable(&spec, &options, Some(&store), true, None, |_| {}).unwrap();
        let events = sink.take();
        let seen: Vec<(u64, &str)> = events.iter().map(|e| (e.clock(), e.type_tag())).collect();
        assert_eq!(
            seen,
            [
                (0, "cell_start"),
                (0, "store_hit"),
                (0, "cell_finish"),
                (1, "cell_start"),
                (1, "store_quarantine"),
                (1, "cert_hit"),
                (1, "cell_finish"),
                (2, "cell_start"),
                (2, "store_miss"),
                (2, "cert_miss"),
                (2, "cell_finish"),
            ]
        );
        assert_eq!(
            stats,
            StoreStats {
                reused: 1,
                computed: 2,
                quarantined: 1
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_hook_sees_cells_in_expansion_order() {
        let mut seen = Vec::new();
        run_sweep_with(&tiny_spec(), &SweepOptions::quiet(), |c| {
            seen.push(c.cell.clone());
        })
        .unwrap();
        assert_eq!(seen, vec!["ring/n4/GDP1", "star/n4/GDP1"]);
    }

    #[test]
    fn sweeps_are_bitwise_identical_across_thread_counts() {
        let base = tiny_spec().with_adversary(AdversaryKind::UniformRandom);
        let serial = run_sweep(&base.clone().with_threads(1), &SweepOptions::quiet()).unwrap();
        for threads in [2usize, 4, 16] {
            let parallel =
                run_sweep(&base.clone().with_threads(threads), &SweepOptions::quiet()).unwrap();
            assert_eq!(
                serial.cells, parallel.cells,
                "sweep must be identical with {threads} threads"
            );
            assert_eq!(serial.to_json(), parallel.to_json());
            assert_eq!(serial.to_csv(), parallel.to_csv());
        }
    }

    #[test]
    fn timing_is_recorded_only_on_request() {
        let spec = tiny_spec();
        let timed = run_sweep(
            &spec,
            &SweepOptions {
                record_timing: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(timed.cells.iter().all(|c| c.steps_per_sec.unwrap() > 0.0));
        assert!(timed.cells[0].row().contains("steps/s"));
    }

    #[test]
    fn invalid_cells_fail_fast_with_the_cell_key() {
        let spec = tiny_spec().with_sizes([1]); // ring of 1 is invalid
        let err = run_sweep(&spec, &SweepOptions::quiet()).unwrap_err();
        assert!(err.to_string().contains("ring/n1/GDP1"), "{err}");
        let empty = tiny_spec().with_sizes([]);
        assert!(matches!(
            run_sweep(&empty, &SweepOptions::quiet()),
            Err(SweepError::EmptyGrid)
        ));
    }
}
