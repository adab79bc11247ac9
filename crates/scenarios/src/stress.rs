//! Real-thread **stress workloads**: one contending OS thread per
//! philosopher, driven by the algorithm-generic `gdp-runtime`, reported as
//! hand-written JSON/CSV artifacts.
//!
//! Where a sweep ([`crate::run_sweep`]) measures the *probabilistic automata*
//! semantics under a simulated adversary, a stress run measures the same
//! algorithm under the only adversary production code ever faces: the OS
//! scheduler with real cache lines and real contention.  A [`StressSpec`]
//! names one *family × size × algorithm* cell plus a thread count and a
//! load; [`run_stress`] executes it and returns a [`StressReport`].
//!
//! ## Determinism contract
//!
//! Real-thread interleavings are OS-chosen, so — unlike sweeps — a stress
//! report is not bitwise a function of its spec in general.  The committed
//! artifact contract is preserved anyway, the same way the sweep reports do
//! it: **timing fields are opt-in**.  With timing off (the default), a
//! meal-budget run that fed everyone serializes only deterministic facts
//! (every active philosopher ate exactly its budget), so the JSON/CSV bytes
//! are reproducible across runs and machines.  Duration-mode meal counts
//! are inherently wall-clock-dependent; treat those artifacts as
//! measurements, not fixtures.  The full schema is documented in
//! `docs/RUNTIME.md`.

use crate::family::TopologyFamily;
use crate::report::num;
use crate::spec::cell_key;
use gdp_algorithms::AlgorithmKind;
use gdp_observe::LOG2_BUCKETS;
use gdp_runtime::{run, RunOptions, StressLoad};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// One stress-workload cell: topology family × size × algorithm × threads ×
/// load.
#[derive(Clone, Debug)]
pub struct StressSpec {
    /// The topology family.
    pub family: TopologyFamily,
    /// The family's scale parameter `n`.
    pub size: usize,
    /// The algorithm every seat interprets.
    pub algorithm: AlgorithmKind,
    /// Number of philosophers that get a driving thread (`0` = all).
    /// Driving fewer threads than philosophers models partial
    /// participation: the remaining philosophers stay thinking and their
    /// forks stay free.
    pub threads: usize,
    /// The load to drive.
    pub load: StressLoad,
    /// Whole-run watchdog in milliseconds; bounds even the naive baseline's
    /// real deadlock.  `0` disables the watchdog (never do that for
    /// [`AlgorithmKind::Naive`]).  In duration mode a watchdog shorter
    /// than the duration cuts the run and reports as tripped (the `gdp
    /// stress` CLI therefore defaults it to `0` when `--duration-ms` is
    /// given).
    pub watchdog_ms: u64,
    /// Seed for the topology (random families) and the seats' private
    /// randomness.
    pub seed: u64,
    /// Spin iterations executed inside each critical section, modelling
    /// real work while both resources are held.
    pub spin: u32,
    /// Crash-stop faults (the runtime face of the adversary catalog's
    /// `crash:<f>` family): this many seeded driven seats stop
    /// mid-protocol before finishing their budget, recovering their forks
    /// through `Seat::reset_trying`.  Victims and crash points derive from
    /// [`seed`](Self::seed), so crash runs replay; crashed seats are
    /// exempt from the `everyone_ate` success criterion.
    pub crash_seats: usize,
}

impl StressSpec {
    /// A spec with the default load (50 meals per seat), a 30-second
    /// watchdog, all philosophers driven, seed 0 and a small spin.
    #[must_use]
    pub fn new(family: TopologyFamily, size: usize, algorithm: AlgorithmKind) -> Self {
        StressSpec {
            family,
            size,
            algorithm,
            threads: 0,
            load: StressLoad::MealsPerSeat(50),
            watchdog_ms: 30_000,
            seed: 0,
            spin: 64,
            crash_seats: 0,
        }
    }

    /// The cell key, e.g. `"ring/n5/GDP2"` (matching sweep cell keys).
    #[must_use]
    pub fn cell(&self) -> String {
        cell_key(self.family, self.size, self.algorithm)
    }
}

/// Wall-clock figures of a stress run, serialized only on request.
#[derive(Clone, Debug, PartialEq)]
pub struct StressTiming {
    /// Wall-clock seconds of the whole run.
    pub elapsed_secs: f64,
    /// Total meals per second across the table.
    pub meals_per_sec: f64,
    /// Mean hungry-to-eating latency in microseconds (over all meals).
    pub mean_wait_micros: f64,
    /// Median time-to-first-meal in nanoseconds, estimated from the log2
    /// bucket histogram of per-seat first waits (`gdp-observe`'s
    /// nearest-rank bucket-floor estimator, so for a true value `t` the
    /// reported `e` satisfies `e <= t < max(2e, 2)`).
    pub first_meal_p50: f64,
    /// 90th-percentile time-to-first-meal in nanoseconds (same estimator).
    pub first_meal_p90: f64,
    /// 99th-percentile time-to-first-meal in nanoseconds (same estimator).
    pub first_meal_p99: f64,
    /// Table-wide log2 histogram of per-meal wait times: bucket `i` counts
    /// meals whose wait fell in `[2^i, 2^(i+1))` nanoseconds.
    pub wait_histogram: [u64; LOG2_BUCKETS],
}

/// The result of one stress run (see `docs/RUNTIME.md` for the serialized
/// schema).
#[derive(Clone, Debug, PartialEq)]
pub struct StressReport {
    /// Cell key (`family/nSIZE/ALGORITHM`).
    pub cell: String,
    /// Family name.
    pub family: String,
    /// Scale parameter.
    pub size: usize,
    /// Philosophers in the built topology.
    pub philosophers: usize,
    /// Forks in the built topology.
    pub forks: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Seats that had a driving thread.
    pub threads: usize,
    /// The load descriptor (`meals:50` / `duration_ms:200`).
    pub load: String,
    /// The watchdog bound in milliseconds (0 = unbounded).
    pub watchdog_ms: u64,
    /// The seed.
    pub seed: u64,
    /// Critical-section spin iterations.
    pub spin: u32,
    /// Crash-stop faults requested.
    pub crash_seats: usize,
    /// The seats the fault model actually crashed (seeded, ascending).
    pub crashed_seats: Vec<u64>,
    /// Meals per philosopher (inactive seats report 0).
    pub meals: Vec<u64>,
    /// Total meals.
    pub total_meals: u64,
    /// Minimum meals over the *active* seats.
    pub min_meals: u64,
    /// Maximum meals over the *active* seats.
    pub max_meals: u64,
    /// Whether every active seat ate at least once.
    pub everyone_ate: bool,
    /// Whether the watchdog fired before some seat finished its budget.
    pub watchdog_tripped: bool,
    /// Jain's fairness index over the active seats' meal counts.
    pub jain_fairness: f64,
    /// Wall-clock figures; `None` unless timing was requested.
    pub timing: Option<StressTiming>,
}

impl StressReport {
    /// Whether the run met its qualitative goal: no tripped watchdog and
    /// every active philosopher fed.  `gdp stress` exits nonzero otherwise.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        !self.watchdog_tripped && self.everyone_ate
    }
}

/// Executes one stress cell: builds the topology, spawns one thread per
/// active seat, drives the load on real contending OS threads, and collects
/// the report.  `record_timing` controls whether wall-clock fields are
/// attached (and later serialized) — leave it off for byte-reproducible
/// artifacts.
///
/// # Errors
///
/// Returns a message when the topology cannot be built at this size.
pub fn run_stress(spec: &StressSpec, record_timing: bool) -> Result<StressReport, String> {
    run_stress_observed(spec, record_timing, None)
}

/// [`run_stress`] with a structured-event sink attached to every driven
/// seat: each seat emits `schedule`/`acquire`/`release`/`meal_start`/
/// `meal_finish` (plus `crash`/`watchdog`) events stamped with its private
/// sequence number.  Real threads interleave OS-dependently, so the merged
/// stream is a *measurement*; exporters sort it by `(actor, clock)` before
/// writing (see `gdp stress --trace`).
///
/// # Errors
///
/// As [`run_stress`].
pub fn run_stress_observed(
    spec: &StressSpec,
    record_timing: bool,
    sink: Option<gdp_observe::SharedSink>,
) -> Result<StressReport, String> {
    let topology = spec.family.build(spec.size, spec.seed).map_err(|e| {
        format!(
            "cannot build {} at n={}: {e}",
            spec.family.name(),
            spec.size
        )
    })?;
    let forks = topology.num_forks();
    let options = RunOptions {
        algorithm: spec.algorithm,
        load: spec.load,
        active_seats: (spec.threads > 0).then_some(spec.threads),
        watchdog: (spec.watchdog_ms > 0).then(|| Duration::from_millis(spec.watchdog_ms)),
        seed: spec.seed,
        crash_seats: spec.crash_seats,
        sink,
    };
    let spin = spec.spin;
    let critical = move || {
        for _ in 0..spin {
            std::hint::spin_loop();
        }
    };
    let report = run(topology, &options, critical);
    let active = &report.meals[..report.active_seats];
    let timing = record_timing.then(|| {
        let total = report.total_meals();
        let wait_nanos: u128 = report.wait_nanos.iter().map(|&w| u128::from(w)).sum();
        // Time-to-first-meal percentiles over the seats that ate, through
        // the shared log2-bucket estimator (the runtime face of the
        // simulator's step-denominated first-meal histogram).
        let mut first_waits = gdp_observe::Log2Histogram::new();
        for nanos in report.first_wait_nanos.iter().flatten() {
            first_waits.record(*nanos);
        }
        StressTiming {
            elapsed_secs: report.elapsed_nanos as f64 / 1e9,
            meals_per_sec: report.throughput_meals_per_sec(),
            mean_wait_micros: if total > 0 {
                wait_nanos as f64 / 1_000.0 / total as f64
            } else {
                0.0
            },
            first_meal_p50: first_waits.quantile(50.0),
            first_meal_p90: first_waits.quantile(90.0),
            first_meal_p99: first_waits.quantile(99.0),
            wait_histogram: report.wait_histogram,
        }
    });
    Ok(StressReport {
        cell: spec.cell(),
        family: spec.family.name(),
        size: spec.size,
        philosophers: report.philosophers,
        forks,
        algorithm: report.algorithm.name().to_string(),
        threads: report.active_seats,
        load: spec.load.name(),
        watchdog_ms: spec.watchdog_ms,
        seed: spec.seed,
        spin: spec.spin,
        crash_seats: spec.crash_seats,
        crashed_seats: report
            .crashed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(p, _)| p as u64)
            .collect(),
        total_meals: report.total_meals(),
        min_meals: active.iter().copied().min().unwrap_or(0),
        max_meals: active.iter().copied().max().unwrap_or(0),
        everyone_ate: report.everyone_ate(),
        watchdog_tripped: report.watchdog_tripped,
        jain_fairness: report.jain_fairness(),
        meals: report.meals,
        timing,
    })
}

/// The CSV header row written by [`StressReport::to_csv`].
#[must_use]
pub fn stress_csv_header() -> &'static str {
    "cell,family,size,philosophers,forks,algorithm,threads,load,watchdog_ms,seed,spin,\
     crash_seats,crashed_seats,\
     total_meals,min_meals,max_meals,everyone_ate,watchdog_tripped,jain_fairness,\
     elapsed_secs,meals_per_sec,mean_wait_micros,\
     first_meal_p50,first_meal_p90,first_meal_p99"
}

impl StressReport {
    /// Renders the report as a JSON document (`"schema": 1`, `"kind":
    /// "runtime_stress"`).  With timing off, a meal-budget run that fed
    /// everyone produces identical bytes on every run; see the module docs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"kind\": \"runtime_stress\",");
        let _ = writeln!(out, "  \"cell\": \"{}\",", self.cell);
        let _ = writeln!(out, "  \"family\": \"{}\",", self.family);
        let _ = writeln!(out, "  \"size\": {},", self.size);
        let _ = writeln!(out, "  \"philosophers\": {},", self.philosophers);
        let _ = writeln!(out, "  \"forks\": {},", self.forks);
        let _ = writeln!(out, "  \"algorithm\": \"{}\",", self.algorithm);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"load\": \"{}\",", self.load);
        let _ = writeln!(out, "  \"watchdog_ms\": {},", self.watchdog_ms);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"spin\": {},", self.spin);
        let _ = writeln!(out, "  \"crash_seats\": {},", self.crash_seats);
        let crashed: Vec<String> = self.crashed_seats.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"crashed_seats\": [{}],", crashed.join(", "));
        let _ = writeln!(out, "  \"total_meals\": {},", self.total_meals);
        let _ = writeln!(out, "  \"min_meals\": {},", self.min_meals);
        let _ = writeln!(out, "  \"max_meals\": {},", self.max_meals);
        let _ = writeln!(out, "  \"everyone_ate\": {},", self.everyone_ate);
        let _ = writeln!(out, "  \"watchdog_tripped\": {},", self.watchdog_tripped);
        let _ = writeln!(out, "  \"jain_fairness\": {},", num(self.jain_fairness));
        let meals: Vec<String> = self.meals.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"meals\": [{}],", meals.join(", "));
        match &self.timing {
            None => {
                let _ = writeln!(out, "  \"elapsed_secs\": null,");
                let _ = writeln!(out, "  \"meals_per_sec\": null,");
                let _ = writeln!(out, "  \"mean_wait_micros\": null,");
                let _ = writeln!(out, "  \"first_meal_p50\": null,");
                let _ = writeln!(out, "  \"first_meal_p90\": null,");
                let _ = writeln!(out, "  \"first_meal_p99\": null,");
                let _ = writeln!(out, "  \"wait_histogram_ns\": null");
            }
            Some(t) => {
                let _ = writeln!(out, "  \"elapsed_secs\": {},", num(t.elapsed_secs));
                let _ = writeln!(out, "  \"meals_per_sec\": {},", num(t.meals_per_sec));
                let _ = writeln!(out, "  \"mean_wait_micros\": {},", num(t.mean_wait_micros));
                let _ = writeln!(out, "  \"first_meal_p50\": {},", num(t.first_meal_p50));
                let _ = writeln!(out, "  \"first_meal_p90\": {},", num(t.first_meal_p90));
                let _ = writeln!(out, "  \"first_meal_p99\": {},", num(t.first_meal_p99));
                // Sparse form: only non-empty buckets, as [lo_ns, hi_ns, count].
                // Bucket 0 also absorbs 0-ns waits and the top bucket absorbs
                // everything longer, so the serialized bounds reflect that.
                let last = t.wait_histogram.len() - 1;
                let buckets: Vec<String> = t
                    .wait_histogram
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        let lo = if i == 0 { 0u64 } else { 1u64 << i };
                        let hi = if i == last {
                            u64::MAX as u128
                        } else {
                            (1u128 << (i + 1)) - 1
                        };
                        format!("[{lo}, {hi}, {c}]")
                    })
                    .collect();
                let _ = writeln!(out, "  \"wait_histogram_ns\": [{}]", buckets.join(", "));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders the report as CSV: the [`stress_csv_header`] row plus one data
    /// row.  Timing columns are empty when timing was not recorded.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let (elapsed, mps, wait, p50, p90, p99) = match &self.timing {
            Some(t) => (
                num(t.elapsed_secs),
                num(t.meals_per_sec),
                num(t.mean_wait_micros),
                num(t.first_meal_p50),
                num(t.first_meal_p90),
                num(t.first_meal_p99),
            ),
            None => Default::default(),
        };
        let crashed: Vec<String> = self.crashed_seats.iter().map(u64::to_string).collect();
        let mut out = String::from(stress_csv_header());
        out.push('\n');
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.cell,
            self.family,
            self.size,
            self.philosophers,
            self.forks,
            self.algorithm,
            self.threads,
            self.load,
            self.watchdog_ms,
            self.seed,
            self.spin,
            self.crash_seats,
            crashed.join(";"),
            self.total_meals,
            self.min_meals,
            self.max_meals,
            self.everyone_ate,
            self.watchdog_tripped,
            num(self.jain_fairness),
            elapsed,
            mps,
            wait,
            p50,
            p90,
            p99,
        );
        out
    }

    /// Writes [`Self::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes [`Self::to_csv`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(algorithm: AlgorithmKind) -> StressSpec {
        StressSpec {
            load: StressLoad::MealsPerSeat(8),
            ..StressSpec::new(TopologyFamily::Ring, 4, algorithm)
        }
    }

    #[test]
    fn meal_budget_stress_feeds_everyone_and_is_byte_reproducible() {
        let spec = small_spec(AlgorithmKind::Gdp2);
        let a = run_stress(&spec, false).unwrap();
        let b = run_stress(&spec, false).unwrap();
        assert!(a.succeeded());
        assert_eq!(a.total_meals, 32);
        assert_eq!(a.min_meals, 8);
        assert_eq!(a.max_meals, 8);
        assert_eq!(a.jain_fairness, 1.0);
        assert!(a.timing.is_none());
        // Two independent real-thread runs, identical serialized bytes: the
        // committed-artifact contract.
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_json().contains("\"elapsed_secs\": null"));
    }

    #[test]
    fn timing_fields_are_attached_on_request() {
        let spec = small_spec(AlgorithmKind::Gdp1);
        let report = run_stress(&spec, true).unwrap();
        assert!(report.succeeded());
        let timing = report.timing.as_ref().expect("timing requested");
        assert!(timing.elapsed_secs > 0.0);
        assert!(timing.meals_per_sec > 0.0);
        assert_eq!(timing.wait_histogram.iter().sum::<u64>(), 32);
        // Everyone ate, so the first-meal percentiles come from 4 real
        // samples; the bucket-floor estimator keeps them ordered.
        assert!(timing.first_meal_p50 >= 0.0);
        assert!(timing.first_meal_p90 >= timing.first_meal_p50);
        assert!(timing.first_meal_p99 >= timing.first_meal_p90);
        assert!(report.to_json().contains("\"first_meal_p50\": "));
        assert!(report.to_json().contains("\"wait_histogram_ns\": ["));
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1].split(',').count(),
            stress_csv_header().split(',').count()
        );
    }

    #[test]
    fn duration_mode_measures_and_partial_threads_drive_a_subset() {
        let spec = StressSpec {
            threads: 2,
            load: StressLoad::DurationMs(40),
            ..StressSpec::new(TopologyFamily::Ring, 5, AlgorithmKind::Gdp2)
        };
        let report = run_stress(&spec, true).unwrap();
        assert_eq!(report.threads, 2);
        assert!(!report.watchdog_tripped);
        assert!(report.total_meals > 0);
        assert!(report.meals[2..].iter().all(|&m| m == 0));
        assert!(report.load.starts_with("duration_ms:"));
    }

    #[test]
    fn naive_on_a_contended_ring_is_bounded_by_the_watchdog() {
        // The naive baseline may or may not deadlock under a particular OS
        // schedule; the contract here is bounded termination, not the
        // verdict (the deterministic deadlock lives in
        // tests/runtime_vs_sim.rs, where the state is forced).
        let spec = StressSpec {
            watchdog_ms: 500,
            load: StressLoad::MealsPerSeat(3),
            ..StressSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Naive)
        };
        let report = run_stress(&spec, false).unwrap();
        assert_eq!(report.watchdog_ms, 500);
        // Either it squeezed the meals through or the watchdog fired; both
        // terminate and serialize.
        assert!(report.to_json().contains("\"kind\": \"runtime_stress\""));
    }

    #[test]
    fn crash_stress_exempts_victims_and_stays_byte_reproducible() {
        let spec = StressSpec {
            crash_seats: 2,
            load: StressLoad::MealsPerSeat(6),
            ..StressSpec::new(TopologyFamily::Ring, 5, AlgorithmKind::Gdp2)
        };
        let a = run_stress(&spec, false).unwrap();
        assert!(a.succeeded(), "survivors feed despite two crashes");
        assert_eq!(a.crash_seats, 2);
        assert_eq!(a.crashed_seats.len(), 2);
        assert!(a.total_meals < 30, "victims ate strictly less than budget");
        assert!(a.jain_fairness < 1.0, "crashes show up as unfairness");
        let json = a.to_json();
        assert!(json.contains("\"crash_seats\": 2"), "{json}");
        assert!(json.contains("\"crashed_seats\": ["), "{json}");
        // Crash runs replay: identical artifacts on a second execution.
        let b = run_stress(&spec, false).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn cell_keys_match_sweep_formatting() {
        let spec = StressSpec::new(TopologyFamily::Ring, 6, AlgorithmKind::Lr2);
        assert_eq!(spec.cell(), "ring/n6/LR2");
        assert_eq!(StressLoad::MealsPerSeat(9).name(), "meals:9");
        assert_eq!(StressLoad::DurationMs(70).name(), "duration_ms:70");
    }

    #[test]
    fn invalid_sizes_report_an_error() {
        let spec = StressSpec::new(TopologyFamily::Ring, 1, AlgorithmKind::Gdp2);
        assert!(run_stress(&spec, false).is_err());
    }
}
