//! Whole-table drivers: spawn one OS thread per (active) philosopher and
//! drive every seat to a meal budget or for a wall-clock duration, with an
//! optional watchdog so even the deliberately broken baselines terminate.
//!
//! ## Crash-stop load shaping
//!
//! [`RunOptions::crash_seats`] injects the adversary catalog's crash-stop
//! fault model (`gdp-adversary`'s `crash:<f>`) into a real-thread run: a
//! seeded subset of the active seats completes only a seeded share of its
//! budget, then *crashes mid-protocol* — it steps partway into its next
//! acquisition (possibly taking a fork) and recovers through
//! [`Seat::reset_trying`](crate::Seat::reset_trying), the release-and-reset
//! path a supervisor would run for a dead worker.  Victims and crash points
//! derive from [`RunOptions::seed`] alone, so meal-budget crash runs stay
//! byte-reproducible like every other timing-free artifact.

use crate::counters::jain_fairness_index;
use crate::seat::Seat;
use crate::table::DiningTable;
use gdp_algorithms::AlgorithmKind;
use gdp_observe::{SharedSink, LOG2_BUCKETS};
use gdp_topology::{PhilosopherId, Topology};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Options for [`run_with`] and [`run_for_duration`].
#[derive(Clone)]
pub struct RunOptions {
    /// The algorithm every seat interprets.
    pub algorithm: AlgorithmKind,
    /// Meals each active seat must complete ([`run_with`] only).
    pub meals_per_seat: u64,
    /// How many philosophers get a driving thread: seats `0..active_seats`.
    /// `None`, `Some(0)` and any value `>= n` all drive every philosopher
    /// (0 means "all", matching `gdp stress --threads 0`); anything in
    /// between models partial participation — the remaining philosophers
    /// stay thinking and their forks stay free.
    pub active_seats: Option<usize>,
    /// Whole-run watchdog: once elapsed, threads abandon their current
    /// acquisition attempt and the report sets
    /// [`RunReport::watchdog_tripped`].  `None` runs unbounded — do **not**
    /// do that with [`AlgorithmKind::Naive`], which can deadlock.
    pub watchdog: Option<Duration>,
    /// Seed for the seats' private randomness.
    pub seed: u64,
    /// Crash-stop faults: this many seeded active seats stop mid-protocol
    /// before finishing their budget, recovering their forks through
    /// [`Seat::reset_trying`](crate::Seat::reset_trying).  Capped at
    /// `active − 1` (somebody always survives); victims and crash points
    /// derive from [`seed`](Self::seed) alone, so crash runs replay.
    pub crash_seats: usize,
    /// Structured-event sink shared by every seat (see
    /// [`Seat::set_event_sink`](crate::Seat::set_event_sink)).  Events are
    /// stamped with per-seat sequence numbers; real-thread interleaving
    /// makes the merged stream run-dependent, so exporters sort by
    /// `(actor, clock)`.  `None` (the default) compiles the hot path down
    /// to a branch on a `None` — effectively free.
    pub sink: Option<SharedSink>,
}

impl fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("algorithm", &self.algorithm)
            .field("meals_per_seat", &self.meals_per_seat)
            .field("active_seats", &self.active_seats)
            .field("watchdog", &self.watchdog)
            .field("seed", &self.seed)
            .field("crash_seats", &self.crash_seats)
            .field("sink", &self.sink.as_ref().map(|_| "<EventSink>"))
            .finish()
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            algorithm: AlgorithmKind::Gdp2,
            meals_per_seat: 50,
            active_seats: None,
            watchdog: None,
            seed: 0,
            crash_seats: 0,
            sink: None,
        }
    }
}

/// Wall-clock figures of a run.  Kept separate from [`RunReport`] so report
/// serializers can omit them: with timing excluded, a meal-budget run that
/// fed everyone is a deterministic artifact (every count is exactly the
/// budget), byte-reproducible like the sweep reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTiming {
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Total meals per second across the table.
    pub throughput_meals_per_sec: f64,
    /// Total time each philosopher spent waiting for forks.
    pub wait: Vec<Duration>,
    /// Hungry-to-eating latency of each philosopher's first meal in
    /// nanoseconds (`None` if the philosopher never started eating) — the
    /// runtime's wall-clock time-to-first-meal figure.
    pub first_wait_nanos: Vec<Option<u64>>,
    /// Table-wide log2 histogram of per-meal wait times in nanoseconds
    /// (bucket `i` counts waits in `[2^i, 2^(i+1))` ns).
    pub wait_histogram: [u64; LOG2_BUCKETS],
}

/// Result of [`run_with`] / [`run_for_meals`] / [`run_for_duration`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The algorithm that was interpreted.
    pub algorithm: AlgorithmKind,
    /// Number of philosophers in the topology.
    pub philosophers: usize,
    /// Number of seats that had a driving thread (`<= philosophers`).
    pub active_seats: usize,
    /// Meals completed per philosopher (inactive seats report 0).
    pub meals: Vec<u64>,
    /// Per-philosopher crash flags: `true` for the seats the crash-stop
    /// fault model ([`RunOptions::crash_seats`]) stopped mid-run.
    pub crashed: Vec<bool>,
    /// Whether any thread hit the watchdog before finishing its budget.
    pub watchdog_tripped: bool,
    /// Wall-clock figures; `None` when the caller asked for a
    /// timing-free (byte-reproducible) report.
    pub timing: Option<RunTiming>,
}

impl RunReport {
    /// Total meals completed.
    #[must_use]
    pub fn total_meals(&self) -> u64 {
        self.meals.iter().sum()
    }

    /// Returns `true` if every **active surviving** philosopher completed at
    /// least one meal (crashed seats are exempt — their budget was cut by
    /// the fault model, not by contention).
    #[must_use]
    pub fn everyone_ate(&self) -> bool {
        self.meals[..self.active_seats]
            .iter()
            .zip(&self.crashed)
            .all(|(&m, &crashed)| crashed || m > 0)
    }

    /// Number of seats the fault model crashed.
    #[must_use]
    pub fn crashed_seats(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// Jain's fairness index over the active philosophers' meal counts
    /// (see [`jain_fairness_index`]).
    #[must_use]
    pub fn jain_fairness(&self) -> f64 {
        jain_fairness_index(&self.meals[..self.active_seats])
    }

    /// Convenience accessor: throughput if timing was recorded.
    #[must_use]
    pub fn throughput_meals_per_sec(&self) -> Option<f64> {
        self.timing.as_ref().map(|t| t.throughput_meals_per_sec)
    }
}

/// The seeded crash plan: per active seat, `None` for survivors or
/// `Some(permille)` — the share of the victim's budget (meals or wall
/// clock) it completes before crashing, drawn from `[200, 800)`.
///
/// Victim selection is [`gdp_adversary::seeded_crash_plan`] — the same
/// algorithm behind the Monte-Carlo `crash:<f>` scheduler, so the two
/// faces of the fault model cannot drift.  A pure function of
/// `(seed, crash_seats, active)`, so crash runs are replayable from the
/// spec alone; at least one seat always survives.
fn crash_plan(seed: u64, crash_seats: usize, active: usize) -> Vec<Option<u64>> {
    gdp_adversary::seeded_crash_plan(seed ^ 0xC4A5_4057, crash_seats, active, 200..800)
}

/// Crash-stops a seat mid-protocol: steps partway into the next
/// acquisition (up to one fork taken, requests registered) and then runs
/// the [`Seat::reset_trying`] recovery — the supervisor path that releases
/// a dead worker's forks and withdraws its requests so survivors proceed.
fn crash_stop(seat: &mut Seat) {
    // Three atomic steps reach a held first fork (LR1) or registered
    // requests (LR2/GDP2) but never complete a meal, keeping meal-budget
    // artifacts deterministic.
    for _ in 0..3 {
        seat.step_once();
    }
    seat.reset_trying();
    seat.note_crash();
}

fn finish_report(
    table: &DiningTable,
    active: usize,
    crashed: Vec<bool>,
    tripped: bool,
    elapsed: Duration,
) -> RunReport {
    let stats = table.stats();
    let total = stats.total_meals();
    RunReport {
        algorithm: table.algorithm(),
        philosophers: table.topology().num_philosophers(),
        active_seats: active,
        meals: stats.meals().to_vec(),
        crashed,
        watchdog_tripped: tripped,
        timing: Some(RunTiming {
            elapsed,
            throughput_meals_per_sec: if elapsed.as_secs_f64() > 0.0 {
                total as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            wait: stats.wait_times(),
            first_wait_nanos: stats.first_wait_nanos().to_vec(),
            wait_histogram: *stats.wait_histogram(),
        }),
    }
}

/// Spawns one thread for each active philosopher of `topology`; each thread
/// completes [`RunOptions::meals_per_seat`] meals (each running `critical`)
/// or gives up at the watchdog.  Uses scoped threads, so `critical` only
/// needs to be `Sync`.
pub fn run_with<F>(topology: Topology, options: &RunOptions, critical: F) -> RunReport
where
    F: Fn() + Sync,
{
    let table = DiningTable::new(topology, options.algorithm, options.seed);
    let n = table.topology().num_philosophers();
    let active = match options.active_seats {
        Some(a) if a >= 1 => a.min(n),
        _ => n,
    };
    let plan = crash_plan(options.seed, options.crash_seats, active);
    let mut crashed = vec![false; n];
    for (p, share) in plan.iter().enumerate() {
        crashed[p] = share.is_some();
    }
    let deadline = options.watchdog.map(|w| Instant::now() + w);
    let tripped = AtomicBool::new(false);
    let started = Instant::now();
    let critical_ref = &critical;
    let tripped_ref = &tripped;
    std::thread::scope(|scope| {
        for (p, share) in plan.iter().enumerate() {
            let mut seat = table.seat(PhilosopherId::new(p as u32));
            seat.set_event_sink(options.sink.clone());
            // Victims complete a seeded share of the budget (at least one
            // meal), then crash mid-protocol and recover their forks.
            let budget = match *share {
                None => options.meals_per_seat,
                Some(permille) => (options.meals_per_seat * permille / 1000).max(1),
            };
            let is_victim = share.is_some();
            scope.spawn(move || {
                for _ in 0..budget {
                    match deadline {
                        None => {
                            seat.dine(critical_ref);
                        }
                        Some(d) => {
                            if seat.try_dine_until(d, critical_ref).is_none() {
                                seat.note_watchdog();
                                tripped_ref.store(true, Ordering::SeqCst);
                                return;
                            }
                        }
                    }
                }
                if is_victim {
                    crash_stop(&mut seat);
                }
            });
        }
    });
    finish_report(
        &table,
        active,
        crashed,
        tripped.load(Ordering::SeqCst),
        started.elapsed(),
    )
}

/// Drives every active seat for (at least) `duration` of wall-clock time:
/// each thread completes as many meals as it can before the shared deadline.
/// A [`RunOptions::watchdog`] shorter than `duration` cuts the run short
/// and is reported as tripped — it stays the whole-run bound in this mode
/// too; otherwise running out of time *is* the stop condition, and the
/// per-philosopher meal counts are the measurement (inherently
/// timing-dependent, unlike the meal-budget mode).
pub fn run_for_duration<F>(
    topology: Topology,
    options: &RunOptions,
    duration: Duration,
    critical: F,
) -> RunReport
where
    F: Fn() + Sync,
{
    let table = DiningTable::new(topology, options.algorithm, options.seed);
    let n = table.topology().num_philosophers();
    let active = match options.active_seats {
        Some(a) if a >= 1 => a.min(n),
        _ => n,
    };
    let plan = crash_plan(options.seed, options.crash_seats, active);
    let mut crashed = vec![false; n];
    for (p, share) in plan.iter().enumerate() {
        crashed[p] = share.is_some();
    }
    let tripped = matches!(options.watchdog, Some(w) if w < duration);
    let bound = if tripped {
        options.watchdog.expect("tripped implies a watchdog")
    } else {
        duration
    };
    let started = Instant::now();
    let deadline = started + bound;
    let critical_ref = &critical;
    std::thread::scope(|scope| {
        for (p, share) in plan.iter().enumerate() {
            let mut seat = table.seat(PhilosopherId::new(p as u32));
            seat.set_event_sink(options.sink.clone());
            // Victims run until a seeded share of the wall clock, then
            // crash mid-protocol and recover their forks.
            let my_deadline = match *share {
                None => deadline,
                Some(permille) => started + bound.mul_f64(permille as f64 / 1000.0),
            };
            let is_victim = share.is_some();
            scope.spawn(move || {
                while Instant::now() < my_deadline {
                    if seat.try_dine_until(my_deadline, critical_ref).is_none() {
                        break;
                    }
                }
                if is_victim {
                    crash_stop(&mut seat);
                }
            });
        }
    });
    finish_report(&table, active, crashed, tripped, started.elapsed())
}

/// Back-compatible convenience wrapper: GDP2, every seat active, no
/// watchdog — each thread completes `meals_per_philosopher` meals.
pub fn run_for_meals<F>(topology: Topology, meals_per_philosopher: u64, critical: F) -> RunReport
where
    F: Fn() + Sync,
{
    run_with(
        topology,
        &RunOptions {
            meals_per_seat: meals_per_philosopher,
            ..RunOptions::default()
        },
        critical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_topology::builders::{classic_ring, figure1_triangle};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn everyone_completes_their_meals_on_the_ring() {
        let report = run_for_meals(classic_ring(5).unwrap(), 50, || {});
        assert_eq!(report.philosophers, 5);
        assert_eq!(report.active_seats, 5);
        assert_eq!(report.total_meals(), 250);
        assert!(report.everyone_ate());
        assert!(!report.watchdog_tripped);
        assert!(report.meals.iter().all(|&m| m == 50));
        assert_eq!(report.jain_fairness(), 1.0);
        assert_eq!(report.algorithm, AlgorithmKind::Gdp2);
        let timing = report.timing.as_ref().expect("drivers record timing");
        assert!(timing.throughput_meals_per_sec > 0.0);
        assert_eq!(timing.wait.len(), 5);
        assert_eq!(timing.wait_histogram.iter().sum::<u64>(), 250);
        // Everyone ate, so everyone has a time-to-first-meal sample.
        assert_eq!(timing.first_wait_nanos.len(), 5);
        assert!(timing.first_wait_nanos.iter().all(Option::is_some));
    }

    #[test]
    fn event_sink_sees_per_seat_sequenced_protocol_events() {
        use gdp_observe::{Event, MemorySink};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let report = run_with(
            classic_ring(4).unwrap(),
            &RunOptions {
                meals_per_seat: 5,
                sink: Some(sink.clone()),
                ..RunOptions::default()
            },
            || {},
        );
        assert_eq!(report.total_meals(), 20);
        let events = sink.take();
        let meal_finishes = events
            .iter()
            .filter(|e| matches!(e, Event::MealFinish { .. }))
            .count();
        assert_eq!(meal_finishes as u64, 20, "one meal_finish per meal");
        // Per-actor sequence numbers are the runtime's logical clock: within
        // one actor, clocks must be strictly increasing in emission order
        // (MemorySink preserves arrival order per lock acquisition, and each
        // actor's events arrive in its own program order).
        let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for event in &events {
            let actor = match event {
                Event::Schedule { actor, .. } => *actor,
                _ => continue,
            };
            let clock = event.clock();
            assert!(
                last.get(&actor).is_none_or(|&prev| clock > prev),
                "actor {actor}: clock {clock} after {:?}",
                last.get(&actor)
            );
            last.insert(actor, clock);
        }
        assert_eq!(last.len(), 4, "every seat emitted schedule events");
    }

    #[test]
    fn critical_sections_are_actually_executed() {
        let counter = AtomicU64::new(0);
        let report = run_for_meals(figure1_triangle(), 20, || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(report.total_meals(), 120);
        assert_eq!(counter.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn every_deadlock_free_algorithm_feeds_the_ring_on_real_threads() {
        for algorithm in AlgorithmKind::deadlock_free() {
            let report = run_with(
                classic_ring(4).unwrap(),
                &RunOptions {
                    algorithm,
                    meals_per_seat: 20,
                    watchdog: Some(Duration::from_secs(60)),
                    ..RunOptions::default()
                },
                || {},
            );
            assert!(!report.watchdog_tripped, "{algorithm}");
            assert!(report.everyone_ate(), "{algorithm}: {:?}", report.meals);
            assert_eq!(report.total_meals(), 80, "{algorithm}");
        }
    }

    #[test]
    fn partial_participation_drives_only_the_requested_seats() {
        let report = run_with(
            classic_ring(6).unwrap(),
            &RunOptions {
                meals_per_seat: 10,
                active_seats: Some(2),
                ..RunOptions::default()
            },
            || {},
        );
        assert_eq!(report.active_seats, 2);
        assert_eq!(report.total_meals(), 20);
        assert!(report.everyone_ate(), "active seats all ate");
        assert!(report.meals[2..].iter().all(|&m| m == 0));
    }

    #[test]
    fn crash_seats_cut_seeded_victims_short_and_recover_their_forks() {
        let options = RunOptions {
            meals_per_seat: 10,
            crash_seats: 2,
            watchdog: Some(Duration::from_secs(60)),
            seed: 5,
            ..RunOptions::default()
        };
        let report = run_with(classic_ring(5).unwrap(), &options, || {});
        assert!(!report.watchdog_tripped);
        assert_eq!(report.crashed_seats(), 2);
        assert!(
            report.everyone_ate(),
            "survivors all fed: {:?}",
            report.meals
        );
        for (p, (&meals, &crashed)) in report.meals.iter().zip(&report.crashed).enumerate() {
            if crashed {
                assert!(
                    (1..10).contains(&meals),
                    "victim P{p} eats a strict, nonzero share: {meals}"
                );
            } else {
                assert_eq!(meals, 10, "survivor P{p} finishes its budget");
            }
        }
        // Every fork is free again: reset_trying released the victims'.
        let table = DiningTable::for_topology(classic_ring(5).unwrap());
        drop(table);

        // Same seed, same victims, same meal counts: crash runs replay.
        let again = run_with(classic_ring(5).unwrap(), &options, || {});
        assert_eq!(report.meals, again.meals);
        assert_eq!(report.crashed, again.crashed);

        // A different seed picks (generally) different victims/budgets.
        let other = run_with(
            classic_ring(5).unwrap(),
            &RunOptions { seed: 6, ..options },
            || {},
        );
        assert_eq!(other.crashed_seats(), 2);
    }

    #[test]
    fn crash_plan_always_leaves_a_survivor_and_is_empty_without_faults() {
        assert!(crash_plan(3, 0, 4).iter().all(Option::is_none));
        let all = crash_plan(3, 99, 4);
        assert_eq!(all.iter().filter(|s| s.is_some()).count(), 3);
        assert!(crash_plan(3, 99, 1).iter().all(Option::is_none));
        // Pure function of the seed.
        assert_eq!(crash_plan(7, 2, 6), crash_plan(7, 2, 6));
    }

    #[test]
    fn duration_mode_crashes_victims_at_their_seeded_share() {
        let report = run_for_duration(
            classic_ring(4).unwrap(),
            &RunOptions {
                crash_seats: 1,
                seed: 2,
                ..RunOptions::default()
            },
            Duration::from_millis(80),
            || {},
        );
        assert_eq!(report.crashed_seats(), 1);
        assert!(!report.watchdog_tripped);
        assert!(report.total_meals() > 0);
    }

    #[test]
    fn duration_mode_honours_a_shorter_watchdog() {
        // The watchdog stays the whole-run bound in duration mode: shorter
        // than the requested duration, it cuts the run and reports tripped.
        let report = run_for_duration(
            classic_ring(3).unwrap(),
            &RunOptions {
                watchdog: Some(Duration::from_millis(30)),
                ..RunOptions::default()
            },
            Duration::from_secs(600),
            || {},
        );
        assert!(report.watchdog_tripped);
        let elapsed = report.timing.as_ref().unwrap().elapsed;
        assert!(
            elapsed < Duration::from_secs(60),
            "the watchdog bounds the run, took {elapsed:?}"
        );
    }

    #[test]
    fn duration_mode_stops_near_the_deadline() {
        let report = run_for_duration(
            classic_ring(3).unwrap(),
            &RunOptions::default(),
            Duration::from_millis(60),
            || {},
        );
        assert!(!report.watchdog_tripped);
        assert!(report.total_meals() > 0, "60ms is plenty for some meals");
        let elapsed = report.timing.as_ref().unwrap().elapsed;
        assert!(
            elapsed < Duration::from_secs(20),
            "the deadline bounds the run, took {elapsed:?}"
        );
    }
}
