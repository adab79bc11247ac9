//! Integration test for the scenario-sweep subsystem: a small
//! ring / torus / random-regular × LR1 / GDP1 grid reproduces the paper's
//! qualitative split, and sweeps are bitwise-identical for every thread
//! count.
//!
//! The splits, in finite-horizon form:
//!
//! * under the generalized blocking scheduler of `gdp-adversary` with a
//!   constant stubbornness bound well below the window (so the scheduler is
//!   genuinely fair *inside* the window), LR1 stays lockout-free on the
//!   classic ring — the topology Lehmann & Rabin prove it correct on — but
//!   starves philosophers on the off-ring families (Section 3 / Theorem 1
//!   generalized);
//! * GDP1 makes progress in every cell under both the blocking and the
//!   uniform-random scheduler (Theorem 3), and under fair random scheduling
//!   it is empirically lockout-free on every family (the property GDP2
//!   upgrades to a guarantee);
//! * the Section 5 split between GDP1 and GDP2, surfaced by the **adaptive
//!   greedy-conflict** scheduler of the adversary catalog
//!   (`docs/ADVERSARIES.md`): on an irregular conflict graph GDP1 — which
//!   is lockout-free in the same cells under uniform-random scheduling —
//!   starves a philosopher in *every* trial, while GDP2's courtesy
//!   machinery keeps every philosopher fed under the very same scheduler.

use gdp_scenarios::{run_sweep, AdversaryKind, CellResult, ScenarioSpec, SeedPolicy, SweepOptions};

/// The qualitative-split grid: 3 families x 1 size x 2 algorithms.
fn split_spec() -> ScenarioSpec {
    ScenarioSpec::new("qualitative-split")
        .with_families_str("ring,torus,random-regular:3")
        .expect("family specs parse")
        .with_sizes([9])
        .with_algorithms_str("lr1,gdp1")
        .expect("algorithm specs parse")
        .with_adversary(AdversaryKind::BlockingPatient {
            stubbornness: 1_800,
        })
        .with_trials(8)
        .with_max_steps(40_000)
        .with_seed_policy(SeedPolicy::PerCell(0))
}

fn cell<'a>(cells: &'a [CellResult], key: &str) -> &'a CellResult {
    cells
        .iter()
        .find(|c| c.cell == key)
        .unwrap_or_else(|| panic!("missing cell {key}"))
}

#[test]
fn blocking_sweep_reproduces_the_lr1_off_ring_failure() {
    let report = run_sweep(&split_spec(), &SweepOptions::quiet()).expect("sweep runs");
    assert_eq!(report.cells.len(), 6);

    // Every cell progresses: the scheduler's fairness bound is 1 800 steps
    // on a 40 000-step window, so nobody can be deferred to a deadlock.
    for c in &report.cells {
        assert_eq!(c.deadlock_rate, 0.0, "no deadlock expected in {}", c.cell);
    }

    // LR1 on the classic ring: lockout-free, with a healthy meal floor.
    let lr1_ring = cell(&report.cells, "ring/n9/LR1");
    assert_eq!(
        lr1_ring.lockout_rate, 0.0,
        "LR1 must stay lockout-free on the ring"
    );
    assert!(lr1_ring.min_meals_mean >= 1.0);

    // LR1 off-ring: the same scheduler starves somebody in a sizable
    // fraction of trials (the measured rates are 0.375 on the torus and
    // 0.75 on the random 3-regular graph; 0.25 leaves slack).
    for key in ["torus/n9/LR1", "random-regular:3/n9/LR1"] {
        let c = cell(&report.cells, key);
        assert!(
            c.lockout_rate >= 0.25,
            "{key}: expected off-ring lockout, got rate {}",
            c.lockout_rate
        );
        assert!(
            c.lockout_rate > lr1_ring.lockout_rate,
            "{key} must be strictly worse than the ring"
        );
    }
}

#[test]
fn fair_sweep_keeps_gdp1_lockout_free_on_every_family() {
    let spec = split_spec()
        .with_adversary(AdversaryKind::UniformRandom)
        .with_trials(10)
        .with_max_steps(40_000);
    let report = run_sweep(&spec, &SweepOptions::quiet()).expect("sweep runs");
    for c in &report.cells {
        assert_eq!(c.deadlock_rate, 0.0, "{} must progress", c.cell);
        if c.algorithm == "GDP1" {
            assert_eq!(
                c.lockout_rate, 0.0,
                "GDP1 must be lockout-free under fair random scheduling in {}",
                c.cell
            );
            assert!(c.min_meals_mean >= 1.0, "{}", c.cell);
        }
    }
}

#[test]
fn greedy_conflict_separates_gdp1_from_gdp2_off_the_ring() {
    // The adversary-catalog split (Section 5 in adaptive-scheduler form):
    // under the contention-maximizing greedy-conflict scheduler with a
    // constant 1800-step fairness bound (well inside the 40k window, so the
    // scheduler is genuinely fair throughout), GDP1 starves somebody in
    // every random-3-regular trial while GDP2 keeps everyone fed — and the
    // same scheduler produces no lockout at all on the classic ring, so
    // the separation is a topology-and-adversary interaction, not a blunt
    // instrument.  (GDP1 is lockout-free in these same cells under
    // uniform-random scheduling: see
    // `fair_sweep_keeps_gdp1_lockout_free_on_every_family`.)
    let spec = ScenarioSpec::new("greedy-conflict-split")
        .with_families_str("ring,random-regular:3")
        .expect("family specs parse")
        .with_sizes([9])
        .with_algorithms_str("gdp1,gdp2")
        .expect("algorithm specs parse")
        .with_adversary(AdversaryKind::GreedyConflictPatient {
            stubbornness: 1_800,
        })
        .with_trials(8)
        .with_max_steps(40_000)
        .with_seed_policy(SeedPolicy::PerCell(0));
    let report = run_sweep(&spec, &SweepOptions::quiet()).expect("sweep runs");
    assert_eq!(report.cells.len(), 4);
    for c in &report.cells {
        assert_eq!(c.deadlock_rate, 0.0, "{} must progress", c.cell);
        assert_eq!(c.adversary, "greedy-conflict:1800");
    }

    // On the ring the fairness guard rescues everyone under both
    // algorithms (measured lockout 0.0 for each).
    for key in ["ring/n9/GDP1", "ring/n9/GDP2"] {
        assert_eq!(cell(&report.cells, key).lockout_rate, 0.0, "{key}");
    }

    // Off the ring: GDP1 starves a philosopher in every trial (measured
    // rate 1.0; 0.75 leaves slack), GDP2 in none.
    let gdp1 = cell(&report.cells, "random-regular:3/n9/GDP1");
    assert!(
        gdp1.lockout_rate >= 0.75,
        "greedy-conflict must starve GDP1 off-ring, got {}",
        gdp1.lockout_rate
    );
    let gdp2 = cell(&report.cells, "random-regular:3/n9/GDP2");
    assert_eq!(
        gdp2.lockout_rate, 0.0,
        "GDP2 must stay lockout-free under the same scheduler"
    );
    assert!(gdp2.min_meals_mean >= 1.0);
}

#[test]
fn sweeps_are_bitwise_identical_for_any_thread_count() {
    // The same grid under the fair random scheduler, serial vs parallel:
    // per-cell results, JSON and CSV artifacts must match byte for byte
    // (the PR-1 determinism contract extended to the scenario layer).
    let spec = split_spec()
        .with_adversary(AdversaryKind::UniformRandom)
        .with_trials(6)
        .with_max_steps(20_000);
    let serial = run_sweep(&spec.clone().with_threads(1), &SweepOptions::quiet()).unwrap();
    for threads in [2usize, 8] {
        let parallel =
            run_sweep(&spec.clone().with_threads(threads), &SweepOptions::quiet()).unwrap();
        assert_eq!(serial.cells, parallel.cells, "{threads} threads");
        assert_eq!(serial.to_json(), parallel.to_json(), "{threads} threads");
        assert_eq!(serial.to_csv(), parallel.to_csv(), "{threads} threads");
    }
}
