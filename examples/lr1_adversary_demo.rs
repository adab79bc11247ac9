//! The paper's headline negative result, live: the Section 3 scheduler
//! defeats LR1 (and LR2) on the 6-philosopher / 3-fork system, while GDP1
//! and GDP2 cannot be defeated by it (the report's Section 3 table, E2).
//!
//! ```bash
//! cargo run --release --example lr1_adversary_demo
//! ```

use gdp::prelude::*;

fn run(kind: AlgorithmKind, trials: u64, steps: u64) -> (f64, f64, f64) {
    let topology = builders::figure1_triangle();
    let mut blocked = 0u64;
    let mut meals_total = 0u64;
    let mut fairness_bounds = Vec::new();
    for seed in 0..trials {
        let mut engine = Engine::new(
            topology.clone(),
            kind.program(),
            SimConfig::default().with_seed(seed),
        );
        let mut adversary = TriangleWaveAdversary::new(&topology).expect("triangle topology");
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
        if !outcome.made_progress() {
            blocked += 1;
        }
        meals_total += outcome.total_meals;
        if let Some(bound) = outcome.fairness_bound {
            fairness_bounds.push(bound as f64);
        }
    }
    (
        blocked as f64 / trials as f64,
        meals_total as f64 / trials as f64,
        stats::mean(&fairness_bounds),
    )
}

fn main() {
    let trials = 20;
    let steps = 50_000;
    println!("Section 3 scheduler vs the four algorithms on the Figure 1 triangle");
    println!(
        "({} trials x {} steps; the paper proves the LR1 no-progress",
        trials, steps
    );
    println!(" computation has probability >= 1/4 under a fair scheduler)");
    println!("{}", "-".repeat(78));
    println!(
        "{:<10} {:>18} {:>18} {:>22}",
        "algorithm", "P(no progress)", "mean meals/run", "mean fairness bound"
    );
    for kind in AlgorithmKind::paper_algorithms() {
        let (blocked, meals, bound) = run(kind, trials, steps);
        println!(
            "{:<10} {:>18.2} {:>18.1} {:>22.0}",
            kind.name(),
            blocked,
            meals,
            bound
        );
    }
    println!("{}", "-".repeat(78));
    println!("Expected shape: LR1/LR2 are blocked in well over 1/4 of the trials and");
    println!("eat nothing in those runs; GDP1/GDP2 always make progress (Theorems 3-4).");
}
