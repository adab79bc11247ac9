//! Prints the exact verdict of every paper claim (`gdp_bench::CLAIMS`),
//! then the tables no exact class covers: the Section 3 wave scheduler
//! (E2), the Section 4 symmetry-breaking bound (E8) and the threaded
//! runtime with guarded choice (E10):
//!
//! ```bash
//! cargo run -p gdp-bench --bin report --release
//! ```
//!
//! The output is the canonical source of the reproduced experiment
//! numbers and ends with the line `done.`.  The binary takes no arguments;
//! any argument is a usage error (exit 2) reported before a table runs.
//! Performance is measured by `python3 perfbench/run.py`, see
//! `docs/PERFORMANCE.md`.

use gdp_algorithms::AlgorithmKind;
use gdp_analysis::symmetry::{distinct_probability_lower_bound, empirical_distinct_probability};
use gdp_bench::{print_header, wave_summary, CLAIMS, TRIALS};
use gdp_picalc::{ChannelId, ChoiceRound, Guard};
use gdp_runtime::{run, RunOptions, StressLoad};
use gdp_scenarios::{run_check, ExactCellVerdict};
use gdp_topology::builders::{
    classic_ring, complete_conflict, figure1_gallery, figure1_triangle, figure3_theta,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?}; usage: report (takes no arguments)");
        std::process::exit(2);
    }

    println!(
        "gdp reproduction report — the paper's claims checked exactly, then the tables no exact \
         class covers"
    );

    // ------------------------------------------------------------- claims
    print_header("Claims | the paper's claims as exact `gdp check` verdicts (gdp_bench::CLAIMS)");
    println!(
        "{:<14} {:<10} {:<10} {:<6} {:>12} {:>9}  command",
        "source", "paper", "checked", "agrees", "worst-case P", "states"
    );
    for claim in CLAIMS {
        let report = run_check(&claim.spec()).expect("every claim cell builds");
        let exact = ExactCellVerdict::from_report(&report);
        println!(
            "{:<14} {:<10} {:<10} {:<6} {:>12.9} {:>9}  {}",
            claim.source,
            claim.paper.name(),
            exact.verdict,
            if claim.paper == report.verdict() {
                "yes"
            } else {
                "no"
            },
            exact.progress_probability,
            exact.states,
            claim.command()
        );
    }

    // ---------------------------------------------------------------- E2
    print_header(
        "E2 | Section 3: wave scheduler vs all four algorithms on the triangle (50k-step windows)",
    );
    println!(
        "{:<10} {:>16} {:>16} {:>24}",
        "algorithm", "P(no progress)", "mean meals/run", "mean fairness bound"
    );
    for algorithm in AlgorithmKind::paper_algorithms() {
        let summary = wave_summary(algorithm, TRIALS, 50_000);
        println!(
            "{:<10} {:>16.2} {:>16.1} {:>24.0}",
            algorithm.name(),
            summary.blocked_fraction,
            summary.mean_meals,
            summary.mean_fairness_bound
        );
    }

    // ---------------------------------------------------------------- E8
    print_header("E8 | Section 4: symmetry-breaking probability vs the paper's lower bound");
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    println!(
        "{:<30} {:>4} {:>6} {:>18} {:>18}",
        "topology", "k", "m", "paper lower bound", "measured (adjacent)"
    );
    let mut topologies = figure1_gallery();
    topologies.push(("classic-ring-8", classic_ring(8).unwrap()));
    topologies.push(("complete-5", complete_conflict(5).unwrap()));
    for (name, topology) in &topologies {
        let k = topology.num_forks() as u32;
        for m in [k, 2 * k, 4 * k] {
            let bound = distinct_probability_lower_bound(k, m);
            let measured = empirical_distinct_probability(topology, m, 50_000, &mut rng);
            println!("{name:<30} {k:>4} {m:>6} {bound:>18.6} {measured:>18.6}");
        }
    }

    // ---------------------------------------------------------------- E10
    print_header("E10 | Threaded GDP2 runtime and guarded choice");
    for (name, topology) in [
        ("classic-ring-8", classic_ring(8).unwrap()),
        ("classic-ring-32", classic_ring(32).unwrap()),
        ("figure1-triangle", figure1_triangle()),
        ("figure3-theta", figure3_theta()),
    ] {
        let options = RunOptions {
            load: StressLoad::MealsPerSeat(200),
            ..RunOptions::default()
        };
        let report = run(topology, &options, std::hint::spin_loop);
        println!(
            "{:<18} threads={:<3} meals={:<6} throughput={:>10.0} meals/s  everyone_ate={}",
            name,
            report.philosophers,
            report.total_meals(),
            report.throughput_meals_per_sec(),
            report.everyone_ate()
        );
    }
    let mut committed = 0usize;
    for _ in 0..20 {
        let mut round = ChoiceRound::new();
        let _server = round.add_process(vec![
            Guard::recv(ChannelId::new(0)),
            Guard::send(ChannelId::new(1), 1),
        ]);
        for i in 0..6 {
            round.add_process(vec![Guard::send(ChannelId::new(0), i)]);
            round.add_process(vec![Guard::recv(ChannelId::new(1))]);
        }
        committed += round.resolve().synchronizations().len();
    }
    println!("guarded choice: 20 rounds with a mixed-choice server and 12 clients -> {committed} synchronizations committed");

    println!();
    println!("done.");
}
