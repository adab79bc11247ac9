//! Reproduces Figure 1 of the paper: the gallery of generalized dining
//! philosopher systems, with structural analysis and a progress check for
//! GDP1/GDP2 on each of them (the triangle's exact verdicts are the Section 3
//! and Theorem 3 rows of `gdp_bench::CLAIMS`).
//!
//! ```bash
//! cargo run --example figure1_gallery
//! ```

use gdp::prelude::*;

fn main() {
    println!("Figure 1 gallery — generalized dining philosopher systems");
    println!("{}", "=".repeat(72));

    for (name, topology) in builders::figure1_gallery() {
        let stats = topology_analysis::degree_stats(&topology);
        println!(
            "\n{name}: {} philosophers, {} forks",
            topology.num_philosophers(),
            topology.num_forks()
        );
        println!("  fork sharing (min..max) : {}..{}", stats.min, stats.max);
        println!(
            "  connected               : {}",
            topology_analysis::is_connected(&topology)
        );
        println!(
            "  contains a cycle        : {}",
            topology_analysis::has_cycle(&topology)
        );
        println!(
            "  Theorem 1 precondition  : {}",
            topology_analysis::theorem1_applies(&topology)
        );
        println!(
            "  Theorem 2 precondition  : {}",
            topology_analysis::theorem2_applies(&topology)
        );

        // Graphviz rendering, for visual comparison with the paper's figure.
        let rendered = dot::to_dot(&topology, &dot::DotOptions::default());
        println!(
            "  graphviz ({} lines, render with `dot -Tpng`)",
            rendered.lines().count()
        );

        // Progress (Theorem 3) and lockout-freedom (Theorem 4) on this system.
        for kind in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
            let estimate = montecarlo::estimate_liveness(
                &topology,
                &kind.program(),
                |trial| AdversaryKind::UniformRandom.build(0, trial),
                &TrialConfig::new(5, 300_000),
            );
            println!(
                "  {:<5} progress={:.2} lockout_free={:.2} first_meal_p50={:.0} meals/kstep={:.2}",
                kind.name(),
                estimate.progress.progress_fraction,
                estimate.lockout.lockout_free_fraction,
                estimate.progress.first_meal_p50,
                estimate.progress.meals_mean / 300.0
            );
        }
    }
}
