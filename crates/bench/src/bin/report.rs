//! Regenerates every experiment summary table (E1–E10) in one run:
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

use gdp_adversary::{
    AdversaryKind, BlockingAdversary, BlockingPolicy, StubbornnessSchedule, TargetStarver,
};
use gdp_algorithms::AlgorithmKind;
use gdp_analysis::montecarlo::estimate_liveness;
use gdp_analysis::symmetry::{distinct_probability_lower_bound, empirical_distinct_probability};
use gdp_analysis::TrialConfig;
use gdp_bench::{print_header, run_and_print, wave_summary, MAX_STEPS, TRIALS};
use gdp_picalc::{ChannelId, ChoiceRound, Guard};
use gdp_runtime::{run, RunOptions, StressLoad};
use gdp_sim::{Adversary, Engine, RunOutcome, SimConfig, StopCondition, UniformRandomAdversary};
use gdp_topology::builders::{
    classic_ring, complete_conflict, figure1_gallery, figure2_hexagon_with_pendant, figure3_theta,
    random_connected,
};
use gdp_topology::{PhilosopherId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The Figure 1 gallery, labelled for the summary rows.
fn gallery() -> Vec<(String, Topology)> {
    figure1_gallery()
        .into_iter()
        .map(|(name, topology)| (format!("figure1-{name}"), topology))
        .collect()
}

/// The gallery plus the Theorem 1 (Figure 2) and Theorem 2 (Figure 3)
/// witness systems.
fn gallery_and_witnesses() -> Vec<(String, Topology)> {
    let mut systems = gallery();
    systems.push((
        "figure2-hexagon+pendant".to_string(),
        figure2_hexagon_with_pendant(),
    ));
    systems.push(("figure3-theta-8/7".to_string(), figure3_theta()));
    systems
}

/// Runs [`TRIALS`] windows of `steps` steps of `algorithm` on `topology`
/// (trial `i` on seed `i`, a fresh adversary each) and returns the outcomes.
fn windows<A: Adversary>(
    topology: &Topology,
    algorithm: AlgorithmKind,
    steps: u64,
    adversary: impl Fn() -> A,
) -> Vec<RunOutcome> {
    (0..TRIALS)
        .map(|seed| {
            let mut engine = Engine::new(
                topology.clone(),
                algorithm.program(),
                SimConfig::default().with_seed(seed),
            );
            engine.run(&mut adversary(), StopCondition::MaxSteps(steps))
        })
        .collect()
}

/// `count / TRIALS`.
fn share(count: u64) -> f64 {
    count as f64 / TRIALS as f64
}

/// The stubbornness column of the E3/E4 blocking rows: a patient adversary
/// has a constant bound longer than the 40k-step window.
fn patience(patient: bool) -> &'static str {
    if patient {
        "patient (bound>window)"
    } else {
        "growing (default)"
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?}; usage: report (takes no arguments)");
        std::process::exit(2);
    }

    println!(
        "gdp reproduction report — {TRIALS} trials x {MAX_STEPS} steps unless stated otherwise"
    );

    // ---------------------------------------------------------------- E1
    print_header("E1 | Figure 1 gallery: GDP1/GDP2 on the paper's four generalized systems");
    for (name, topology) in gallery() {
        for algorithm in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
            run_and_print(&name, &topology, algorithm, AdversaryKind::UniformRandom);
        }
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

    // ---------------------------------------------------------------- E3
    print_header(
        "E3 | Theorem 1 (Figure 2): ring + pendant, targeted blocking adversary (40k-step windows)",
    );
    let figure2 = figure2_hexagon_with_pendant();
    let ring: Vec<PhilosopherId> = (0..6).map(PhilosopherId::new).collect();
    println!(
        "{:<10} {:<22} {:>22} {:>18} {:>20}",
        "algorithm",
        "adversary patience",
        "P(ring fully starved)",
        "mean ring meals",
        "mean pendant meals"
    );
    for (algorithm, patient) in [
        (AlgorithmKind::Lr1, true),
        (AlgorithmKind::Lr1, false),
        (AlgorithmKind::Gdp1, false),
        (AlgorithmKind::Gdp2, false),
    ] {
        let schedule = if patient {
            StubbornnessSchedule::Constant(50_000)
        } else {
            StubbornnessSchedule::Growing
        };
        let outcomes = windows(&figure2, algorithm, 40_000, || {
            BlockingAdversary::with_schedule(BlockingPolicy::starving(ring.clone()), schedule)
        });
        let ring_meals: Vec<u64> = outcomes
            .iter()
            .map(|o| {
                ring.iter()
                    .map(|p| o.meals_per_philosopher[p.index()])
                    .sum()
            })
            .collect();
        let pendant_meals: u64 = outcomes.iter().map(|o| o.meals_per_philosopher[6]).sum();
        println!(
            "{:<10} {:<22} {:>22.2} {:>18.1} {:>20.1}",
            algorithm.name(),
            patience(patient),
            share(ring_meals.iter().filter(|&&m| m == 0).count() as u64),
            share(ring_meals.iter().sum()),
            share(pendant_meals)
        );
    }

    // ---------------------------------------------------------------- E4
    print_header("E4 | Theorem 2: LR2 vs GDP2 on theta-containing topologies");
    for algorithm in [AlgorithmKind::Lr2, AlgorithmKind::Gdp2] {
        let summary = wave_summary(algorithm, TRIALS, 50_000);
        println!(
            "triangle + wave scheduler      {:<6} P(no progress) = {:.2}  mean meals = {:.1}",
            algorithm.name(),
            summary.blocked_fraction,
            summary.mean_meals
        );
    }
    let theta = figure3_theta();
    for (algorithm, adversary) in [
        (
            AlgorithmKind::Lr2,
            AdversaryKind::BlockingPatient {
                stubbornness: 50_000,
            },
        ),
        (AlgorithmKind::Lr2, AdversaryKind::Blocking),
        (AlgorithmKind::Gdp2, AdversaryKind::Blocking),
    ] {
        let estimate = estimate_liveness(
            &theta,
            &algorithm.program(),
            |trial| adversary.build(0, trial),
            &TrialConfig::new(TRIALS, 40_000),
        );
        println!(
            "theta + blocking adversary     {:<6} ({:<22}) P(no progress in window) = {:.2}",
            algorithm.name(),
            patience(adversary != AdversaryKind::Blocking),
            share(TRIALS - estimate.progress.progressed)
        );
    }

    // ---------------------------------------------------------------- E5
    print_header("E5 | Theorem 3: GDP1 progress probability across topologies and schedulers");
    let mut systems = gallery_and_witnesses();
    systems.push(("complete-5".to_string(), complete_conflict(5).unwrap()));
    for (name, topology) in &systems {
        for adversary in [
            AdversaryKind::RoundRobin,
            AdversaryKind::UniformRandom,
            AdversaryKind::Blocking,
        ] {
            run_and_print(name, topology, AlgorithmKind::Gdp1, adversary);
        }
    }
    println!("random connected multigraphs (8 forks, 12 philosophers), uniform random scheduler:");
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for i in 0..4 {
        let topology = random_connected(8, 4, &mut rng).expect("random topology");
        let progress = estimate_liveness(
            &topology,
            &AlgorithmKind::Gdp1.program(),
            |trial| UniformRandomAdversary::new(trial + 500),
            &TrialConfig::new(TRIALS, MAX_STEPS),
        )
        .progress;
        println!(
            "  random#{i} {:<28} progress={:.2} first_meal_p50={:.0} p95={:.0}",
            topology.summary(),
            progress.progress_fraction,
            progress.first_meal_p50,
            progress.first_meal_p95
        );
    }

    // ---------------------------------------------------------------- E6
    print_header("E6 | Theorem 4: GDP2 lockout-freedom across the gallery (GDP1 for contrast)");
    for (name, topology) in gallery_and_witnesses() {
        let estimate = run_and_print(
            &name,
            &topology,
            AlgorithmKind::Gdp2,
            AdversaryKind::UniformRandom,
        );
        let starved: u64 = estimate.lockout.starvation_per_philosopher.iter().sum();
        println!(
            "    -> starvation events: {starved}, mean min meals: {:.1}, mean Jain: {:.3}",
            estimate.lockout.min_meals_mean, estimate.lockout.fairness_mean
        );
        run_and_print(
            &name,
            &topology,
            AlgorithmKind::Gdp1,
            AdversaryKind::UniformRandom,
        );
    }

    // ---------------------------------------------------------------- E7
    print_header("E7 | Tables 1-4 on the classic ring: all algorithms");
    for n in [6usize, 12, 24] {
        println!("--- ring size {n} ---");
        let ring = classic_ring(n).unwrap();
        for algorithm in AlgorithmKind::all() {
            run_and_print(
                &format!("classic-ring-{n}"),
                &ring,
                algorithm,
                AdversaryKind::UniformRandom,
            );
        }
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

    // ---------------------------------------------------------------- E9
    print_header("E9 | Section 5: starvation scheduler vs GDP1 / GDP2 (victim = P0, triangle, 60k-step windows)");
    println!(
        "{:<10} {:>20} {:>20} {:>20}",
        "algorithm", "P(victim starved)", "mean victim meals", "mean system meals"
    );
    let victim = PhilosopherId::new(0);
    let triangle = gdp_topology::builders::figure1_triangle();
    for algorithm in [AlgorithmKind::Gdp1, AlgorithmKind::Gdp2] {
        let outcomes = windows(&triangle, algorithm, 60_000, || TargetStarver::new(victim));
        let victim_meals: Vec<u64> = outcomes
            .iter()
            .map(|o| o.meals_per_philosopher[victim.index()])
            .collect();
        println!(
            "{:<10} {:>20.2} {:>20.1} {:>20.1}",
            algorithm.name(),
            share(victim_meals.iter().filter(|&&m| m == 0).count() as u64),
            share(victim_meals.iter().sum()),
            share(outcomes.iter().map(|o| o.total_meals).sum())
        );
    }

    // ---------------------------------------------------------------- E10
    print_header("E10 | Threaded GDP2 runtime and guarded choice");
    for (name, topology) in [
        ("classic-ring-8", classic_ring(8).unwrap()),
        ("classic-ring-32", classic_ring(32).unwrap()),
        ("figure1-triangle", triangle),
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
