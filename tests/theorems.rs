//! Cross-crate integration tests of what the exact claim rows
//! (`gdp_bench::CLAIMS`, checked by `tests/claims.rs`) do not decide: the
//! Section 3 wave scheduler, the structural preconditions of Theorems 1
//! and 2, and the Section 4 symmetry-breaking bound, exercised through the
//! public `gdp` prelude.

use gdp::prelude::*;

/// Section 3 / Theorem 1 / Theorem 2 (negative results) and Theorems 3–4
/// (positive results) in one head-to-head on the Figure 1 triangle, which
/// satisfies the preconditions of both negative theorems.
#[test]
fn section3_contrast_on_the_triangle() {
    let topology = builders::figure1_triangle();
    assert!(topology_analysis::theorem1_applies(&topology));
    assert!(topology_analysis::theorem2_applies(&topology));

    let trials = 12;
    let steps = 40_000;
    let mut blocked = [0u64; 4];
    for (i, kind) in AlgorithmKind::paper_algorithms().iter().enumerate() {
        for seed in 0..trials {
            let mut engine = Engine::new(
                topology.clone(),
                kind.program(),
                SimConfig::default().with_seed(seed),
            );
            let mut adversary = TriangleWaveAdversary::new(&topology).unwrap();
            let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(steps));
            if !outcome.made_progress() {
                blocked[i] += 1;
            }
        }
    }
    let fraction = |count: u64| count as f64 / trials as f64;
    // LR1 and LR2 are blocked in at least the paper's 1/4 of the trials.
    assert!(
        fraction(blocked[0]) >= 0.25,
        "LR1 blocked fraction {}",
        fraction(blocked[0])
    );
    assert!(
        fraction(blocked[1]) >= 0.25,
        "LR2 blocked fraction {}",
        fraction(blocked[1])
    );
    // GDP1 and GDP2 are never blocked (Theorems 3 and 4).
    assert_eq!(blocked[2], 0, "GDP1 must never be blocked");
    assert_eq!(blocked[3], 0, "GDP2 must never be blocked");
}

/// The structural preconditions of the negative theorems match the paper's
/// classification of topologies.
#[test]
fn negative_theorem_preconditions() {
    // Classic rings: neither theorem applies (Lehmann-Rabin's setting).
    for n in [3, 5, 8, 13] {
        let ring = builders::classic_ring(n).unwrap();
        assert!(!topology_analysis::theorem1_applies(&ring));
        assert!(!topology_analysis::theorem2_applies(&ring));
    }
    // Ring plus pendant (Figure 2): Theorem 1 but not Theorem 2.
    let figure2 = builders::figure2_hexagon_with_pendant();
    assert!(topology_analysis::theorem1_applies(&figure2));
    assert!(!topology_analysis::theorem2_applies(&figure2));
    // Theta graph (Figure 3) and the whole Figure 1 gallery: both.
    assert!(topology_analysis::theorem2_applies(
        &builders::figure3_theta()
    ));
    for (name, topology) in builders::figure1_gallery() {
        assert!(
            topology_analysis::theorem1_applies(&topology),
            "{name} should satisfy the Theorem 1 precondition"
        );
    }
}

/// Section 4's symmetry-breaking bound: the measured adjacent-distinctness
/// probability dominates the closed-form lower bound on every gallery
/// topology.
#[test]
fn section4_symmetry_bound_holds_on_the_gallery() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    for (name, topology) in builders::figure1_gallery() {
        let k = topology.num_forks() as u32;
        for m in [k, 2 * k] {
            let bound = symmetry::distinct_probability_lower_bound(k, m);
            let measured = symmetry::empirical_distinct_probability(&topology, m, 20_000, &mut rng);
            // The bound is exact when the adjacency is complete (triangle),
            // so allow for Monte-Carlo noise on top of the inequality.
            assert!(
                measured + 0.02 >= bound,
                "{name}, m={m}: measured {measured} below bound {bound}"
            );
        }
    }
}
