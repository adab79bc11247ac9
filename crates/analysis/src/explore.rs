//! Exhaustive state-space exploration for small systems.
//!
//! The paper's correctness arguments are phrased over the *probabilistic
//! automaton* of the system: nondeterminism (the adversary's choice of which
//! philosopher moves) combined with probabilistic branching (the
//! philosophers' random draws).  [`explore`] walks the fragment of that
//! automaton obtained by fixing one seed — all *scheduling* nondeterminism,
//! one realization of the coin flips — and reports reachable-state counts,
//! safety verification and dead-end (deadlock) detection; [`explore_seeds`]
//! additionally samples the probabilistic branching.  For the *exact*
//! automaton — every adversary, every draw, with probabilities — use the
//! `gdp-mcheck` crate, whose seeded explorer also powers this module.
//!
//! Since the engine gained first-class snapshots
//! ([`EngineState`](gdp_sim::EngineState)), exploration restores a parent
//! snapshot and executes **one** step per expansion.  The original
//! implementation re-simulated the entire decision prefix for every
//! expansion (`O(depth)` steps each); it is kept here as
//! [`explore_via_replay`], the regression oracle: the snapshot walk must
//! reproduce its reports exactly.

use gdp_sim::{Engine, Program, SimConfig};
use gdp_topology::{PhilosopherId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};

pub use gdp_mcheck::seeded::ExplorationReport;

/// Exhaustively explores the reachable states of `program` on `topology`,
/// branching over every adversary choice at every state, up to `max_states`
/// distinct states and `max_depth` steps from the initial state.
///
/// Randomness is fixed by `seed`: the exploration covers all *scheduling*
/// nondeterminism for one realization of the coin flips.  Calling it with
/// several seeds (see [`explore_seeds`]) additionally samples the
/// probabilistic branching.
///
/// This is a thin delegate to
/// [`gdp_mcheck::seeded::explore_realization`]; the report type and its
/// semantics are unchanged from the replay era (regression-pinned below).
#[must_use]
pub fn explore<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    max_states: usize,
    max_depth: usize,
) -> ExplorationReport {
    gdp_mcheck::seeded::explore_realization(topology, program, seed, max_states, max_depth)
}

/// Runs [`explore`] for each seed and merges the findings: safety must hold
/// for every seed, and a deadlock reported for *any* seed counts.
#[must_use]
pub fn explore_seeds<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seeds: &[u64],
    max_states: usize,
    max_depth: usize,
) -> ExplorationReport {
    gdp_mcheck::seeded::merge_reports(
        seeds
            .iter()
            .map(|&seed| explore(topology, program, seed, max_states, max_depth)),
    )
}

/// Replays `decisions` (a sequence of philosopher indices) from the initial
/// state on a fresh engine with the given seed and returns that engine.
fn replay<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    decisions: &[u32],
) -> Engine<P> {
    let mut engine = Engine::new(
        topology.clone(),
        program.clone(),
        SimConfig::default().with_seed(seed),
    );
    for &p in decisions {
        engine.step_philosopher(PhilosopherId::new(p));
    }
    engine
}

/// Returns `true` if the engine's *current* state satisfies the safety
/// invariants: every held fork is held by an adjacent philosopher and
/// eating implies holding both forks.
///
/// One source of truth across the workspace: this is a re-export-style
/// delegate to [`gdp_mcheck::state_is_safe`], the predicate the exact
/// checker counts as `safety_violations` — so the Monte-Carlo
/// `unsafe_trials` signal and exploration's `safety_holds` can never
/// drift from what the checker certifies.
#[must_use]
pub fn state_is_safe<P: Program>(engine: &Engine<P>) -> bool {
    gdp_mcheck::state_is_safe(engine)
}

/// The SipHash-based state digest the pre-snapshot stack used (PR 1/2's
/// `fingerprint64` was built on `std`'s `DefaultHasher`): part of the
/// faithful replay-era baseline preserved by [`explore_via_replay`].
fn legacy_fingerprint<P: Program>(engine: &Engine<P>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    engine.with_view(|view| (view.forks()).hash(&mut hasher));
    // The engine no longer exposes its private-state vector for ad-hoc
    // hashing; fold the per-philosopher fingerprint contribution through
    // the current `state_fingerprint` (identical dedup power, and the
    // regression test pins report equality, not digest equality).
    engine.state_fingerprint().hash(&mut hasher);
    hasher.finish()
}

/// The pre-snapshot implementation of [`explore`]: every expansion replays
/// the full decision prefix on a fresh engine, and every digest and lookup
/// runs on the replay era's SipHash (`DefaultHasher`) fingerprints and
/// std-hashed maps.
///
/// Kept as the **reference implementation** — same traversal order, same
/// dedup semantics, same report — so that the snapshot-based walk can be
/// regression-tested against it.  Do not use it for real exploration: each
/// expansion costs `O(depth)` engine steps instead of one restore.
#[must_use]
pub fn explore_via_replay<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    max_states: usize,
    max_depth: usize,
) -> ExplorationReport {
    let n = topology.num_philosophers() as u32;
    // state fingerprint -> shortest decision sequence reaching it
    let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
    // fingerprints of states from which a meal has been observed downstream
    let mut can_eat: HashSet<u64> = HashSet::new();
    let mut parents: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
    let mut truncated = false;
    let mut safety_holds = true;
    let mut eating_states = 0usize;

    let initial = replay(topology, program, seed, &[]);
    let initial_fp = legacy_fingerprint(&initial);
    seen.insert(initial_fp, Vec::new());
    queue.push_back(Vec::new());

    while let Some(decisions) = queue.pop_front() {
        if decisions.len() >= max_depth {
            truncated = true;
            continue;
        }
        let here_fp = legacy_fingerprint(&replay(topology, program, seed, &decisions));
        for p in 0..n {
            let mut next = decisions.clone();
            next.push(p);
            let engine = replay(topology, program, seed, &next);
            let fp = legacy_fingerprint(&engine);
            if !state_is_safe(&engine) {
                safety_holds = false;
            }
            let eating = engine.with_view(|view| view.someone_eating());
            parents.entry(fp).or_default().push(here_fp);
            if eating {
                can_eat.insert(fp);
            }
            if seen.contains_key(&fp) {
                continue;
            }
            if seen.len() >= max_states {
                truncated = true;
                continue;
            }
            if eating {
                eating_states += 1;
            }
            seen.insert(fp, next.clone());
            queue.push_back(next);
        }
    }

    // Backward propagation of "a meal is reachable from here".
    let mut frontier: Vec<u64> = can_eat.iter().copied().collect();
    while let Some(fp) = frontier.pop() {
        if let Some(ps) = parents.get(&fp) {
            for &parent in ps {
                if can_eat.insert(parent) {
                    frontier.push(parent);
                }
            }
        }
    }
    let dead_states = seen.keys().filter(|fp| !can_eat.contains(fp)).count();

    ExplorationReport {
        states_visited: seen.len(),
        truncated,
        dead_states,
        safety_holds,
        eating_states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::baselines::{NaiveLeftRight, OrderedForks};
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_topology::builders::{classic_ring, figure1_triangle};
    use gdp_topology::Topology;

    #[test]
    fn naive_left_right_deadlocks_on_the_ring() {
        // The textbook deadlock: every philosopher holds its left fork.
        let ring = classic_ring(3).unwrap();
        let report = explore(&ring, &NaiveLeftRight::new(), 0, 20_000, 200);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(
            report.dead_states > 0,
            "the naive algorithm must have reachable dead states: {report:?}"
        );
    }

    #[test]
    fn lr1_full_state_space_is_deadlock_free_and_safe() {
        // LR1 on the 2-philosopher ring: no state is a dead end (some
        // scheduling always leads to a meal), and safety holds everywhere.
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let report = explore_seeds(&two_ring, &Lr1::new(), &[0, 1, 2], 20_000, 400);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
        assert!(report.eating_states > 0);
        assert!(report.states_visited > 10);
    }

    #[test]
    fn gdp1_full_state_space_is_deadlock_free_and_safe() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let report = explore_seeds(&two_ring, &Gdp1::new(), &[3, 4], 20_000, 400);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
        assert!(report.eating_states > 0);
    }

    #[test]
    fn ordered_forks_is_deadlock_free_on_the_small_ring() {
        let ring = classic_ring(3).unwrap();
        let report = explore(&ring, &OrderedForks::new(), 0, 20_000, 200);
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
    }

    #[test]
    fn exploration_reports_truncation() {
        let ring = classic_ring(4).unwrap();
        let report = explore(&ring, &Lr1::new(), 0, 50, 6);
        assert!(report.truncated);
        assert!(report.states_visited <= 50);
    }

    /// The regression pin of the snapshot/restore migration: on the ring
    /// n = 3 and the Figure 1 triangle witness, and on GDP1's whole
    /// per-seed state space of the 4-ring, the snapshot-based explorer
    /// must produce **identical** reports to the replay-based reference
    /// implementation — state counts, dead states, truncation, safety and
    /// eating-state counts, across seeds, budgets and programs.
    #[test]
    fn snapshot_explorer_matches_replay_reference_reports() {
        let ring4 = classic_ring(4).unwrap();
        let gdp1 = explore(&ring4, &Gdp1::new(), 0, 200_000, 400);
        assert!(!gdp1.truncated, "{gdp1:?}");
        assert!(gdp1.states_visited > 10_000, "{gdp1:?}");
        assert_eq!(
            gdp1,
            explore_via_replay(&ring4, &Gdp1::new(), 0, 200_000, 400),
            "GDP1 seed 0 budget 200000/400 on the 4-ring"
        );

        let ring3 = classic_ring(3).unwrap();
        let triangle = figure1_triangle();
        for seed in [0u64, 1, 7] {
            for (max_states, max_depth) in [(600, 12), (20_000, 60)] {
                for topology in [&ring3, &triangle] {
                    assert_eq!(
                        explore(topology, &Lr1::new(), seed, max_states, max_depth),
                        explore_via_replay(topology, &Lr1::new(), seed, max_states, max_depth),
                        "LR1 seed {seed} budget {max_states}/{max_depth} on {topology}"
                    );
                }
                assert_eq!(
                    explore(&ring3, &NaiveLeftRight::new(), seed, max_states, max_depth),
                    explore_via_replay(&ring3, &NaiveLeftRight::new(), seed, max_states, max_depth),
                    "naive seed {seed} budget {max_states}/{max_depth}"
                );
            }
        }
    }
}
