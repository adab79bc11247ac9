//! Bounded exploration of one *coin-flip realization* of the automaton.
//!
//! The exact checker ([`crate::model`]) branches over every random outcome;
//! this module keeps the randomness **fixed by a seed** and explores all
//! *scheduling* nondeterminism only — the historical `explore` semantics of
//! `gdp-analysis`, which now delegates here.  Running several seeds samples
//! the probabilistic branching as well ([`merge_reports`]).
//!
//! The walk is a breadth-first search over engine snapshots: each queued
//! state carries its [`EngineState`](gdp_sim::EngineState), and expanding a
//! state is one `restore` plus one step — `O(n + k)` — instead of the
//! replay of the whole decision prefix the pre-snapshot implementation
//! performed (`O(depth)` engine steps per expansion).  Visit order,
//! fingerprints and therefore reports are identical to the replay
//! implementation, which is pinned by a regression test in `gdp-analysis`.

use crate::model::{state_is_safe, KeyMap, KeySet};
use gdp_sim::{Engine, Program, SimConfig};
use gdp_topology::{PhilosopherId, Topology};
use std::collections::VecDeque;

/// Result of an exhaustive per-realization exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplorationReport {
    /// Number of distinct states visited (including the initial state).
    pub states_visited: usize,
    /// Whether the exploration was truncated by the state budget.
    pub truncated: bool,
    /// Number of visited states from which no meal is reachable within the
    /// explored fragment (0 means the explored fragment is deadlock-free).
    pub dead_states: usize,
    /// Whether every visited state satisfied the safety invariants.
    pub safety_holds: bool,
    /// Number of visited states in which some philosopher is eating.
    pub eating_states: usize,
}

impl ExplorationReport {
    /// Returns `true` if no reachable state (within the explored fragment)
    /// is a dead end.
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.dead_states == 0
    }
}

/// Exhaustively explores the states `program` reaches on `topology` under
/// every scheduling, for the single realization of the random draws fixed
/// by `seed`, up to `max_states` distinct states and `max_depth` steps from
/// the initial state.
#[must_use]
pub fn explore_realization<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    seed: u64,
    max_states: usize,
    max_depth: usize,
) -> ExplorationReport {
    let n = topology.num_philosophers() as u32;
    let mut engine = Engine::new(
        topology.clone(),
        program.clone(),
        SimConfig::default().with_seed(seed),
    );
    // Distinct state fingerprints visited.
    let mut seen: KeySet = KeySet::default();
    // Fingerprints of states from which a meal has been observed downstream.
    let mut can_eat: KeySet = KeySet::default();
    let mut parents: KeyMap<Vec<u64>> = KeyMap::default();
    let mut queue: VecDeque<(usize, u64, gdp_sim::EngineState<P>)> = VecDeque::new();
    let mut truncated = false;
    let mut safety_holds = true;
    let mut eating_states = 0usize;

    let initial_fp = engine.state_fingerprint();
    seen.insert(initial_fp);
    queue.push_back((0, initial_fp, engine.snapshot()));

    while let Some((depth, here_fp, snapshot)) = queue.pop_front() {
        if depth >= max_depth {
            truncated = true;
            continue;
        }
        for p in 0..n {
            engine.restore(&snapshot);
            engine.step_philosopher(PhilosopherId::new(p));
            let fp = engine.state_fingerprint();
            if !state_is_safe(&engine) {
                safety_holds = false;
            }
            let eating = engine.with_view(|view| view.someone_eating());
            parents.entry(fp).or_default().push(here_fp);
            if eating {
                can_eat.insert(fp);
            }
            if seen.contains(&fp) {
                continue;
            }
            if seen.len() >= max_states {
                truncated = true;
                continue;
            }
            if eating {
                eating_states += 1;
            }
            seen.insert(fp);
            queue.push_back((depth + 1, fp, engine.snapshot()));
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
    let dead_states = seen.iter().filter(|fp| !can_eat.contains(fp)).count();

    ExplorationReport {
        states_visited: seen.len(),
        truncated,
        dead_states,
        safety_holds,
        eating_states,
    }
}

/// Merges per-seed reports: state and dead-state counts add up, safety must
/// hold for every seed, truncation for *any* seed counts.
#[must_use]
pub fn merge_reports(reports: impl IntoIterator<Item = ExplorationReport>) -> ExplorationReport {
    let mut merged = ExplorationReport {
        states_visited: 0,
        truncated: false,
        dead_states: 0,
        safety_holds: true,
        eating_states: 0,
    };
    for report in reports {
        merged.states_visited += report.states_visited;
        merged.truncated |= report.truncated;
        merged.dead_states += report.dead_states;
        merged.safety_holds &= report.safety_holds;
        merged.eating_states += report.eating_states;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;

    #[test]
    fn lr1_two_ring_realizations_are_deadlock_free_and_safe() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let report = merge_reports(
            [0u64, 1, 2]
                .iter()
                .map(|&seed| explore_realization(&two_ring, &Lr1::new(), seed, 20_000, 400)),
        );
        assert!(report.safety_holds);
        assert!(!report.truncated, "{report:?}");
        assert!(report.deadlock_free(), "{report:?}");
        assert!(report.eating_states > 0);
    }

    #[test]
    fn truncation_is_reported() {
        let ring = classic_ring(4).unwrap();
        let report = explore_realization(&ring, &Gdp1::new(), 0, 50, 6);
        assert!(report.truncated);
        assert!(report.states_visited <= 50);
    }
}
