//! Extraction of the worst-case adversary as a replayable counterexample.
//!
//! [`solve`](crate::solve::solve) leaves per-state **avoid values** over
//! canonical states.  This module turns them into artifacts the rest of
//! the workspace can consume:
//!
//! * [`extract_counterexample`] replays the worst-case adversary against a
//!   live engine and records the schedule it plays.  The replay is
//!   *value-guided* and frame-free: at each state it enumerates every
//!   philosopher's step outcomes from the engine's state, scores each
//!   choice by the worst (minimum) avoid value among its outcomes'
//!   canonical states, and schedules the best-scoring choice — breaking
//!   ties toward the least recently scheduled philosopher, so starvation
//!   schedules keep every philosopher running (the paper's fairness
//!   requirement).  The value-1 region is closed under this greedy rule,
//!   so a sure-starvation replay can never escape.  The result is a
//!   `(seed, schedule)` pair: driving a fresh engine with the same seed
//!   through the same schedule — e.g. with `gdp-adversary`'s
//!   `ReplayAdversary` — reproduces the starvation run step for step,
//!   since the engine is deterministic given both.
//! * [`counterexample_dot`] renders the replayed lasso as a Graphviz
//!   digraph (fork holders and philosopher phases per state, scheduled
//!   philosopher per edge), using the same `f0`/`P0` naming as
//!   `gdp_topology::dot` so the two drawings can be read side by side.

use crate::model::{is_target, CheckTarget, Mdp};
use crate::solve::Solution;
use crate::table::KeyIndex;
use gdp_sim::{Engine, Phase, Program, SimConfig, StateCodec};
use gdp_topology::{Automorphism, PhilosopherId, Topology};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A replayable worst-case schedule: the seed fixes the philosophers'
/// randomness, the step list fixes the adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterexampleSchedule {
    /// The engine seed the schedule was recorded against.
    pub seed: u64,
    /// The philosophers scheduled, in order.
    pub steps: Vec<PhilosopherId>,
    /// The first step index at which the (canonical) state repeated, if the
    /// replay closed a lasso inside the avoid region.  States are compared
    /// by their exact canonical keys.
    pub cycle_start: Option<usize>,
    /// The objective this schedule defeats.
    pub target: CheckTarget,
}

impl CounterexampleSchedule {
    /// One-line human summary for certificates and logs.
    #[must_use]
    pub fn summary(&self) -> String {
        let lasso = match self.cycle_start {
            Some(at) => format!(", lasso from step {at}"),
            None => String::new(),
        };
        format!(
            "{} steps against \"{}\" (seed {}{lasso})",
            self.steps.len(),
            self.target.describe(),
            self.seed
        )
    }
}

/// Replays the worst-case adversary from the initial state for up to
/// `max_steps` steps and records the schedule, trying `seeds` in order.
///
/// See the [module docs](self) for the value-guided replay rule.  Returns
/// `None` when the solution certifies the property (there is nothing to
/// defeat) or when, for every offered seed, the sampled random draws
/// escaped the adversary before `max_steps` — possible whenever the
/// worst-case probability is strictly between 0 and 1, impossible when the
/// initial state lies in the sure-avoid (value 1) region.
#[must_use]
pub fn extract_counterexample<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    mdp: &Mdp,
    solution: &Solution,
    seeds: &[u64],
    max_steps: usize,
) -> Option<CounterexampleSchedule> {
    if solution.holds_with_probability_one() {
        return None;
    }
    let n = topology.num_philosophers();
    let codec = StateCodec::new(topology, program, &mdp.automorphisms);
    let index = KeyIndex::of(mdp.keys());
    let mut scratch = Vec::new();
    'seeds: for &seed in seeds {
        let mut engine = Engine::new(
            topology.clone(),
            program.clone(),
            SimConfig::default().with_seed(seed),
        );
        let mut post = engine.state().clone();
        let mut steps = Vec::with_capacity(max_steps);
        let mut visited: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut cycle_start = None;
        let mut last_scheduled = vec![0u64; n];
        for step in 0..max_steps {
            let state = engine.state();
            if is_target(topology, program, state, mdp.target_kind) {
                // The sampled draws beat the adversary on this seed.
                continue 'seeds;
            }
            if cycle_start.is_none() {
                let key = mdp.canonical_key(&codec, state, &mut scratch);
                if let Some(&at) = visited.get(key) {
                    cycle_start = Some(at);
                } else {
                    visited.insert(key.to_vec(), step);
                }
            }
            // Score every choice by its worst random outcome's avoid value
            // (frame-free: values attach to canonical states).
            let mut best: Option<(f64, u64, usize)> = None;
            #[allow(clippy::needless_range_loop)] // p is a philosopher id, not just an index
            for p in 0..n {
                let mut worth = f64::INFINITY;
                state.for_each_step_outcome(
                    topology,
                    program,
                    PhilosopherId::new(p as u32),
                    &mut post,
                    |_, post, _| {
                        let succ_key = mdp.canonical_key(&codec, post, &mut scratch);
                        let value = index
                            .get(mdp.keys(), succ_key)
                            .map_or(0.0, |i| solution.avoid_value[i as usize]);
                        worth = worth.min(value);
                    },
                );
                // Higher worth wins; ties go to the least recently
                // scheduled philosopher (fair rotation).
                let overdue = u64::MAX - last_scheduled[p];
                match best {
                    Some((bw, bo, _)) if (bw, bo) >= (worth, overdue) => {}
                    _ => best = Some((worth, overdue, p)),
                }
            }
            let (_, _, chosen) = best.expect("at least one philosopher");
            let chosen = PhilosopherId::new(chosen as u32);
            last_scheduled[chosen.index()] = step as u64 + 1;
            steps.push(chosen);
            engine.step_philosopher(chosen);
        }
        if is_target(topology, program, engine.state(), mdp.target_kind) {
            continue 'seeds;
        }
        return Some(CounterexampleSchedule {
            seed,
            steps,
            cycle_start,
            target: mdp.target_kind,
        });
    }
    None
}

/// Maximum number of distinct states rendered by [`counterexample_dot`].
const DOT_STATE_CAP: usize = 48;

/// Renders the state sequence visited by replaying `schedule` as a Graphviz
/// digraph: one node per distinct visited state (labelled with every fork's
/// holder and every philosopher's phase), one edge per step (labelled with
/// the scheduled philosopher).  Long schedules collapse onto their lasso
/// automatically because revisited states reuse their node; states are
/// told apart by their exact encodings.
#[must_use]
pub fn counterexample_dot<P: Program + Clone>(
    topology: &Topology,
    program: &P,
    schedule: &CounterexampleSchedule,
) -> String {
    let mut engine = Engine::new(
        topology.clone(),
        program.clone(),
        SimConfig::default().with_seed(schedule.seed),
    );
    let mut out = String::from("digraph counterexample {\n");
    let _ = writeln!(out, "  // {}", schedule.summary());
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");

    fn emit_node<P: Program>(
        codec: &StateCodec<P>,
        node_of: &mut HashMap<Vec<u64>, usize>,
        out: &mut String,
        engine: &Engine<P>,
    ) -> usize {
        let mut key = Vec::new();
        engine.state().encode(codec, &mut key);
        if let Some(&id) = node_of.get(&key) {
            return id;
        }
        let id = node_of.len();
        let label = engine.with_view(|view| {
            let mut label = String::new();
            for fork in view.topology().fork_ids() {
                let holder = view
                    .holder_of(fork)
                    .map_or("-".to_string(), |p| p.to_string());
                let _ = write!(label, "{fork}:{holder} ");
            }
            let _ = write!(label, "\\n");
            for p in view.philosophers() {
                let phase = match p.phase {
                    Phase::Thinking => 'T',
                    Phase::Hungry => 'H',
                    Phase::Eating => 'E',
                };
                let _ = write!(label, "{}:{phase} ", p.id);
            }
            label
        });
        let _ = writeln!(out, "  s{id} [label=\"{}\"];", label.trim_end());
        node_of.insert(key, id);
        id
    }

    let identity = [Automorphism::identity(
        topology.num_forks(),
        topology.num_philosophers(),
    )];
    let codec = StateCodec::new(topology, program, &identity);
    let mut node_of: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut from = emit_node(&codec, &mut node_of, &mut out, &engine);
    for &philosopher in &schedule.steps {
        if node_of.len() >= DOT_STATE_CAP {
            let _ = writeln!(
                out,
                "  truncated [shape=plaintext, label=\"... {} more steps\"];",
                schedule.steps.len()
            );
            let _ = writeln!(out, "  s{from} -> truncated;");
            break;
        }
        engine.step_philosopher(philosopher);
        let to = emit_node(&codec, &mut node_of, &mut out, &engine);
        let _ = writeln!(out, "  s{from} -> s{to} [label=\"{philosopher}\"];");
        from = to;
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_mdp, BuildOptions};
    use crate::solve::{solve, SolveOptions};
    use gdp_algorithms::Lr1;
    use gdp_topology::builders::classic_ring;

    fn lr1_lockout_setup() -> (Topology, Lr1, Mdp, Solution) {
        let ring = classic_ring(3).unwrap();
        let program = Lr1::new();
        let options = BuildOptions::default()
            .with_threads(1)
            .with_max_states(200_000);
        let mdp = build_mdp(
            &ring,
            &program,
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
            &options,
        );
        let solution = solve(&mdp, &SolveOptions::default());
        (ring, program, mdp, solution)
    }

    #[test]
    fn lr1_starvation_schedule_is_extracted_and_replayable() {
        let (ring, program, mdp, solution) = lr1_lockout_setup();
        assert!(
            !solution.holds_with_probability_one(),
            "LR1 is not lockout-free: {solution:?}"
        );
        let schedule = extract_counterexample(&ring, &program, &mdp, &solution, &[0, 1, 2], 400)
            .expect("a starvation schedule exists");
        assert_eq!(schedule.steps.len(), 400);

        // Replay the literal schedule on a fresh engine with the recorded
        // seed: the victim must never eat.
        let mut engine = Engine::new(
            ring.clone(),
            program,
            SimConfig::default().with_seed(schedule.seed),
        );
        for &p in &schedule.steps {
            engine.step_philosopher(p);
        }
        assert_eq!(engine.meals_of(PhilosopherId::new(0)), 0);
    }

    #[test]
    fn counterexample_dot_renders_states_and_schedule() {
        let (ring, program, mdp, solution) = lr1_lockout_setup();
        let schedule = extract_counterexample(&ring, &program, &mdp, &solution, &[0, 1, 2], 120)
            .expect("a starvation schedule exists");
        let dot = counterexample_dot(&ring, &program, &schedule);
        assert!(dot.starts_with("digraph counterexample {"));
        assert!(dot.contains("f0:"));
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
