//! Structural analysis of conflict topologies.
//!
//! The negative results of the paper are conditioned on structural
//! properties of the conflict multigraph:
//!
//! * **Theorem 1** applies when the graph contains a ring (cycle) one of
//!   whose nodes has at least three incident arcs;
//! * **Theorem 2** applies when two nodes of a ring are connected by at
//!   least three different (internally disjoint) paths, i.e. the graph
//!   contains a *theta* subgraph.
//!
//! This module provides decision procedures for both preconditions, plus the
//! supporting machinery (connectivity, cycle detection, biconnected
//! components, degree statistics) used by the adversaries, the analysis
//! crate and the test-suite.

use crate::{ForkId, PhilosopherId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-fork degree statistics of a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeStats {
    /// Smallest number of philosophers sharing a fork.
    pub min: usize,
    /// Largest number of philosophers sharing a fork.
    pub max: usize,
    /// Sum of degrees (always `2 * n`).
    pub total: usize,
    /// Histogram: `histogram[d]` is the number of forks of degree `d`.
    pub histogram: Vec<usize>,
}

/// Computes degree statistics for `topology`.
///
/// ```
/// use gdp_topology::{analysis, builders};
/// let stats = analysis::degree_stats(&builders::figure1_triangle());
/// assert_eq!(stats.min, 4);
/// assert_eq!(stats.max, 4);
/// assert_eq!(stats.total, 12);
/// ```
#[must_use]
pub fn degree_stats(topology: &Topology) -> DegreeStats {
    let degrees: Vec<usize> = topology
        .fork_ids()
        .map(|f| topology.fork_degree(f))
        .collect();
    let min = degrees.iter().copied().min().unwrap_or(0);
    let max = degrees.iter().copied().max().unwrap_or(0);
    let total = degrees.iter().sum();
    let mut histogram = vec![0usize; max + 1];
    for d in degrees {
        histogram[d] += 1;
    }
    DegreeStats {
        min,
        max,
        total,
        histogram,
    }
}

/// Returns `true` if the fork graph is connected (ignoring isolated forks is
/// **not** done: a fork with no philosophers makes the graph disconnected).
#[must_use]
pub fn is_connected(topology: &Topology) -> bool {
    connected_components(topology).len() == 1
}

/// Partition of the forks into connected components (each component is a
/// sorted vector of fork identifiers).  Components are returned in order of
/// their smallest fork.
#[must_use]
pub fn connected_components(topology: &Topology) -> Vec<Vec<ForkId>> {
    let k = topology.num_forks();
    let mut seen = vec![false; k];
    let mut components = Vec::new();
    for start in topology.fork_ids() {
        if seen[start.index()] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(start);
        seen[start.index()] = true;
        while let Some(f) = queue.pop_front() {
            component.push(f);
            for &p in topology.philosophers_at(f) {
                let g = topology.other_fork(p, f);
                if !seen[g.index()] {
                    seen[g.index()] = true;
                    queue.push_back(g);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Returns `true` if the topology contains at least one cycle (a ring), i.e.
/// it is not a forest.  Parallel arcs count as a cycle of length two.
#[must_use]
pub fn has_cycle(topology: &Topology) -> bool {
    // A multigraph is a forest iff every connected component satisfies
    // |arcs| = |nodes| - 1.
    let components = connected_components(topology);
    let mut arcs_per_component: HashMap<usize, usize> = HashMap::new();
    let mut component_of: Vec<usize> = vec![0; topology.num_forks()];
    for (ci, comp) in components.iter().enumerate() {
        for f in comp {
            component_of[f.index()] = ci;
        }
    }
    for p in topology.philosopher_ids() {
        let ends = topology.forks_of(p);
        *arcs_per_component
            .entry(component_of[ends.left.index()])
            .or_insert(0) += 1;
    }
    components.iter().enumerate().any(|(ci, comp)| {
        let arcs = arcs_per_component.get(&ci).copied().unwrap_or(0);
        arcs >= comp.len()
    })
}

/// Decision procedure for the precondition of **Theorem 1**: the topology
/// contains a ring one of whose forks has at least three incident
/// philosophers.
///
/// Equivalently: some fork of degree ≥ 3 lies on a cycle.
///
/// ```
/// use gdp_topology::{analysis, builders};
/// // The classic ring is *not* covered by Theorem 1 (every fork has degree 2).
/// assert!(!analysis::theorem1_applies(&builders::classic_ring(6).unwrap()));
/// // The Figure 2 system is.
/// assert!(analysis::theorem1_applies(&builders::figure2_hexagon_with_pendant()));
/// ```
#[must_use]
pub fn theorem1_applies(topology: &Topology) -> bool {
    let on_cycle = forks_on_some_cycle(topology);
    topology
        .fork_ids()
        .any(|f| topology.fork_degree(f) >= 3 && on_cycle.contains(&f))
}

/// Decision procedure for the precondition of **Theorem 2**: two forks of a
/// ring are connected by at least three internally disjoint paths, i.e. the
/// topology contains a *theta* subgraph.
///
/// A multigraph contains a theta subgraph iff some biconnected component has
/// strictly more arcs than forks (a biconnected component that is exactly a
/// simple cycle has the same number of each).
///
/// ```
/// use gdp_topology::{analysis, builders};
/// assert!(!analysis::theorem2_applies(&builders::classic_ring(6).unwrap()));
/// assert!(!analysis::theorem2_applies(&builders::figure2_hexagon_with_pendant()));
/// assert!(analysis::theorem2_applies(&builders::figure3_theta()));
/// assert!(analysis::theorem2_applies(&builders::figure1_triangle()));
/// ```
#[must_use]
pub fn theorem2_applies(topology: &Topology) -> bool {
    biconnected_components(topology).iter().any(|comp| {
        let forks: HashSet<ForkId> = comp
            .iter()
            .flat_map(|&p| topology.forks_of(p).as_array())
            .collect();
        comp.len() > forks.len()
    })
}

/// The set of forks that lie on at least one cycle.
#[must_use]
pub fn forks_on_some_cycle(topology: &Topology) -> HashSet<ForkId> {
    let mut result = HashSet::new();
    for comp in biconnected_components(topology) {
        if comp.len() < 2 {
            // A single-arc component is a bridge, not a cycle...
            // unless it is a parallel arc, which the decomposition below
            // reports as a component of >= 2 arcs anyway.
            continue;
        }
        for p in comp {
            let ends = topology.forks_of(p);
            result.insert(ends.left);
            result.insert(ends.right);
        }
    }
    result
}

/// Biconnected components of the topology, each given as a vector of
/// philosophers (arcs).  Bridges appear as singleton components.
///
/// Implemented with the classical Hopcroft–Tarjan low-point algorithm,
/// adapted to multigraphs (parallel arcs are honoured: two parallel
/// philosophers form a biconnected component of size two).
#[must_use]
pub fn biconnected_components(topology: &Topology) -> Vec<Vec<PhilosopherId>> {
    let k = topology.num_forks();
    let mut disc = vec![usize::MAX; k];
    let mut low = vec![usize::MAX; k];
    let mut timer = 0usize;
    let mut arc_stack: Vec<PhilosopherId> = Vec::new();
    let mut components: Vec<Vec<PhilosopherId>> = Vec::new();
    let mut visited_arc = vec![false; topology.num_philosophers()];

    // Iterative DFS to avoid recursion-depth issues on long rings.
    #[derive(Clone, Copy)]
    struct Frame {
        fork: ForkId,
        parent_arc: Option<PhilosopherId>,
        next_incident: usize,
    }

    for root in topology.fork_ids() {
        if disc[root.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![Frame {
            fork: root,
            parent_arc: None,
            next_incident: 0,
        }];
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;

        while let Some(frame) = stack.last_mut() {
            let u = frame.fork;
            let incident = topology.philosophers_at(u);
            if frame.next_incident < incident.len() {
                let p = incident[frame.next_incident];
                frame.next_incident += 1;
                if Some(p) == frame.parent_arc || visited_arc[p.index()] {
                    continue;
                }
                let v = topology.other_fork(p, u);
                visited_arc[p.index()] = true;
                arc_stack.push(p);
                if disc[v.index()] == usize::MAX {
                    disc[v.index()] = timer;
                    low[v.index()] = timer;
                    timer += 1;
                    stack.push(Frame {
                        fork: v,
                        parent_arc: Some(p),
                        next_incident: 0,
                    });
                } else {
                    // Back arc.
                    let lu = low[u.index()].min(disc[v.index()]);
                    low[u.index()] = lu;
                }
            } else {
                // Finished u: propagate low point to parent and maybe pop a
                // biconnected component.
                let finished = *frame;
                stack.pop();
                if let Some(parent_frame) = stack.last() {
                    let parent = parent_frame.fork;
                    let parent_low = low[parent.index()].min(low[finished.fork.index()]);
                    low[parent.index()] = parent_low;
                    if low[finished.fork.index()] >= disc[parent.index()] {
                        // `parent` is an articulation point (or the root):
                        // pop the component ending at the tree arc into `finished`.
                        let mut component = Vec::new();
                        while let Some(&top) = arc_stack.last() {
                            arc_stack.pop();
                            component.push(top);
                            if Some(top) == finished.parent_arc {
                                break;
                            }
                        }
                        if !component.is_empty() {
                            component.sort_unstable();
                            components.push(component);
                        }
                    }
                } else if !arc_stack.is_empty() {
                    // Root of the DFS tree: flush whatever remains.
                    let mut component: Vec<PhilosopherId> = std::mem::take(&mut arc_stack);
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        classic_ring, complete_conflict, figure1_gallery, figure1_triangle,
        figure2_hexagon_with_pendant, figure3_theta, path, ring_with_chord, star, ChordTarget,
    };
    use crate::Topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn degree_stats_on_star() {
        let s = star(4).unwrap();
        let stats = degree_stats(&s);
        assert_eq!(stats.max, 4);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.total, 8);
        assert_eq!(stats.histogram[1], 4);
        assert_eq!(stats.histogram[4], 1);
    }

    #[test]
    fn connectivity_detection() {
        assert!(is_connected(&classic_ring(5).unwrap()));
        assert!(is_connected(&figure3_theta()));
        let disconnected = Topology::from_arcs(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&disconnected));
        assert_eq!(connected_components(&disconnected).len(), 2);
    }

    #[test]
    fn cycle_detection() {
        assert!(has_cycle(&classic_ring(3).unwrap()));
        assert!(has_cycle(&figure1_triangle()));
        assert!(!has_cycle(&path(5).unwrap()));
        assert!(!has_cycle(&star(6).unwrap()));
        // Two parallel arcs are a cycle of length 2.
        let parallel = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        assert!(has_cycle(&parallel));
    }

    #[test]
    fn theorem1_precondition() {
        // Classic rings and trees: not covered.
        assert!(!theorem1_applies(&classic_ring(8).unwrap()));
        assert!(!theorem1_applies(&path(5).unwrap()));
        assert!(!theorem1_applies(&star(5).unwrap()));
        // Ring + pendant chord (Figure 2): covered.
        assert!(theorem1_applies(&figure2_hexagon_with_pendant()));
        // Ring + internal chord: covered.
        assert!(theorem1_applies(
            &ring_with_chord(6, ChordTarget::RingNode { offset: 3 }).unwrap()
        ));
        // Theta graph and the Figure 1 systems: covered (they have high-degree
        // forks on cycles).
        assert!(theorem1_applies(&figure3_theta()));
        for (name, t) in figure1_gallery() {
            assert!(
                theorem1_applies(&t),
                "{name} should satisfy Theorem 1 precondition"
            );
        }
    }

    #[test]
    fn theorem2_precondition() {
        assert!(!theorem2_applies(&classic_ring(8).unwrap()));
        assert!(!theorem2_applies(&path(4).unwrap()));
        // A ring with a pendant chord has no theta subgraph.
        assert!(!theorem2_applies(&figure2_hexagon_with_pendant()));
        // A ring with an internal chord does.
        assert!(theorem2_applies(
            &ring_with_chord(6, ChordTarget::RingNode { offset: 3 }).unwrap()
        ));
        assert!(theorem2_applies(&figure3_theta()));
        assert!(theorem2_applies(&figure1_triangle()));
        assert!(theorem2_applies(&complete_conflict(4).unwrap()));
    }

    #[test]
    fn theorem2_implies_theorem1() {
        // Structurally, a theta subgraph always contains a ring with a
        // degree-3 node, so every Theorem-2 instance is a Theorem-1 instance.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..200 {
            let t = crate::builders::random_multigraph(6, 9, &mut rng).unwrap();
            if theorem2_applies(&t) {
                assert!(theorem1_applies(&t), "theta implies ring+degree-3: {t:?}");
            }
        }
    }

    #[test]
    fn biconnected_components_of_figure2() {
        let t = figure2_hexagon_with_pendant();
        let comps = biconnected_components(&t);
        // One component for the 6-cycle and one bridge (the pendant chord).
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = comps.iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 6]);
    }

    #[test]
    fn biconnected_components_cover_every_arc_exactly_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let t = crate::builders::random_multigraph(7, 11, &mut rng).unwrap();
            let comps = biconnected_components(&t);
            let mut count = vec![0usize; t.num_philosophers()];
            for comp in comps {
                for p in comp {
                    count[p.index()] += 1;
                }
            }
            assert!(
                count.iter().all(|&c| c == 1),
                "each arc in exactly one component: {count:?}"
            );
        }
    }

    // Property-style sweeps over seeded / exhaustive parameter grids (the
    // offline replacement for the former proptest strategies).

    #[test]
    fn prop_connected_components_partition_forks() {
        use rand::Rng;
        let mut param_rng = ChaCha8Rng::seed_from_u64(0xC0_FFEE);
        for seed in 0u64..200 {
            let forks = param_rng.gen_range(2usize..10);
            let phils = param_rng.gen_range(1usize..15);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = crate::builders::random_multigraph(forks, phils, &mut rng).unwrap();
            let comps = connected_components(&t);
            let total: usize = comps.iter().map(Vec::len).sum();
            assert_eq!(total, t.num_forks());
        }
    }

    #[test]
    fn prop_classic_ring_never_triggers_negative_theorems() {
        for n in 3usize..32 {
            let t = classic_ring(n).unwrap();
            assert!(!theorem1_applies(&t), "ring {n}");
            assert!(!theorem2_applies(&t), "ring {n}");
        }
    }
}
