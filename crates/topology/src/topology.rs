//! The validated conflict multigraph: forks as nodes, philosophers as arcs.

use crate::{ForkId, PhilosopherId, Result, TopologyError};
use std::fmt;

/// The side (as seen by a philosopher) on which one of its forks sits.
///
/// The paper's algorithms are phrased in terms of a `left` and a `right`
/// fork.  The assignment of sides is arbitrary but fixed per philosopher; it
/// carries no global meaning (two philosophers sharing a fork may see it on
/// different sides), which is exactly what keeps the system symmetric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The philosopher's left fork.
    Left,
    /// The philosopher's right fork.
    Right,
}

impl Side {
    /// Returns the opposite side.
    ///
    /// ```
    /// use gdp_topology::Side;
    /// assert_eq!(Side::Left.other(), Side::Right);
    /// assert_eq!(Side::Right.other(), Side::Left);
    /// ```
    #[must_use]
    pub const fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Both sides, in `[Left, Right]` order.
    #[must_use]
    pub const fn both() -> [Side; 2] {
        [Side::Left, Side::Right]
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left"),
            Side::Right => write!(f, "right"),
        }
    }
}

/// The two forks adjacent to a philosopher.
///
/// This is the arc of the multigraph: an unordered pair of distinct forks,
/// stored with the philosopher's private left/right orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ForkEnds {
    /// The fork the philosopher calls "left".
    pub left: ForkId,
    /// The fork the philosopher calls "right".
    pub right: ForkId,
}

impl ForkEnds {
    /// Creates a new pair of fork endpoints.
    #[must_use]
    pub const fn new(left: ForkId, right: ForkId) -> Self {
        ForkEnds { left, right }
    }

    /// Returns the fork on the given side.
    #[must_use]
    pub const fn on(self, side: Side) -> ForkId {
        match side {
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }

    /// Returns the fork *other than* `fork`.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is neither endpoint; callers obtain `ForkEnds` from a
    /// [`Topology`], so this indicates a programming error.
    #[must_use]
    pub fn other(self, fork: ForkId) -> ForkId {
        if fork == self.left {
            self.right
        } else if fork == self.right {
            self.left
        } else {
            panic!("fork {fork} is not an endpoint of this arc ({self:?})")
        }
    }

    /// Returns which side `fork` is on, or `None` if it is not an endpoint.
    #[must_use]
    pub fn side_of(self, fork: ForkId) -> Option<Side> {
        if fork == self.left {
            Some(Side::Left)
        } else if fork == self.right {
            Some(Side::Right)
        } else {
            None
        }
    }

    /// Returns `true` if `fork` is one of the two endpoints.
    #[must_use]
    pub fn contains(self, fork: ForkId) -> bool {
        fork == self.left || fork == self.right
    }

    /// Returns the two endpoints as an array `[left, right]`.
    #[must_use]
    pub const fn as_array(self) -> [ForkId; 2] {
        [self.left, self.right]
    }
}

/// A validated generalized dining philosophers topology.
///
/// `Topology` is an immutable undirected multigraph whose nodes are forks
/// and whose arcs are philosophers (Definition 1 of the paper).  It stores
/// the arc list together with a fork-indexed incidence list, so adjacency
/// queries in both directions are `O(1)` / `O(degree)`.
///
/// Construct one with [`Topology::from_arcs`], the one constructor, or one of
/// the generators in [`crate::builders`], which call it.
///
/// ```
/// use gdp_topology::{Topology, ForkId};
///
/// // Two philosophers competing for the same pair of forks (a parallel arc):
/// // a legal *generalized* system that is impossible in the classic setting.
/// let t = Topology::from_arcs(2, [(0, 1), (0, 1)])?;
/// assert_eq!(t.num_philosophers(), 2);
/// assert_eq!(t.philosophers_at(ForkId::new(0)).len(), 2);
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    num_forks: usize,
    arcs: Vec<ForkEnds>,
    /// For each fork, the philosophers incident on it, in increasing id order.
    incidence: Vec<Vec<PhilosopherId>>,
}

impl Topology {
    /// Builds a topology from a fork count and an iterator of `(left, right)`
    /// fork indices, one pair per philosopher: fork `i` gets [`ForkId`] `i`,
    /// and the `j`-th pair becomes [`PhilosopherId`] `j`.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::TooFewForks`] if fewer than two forks are declared;
    /// * [`TopologyError::NoPhilosophers`] if no philosopher is declared;
    /// * [`TopologyError::UnknownFork`] if a philosopher references a fork
    ///   index out of range;
    /// * [`TopologyError::DegenerateArc`] if a philosopher's two forks
    ///   coincide.
    pub fn from_arcs<I>(num_forks: usize, arcs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let arcs: Vec<ForkEnds> = arcs
            .into_iter()
            .map(|(left, right)| ForkEnds::new(ForkId::new(left), ForkId::new(right)))
            .collect();
        if num_forks < 2 {
            return Err(TopologyError::TooFewForks { found: num_forks });
        }
        if arcs.is_empty() {
            return Err(TopologyError::NoPhilosophers);
        }
        let mut incidence = vec![Vec::new(); num_forks];
        for (i, ends) in arcs.iter().enumerate() {
            let philosopher = PhilosopherId::new(i as u32);
            for fork in ends.as_array() {
                if fork.index() >= num_forks {
                    return Err(TopologyError::UnknownFork { philosopher, fork });
                }
            }
            if ends.left == ends.right {
                return Err(TopologyError::DegenerateArc {
                    philosopher,
                    fork: ends.left,
                });
            }
            incidence[ends.left.index()].push(philosopher);
            incidence[ends.right.index()].push(philosopher);
        }
        Ok(Topology {
            num_forks,
            arcs,
            incidence,
        })
    }

    /// Number of forks `k` in the system.
    #[must_use]
    pub fn num_forks(&self) -> usize {
        self.num_forks
    }

    /// Number of philosophers `n` in the system.
    #[must_use]
    pub fn num_philosophers(&self) -> usize {
        self.arcs.len()
    }

    /// Iterator over all fork identifiers, in increasing order.
    pub fn fork_ids(&self) -> impl Iterator<Item = ForkId> + '_ {
        (0..self.num_forks as u32).map(ForkId::new)
    }

    /// Iterator over all philosopher identifiers, in increasing order.
    pub fn philosopher_ids(&self) -> impl Iterator<Item = PhilosopherId> + '_ {
        (0..self.arcs.len() as u32).map(PhilosopherId::new)
    }

    /// The two forks adjacent to `philosopher`.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for this topology.
    #[must_use]
    pub fn forks_of(&self, philosopher: PhilosopherId) -> ForkEnds {
        self.arcs[philosopher.index()]
    }

    /// The fork on the given `side` of `philosopher`.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for this topology.
    #[must_use]
    pub fn fork_on(&self, philosopher: PhilosopherId, side: Side) -> ForkId {
        self.forks_of(philosopher).on(side)
    }

    /// Given one fork of `philosopher`, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range or `fork` is not adjacent to it.
    #[must_use]
    pub fn other_fork(&self, philosopher: PhilosopherId, fork: ForkId) -> ForkId {
        self.forks_of(philosopher).other(fork)
    }

    /// The philosophers incident on `fork` (the philosophers that share it),
    /// in increasing identifier order.
    ///
    /// # Panics
    ///
    /// Panics if `fork` is out of range for this topology.
    #[must_use]
    pub fn philosophers_at(&self, fork: ForkId) -> &[PhilosopherId] {
        &self.incidence[fork.index()]
    }

    /// Number of philosophers sharing `fork` (the degree of the node).
    ///
    /// # Panics
    ///
    /// Panics if `fork` is out of range for this topology.
    #[must_use]
    pub fn fork_degree(&self, fork: ForkId) -> usize {
        self.incidence[fork.index()].len()
    }

    /// The neighbours of `philosopher`: every *other* philosopher that shares
    /// at least one fork with it, without duplicates, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for this topology.
    #[must_use]
    pub fn neighbours(&self, philosopher: PhilosopherId) -> Vec<PhilosopherId> {
        let ends = self.forks_of(philosopher);
        let mut out: Vec<PhilosopherId> = self
            .philosophers_at(ends.left)
            .iter()
            .chain(self.philosophers_at(ends.right).iter())
            .copied()
            .filter(|&p| p != philosopher)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns `true` if `a` and `b` are distinct philosophers sharing at
    /// least one fork.
    #[must_use]
    pub fn are_neighbours(&self, a: PhilosopherId, b: PhilosopherId) -> bool {
        if a == b {
            return false;
        }
        let ea = self.forks_of(a);
        let eb = self.forks_of(b);
        ea.contains(eb.left) || ea.contains(eb.right)
    }

    /// Maximum number of philosophers sharing any single fork.
    ///
    /// In the classic problem this is exactly 2; the generalization of the
    /// paper is precisely about allowing it to exceed 2.
    #[must_use]
    pub fn max_fork_sharing(&self) -> usize {
        self.incidence.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns `true` if this topology is a *classic* dining philosophers
    /// ring: `n == k`, every fork is shared by exactly two philosophers, and
    /// the arcs form a single cycle covering all forks.
    ///
    /// The correctness proofs of Lehmann & Rabin apply exactly to these
    /// topologies (plus the degenerate two-philosopher case).
    #[must_use]
    pub fn is_classic_ring(&self) -> bool {
        if self.num_philosophers() != self.num_forks() {
            return false;
        }
        if !self.incidence.iter().all(|inc| inc.len() == 2) {
            return false;
        }
        // Walk the cycle from fork 0 and check we visit every fork exactly once.
        let start = ForkId::new(0);
        let mut visited_forks = vec![false; self.num_forks];
        let mut visited_arcs = vec![false; self.num_philosophers()];
        let mut current = start;
        let mut count = 0usize;
        loop {
            visited_forks[current.index()] = true;
            count += 1;
            // Find an unvisited arc out of `current`.
            let next_arc = self
                .philosophers_at(current)
                .iter()
                .copied()
                .find(|&p| !visited_arcs[p.index()]);
            match next_arc {
                Some(p) => {
                    visited_arcs[p.index()] = true;
                    current = self.other_fork(p, current);
                    if current == start {
                        break;
                    }
                }
                None => break,
            }
        }
        count == self.num_forks && visited_arcs.iter().all(|&v| v)
    }

    /// All arcs as `(philosopher, left fork, right fork)` triples, in
    /// philosopher order.  Mostly useful for serialization and debugging.
    #[must_use]
    pub fn arcs(&self) -> Vec<(PhilosopherId, ForkId, ForkId)> {
        self.arcs
            .iter()
            .enumerate()
            .map(|(i, ends)| (PhilosopherId::new(i as u32), ends.left, ends.right))
            .collect()
    }

    /// A compact single-line human-readable summary such as
    /// `"topology(n=6, k=3, max_sharing=4)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "topology(n={}, k={}, max_sharing={})",
            self.num_philosophers(),
            self.num_forks(),
            self.max_fork_sharing()
        )
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle6() -> Topology {
        // The leftmost system of Figure 1: 3 forks, 6 philosophers, each pair
        // of forks shared by two parallel philosophers.
        Topology::from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let t = Topology::from_arcs(4, [(0, 1), (1, 2)]).unwrap();
        let forks: Vec<ForkId> = t.fork_ids().collect();
        assert_eq!(forks, (0..4).map(ForkId::new).collect::<Vec<_>>());
        let philosophers: Vec<PhilosopherId> = t.philosopher_ids().collect();
        assert_eq!(philosophers, [PhilosopherId::new(0), PhilosopherId::new(1)]);
        assert_eq!(
            t.forks_of(philosophers[0]),
            ForkEnds::new(forks[0], forks[1])
        );
        assert_eq!(
            t.forks_of(philosophers[1]),
            ForkEnds::new(forks[1], forks[2])
        );
        assert_eq!(t.num_forks(), 4);
        assert_eq!(t.num_philosophers(), 2);
    }

    #[test]
    fn rejects_too_few_forks() {
        assert!(matches!(
            Topology::from_arcs(1, [(0, 0)]),
            Err(TopologyError::TooFewForks { found: 1 })
        ));
    }

    #[test]
    fn rejects_no_philosophers() {
        assert!(matches!(
            Topology::from_arcs(3, []),
            Err(TopologyError::NoPhilosophers)
        ));
    }

    #[test]
    fn rejects_degenerate_arc() {
        let result = Topology::from_arcs(3, [(0, 0)]);
        assert!(matches!(
            result,
            Err(TopologyError::DegenerateArc { fork, .. }) if fork == ForkId::new(0)
        ));
    }

    #[test]
    fn rejects_unknown_fork() {
        let result = Topology::from_arcs(2, [(0, 5)]);
        assert!(matches!(
            result,
            Err(TopologyError::UnknownFork { fork, .. }) if fork == ForkId::new(5)
        ));
    }

    #[test]
    fn incidence_lists_are_consistent_with_arcs() {
        let t = triangle6();
        for p in t.philosopher_ids() {
            let ends = t.forks_of(p);
            assert!(t.philosophers_at(ends.left).contains(&p));
            assert!(t.philosophers_at(ends.right).contains(&p));
        }
        // Total incidence = 2 * number of philosophers.
        let total: usize = t.fork_ids().map(|f| t.fork_degree(f)).sum();
        assert_eq!(total, 2 * t.num_philosophers());
    }

    #[test]
    fn triangle6_has_sharing_degree_four() {
        let t = triangle6();
        assert_eq!(t.num_forks(), 3);
        assert_eq!(t.num_philosophers(), 6);
        assert_eq!(t.max_fork_sharing(), 4);
        assert!(!t.is_classic_ring());
    }

    #[test]
    fn other_fork_and_sides() {
        let t = triangle6();
        let p = PhilosopherId::new(0);
        let ends = t.forks_of(p);
        assert_eq!(t.other_fork(p, ends.left), ends.right);
        assert_eq!(t.other_fork(p, ends.right), ends.left);
        assert_eq!(ends.side_of(ends.left), Some(Side::Left));
        assert_eq!(ends.side_of(ends.right), Some(Side::Right));
        assert_eq!(ends.side_of(ForkId::new(99)), None);
        assert_eq!(t.fork_on(p, Side::Left), ends.left);
        assert_eq!(t.fork_on(p, Side::Right), ends.right);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_fork_panics_on_non_endpoint() {
        let ends = ForkEnds::new(ForkId::new(0), ForkId::new(1));
        let _ = ends.other(ForkId::new(2));
    }

    #[test]
    fn neighbours_in_triangle6() {
        let t = triangle6();
        // Every philosopher in the 6/3 triangle shares a fork with all others
        // except possibly the "opposite" parallel pair... actually each
        // philosopher touches 2 of the 3 forks, and every other philosopher
        // touches 2 of 3, so any two philosophers share at least one fork.
        for p in t.philosopher_ids() {
            let nbrs = t.neighbours(p);
            assert_eq!(nbrs.len(), 5, "philosopher {p} should neighbour all others");
            assert!(!nbrs.contains(&p));
        }
    }

    #[test]
    fn are_neighbours_is_symmetric_and_irreflexive() {
        let t = triangle6();
        for a in t.philosopher_ids() {
            assert!(!t.are_neighbours(a, a));
            for b in t.philosopher_ids() {
                assert_eq!(t.are_neighbours(a, b), t.are_neighbours(b, a));
            }
        }
    }

    #[test]
    fn classic_ring_detection() {
        let ring5 = Topology::from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert!(ring5.is_classic_ring());
        assert_eq!(ring5.max_fork_sharing(), 2);

        // Two disjoint triangles: n == k and every fork has degree 2, but the
        // arcs do not form a single covering cycle.
        let two_triangles =
            Topology::from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(!two_triangles.is_classic_ring());

        assert!(!triangle6().is_classic_ring());
    }

    #[test]
    fn parallel_arcs_are_allowed() {
        let t = Topology::from_arcs(2, [(0, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(t.num_philosophers(), 3);
        assert_eq!(t.fork_degree(ForkId::new(0)), 3);
        assert_eq!(t.fork_degree(ForkId::new(1)), 3);
    }

    #[test]
    fn display_and_summary() {
        let t = triangle6();
        assert_eq!(t.to_string(), "topology(n=6, k=3, max_sharing=4)");
    }

    #[test]
    fn arcs_roundtrip_reconstructs_the_topology() {
        // The `arcs()` listing is a faithful serialization: rebuilding from it
        // yields an identical topology (the offline substitute for the old
        // serde round-trip test).
        let t = triangle6();
        let arcs: Vec<(u32, u32)> = t
            .arcs()
            .iter()
            .map(|&(_, l, r)| (l.raw(), r.raw()))
            .collect();
        let back = Topology::from_arcs(t.num_forks(), arcs).unwrap();
        assert_eq!(t, back);
    }
}
