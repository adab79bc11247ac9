//! Strongly typed identifiers for forks and philosophers.
//!
//! The simulation, algorithm and analysis crates all address forks and
//! philosophers by index.  Newtypes keep the two index spaces statically
//! distinct (a fork index can never be confused with a philosopher index)
//! while remaining `Copy` and cheap to hash.

use std::fmt;

/// Identifier of a fork (a node of the conflict multigraph).
///
/// Fork identifiers are dense indices `0..k`, as
/// [`Topology::from_arcs`](crate::Topology::from_arcs) numbers them.
///
/// ```
/// use gdp_topology::ForkId;
/// let f = ForkId::new(3);
/// assert_eq!(f.index(), 3);
/// assert_eq!(format!("{f}"), "f3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ForkId(u32);

impl ForkId {
    /// Creates a fork identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ForkId(index)
    }

    /// Returns the dense index of this fork, suitable for vector indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value of the identifier.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ForkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ForkId({})", self.0)
    }
}

impl fmt::Display for ForkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u32> for ForkId {
    fn from(value: u32) -> Self {
        ForkId(value)
    }
}

impl From<ForkId> for u32 {
    fn from(value: ForkId) -> Self {
        value.0
    }
}

impl From<ForkId> for usize {
    fn from(value: ForkId) -> Self {
        value.index()
    }
}

/// Identifier of a philosopher (an arc of the conflict multigraph).
///
/// Philosopher identifiers are dense indices `0..n`, assigned by
/// [`Topology::from_arcs`](crate::Topology::from_arcs) in arc order.
///
/// Identifiers exist for the benefit of the *observer* (the simulator, the
/// adversary, the metrics collector).  The philosophers themselves remain
/// symmetric: the algorithms of this project never branch on the identifier,
/// and the symmetry test-suite checks exactly that.
///
/// ```
/// use gdp_topology::PhilosopherId;
/// let p = PhilosopherId::new(0);
/// assert_eq!(format!("{p}"), "P0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhilosopherId(u32);

impl PhilosopherId {
    /// Creates a philosopher identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        PhilosopherId(index)
    }

    /// Returns the dense index of this philosopher, suitable for vector indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value of the identifier.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PhilosopherId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhilosopherId({})", self.0)
    }
}

impl fmt::Display for PhilosopherId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for PhilosopherId {
    fn from(value: u32) -> Self {
        PhilosopherId(value)
    }
}

impl From<PhilosopherId> for u32 {
    fn from(value: PhilosopherId) -> Self {
        value.0
    }
}

impl From<PhilosopherId> for usize {
    fn from(value: PhilosopherId) -> Self {
        value.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fork_id_roundtrip() {
        for i in [0u32, 1, 7, 1024, u32::MAX] {
            let f = ForkId::new(i);
            assert_eq!(f.raw(), i);
            assert_eq!(u32::from(f), i);
            assert_eq!(ForkId::from(i), f);
        }
    }

    #[test]
    fn philosopher_id_roundtrip() {
        for i in [0u32, 1, 7, 1024, u32::MAX] {
            let p = PhilosopherId::new(i);
            assert_eq!(p.raw(), i);
            assert_eq!(u32::from(p), i);
            assert_eq!(PhilosopherId::from(i), p);
        }
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(ForkId::new(1) < ForkId::new(2));
        assert!(PhilosopherId::new(0) < PhilosopherId::new(10));
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<ForkId> = (0..100).map(ForkId::new).collect();
        assert_eq!(set.len(), 100);
        let set: HashSet<PhilosopherId> = (0..100).map(PhilosopherId::new).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ForkId::new(12).to_string(), "f12");
        assert_eq!(PhilosopherId::new(12).to_string(), "P12");
        assert_eq!(format!("{:?}", ForkId::new(3)), "ForkId(3)");
        assert_eq!(format!("{:?}", PhilosopherId::new(3)), "PhilosopherId(3)");
    }

    #[test]
    fn index_matches_usize_conversion() {
        let f = ForkId::new(9);
        let p = PhilosopherId::new(11);
        assert_eq!(usize::from(f), 9);
        assert_eq!(usize::from(p), 11);
    }
}
