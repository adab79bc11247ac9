//! Topology generators.
//!
//! This module contains constructors for every topology the paper discusses:
//!
//! * the **classic ring** (the original Dijkstra table), on which Lehmann &
//!   Rabin's algorithms are correct;
//! * the four example generalized systems of **Figure 1**;
//! * the **ring with a chord** family that witnesses Theorem 1 (LR1 fails);
//! * the **theta graphs** (two nodes joined by three internally disjoint
//!   paths) that witness Theorem 2 (LR2 fails);
//! * auxiliary families (star, path, complete conflict graph) used in the
//!   test-suite and benchmarks;
//! * **random multigraph** generators for seeded property tests;
//! * the parameterized **scenario families** enumerated by `gdp-scenarios`
//!   and the `gdp sweep` command: grids, tori, barbells, generalized theta
//!   graphs and seeded random `d`-regular conflict graphs.
//!
//! All generators return [`Result<Topology>`](crate::Result) and document the
//! parameter ranges they accept.

use crate::{Result, Topology, TopologyError};
use rand::seq::SliceRandom;
use rand::Rng;

fn invalid(message: impl Into<String>) -> TopologyError {
    TopologyError::InvalidParameter {
        message: message.into(),
    }
}

/// The classic dining philosophers table: `n` forks and `n` philosophers
/// alternating around a ring.
///
/// Philosopher `i` is adjacent to forks `i` (its left) and `(i + 1) % n`
/// (its right).
///
/// # Errors
///
/// Returns an error if `n < 2`: with fewer than two philosophers there is no
/// ring (and fewer than two forks violates Definition 1).
///
/// ```
/// use gdp_topology::builders::classic_ring;
/// let t = classic_ring(7)?;
/// assert!(t.is_classic_ring());
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
pub fn classic_ring(n: usize) -> Result<Topology> {
    if n < 2 {
        return Err(invalid(format!(
            "classic ring needs at least 2 philosophers, got {n}"
        )));
    }
    let arcs = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32));
    Topology::from_arcs(n, arcs)
}

/// A ring of `k` forks in which every pair of adjacent forks is contended by
/// `sharing` parallel philosophers.
///
/// With `sharing == 1` this is the classic ring; with `sharing == 2` and
/// `k == 3` it is the leftmost system of Figure 1 (6 philosophers, 3 forks),
/// and with `sharing == 2`, `k == 6` the second system (12 philosophers,
/// 6 forks).
///
/// # Errors
///
/// Returns an error if `k < 2` or `sharing == 0`.
pub fn shared_ring(k: usize, sharing: usize) -> Result<Topology> {
    if k < 2 {
        return Err(invalid(format!(
            "shared ring needs at least 2 forks, got {k}"
        )));
    }
    if sharing == 0 {
        return Err(invalid("sharing factor must be at least 1"));
    }
    let mut arcs = Vec::with_capacity(k * sharing);
    for i in 0..k {
        let left = i as u32;
        let right = ((i + 1) % k) as u32;
        for copy in 0..sharing {
            // Alternate the orientation of parallel philosophers so that the
            // topology stays symmetric but the left/right labels differ,
            // mirroring how the paper draws the Figure 1 systems.
            if copy % 2 == 0 {
                arcs.push((left, right));
            } else {
                arcs.push((right, left));
            }
        }
    }
    Topology::from_arcs(k, arcs)
}

/// Figure 1, leftmost system: **6 philosophers, 3 forks** — a triangle of
/// forks with every edge doubled.
///
/// This is the topology on which Section 3 of the paper constructs the
/// adversary defeating LR1.
pub fn figure1_triangle() -> Topology {
    shared_ring(3, 2).expect("triangle-6 parameters are valid")
}

/// Figure 1, second system: **12 philosophers, 6 forks** — a hexagon of forks
/// with every edge doubled.
pub fn figure1_hexagon() -> Topology {
    shared_ring(6, 2).expect("hexagon-12 parameters are valid")
}

/// Figure 1, third system: **16 philosophers, 12 forks**.
///
/// The figure shows a ring of twelve forks in which the twelve ring
/// philosophers are augmented by four additional philosophers bridging
/// opposite-quadrant forks.  We reproduce it as a 12-ring plus four chords
/// `{0-6, 3-9, 1-7, 4-10}`, which matches the stated counts and keeps the
/// system vertex- and arc-transitive enough for the experiments that use it
/// (the *exact* drawing is not load-bearing for any claim in the paper; any
/// 16-arc/12-fork system with shared forks exhibits the same phenomena).
pub fn figure1_ring12_chords() -> Topology {
    let mut arcs: Vec<(u32, u32)> = (0..12).map(|i| (i as u32, ((i + 1) % 12) as u32)).collect();
    arcs.extend_from_slice(&[(0, 6), (3, 9), (1, 7), (4, 10)]);
    Topology::from_arcs(12, arcs).expect("ring-12 with 4 chords is valid")
}

/// Figure 1, rightmost system: **10 philosophers, 9 forks**.
///
/// We reproduce it as a ring of nine forks (nine philosophers) plus one
/// additional philosopher bridging forks 0 and 3, giving one fork of degree 3
/// — the smallest asymmetric-sharing example of the figure.  As with
/// [`figure1_ring12_chords`], the precise drawing is not load-bearing; the
/// counts and the presence of a fork shared by three philosophers are.
pub fn figure1_ring9_chord() -> Topology {
    let mut arcs: Vec<(u32, u32)> = (0..9).map(|i| (i as u32, ((i + 1) % 9) as u32)).collect();
    arcs.push((0, 3));
    Topology::from_arcs(9, arcs).expect("ring-9 with 1 chord is valid")
}

/// The full Figure 1 gallery in left-to-right order, with the paper's
/// philosopher/fork counts.
///
/// ```
/// let gallery = gdp_topology::builders::figure1_gallery();
/// let counts: Vec<(usize, usize)> = gallery
///     .iter()
///     .map(|(_, t)| (t.num_philosophers(), t.num_forks()))
///     .collect();
/// assert_eq!(counts, vec![(6, 3), (12, 6), (16, 12), (10, 9)]);
/// ```
pub fn figure1_gallery() -> Vec<(&'static str, Topology)> {
    vec![
        ("triangle-6/3", figure1_triangle()),
        ("hexagon-12/6", figure1_hexagon()),
        ("ring12+4chords-16/12", figure1_ring12_chords()),
        ("ring9+chord-10/9", figure1_ring9_chord()),
    ]
}

/// Where the extra philosopher of [`ring_with_chord`] attaches its far end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChordTarget {
    /// The far end is another node of the ring, `offset` steps around from
    /// node 0 (so `offset` must be in `2..ring_size - 1` to avoid creating a
    /// parallel arc with a ring philosopher — parallel arcs are legal but a
    /// different shape than Figure 2 draws).
    RingNode {
        /// Distance around the ring from node 0 to the far endpoint.
        offset: usize,
    },
    /// The far end is a brand-new fork outside the ring, exactly as drawn in
    /// Figure 2 (node `g` need not belong to `H`).
    ExternalFork,
}

/// The Theorem 1 witness family: a ring `H` of `ring_size` forks (and
/// `ring_size` philosophers) plus one extra philosopher `P` incident on ring
/// node 0, so that node 0 has three incident arcs.
///
/// Figure 2 of the paper draws `ring_size == 6` and an external far endpoint
/// `g`; [`ChordTarget::ExternalFork`] reproduces that exactly.  The returned
/// topology places the extra philosopher **last** (identifier
/// `ring_size`), and its shared fork is node `0`; the Theorem 1 adversary in
/// `gdp-adversary` relies on this layout.
///
/// # Errors
///
/// Returns an error if `ring_size < 3`, or if a `RingNode` offset is not in
/// `2..ring_size - 1`.
pub fn ring_with_chord(ring_size: usize, target: ChordTarget) -> Result<Topology> {
    if ring_size < 3 {
        return Err(invalid(format!(
            "ring with chord needs a ring of at least 3 forks, got {ring_size}"
        )));
    }
    let mut arcs: Vec<(u32, u32)> = (0..ring_size)
        .map(|i| (i as u32, ((i + 1) % ring_size) as u32))
        .collect();
    let num_forks = match target {
        ChordTarget::RingNode { offset } => {
            if offset < 2 || offset >= ring_size - 1 {
                return Err(invalid(format!(
                    "chord offset must be in 2..{} to avoid duplicating a ring arc, got {offset}",
                    ring_size - 1
                )));
            }
            arcs.push((0, offset as u32));
            ring_size
        }
        ChordTarget::ExternalFork => {
            arcs.push((0, ring_size as u32));
            ring_size + 1
        }
    };
    Topology::from_arcs(num_forks, arcs)
}

/// The exact system drawn in Figure 2: a hexagonal ring plus one philosopher
/// from ring node 0 to an external fork `g`.
pub fn figure2_hexagon_with_pendant() -> Topology {
    ring_with_chord(6, ChordTarget::ExternalFork).expect("figure 2 parameters are valid")
}

/// The Theorem 2 witness family: a **theta graph**.  Two hub forks are joined
/// by three internally disjoint paths with `len_a`, `len_b` and `len_c`
/// philosophers respectively.
///
/// Any two of the paths form a ring `H`, and the third is the extra path `P`
/// required by Theorem 2.  Fork 0 and fork 1 are the hubs; the interior forks
/// of the paths are numbered consecutively path by path, and the philosophers
/// are numbered along path A, then path B, then path C.
///
/// # Errors
///
/// Returns an error if any path length is zero or if all three lengths are 1
/// (three parallel arcs form a legal multigraph but not the theta graph of
/// Figure 3; use [`Topology::from_arcs`] directly for that shape).
pub fn theta_graph(len_a: usize, len_b: usize, len_c: usize) -> Result<Topology> {
    generalized_theta(&[len_a, len_b, len_c])
}

/// The **generalized theta graph** Θ(l₁, …, lₘ): two hub forks joined by
/// `paths.len()` internally disjoint paths with the given philosopher counts.
///
/// With three paths this is the classic [`theta_graph`] of Theorem 2; with
/// more it is the natural "multi-path" witness family the scenario sweeps
/// enumerate (every pair of paths forms a ring, so the Theorem 2 obstruction
/// appears `m·(m−1)/2` times over).
///
/// Fork 0 and fork 1 are the hubs; interior forks are numbered consecutively
/// path by path, and the philosophers are numbered along each path in order.
///
/// ```
/// use gdp_topology::builders::generalized_theta;
/// // Four paths of 2 philosophers each: 8 philosophers, 2 + 4 forks.
/// let t = generalized_theta(&[2, 2, 2, 2])?;
/// assert_eq!(t.num_philosophers(), 8);
/// assert_eq!(t.num_forks(), 6);
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
///
/// # Errors
///
/// Returns an error if fewer than two paths are given, if any path is empty,
/// or if every path has length 1 (that shape is a bundle of parallel arcs,
/// legal as a multigraph but not a theta graph; build it with
/// [`Topology::from_arcs`] directly).
pub fn generalized_theta(paths: &[usize]) -> Result<Topology> {
    if paths.len() < 2 {
        return Err(invalid(format!(
            "a generalized theta graph needs at least 2 paths, got {}",
            paths.len()
        )));
    }
    if paths.contains(&0) {
        return Err(invalid(
            "theta graph paths must each contain at least one philosopher",
        ));
    }
    if paths.iter().all(|&len| len == 1) {
        return Err(invalid(
            "a theta graph needs at least one path of length >= 2; parallel arcs requested",
        ));
    }
    let hub_a = 0u32;
    let hub_b = 1u32;
    let mut next_fork = 2u32;
    let mut arcs = Vec::new();
    for &len in paths {
        let mut prev = hub_a;
        for step in 0..len {
            let next = if step + 1 == len {
                hub_b
            } else {
                let f = next_fork;
                next_fork += 1;
                f
            };
            arcs.push((prev, next));
            prev = next;
        }
    }
    Topology::from_arcs(next_fork as usize, arcs)
}

/// The system drawn in Figure 3: a hexagonal ring two of whose opposite nodes
/// are additionally joined by a two-philosopher path (a theta graph with path
/// lengths 3, 3 and 2: 8 philosophers, 7 forks).
pub fn figure3_theta() -> Topology {
    theta_graph(3, 3, 2).expect("figure 3 parameters are valid")
}

/// A star: one hub fork shared by `spokes` philosophers, each of which also
/// has a private outer fork.
///
/// Stars are acyclic, so both Lehmann–Rabin algorithms *do* work on them; the
/// test-suite uses them as a contrast class for the Theorem 1/2 preconditions.
///
/// # Errors
///
/// Returns an error if `spokes == 0`.
pub fn star(spokes: usize) -> Result<Topology> {
    if spokes == 0 {
        return Err(invalid("a star needs at least one spoke"));
    }
    let arcs = (0..spokes).map(|i| (0u32, (i + 1) as u32));
    Topology::from_arcs(spokes + 1, arcs)
}

/// A path (open chain) of `k` forks with `k - 1` philosophers.
///
/// # Errors
///
/// Returns an error if `k < 2`.
pub fn path(k: usize) -> Result<Topology> {
    if k < 2 {
        return Err(invalid(format!("a path needs at least 2 forks, got {k}")));
    }
    let arcs = (0..k - 1).map(|i| (i as u32, (i + 1) as u32));
    Topology::from_arcs(k, arcs)
}

/// The complete conflict graph on `k` forks: one philosopher for every
/// unordered pair of forks (`k * (k - 1) / 2` philosophers).
///
/// This is the densest simple topology and the worst case for the
/// symmetry-breaking argument in the proof of Theorem 3 (the probability
/// bound `m!/(mᵏ (m−k)!)` is stated for a complete graph of forks).
///
/// # Errors
///
/// Returns an error if `k < 2`.
pub fn complete_conflict(k: usize) -> Result<Topology> {
    if k < 2 {
        return Err(invalid(format!(
            "a complete conflict graph needs at least 2 forks, got {k}"
        )));
    }
    let mut arcs = Vec::with_capacity(k * (k - 1) / 2);
    for i in 0..k {
        for j in (i + 1)..k {
            arcs.push((i as u32, j as u32));
        }
    }
    Topology::from_arcs(k, arcs)
}

/// An open `rows × cols` **grid**: forks at the lattice points, one
/// philosopher per lattice edge.
///
/// Fork `(r, c)` has identifier `r * cols + c`; the horizontal philosophers
/// come first (row by row), then the vertical ones.  A `1 × k` grid is the
/// open [`path`] of `k` forks.
///
/// ```
/// use gdp_topology::builders::grid;
/// let t = grid(3, 4)?;
/// assert_eq!(t.num_forks(), 12);
/// assert_eq!(t.num_philosophers(), 3 * 3 + 2 * 4); // 17 lattice edges
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
///
/// # Errors
///
/// Returns an error if either dimension is zero or the grid has fewer than
/// two forks.
pub fn grid(rows: usize, cols: usize) -> Result<Topology> {
    if rows == 0 || cols == 0 || rows * cols < 2 {
        return Err(invalid(format!(
            "a grid needs at least 1x2 lattice points, got {rows}x{cols}"
        )));
    }
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut arcs = Vec::with_capacity(rows * (cols - 1) + (rows - 1) * cols);
    for r in 0..rows {
        for c in 0..cols.saturating_sub(1) {
            arcs.push((at(r, c), at(r, c + 1)));
        }
    }
    for r in 0..rows.saturating_sub(1) {
        for c in 0..cols {
            arcs.push((at(r, c), at(r + 1, c)));
        }
    }
    Topology::from_arcs(rows * cols, arcs)
}

/// A `rows × cols` **torus** (grid with wraparound): every fork is shared by
/// exactly four philosophers.
///
/// The torus is the canonical vertex-transitive non-ring family: it is
/// 4-regular and loaded with cycles, so it sits squarely outside the classic
/// ring on which LR1/LR2 are correct, while staying perfectly symmetric —
/// exactly the contrast class the scenario sweeps need.
///
/// Fork layout matches [`grid`]; each row and each column closes into a ring.
///
/// ```
/// use gdp_topology::builders::torus;
/// let t = torus(3, 3)?;
/// assert_eq!(t.num_forks(), 9);
/// assert_eq!(t.num_philosophers(), 18);
/// assert!(t.fork_ids().all(|f| t.fork_degree(f) == 4));
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
///
/// # Errors
///
/// Returns an error if either dimension is below 3 (a 2-long dimension would
/// duplicate its wrap arc into a parallel pair, a different family).
pub fn torus(rows: usize, cols: usize) -> Result<Topology> {
    if rows < 3 || cols < 3 {
        return Err(invalid(format!(
            "a torus needs both dimensions >= 3, got {rows}x{cols}"
        )));
    }
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut arcs = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            arcs.push((at(r, c), at(r, (c + 1) % cols)));
            arcs.push((at(r, c), at((r + 1) % rows, c)));
        }
    }
    Topology::from_arcs(rows * cols, arcs)
}

/// A **barbell**: two complete conflict graphs `K_clique` whose first nodes
/// are joined by a path of `bridge` philosophers.
///
/// Barbells combine the densest local contention (the cliques) with the
/// sparsest possible coupling (the bridge), which makes them a useful stress
/// shape for fairness across "communities" of philosophers.
///
/// Forks `0..clique` form the left clique, forks `clique..2*clique` the
/// right one; the bridge runs from fork 0 to fork `clique` through
/// `bridge - 1` fresh interior forks numbered from `2 * clique`.
///
/// ```
/// use gdp_topology::builders::barbell;
/// let t = barbell(4, 2)?;
/// assert_eq!(t.num_forks(), 2 * 4 + 1);        // one interior bridge fork
/// assert_eq!(t.num_philosophers(), 2 * 6 + 2); // two K4s + the bridge
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
///
/// # Errors
///
/// Returns an error if `clique < 3` (smaller cliques are paths or rings, not
/// barbells) or `bridge == 0` (the cliques must be coupled).
pub fn barbell(clique: usize, bridge: usize) -> Result<Topology> {
    if clique < 3 {
        return Err(invalid(format!(
            "a barbell needs cliques of at least 3 forks, got {clique}"
        )));
    }
    if bridge == 0 {
        return Err(invalid(
            "a barbell needs a bridge of at least 1 philosopher",
        ));
    }
    let mut arcs = Vec::with_capacity(clique * (clique - 1) + bridge);
    for offset in [0, clique] {
        for i in 0..clique {
            for j in (i + 1)..clique {
                arcs.push(((offset + i) as u32, (offset + j) as u32));
            }
        }
    }
    let mut next_fork = 2 * clique as u32;
    let mut prev = 0u32;
    for step in 0..bridge {
        let next = if step + 1 == bridge {
            clique as u32
        } else {
            let f = next_fork;
            next_fork += 1;
            f
        };
        arcs.push((prev, next));
        prev = next;
    }
    Topology::from_arcs(next_fork as usize, arcs)
}

/// A seeded random **`degree`-regular conflict graph** on `num_forks` forks:
/// every fork is shared by exactly `degree` philosophers
/// (`num_forks * degree / 2` philosophers in total).
///
/// Uses the configuration (stub-pairing) model: each fork contributes
/// `degree` stubs, the stubs are shuffled and paired.  Pairings with
/// self-loops are rejected and redrawn (bounded retries, then a deterministic
/// stub swap), so the result is always a valid multigraph — parallel arcs may
/// occur, exactly as Definition 1 of the paper permits.  The construction is
/// fully determined by `rng`, so seeded sweeps are reproducible.
///
/// ```
/// use gdp_topology::builders::random_regular;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
/// let t = random_regular(8, 3, &mut rng)?;
/// assert_eq!(t.num_philosophers(), 12);
/// assert!(t.fork_ids().all(|f| t.fork_degree(f) == 3));
/// # Ok::<(), gdp_topology::TopologyError>(())
/// ```
///
/// # Errors
///
/// Returns an error if `num_forks < 2`, `degree == 0`, `degree >= num_forks`,
/// or `num_forks * degree` is odd (no such graph exists).
pub fn random_regular<R: Rng + ?Sized>(
    num_forks: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Topology> {
    if num_forks < 2 {
        return Err(invalid(format!(
            "a random regular graph needs at least 2 forks, got {num_forks}"
        )));
    }
    if degree == 0 {
        return Err(invalid("fork degree must be at least 1"));
    }
    if degree >= num_forks {
        return Err(invalid(format!(
            "fork degree {degree} needs more than {num_forks} forks to avoid forced self-loops"
        )));
    }
    if !(num_forks * degree).is_multiple_of(2) {
        return Err(invalid(format!(
            "no {degree}-regular graph on {num_forks} forks exists (odd stub count)"
        )));
    }
    let mut stubs: Vec<u32> = (0..num_forks as u32)
        .flat_map(|f| std::iter::repeat_n(f, degree))
        .collect();
    // Reject-and-redraw until the pairing has no self-loop; the acceptance
    // probability is bounded away from zero, so a handful of attempts almost
    // always suffices.  Parallel arcs are fine (Definition 1 multigraphs).
    const ATTEMPTS: usize = 64;
    for _ in 0..ATTEMPTS {
        stubs.shuffle(rng);
        if stubs.chunks_exact(2).all(|pair| pair[0] != pair[1]) {
            break;
        }
    }
    // Deterministic repair for the (vanishingly unlikely) case that every
    // attempt kept a self-loop: cross-swap the offending pair with any pair
    // avoiding its fork.  Such a pair exists because degree < num_forks.
    for i in (0..stubs.len()).step_by(2) {
        if stubs[i] != stubs[i + 1] {
            continue;
        }
        let loop_fork = stubs[i];
        let partner = (0..stubs.len())
            .step_by(2)
            .find(|&j| stubs[j] != loop_fork && stubs[j + 1] != loop_fork)
            .expect("degree < num_forks guarantees a loop-free partner pair");
        stubs.swap(i + 1, partner + 1);
    }
    let arcs = stubs.chunks_exact(2).map(|pair| (pair[0], pair[1]));
    Topology::from_arcs(num_forks, arcs)
}

/// A uniformly random multigraph with `num_forks` forks and
/// `num_philosophers` philosophers; each philosopher independently picks an
/// ordered pair of distinct forks uniformly at random.
///
/// The result may be disconnected; use [`random_connected`] when a connected
/// conflict graph is required.
///
/// # Errors
///
/// Returns an error if `num_forks < 2` or `num_philosophers == 0`.
pub fn random_multigraph<R: Rng + ?Sized>(
    num_forks: usize,
    num_philosophers: usize,
    rng: &mut R,
) -> Result<Topology> {
    if num_forks < 2 {
        return Err(invalid(format!(
            "random multigraph needs at least 2 forks, got {num_forks}"
        )));
    }
    if num_philosophers == 0 {
        return Err(invalid("random multigraph needs at least 1 philosopher"));
    }
    let mut arcs = Vec::with_capacity(num_philosophers);
    for _ in 0..num_philosophers {
        let left = rng.gen_range(0..num_forks) as u32;
        let mut right = rng.gen_range(0..num_forks) as u32;
        while right == left {
            right = rng.gen_range(0..num_forks) as u32;
        }
        arcs.push((left, right));
    }
    Topology::from_arcs(num_forks, arcs)
}

/// A random *connected* multigraph: a random spanning tree over the forks
/// (guaranteeing connectivity, `num_forks - 1` philosophers) plus
/// `extra_philosophers` additional uniformly random arcs.
///
/// # Errors
///
/// Returns an error if `num_forks < 2`.
pub fn random_connected<R: Rng + ?Sized>(
    num_forks: usize,
    extra_philosophers: usize,
    rng: &mut R,
) -> Result<Topology> {
    if num_forks < 2 {
        return Err(invalid(format!(
            "random connected multigraph needs at least 2 forks, got {num_forks}"
        )));
    }
    // Random spanning tree by random attachment order.
    let mut order: Vec<u32> = (0..num_forks as u32).collect();
    order.shuffle(rng);
    let mut arcs = Vec::with_capacity(num_forks - 1 + extra_philosophers);
    for i in 1..order.len() {
        let parent = order[rng.gen_range(0..i)];
        arcs.push((parent, order[i]));
    }
    for _ in 0..extra_philosophers {
        let left = rng.gen_range(0..num_forks) as u32;
        let mut right = rng.gen_range(0..num_forks) as u32;
        while right == left {
            right = rng.gen_range(0..num_forks) as u32;
        }
        arcs.push((left, right));
    }
    Topology::from_arcs(num_forks, arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::ForkId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn classic_ring_counts() {
        for n in 2..20 {
            let t = classic_ring(n).unwrap();
            assert_eq!(t.num_philosophers(), n);
            assert_eq!(t.num_forks(), n);
            assert!(t.is_classic_ring(), "ring of size {n} must be classic");
        }
        assert!(classic_ring(0).is_err());
        assert!(classic_ring(1).is_err());
    }

    #[test]
    fn figure1_gallery_matches_paper_counts() {
        let gallery = figure1_gallery();
        let counts: Vec<(usize, usize)> = gallery
            .iter()
            .map(|(_, t)| (t.num_philosophers(), t.num_forks()))
            .collect();
        assert_eq!(counts, vec![(6, 3), (12, 6), (16, 12), (10, 9)]);
        // Every gallery system is a *generalized* instance: either n != k or
        // some fork is shared by more than two philosophers.
        for (name, t) in &gallery {
            assert!(
                t.num_philosophers() != t.num_forks() || t.max_fork_sharing() > 2,
                "{name} should not be a classic instance"
            );
            assert!(analysis::is_connected(t), "{name} should be connected");
        }
    }

    #[test]
    fn shared_ring_rejects_bad_parameters() {
        assert!(shared_ring(1, 2).is_err());
        assert!(shared_ring(3, 0).is_err());
    }

    #[test]
    fn ring_with_chord_layout() {
        let t = ring_with_chord(6, ChordTarget::ExternalFork).unwrap();
        assert_eq!(t.num_philosophers(), 7);
        assert_eq!(t.num_forks(), 7);
        // Node 0 has three incident arcs: the Theorem 1 precondition.
        assert_eq!(t.fork_degree(ForkId::new(0)), 3);

        let t = ring_with_chord(6, ChordTarget::RingNode { offset: 3 }).unwrap();
        assert_eq!(t.num_philosophers(), 7);
        assert_eq!(t.num_forks(), 6);
        assert_eq!(t.fork_degree(ForkId::new(0)), 3);
        assert_eq!(t.fork_degree(ForkId::new(3)), 3);

        assert!(ring_with_chord(2, ChordTarget::ExternalFork).is_err());
        assert!(ring_with_chord(6, ChordTarget::RingNode { offset: 1 }).is_err());
        assert!(ring_with_chord(6, ChordTarget::RingNode { offset: 5 }).is_err());
    }

    #[test]
    fn theta_graph_counts() {
        let t = theta_graph(3, 3, 2).unwrap();
        assert_eq!(t.num_philosophers(), 8);
        assert_eq!(t.num_forks(), 7);
        // The hubs have degree 3.
        assert_eq!(t.fork_degree(ForkId::new(0)), 3);
        assert_eq!(t.fork_degree(ForkId::new(1)), 3);
        // Interior forks have degree 2.
        for f in t.fork_ids().skip(2) {
            assert_eq!(t.fork_degree(f), 2);
        }
        assert!(theta_graph(0, 1, 1).is_err());
        assert!(theta_graph(1, 1, 1).is_err());
    }

    #[test]
    fn figure3_theta_is_the_8_over_7_system() {
        let t = figure3_theta();
        assert_eq!(t.num_philosophers(), 8);
        assert_eq!(t.num_forks(), 7);
    }

    #[test]
    fn star_and_path_shapes() {
        let s = star(5).unwrap();
        assert_eq!(s.num_philosophers(), 5);
        assert_eq!(s.num_forks(), 6);
        assert_eq!(s.max_fork_sharing(), 5);
        assert!(star(0).is_err());

        let p = path(4).unwrap();
        assert_eq!(p.num_philosophers(), 3);
        assert_eq!(p.num_forks(), 4);
        assert!(path(1).is_err());
    }

    #[test]
    fn complete_conflict_counts() {
        let t = complete_conflict(5).unwrap();
        assert_eq!(t.num_philosophers(), 10);
        assert_eq!(t.num_forks(), 5);
        assert_eq!(t.max_fork_sharing(), 4);
        assert!(complete_conflict(1).is_err());
    }

    #[test]
    fn generalized_theta_matches_classic_theta_and_extends_it() {
        // Three paths: identical layout to the Theorem 2 builder.
        let classic = theta_graph(3, 3, 2).unwrap();
        let general = generalized_theta(&[3, 3, 2]).unwrap();
        assert_eq!(classic.arcs(), general.arcs());

        // Five paths: hubs have degree 5, everything else degree 2.
        let t = generalized_theta(&[2, 2, 3, 1, 4]).unwrap();
        assert_eq!(t.num_philosophers(), 12);
        assert_eq!(t.fork_degree(ForkId::new(0)), 5);
        assert_eq!(t.fork_degree(ForkId::new(1)), 5);
        for f in t.fork_ids().skip(2) {
            assert_eq!(t.fork_degree(f), 2);
        }
        assert!(analysis::is_connected(&t));

        assert!(generalized_theta(&[3]).is_err());
        assert!(generalized_theta(&[2, 0]).is_err());
        assert!(generalized_theta(&[1, 1, 1, 1]).is_err());
    }

    #[test]
    fn grid_counts_and_degrees() {
        let t = grid(3, 4).unwrap();
        assert_eq!(t.num_forks(), 12);
        assert_eq!(t.num_philosophers(), 17);
        assert!(analysis::is_connected(&t));
        // Corner forks have degree 2, edge forks 3, interior forks 4.
        assert_eq!(t.fork_degree(ForkId::new(0)), 2);
        assert_eq!(t.fork_degree(ForkId::new(1)), 3);
        assert_eq!(t.fork_degree(ForkId::new(5)), 4);
        // A 1 x k grid is the open path.
        let line = grid(1, 5).unwrap();
        assert_eq!(line.arcs(), path(5).unwrap().arcs());
        assert!(grid(0, 4).is_err());
        assert!(grid(1, 1).is_err());
    }

    #[test]
    fn torus_is_four_regular_and_connected() {
        for (rows, cols) in [(3, 3), (3, 5), (4, 4)] {
            let t = torus(rows, cols).unwrap();
            assert_eq!(t.num_forks(), rows * cols);
            assert_eq!(t.num_philosophers(), 2 * rows * cols);
            assert!(t.fork_ids().all(|f| t.fork_degree(f) == 4));
            assert!(analysis::is_connected(&t), "torus {rows}x{cols}");
            // Tori are cyclic but never classic rings: the LR algorithms'
            // safe zone excludes them.
            assert!(analysis::has_cycle(&t));
            assert!(!t.is_classic_ring());
        }
        assert!(torus(2, 5).is_err());
        assert!(torus(3, 2).is_err());
    }

    #[test]
    fn barbell_counts_and_structure() {
        let t = barbell(4, 2).unwrap();
        assert_eq!(t.num_forks(), 9);
        assert_eq!(t.num_philosophers(), 14);
        assert!(analysis::is_connected(&t));
        // The clique entry forks carry the clique arcs plus the bridge.
        assert_eq!(t.fork_degree(ForkId::new(0)), 4);
        assert_eq!(t.fork_degree(ForkId::new(4)), 4);
        // A length-1 bridge adds no interior fork.
        let tight = barbell(3, 1).unwrap();
        assert_eq!(tight.num_forks(), 6);
        assert_eq!(tight.num_philosophers(), 7);
        assert!(barbell(2, 1).is_err());
        assert!(barbell(3, 0).is_err());
    }

    #[test]
    fn random_regular_is_exactly_regular_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (forks, degree) in [(6, 2), (8, 3), (9, 4), (20, 3)] {
            let t = random_regular(forks, degree, &mut rng).unwrap();
            assert_eq!(t.num_forks(), forks);
            assert_eq!(t.num_philosophers(), forks * degree / 2);
            assert!(
                t.fork_ids().all(|f| t.fork_degree(f) == degree),
                "{degree}-regular on {forks} forks"
            );
            // No self-loops: every philosopher joins two distinct forks
            // (Topology::from_arcs would have rejected them anyway).
            for p in t.philosopher_ids() {
                let ends = t.forks_of(p);
                assert_ne!(ends.left, ends.right);
            }
        }
        // Identical seeds give identical graphs; different seeds differ.
        let a = random_regular(10, 3, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let b = random_regular(10, 3, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let c = random_regular(10, 3, &mut ChaCha8Rng::seed_from_u64(6)).unwrap();
        assert_eq!(a.arcs(), b.arcs());
        assert_ne!(a.arcs(), c.arcs());

        assert!(random_regular(1, 1, &mut rng).is_err());
        assert!(random_regular(6, 0, &mut rng).is_err());
        assert!(random_regular(4, 4, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err());
    }

    #[test]
    fn random_generators_respect_counts_and_validity() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let t = random_multigraph(6, 10, &mut rng).unwrap();
            assert_eq!(t.num_forks(), 6);
            assert_eq!(t.num_philosophers(), 10);
        }
        for _ in 0..50 {
            let t = random_connected(8, 5, &mut rng).unwrap();
            assert_eq!(t.num_forks(), 8);
            assert_eq!(t.num_philosophers(), 12);
            assert!(analysis::is_connected(&t));
        }
        assert!(random_multigraph(1, 3, &mut rng).is_err());
        assert!(random_multigraph(4, 0, &mut rng).is_err());
        assert!(random_connected(1, 0, &mut rng).is_err());
    }

    // Property-style sweeps over exhaustive / seeded parameter grids (the
    // offline replacement for the former proptest strategies).

    #[test]
    fn prop_classic_ring_every_fork_shared_by_two() {
        for n in 2usize..64 {
            let t = classic_ring(n).unwrap();
            assert!(t.fork_ids().all(|f| t.fork_degree(f) == 2), "ring {n}");
        }
    }

    #[test]
    fn prop_shared_ring_degree_is_twice_sharing() {
        for k in 2usize..16 {
            for s in 1usize..5 {
                let t = shared_ring(k, s).unwrap();
                assert_eq!(t.num_philosophers(), k * s);
                assert!(
                    t.fork_ids().all(|f| t.fork_degree(f) == 2 * s),
                    "shared_ring({k}, {s})"
                );
            }
        }
    }

    #[test]
    fn prop_theta_counts() {
        for a in 1usize..6 {
            for b in 2usize..6 {
                for c in 1usize..6 {
                    let t = theta_graph(a, b, c).unwrap();
                    assert_eq!(t.num_philosophers(), a + b + c);
                    assert_eq!(t.num_forks(), (a - 1) + (b - 1) + (c - 1) + 2);
                }
            }
        }
    }

    #[test]
    fn prop_random_multigraph_arcs_are_valid() {
        let mut param_rng = ChaCha8Rng::seed_from_u64(0xB111_DE25);
        for seed in 0u64..200 {
            let forks = param_rng.gen_range(2usize..12);
            let phils = param_rng.gen_range(1usize..20);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = random_multigraph(forks, phils, &mut rng).unwrap();
            for p in t.philosopher_ids() {
                let ends = t.forks_of(p);
                assert_ne!(ends.left, ends.right);
            }
        }
    }
}
