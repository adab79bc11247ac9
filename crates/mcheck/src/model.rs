//! Exact MDP construction for a (topology, algorithm) pair.
//!
//! The paper phrases its theorems over the **probabilistic automaton** of
//! the system: from every state the *adversary* nondeterministically picks
//! which philosopher executes the next atomic step, and the step itself
//! branches *probabilistically* over the philosopher's random draws.  For a
//! finite system that automaton is a finite Markov decision process, and
//! this module builds it explicitly:
//!
//! * **states** are [`EngineState`]s (fork cells + private program states),
//!   deduplicated by their exact bit-packed encoding
//!   ([`EngineState::encode`]) — and, when symmetry reduction is on, by the
//!   *least* encoding over a set of orientation-preserving topology
//!   automorphisms (states related by a relabelling are bisimilar, so one
//!   canonical representative suffices).  Keys are compared whole, so two
//!   states merge only when they are equal up to the quotient;
//! * **choices** are the `n` schedulable philosophers;
//! * **branches** of a choice are the outcomes of the scheduled step's
//!   random draws, enumerated exhaustively on the bare state
//!   ([`EngineState::for_each_step_outcome`], the scripted
//!   [`DrawTape`](gdp_sim::DrawTape) protocol) with their exact
//!   probabilities.
//!
//! States satisfying the [`CheckTarget`] are absorbing (they are the "good"
//! states of the reachability objective and are never expanded), so the
//! LR2/GDP2 guest books stay empty in a progress check: no meal ever
//! completes inside the explored fragment.
//!
//! [`BuildOptions::class`] picks the adversary class.  The default, all fair
//! schedulers, builds the plain automaton above; a restricted class builds
//! its product with per-state scheduler bookkeeping ([`crate::restricted`])
//! through the same expansion.
//!
//! Frontier expansion fans out over `std::thread::scope` workers, each with
//! its own state buffers; results are merged on one thread **in frontier
//! order**, so state numbering, transition order and every probability are
//! bitwise-identical for every thread count — the same determinism contract
//! the Monte-Carlo trial runner enforces (test-enforced here too).
//!
//! The build holds states packed.  The frontier keeps each state's
//! *as-reached* encoding — the labelling in which it was first discovered —
//! and a worker decodes it into one reused [`EngineState`] to expand it;
//! expanding the canonical representative instead would renumber states and
//! change counterexamples.  The worker relabels the parent's as-reached
//! words into its encodings under every automorphism
//! ([`StateCodec::relabel`]), and keys each successor from those encodings
//! ([`EngineState::encode_successor`]): a step rewrites only the stepping
//! philosopher's private state and its two forks.  A one-word encoding
//! (every ring-5 GDP1 state) is keyed in a register: its fields are
//! replaced by mask and shift, and its least encoding is a `u64` minimum.
//!
//! The dedup table holds the canonical keys in one arena plus an index of
//! `u32` slots; the model keeps the arena and drops the index when the
//! build ends.  Workers only read the table as it stood when their layer
//! began.  A worker does not probe it once per edge: it collects the keys
//! of `BATCH_EDGES` (96) or more edges, across parents, and looks them up
//! together (`KeyTable::get_batch`), in passes whose loads do not wait on
//! one another, so their cache misses overlap.  It then resolves the batch
//! in edge order: a key the layer's table lacks is looked up in the
//! worker's own table of new keys, and inserted there when missing, so new
//! states are numbered in discovery order.  The merge that
//! follows compares a key only with the keys the layer added, loading the
//! home slots of the next keys ahead of it.  A state's rows are one offset
//! into the successor array plus one byte per choice naming the row's
//! *shape* — its probabilities in draw order, from the model's few
//! distinct ones.

use crate::restricted::{AdversaryClass, Bookkeeping, Crashed, Waits};
use crate::table::{KeyTable, Packed, LOOKAHEAD};
use gdp_sim::{EngineState, Phase, Program, SimConfig, StateCodec};
use gdp_topology::{symmetry, Automorphism, PhilosopherId, Topology};
use std::ops::Range;

/// The reachability objective of a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckTarget {
    /// **Progress** (Theorem 3): some philosopher starts eating.
    Progress,
    /// **Individual liveness** (the lockout-freedom obligation of
    /// Theorem 4, one philosopher at a time): the given philosopher starts
    /// eating.
    PhilosopherEats(PhilosopherId),
}

impl CheckTarget {
    /// Stable human-readable description used in certificates.
    #[must_use]
    pub fn describe(self) -> String {
        match self {
            CheckTarget::Progress => "progress (some philosopher eats)".to_string(),
            CheckTarget::PhilosopherEats(p) => format!("philosopher {p} eats"),
        }
    }
}

/// Cap on the number of topology automorphisms the symmetry quotient uses
/// (and on the orbit computation of `gdp check --target lockout`).
pub const AUTOMORPHISM_LIMIT: usize = 64;

/// Options controlling MDP construction.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Maximum number of (canonical) states to discover before the build is
    /// truncated.  A truncated model can still *refute* (a counterexample
    /// inside the fragment is real) but can never certify.
    pub max_states: usize,
    /// Quotient symmetric states through orientation-preserving topology
    /// automorphisms.
    ///
    /// Sound only when the program is relabelling-invariant: the same code
    /// for every philosopher, private state free of absolute fork or
    /// philosopher identifiers.  All four paper algorithms (and the naive
    /// left-right baseline) qualify; the asymmetric ordered-forks baseline
    /// does **not** (it branches on global fork identifiers) — disable
    /// symmetry for such programs.  Product builds (restricted
    /// [`class`](Self::class)es) ignore it: they are quotient-free.
    pub symmetry: bool,
    /// Worker threads for frontier expansion (`0` = all cores, `1` =
    /// serial).  The model is bitwise-identical for every value.
    pub threads: usize,
    /// Unused: the build steps bare states and runs no engine, so it has no
    /// seed to take.  The field remains for callers that still pass it.
    pub sim: SimConfig,
    /// The adversary class to quantify over (default: all fair
    /// schedulers).
    pub class: AdversaryClass,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            max_states: 2_000_000,
            symmetry: true,
            threads: 0,
            sim: SimConfig::default(),
            class: AdversaryClass::Fair,
        }
    }
}

impl BuildOptions {
    /// Default options with the given state budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Enables or disables the symmetry quotient.
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the worker thread count (`0` = all cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the adversary class.
    #[must_use]
    pub fn with_class(mut self, class: AdversaryClass) -> Self {
        self.class = class;
        self
    }

    fn effective_threads(&self, work_items: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        requested.max(1).min(work_items.max(1))
    }
}

/// Marks a transition that leaves the explored fragment (only present when
/// the build was truncated by the state budget).
pub const UNEXPLORED: u32 = u32::MAX;

/// The explicit MDP of one (topology, algorithm, target) triple.
///
/// Transitions are stored in compressed sparse rows: state-major,
/// choice-minor, outcomes in draw-lexicographic order — the deterministic
/// layout every solver pass iterates over.  A state's rows start at its
/// offset into the successor array; each row's length and probabilities
/// come from its shape.
#[derive(Clone, Debug)]
pub struct Mdp {
    /// Number of discovered (canonical) states.
    pub num_states: usize,
    /// Choices per state: one per philosopher, plus one crash choice per
    /// philosopher in crash-stop products.
    pub num_choices: usize,
    /// Index of the initial state (always 0).
    pub initial: u32,
    /// Per-state: does the state satisfy the target?
    pub target: Vec<bool>,
    /// Per-state: were its outgoing transitions computed?  Target states
    /// are absorbing and never expanded; non-target states are unexpanded
    /// only when the build was truncated.
    pub expanded: Vec<bool>,
    /// Whether the state budget truncated the build.
    pub truncated: bool,
    /// Number of discovered states violating the safety invariants (mutual
    /// exclusion, eating-implies-both-forks).
    pub safety_violations: usize,
    /// The target objective the model was built for.
    pub target_kind: CheckTarget,
    /// The adversary class the model quantifies over.
    pub class: AdversaryClass,
    /// The automorphisms the symmetry quotient used (always at least the
    /// identity).
    pub automorphisms: Vec<Automorphism>,
    /// Per-state bitmask of the choices a fair adversary must keep taking
    /// infinitely often while confined to an end component containing the
    /// state.  `None` means "every choice" — the paper's unrestricted fair
    /// adversary, where every choice schedules one philosopher.  Product
    /// builds ([`crate::restricted`]) narrow it: under k-bounded fairness
    /// the product structure already enforces fairness (`mask = 0`), and
    /// under crash-stop faults only the *surviving* philosophers'
    /// schedule-choices are required.
    pub fairness_requirement: Option<Vec<u64>>,
    /// The states' keys in number order: a key is a state's least encoding
    /// over [`automorphisms`](Self::automorphisms)
    /// ([`canonical_key`](Self::canonical_key)), followed in product builds
    /// by its scheduler bookkeeping's words.
    keys: Packed,
    /// Per state, the index in `succs` of its first transition, then the
    /// transition count: state `s`'s rows are
    /// `succs[state_offsets[s]..state_offsets[s + 1]]`.
    state_offsets: Vec<u32>,
    /// Per (state, choice), state-major: the row's shape in `shapes`.
    row_shapes: Vec<u8>,
    shapes: Shapes,
    succs: Vec<u32>,
}

impl Mdp {
    /// The rows of `state`, choice by choice: each row's successors and
    /// their probabilities, in deterministic draw order.  Rows are empty
    /// for target and unexpanded states and for the choices a product
    /// model disallows.
    pub(crate) fn rows(&self, state: u32) -> impl Iterator<Item = (&[u32], &[f64])> + '_ {
        let first = state as usize * self.num_choices;
        let mut start = self.state_offsets[state as usize] as usize;
        self.row_shapes[first..first + self.num_choices]
            .iter()
            .map(move |&shape| {
                let probs = self.shapes.get(shape);
                let succs = &self.succs[start..start + probs.len()];
                start += probs.len();
                (succs, probs)
            })
    }

    /// The `(successor, probability)` outcomes of scheduling philosopher
    /// `choice` in `state`, in deterministic draw order.  Empty for target,
    /// unexpanded and (vacuously) absorbing rows.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is not below [`num_choices`](Self::num_choices).
    pub fn outcomes(&self, state: u32, choice: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (succs, probs) = self
            .rows(state)
            .nth(choice)
            .expect("the choice is below num_choices");
        succs.iter().copied().zip(probs.iter().copied())
    }

    /// Every state's key, in state order.
    pub(crate) fn keys(&self) -> &Packed {
        &self.keys
    }

    /// Total number of stored transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.succs.len()
    }

    /// Number of expanded, non-target states from which *every* available
    /// choice and *every* random outcome loops back to the state itself —
    /// true deadlocks (e.g. the classic all-hold-left state of the naive
    /// algorithm).  Choices a product model disallows (empty rows) are
    /// vacuous; at least one available choice is required.
    #[must_use]
    pub fn deadlock_states(&self) -> usize {
        (0..self.num_states as u32)
            .filter(|&s| {
                if !self.expanded[s as usize] || self.target[s as usize] {
                    return false;
                }
                let mut any_choice = false;
                let all_self = self.rows(s).all(|(succs, _)| {
                    any_choice |= !succs.is_empty();
                    succs.iter().all(|&succ| succ == s)
                });
                any_choice && all_self
            })
            .count()
    }

    /// The canonical key of an engine state under this model's
    /// automorphism set — its least encoding, written into `scratch` —
    /// which is the key of its state in an all-fair build.  `codec` must be
    /// the codec of the model's topology and program over
    /// [`automorphisms`](Self::automorphisms).
    #[must_use]
    pub fn canonical_key<'a, P: Program>(
        &self,
        codec: &StateCodec<P>,
        state: &EngineState<P>,
        scratch: &'a mut Vec<u64>,
    ) -> &'a [u64] {
        scratch.clear();
        let words = state.encode(codec, scratch);
        least(scratch, words)
    }
}

/// The least of `encodings`' `words`-long runs: the canonical key.
/// One-word encodings compare as integers.
fn least(encodings: &[u64], words: usize) -> &[u64] {
    let least = if words == 1 {
        encodings.iter().min().map(std::slice::from_ref)
    } else {
        encodings.chunks_exact(words).min()
    };
    least.expect("the automorphism set holds the identity")
}

pub(crate) fn is_target<P: Program>(
    topology: &Topology,
    program: &P,
    state: &EngineState<P>,
    target: CheckTarget,
) -> bool {
    let eating = |p| state.phase_of(topology, program, p) == Phase::Eating;
    match target {
        CheckTarget::Progress => topology.philosopher_ids().any(eating),
        CheckTarget::PhilosopherEats(p) => eating(p),
    }
}

/// The shape of every row that has no outcome.
const EMPTY_ROW: u8 = 0;

/// The distinct row shapes of a model — each a row's probabilities, bit for
/// bit, in draw order — numbered in first-use order after the empty row.
#[derive(Clone, Debug, PartialEq)]
struct Shapes(Vec<Vec<f64>>);

impl Shapes {
    fn new() -> Self {
        Shapes(vec![Vec::new()])
    }

    fn get(&self, shape: u8) -> &[f64] {
        &self.0[usize::from(shape)]
    }

    /// The number of the shape `probs`, interning it on first use.
    ///
    /// # Panics
    ///
    /// Panics past 256 distinct shapes.
    fn intern(&mut self, probs: &[f64]) -> u8 {
        let same = |shape: &Vec<f64>| {
            let bits = |p: &f64| p.to_bits();
            shape.iter().map(bits).eq(probs.iter().map(bits))
        };
        let index = self.0.iter().position(same).unwrap_or_else(|| {
            self.0.push(probs.to_vec());
            self.0.len() - 1
        });
        u8::try_from(index).expect("a model has at most 256 distinct row shapes")
    }
}

/// A state a worker discovered; its key and as-reached encoding sit at the
/// same index of the worker's `keys` and `reached`.
struct NewState<B> {
    bookkeeping: B,
    target: bool,
    safe: bool,
}

/// The edges a worker keys before it looks their successors up: it
/// resolves its batch after the first parent that brings it to this many,
/// and when its slice ends.
pub(crate) const BATCH_EDGES: usize = 96;

/// Edges a worker has keyed but not yet looked up, in edge order: each
/// successor's key, as-reached encoding and bookkeeping.
struct Batch<B> {
    keys: Packed,
    reached: Packed,
    bookkeeping: Vec<B>,
    /// Per key, its number in the global table as the layer began, if that
    /// held it.
    found: Vec<Option<u32>>,
}

impl<B> Batch<B> {
    fn push(&mut self, key: &[u64], reached: &[u64], bookkeeping: B) {
        self.keys.push(key);
        self.reached.push(reached);
        self.bookkeeping.push(bookkeeping);
    }
}

/// Expansion of one contiguous frontier slice: rows in parent-major,
/// choice-minor order, plus the locally new states in discovery order.
struct SliceExpansion<B> {
    /// Per edge, in row order and draw order within a row: the successor's
    /// number when the global table `frozen` held it at layer start, else
    /// `frozen.len()` plus its number among this slice's new states.
    succs: Vec<u32>,
    /// Per row: its shape in `shapes`.
    rows: Vec<u8>,
    shapes: Shapes,
    /// The new states' keys, numbered in discovery order.
    keys: KeyTable,
    /// The new states' as-reached encodings.
    reached: Packed,
    new_states: Vec<NewState<B>>,
}

impl<B: Bookkeeping> SliceExpansion<B> {
    /// Appends the edges of `batch` in order, and empties it.  The global
    /// table `frozen` is read-only during a layer, so all the batch's keys
    /// are looked up in it at once.  A key it lacks is looked up in this
    /// slice's own table and inserted there when missing, in edge order,
    /// so the new states are numbered in discovery order.  A new state is
    /// flagged from its as-reached encoding, decoded into `scratch`.
    fn resolve<P: Program>(
        &mut self,
        shared: &Shared<'_, P, B>,
        frozen: &KeyTable,
        batch: &mut Batch<B>,
        scratch: &mut EngineState<P>,
    ) {
        frozen.get_batch(&batch.keys, &mut batch.found);
        for (i, bookkeeping) in batch.bookkeeping.drain(..).enumerate() {
            let succ = match batch.found[i] {
                Some(global) => global,
                None => {
                    let key = batch.keys.get(i);
                    let local = match self.keys.find(key, 0) {
                        Ok(local) => local,
                        Err(vacant) => {
                            let reached = batch.reached.get(i);
                            scratch.decode_from(shared.codec, reached);
                            self.new_states.push(shared.new_state(scratch, bookkeeping));
                            self.reached.push(reached);
                            self.keys.insert_at(vacant, key)
                        }
                    };
                    u32::try_from(frozen.len() + local as usize)
                        .expect("state numbers exceed the u32 range")
                }
            };
            self.succs.push(succ);
        }
        batch.keys.clear();
        batch.reached.clear();
    }
}

/// One BFS layer awaiting expansion: each state's index, as-reached
/// encoding and bookkeeping.
struct Frontier<B> {
    indices: Vec<u32>,
    reached: Packed,
    bookkeeping: Vec<B>,
}

impl<B> Frontier<B> {
    fn new() -> Self {
        Frontier {
            indices: Vec::new(),
            reached: Packed::new(),
            bookkeeping: Vec::new(),
        }
    }

    fn push(&mut self, index: u32, reached: &[u64], bookkeeping: B) {
        self.indices.push(index);
        self.reached.push(reached);
        self.bookkeeping.push(bookkeeping);
    }
}

/// What every worker of one build shares.
struct Shared<'a, P: Program, B: Bookkeeping> {
    topology: &'a Topology,
    program: &'a P,
    codec: &'a StateCodec<P>,
    target: CheckTarget,
    bound: B::Bound,
}

impl<P: Program, B: Bookkeeping> Shared<'_, P, B> {
    /// Writes into `key` the dedup key of a state with `bookkeeping` whose
    /// `words`-long encodings under every automorphism are `encodings`: the
    /// least of them, then the bookkeeping's words.
    fn key(&self, encodings: &[u64], words: usize, bookkeeping: &B, key: &mut Vec<u64>) {
        key.clear();
        key.extend_from_slice(least(encodings, words));
        bookkeeping.push_words(key);
    }

    /// The flags of a newly discovered `state`.
    fn new_state(&self, state: &EngineState<P>, bookkeeping: B) -> NewState<B> {
        NewState {
            bookkeeping,
            target: is_target(self.topology, self.program, state, self.target),
            safe: state.is_safe(self.topology, self.program),
        }
    }
}

fn expand_slice<P, B>(
    shared: &Shared<'_, P, B>,
    frozen: &KeyTable,
    frontier: &Frontier<B>,
    slice: Range<usize>,
) -> SliceExpansion<B>
where
    P: Program,
    B: Bookkeeping,
{
    let (topology, program, codec) = (shared.topology, shared.program, shared.codec);
    let n = topology.num_philosophers();
    let mut parent = EngineState::initial(topology, program);
    let mut post = parent.clone();
    let (mut parent_encodings, mut encodings) = (Vec::new(), Vec::new());
    let (mut key, mut probs) = (Vec::new(), Vec::new());
    let rows_per_parent = if B::CRASH_ROWS { 2 * n } else { n };
    let mut out = SliceExpansion {
        succs: Vec::new(),
        rows: Vec::with_capacity(slice.len() * rows_per_parent),
        shapes: Shapes::new(),
        keys: KeyTable::new(),
        reached: Packed::new(),
        new_states: Vec::new(),
    };
    let mut batch = Batch {
        keys: Packed::new(),
        reached: Packed::new(),
        bookkeeping: Vec::new(),
        found: Vec::new(),
    };
    for i in slice {
        let reached = frontier.reached.get(i);
        parent.decode_from(codec, reached);
        parent_encodings.clear();
        let parent_words = codec.relabel(reached, &mut parent_encodings);
        let bookkeeping = &frontier.bookkeeping[i];
        let allowed = bookkeeping.allowed(shared.bound, n);
        for choice in 0..n {
            probs.clear();
            if !B::PRODUCT || allowed & (1 << choice) != 0 {
                let next = bookkeeping.scheduled(choice);
                let philosopher = PhilosopherId::new(choice as u32);
                parent.for_each_step_outcome(
                    topology,
                    program,
                    philosopher,
                    &mut post,
                    |prob, post, _| {
                        probs.push(prob);
                        encodings.clear();
                        let words = post.encode_successor(
                            codec,
                            &parent_encodings,
                            philosopher,
                            &mut encodings,
                        );
                        shared.key(&encodings, words, &next, &mut key);
                        batch.push(&key, &encodings[..words], next.clone());
                    },
                );
            }
            out.rows.push(out.shapes.intern(&probs));
        }
        if B::CRASH_ROWS {
            for victim in 0..n {
                probs.clear();
                if let Some(next) = bookkeeping.crashed(shared.bound, victim, n) {
                    probs.push(1.0);
                    shared.key(&parent_encodings, parent_words, &next, &mut key);
                    // A crash leaves the state as it is, so the successor
                    // shares the parent's encodings.
                    batch.push(&key, &parent_encodings[..parent_words], next);
                }
                out.rows.push(out.shapes.intern(&probs));
            }
        }
        if batch.keys.len() >= BATCH_EDGES {
            out.resolve(shared, frozen, &mut batch, &mut post);
        }
    }
    out.resolve(shared, frozen, &mut batch, &mut post);
    out
}

/// The model's row arrays while the merge appends to them, state by state.
/// Each layer reserves its room once, exactly, before its merge: arrays
/// that doubled as they filled would leave their old buffers on the heap.
struct RowsBuilder {
    state_offsets: Vec<u32>,
    row_shapes: Vec<u8>,
    shapes: Shapes,
    succs: Vec<u32>,
}

impl RowsBuilder {
    /// Makes room for the rows of `states` states in all, plus `edges` more
    /// transitions.
    fn reserve_exact(&mut self, states: usize, edges: usize, num_choices: usize) {
        self.state_offsets
            .reserve_exact(states + 1 - self.state_offsets.len());
        self.row_shapes
            .reserve_exact(states * num_choices - self.row_shapes.len());
        self.succs.reserve_exact(edges);
    }

    /// Stores empty rows for every state below `state` that has none yet:
    /// the targets and budget-capped discoveries, which are not expanded.
    fn pad_to(&mut self, state: usize, num_choices: usize) {
        let end = *self.state_offsets.last().expect("offsets start at 0");
        self.state_offsets.resize(state + 1, end);
        self.row_shapes.resize(state * num_choices, EMPTY_ROW);
    }

    /// Closes the rows of the next state, whose transitions now end
    /// `succs`.
    ///
    /// # Panics
    ///
    /// Panics once the model holds more transitions than a `u32` offset
    /// can address.
    fn end_state(&mut self) {
        let offset = u32::try_from(self.succs.len())
            .expect("a model holds at most u32::MAX (4294967295) transitions");
        self.state_offsets.push(offset);
    }
}

/// Builds the exact MDP of `program` on `topology` for `target`, over the
/// adversary class of [`BuildOptions::class`].
///
/// See the [module docs](self) for the construction and its determinism
/// guarantee.  The symmetry quotient is applied per
/// [`BuildOptions::symmetry`]; for [`CheckTarget::PhilosopherEats`] only
/// automorphisms *stabilising* the watched philosopher are used (the target
/// set must be invariant under every relabelling the quotient identifies).
///
/// The state budget truncates the two kinds of build differently: an
/// all-fair build stops after the layer that exhausts
/// [`BuildOptions::max_states`], leaving that layer's discoveries
/// unexpanded; a product build still expands every state it discovered.
///
/// # Panics
///
/// Panics when a product build has more philosophers than its choice
/// bitmasks support ([`AdversaryClass::max_philosophers`]), when a
/// k-bounded class has `k = 0`, when a state does not fit the exact
/// encoding ([`StateCodec`]), past 256 distinct row shapes, or when the
/// states or transitions outgrow the model's `u32` numbers and offsets.
#[must_use]
pub fn build_mdp<P>(
    topology: &Topology,
    program: &P,
    target: CheckTarget,
    options: &BuildOptions,
) -> Mdp
where
    P: Program + Send + Sync,
    P::State: Send + Sync,
{
    if let Some(limit) = options.class.max_philosophers() {
        assert!(
            topology.num_philosophers() <= limit,
            "{} product supports up to {limit} philosophers",
            options.class.name()
        );
    }
    match options.class {
        AdversaryClass::Fair => build::<P, ()>(topology, program, target, options, ()),
        AdversaryClass::KBounded { k } => {
            assert!(k >= 1, "k-bounded fairness needs k >= 1");
            build::<P, Waits>(topology, program, target, options, k)
        }
        AdversaryClass::CrashStop { max_crashes } => {
            build::<P, Crashed>(topology, program, target, options, max_crashes)
        }
    }
}

fn build<P, B>(
    topology: &Topology,
    program: &P,
    target: CheckTarget,
    options: &BuildOptions,
    bound: B::Bound,
) -> Mdp
where
    P: Program + Send + Sync,
    P::State: Send + Sync,
    B: Bookkeeping,
{
    let n = topology.num_philosophers();
    let num_choices = if B::CRASH_ROWS { 2 * n } else { n };
    let automorphisms: Vec<Automorphism> = if options.symmetry && !B::PRODUCT {
        symmetry::automorphisms(topology, AUTOMORPHISM_LIMIT)
            .into_iter()
            .filter(|a| match target {
                CheckTarget::Progress => true,
                CheckTarget::PhilosopherEats(p) => a.phil_map[p.index()] == p,
            })
            .collect()
    } else {
        vec![Automorphism::identity(
            topology.num_forks(),
            topology.num_philosophers(),
        )]
    };
    assert!(
        automorphisms[0].is_identity(),
        "the automorphism set starts with the identity"
    );
    // The identity first, so a state's first encoding is its as-reached
    // one.
    let codec = StateCodec::new(topology, program, &automorphisms);
    let shared = Shared {
        topology,
        program,
        codec: &codec,
        target,
        bound,
    };
    // The fairness requirement of a product state: every schedule at a
    // target, the bookkeeping's rule elsewhere.
    let requirement = |bookkeeping: &B, is_target: bool| {
        if is_target {
            (1u64 << n) - 1
        } else {
            bookkeeping.requirement(bookkeeping.allowed(bound, n))
        }
    };

    let initial_state = EngineState::initial(topology, program);
    let (mut encodings, mut initial_key) = (Vec::new(), Vec::new());
    let words = initial_state.encode(&codec, &mut encodings);
    let initial = shared.new_state(&initial_state, B::initial(n));
    shared.key(&encodings, words, &initial.bookkeeping, &mut initial_key);

    let mut index_of_key = KeyTable::new();
    index_of_key.insert(&initial_key);
    let mut target_flags = vec![initial.target];
    let mut expanded = vec![false];
    let mut safety_violations = usize::from(!initial.safe);
    let mut requirements: Vec<u64> = Vec::new();
    if B::PRODUCT {
        requirements.push(requirement(&initial.bookkeeping, target_flags[0]));
    }
    let mut truncated = false;
    let mut rows = RowsBuilder {
        state_offsets: vec![0],
        row_shapes: Vec::new(),
        shapes: Shapes::new(),
        succs: Vec::new(),
    };

    let mut frontier = Frontier::new();
    if !target_flags[0] {
        frontier.push(0, &encodings[..words], initial.bookkeeping);
    }

    while !frontier.indices.is_empty() && (B::PRODUCT || !truncated) {
        let len = frontier.indices.len();
        let threads = options.effective_threads(len);
        let chunk_len = len.div_ceil(threads);
        let slices: Vec<Range<usize>> = (0..len)
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(len))
            .collect();
        let (shared, frozen) = (&shared, &index_of_key);
        let results: Vec<SliceExpansion<B>> = if threads <= 1 {
            vec![expand_slice(shared, frozen, &frontier, 0..len)]
        } else {
            let frontier = &frontier;
            std::thread::scope(|scope| {
                let workers: Vec<_> = slices
                    .into_iter()
                    .map(|slice| scope.spawn(move || expand_slice(shared, frozen, frontier, slice)))
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| {
                        worker
                            .join()
                            .unwrap_or_else(|e| std::panic::resume_unwind(e))
                    })
                    .collect()
            })
        };

        // Room for everything the merge may append: the slices' new states
        // (fewer when two slices found one state, or past the budget) and
        // their edges, with empty rows up to the last new state.
        let (mut new_states, mut new_words, mut new_edges) = (0, 0, 0);
        for result in &results {
            new_states += result.new_states.len();
            new_words += result.keys.keys().words();
            new_edges += result.succs.len();
        }
        index_of_key.reserve_exact(new_states, new_words);
        target_flags.reserve_exact(new_states);
        expanded.reserve_exact(new_states);
        if B::PRODUCT {
            requirements.reserve_exact(new_states);
        }
        rows.reserve_exact(target_flags.len() + new_states, new_edges, num_choices);

        // Deterministic merge: workers in frontier order, new states in
        // discovery order, shapes in first-use order — identical numbering
        // for every thread count.  Every worker missed its new states' keys
        // in the table as the layer began, so a key is compared only with
        // the keys this merge has added.
        let mut next_frontier = Frontier::new();
        let mut parent_cursor = 0usize;
        let layer_start = index_of_key.len();
        let first_new = layer_start as u32;
        for result in results {
            let mut local_to_global: Vec<u32> = Vec::with_capacity(result.new_states.len());
            for (local, new_state) in result.new_states.into_iter().enumerate() {
                if local % LOOKAHEAD == 0 {
                    let ahead = local..result.keys.len().min(local + LOOKAHEAD);
                    index_of_key.load_homes(ahead.map(|i| result.keys.key(i as u32)));
                }
                let key = result.keys.key(local as u32);
                let global = match index_of_key.find(key, first_new) {
                    Ok(idx) => idx,
                    Err(_) if target_flags.len() >= options.max_states => {
                        truncated = true;
                        UNEXPLORED
                    }
                    Err(vacant) => {
                        let idx = index_of_key.insert_at(vacant, key);
                        target_flags.push(new_state.target);
                        expanded.push(false);
                        safety_violations += usize::from(!new_state.safe);
                        if B::PRODUCT {
                            requirements
                                .push(requirement(&new_state.bookkeeping, new_state.target));
                        }
                        if !new_state.target {
                            next_frontier.push(
                                idx,
                                result.reached.get(local),
                                new_state.bookkeeping,
                            );
                        }
                        idx
                    }
                };
                local_to_global.push(global);
            }
            // Append this slice's rows, after empty rows for the
            // interleaved states that are not being expanded.
            let global = |succ: u32| match (succ as usize).checked_sub(layer_start) {
                None => succ,
                Some(local) => local_to_global[local],
            };
            let mut shape_of: Vec<Option<u8>> = vec![None; result.shapes.0.len()];
            let mut edge_cursor = 0usize;
            for (local_parent, parent_rows) in result.rows.chunks_exact(num_choices).enumerate() {
                let parent_index = frontier.indices[parent_cursor + local_parent] as usize;
                rows.pad_to(parent_index, num_choices);
                let start = edge_cursor;
                for &local in parent_rows {
                    let shape = *shape_of[usize::from(local)]
                        .get_or_insert_with(|| rows.shapes.intern(result.shapes.get(local)));
                    rows.row_shapes.push(shape);
                    edge_cursor += result.shapes.get(local).len();
                }
                let succs = &result.succs[start..edge_cursor];
                rows.succs.extend(succs.iter().map(|&succ| global(succ)));
                rows.end_state();
                expanded[parent_index] = true;
            }
            parent_cursor += result.rows.len() / num_choices;
        }
        frontier = next_frontier;
    }
    // Empty rows for every remaining (target or unexpanded) state.
    rows.pad_to(target_flags.len(), num_choices);

    Mdp {
        num_states: target_flags.len(),
        num_choices,
        initial: 0,
        target: target_flags,
        expanded,
        truncated,
        safety_violations,
        target_kind: target,
        class: options.class,
        automorphisms,
        fairness_requirement: B::PRODUCT.then_some(requirements),
        keys: index_of_key.into_keys(),
        state_offsets: rows.state_offsets,
        row_shapes: rows.row_shapes,
        shapes: rows.shapes,
        succs: rows.succs,
    }
}

#[cfg(test)]
impl Mdp {
    /// A model with the given rows — per state, per choice, the row's
    /// `(successor, probability)` outcomes — and fairness masks, whose
    /// states are all expanded and none a target: solver cases written by
    /// hand.
    pub(crate) fn from_rows(
        rows: &[&[&[(u32, f64)]]],
        fairness_requirement: Option<Vec<u64>>,
    ) -> Mdp {
        let num_states = rows.len();
        let mut shapes = Shapes::new();
        let (mut state_offsets, mut row_shapes, mut succs) = (vec![0], Vec::new(), Vec::new());
        for state in rows {
            for row in *state {
                let probs: Vec<f64> = row.iter().map(|&(_, p)| p).collect();
                row_shapes.push(shapes.intern(&probs));
                succs.extend(row.iter().map(|&(succ, _)| succ));
            }
            state_offsets.push(succs.len() as u32);
        }
        Mdp {
            num_states,
            num_choices: rows[0].len(),
            initial: 0,
            target: vec![false; num_states],
            expanded: vec![true; num_states],
            truncated: false,
            safety_violations: 0,
            target_kind: CheckTarget::Progress,
            class: AdversaryClass::Fair,
            automorphisms: Vec::new(),
            fairness_requirement,
            keys: Packed::new(),
            state_offsets,
            row_shapes,
            shapes,
            succs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::KeyIndex;
    use gdp_algorithms::{AlgorithmKind, AnyProgram, Gdp1, Lr1};
    use gdp_sim::ForkCell;
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Topology;
    use std::collections::HashMap;

    fn options(symmetry: bool) -> BuildOptions {
        BuildOptions::default()
            .with_symmetry(symmetry)
            .with_threads(1)
            .with_max_states(200_000)
    }

    #[test]
    fn two_ring_lr1_model_is_small_finite_and_stochastic() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mdp = build_mdp(
            &two_ring,
            &Lr1::new(),
            CheckTarget::Progress,
            &options(false),
        );
        assert!(!mdp.truncated);
        assert_eq!(mdp.safety_violations, 0);
        assert!(mdp.num_states > 4);
        assert!(mdp.target.iter().any(|&t| t), "some eating state exists");
        // Probabilities of every expanded row sum to 1.
        for s in 0..mdp.num_states as u32 {
            if !mdp.expanded[s as usize] {
                continue;
            }
            for c in 0..mdp.num_choices {
                let total: f64 = mdp.outcomes(s, c).map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "state {s} choice {c}");
            }
        }
    }

    #[test]
    fn symmetry_reduces_ring_state_count() {
        let ring = classic_ring(3).unwrap();
        let full = build_mdp(&ring, &Gdp1::new(), CheckTarget::Progress, &options(false));
        let reduced = build_mdp(&ring, &Gdp1::new(), CheckTarget::Progress, &options(true));
        assert!(!full.truncated && !reduced.truncated);
        assert!(
            reduced.num_states < full.num_states,
            "quotient must shrink the space: {} vs {}",
            reduced.num_states,
            full.num_states
        );
        // The 3-ring has 3 rotations.
        assert_eq!(reduced.automorphisms.len(), 3);
    }

    /// Builds at every thread count are the same model, field for field.
    /// A ring-3 LR1 layer is smaller than one lookup batch; ring-4 GDP1's
    /// layers span many, so batches cross parents and every slice resolves
    /// many of them.
    #[test]
    fn models_are_bitwise_identical_across_thread_counts() {
        let (ring3, ring4) = (classic_ring(3).unwrap(), classic_ring(4).unwrap());
        let (fair, kbounded) = (AdversaryClass::Fair, AdversaryClass::KBounded { k: 2 });
        let crash = AdversaryClass::CrashStop { max_crashes: 1 };
        let cases = [
            (&ring3, AlgorithmKind::Lr1, fair, 200_000),
            (&ring3, AlgorithmKind::Lr1, kbounded, 200_000),
            (&ring3, AlgorithmKind::Lr1, crash, 200_000),
            (&ring4, AlgorithmKind::Gdp1, fair, 200_000),
            (&ring4, AlgorithmKind::Gdp1, crash, 20_000),
        ];
        for (topology, kind, class, budget) in cases {
            let program = kind.program();
            let build = |threads: usize| {
                let options = options(true)
                    .with_class(class)
                    .with_threads(threads)
                    .with_max_states(budget);
                build_mdp(topology, &program, CheckTarget::Progress, &options)
            };
            let serial = build(1);
            for threads in [2usize, 3, 7] {
                let parallel = build(threads);
                let context = format!(
                    "{kind} on {}, {class:?}, {threads} threads",
                    topology.summary()
                );
                assert_eq!(serial.num_states, parallel.num_states, "{context}");
                assert_eq!(serial.target, parallel.target, "{context}");
                assert_eq!(serial.expanded, parallel.expanded, "{context}");
                assert_eq!(serial.truncated, parallel.truncated, "{context}");
                assert_eq!(serial.safety_violations, parallel.safety_violations);
                assert_eq!(serial.fairness_requirement, parallel.fairness_requirement);
                assert_eq!(serial.keys, parallel.keys, "{context}");
                assert_eq!(serial.state_offsets, parallel.state_offsets, "{context}");
                assert_eq!(serial.succs, parallel.succs, "{context}");
                assert_eq!(serial.row_shapes, parallel.row_shapes, "{context}");
                assert_eq!(serial.shapes, parallel.shapes, "{context}");
            }
        }
    }

    /// Every row of an unreduced all-fair build is the step enumeration
    /// from the state its key decodes to, keyed by `encode` from scratch:
    /// successors in draw order (`UNEXPLORED` past the budget),
    /// probabilities bit for bit.  Target and unexpanded rows are empty,
    /// and every state, expanded or not, is flagged a target exactly when
    /// `is_target` holds of it.
    #[test]
    fn rows_replay_the_engine_outcome_for_outcome() {
        let ring = classic_ring(3).unwrap();
        let lockout = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        for (kind, target, budget) in [
            (AlgorithmKind::Gdp1, CheckTarget::Progress, 200_000),
            (AlgorithmKind::Lr1, lockout, 200_000),
            (AlgorithmKind::Gdp2, lockout, 2_000),
        ] {
            let program = kind.program();
            let options = options(false).with_max_states(budget);
            let mdp = build_mdp(&ring, &program, target, &options);
            assert_eq!(mdp.truncated, budget == 2_000, "{kind}");
            let codec = StateCodec::new(&ring, &program, &mdp.automorphisms);
            let index = KeyIndex::of(mdp.keys());
            let mut state = EngineState::initial(&ring, &program);
            let mut post = state.clone();
            let (mut key, mut unexplored) = (Vec::new(), 0);
            for s in 0..mdp.num_states as u32 {
                let stored = |c| {
                    mdp.outcomes(s, c)
                        .map(|(succ, p)| (succ, p.to_bits()))
                        .collect::<Vec<_>>()
                };
                state.decode_from(&codec, mdp.keys().get(s as usize));
                assert_eq!(
                    mdp.target[s as usize],
                    is_target(&ring, &program, &state, target),
                    "{kind} state {s}"
                );
                if mdp.target[s as usize] || !mdp.expanded[s as usize] {
                    assert!((0..mdp.num_choices).all(|c| stored(c).is_empty()));
                    continue;
                }
                for c in 0..mdp.num_choices {
                    let mut expected = Vec::new();
                    let p = PhilosopherId::new(c as u32);
                    state.for_each_step_outcome(&ring, &program, p, &mut post, |prob, post, _| {
                        key.clear();
                        post.encode(&codec, &mut key);
                        let succ = index.get(mdp.keys(), &key).unwrap_or(UNEXPLORED);
                        unexplored += usize::from(succ == UNEXPLORED);
                        expected.push((succ, prob.to_bits()));
                    });
                    assert_eq!(stored(c), expected, "{kind} state {s} choice {c}");
                }
            }
            assert_eq!(unexplored > 0, mdp.truncated, "{kind}");
        }
    }

    #[test]
    fn truncation_is_reported_and_deterministic() {
        let ring = classic_ring(4).unwrap();
        let tiny = BuildOptions::default()
            .with_symmetry(false)
            .with_threads(1)
            .with_max_states(40);
        let a = build_mdp(&ring, &Lr1::new(), CheckTarget::Progress, &tiny);
        let b = build_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::Progress,
            &tiny.clone().with_threads(3),
        );
        assert!(a.truncated);
        assert_eq!(a.num_states, 40);
        assert_eq!(a.num_states, b.num_states);
        assert_eq!(a.succs, b.succs);
        assert!(a.expanded.iter().any(|&e| !e), "some states unexpanded");

        // Each kind of build truncates by its own rule, pinned to the
        // counts `gdp check --max-states` prints: an all-fair build stops
        // after the layer that exhausts the budget, a product build still
        // expands every state it discovered.
        let ring5 = classic_ring(5).unwrap();
        let crash = AdversaryClass::CrashStop { max_crashes: 1 };
        for (topology, class, max_states, transitions) in [
            (&ring5, AdversaryClass::Fair, 500, 1819),
            (&ring, crash, 5000, 20167),
        ] {
            for threads in [1, 2] {
                let options = BuildOptions::default()
                    .with_max_states(max_states)
                    .with_threads(threads)
                    .with_class(class);
                let mdp = build_mdp(topology, &Gdp1::new(), CheckTarget::Progress, &options);
                assert!(mdp.truncated, "{class:?}");
                assert_eq!(mdp.num_states, max_states, "{class:?}");
                assert_eq!(mdp.num_transitions(), transitions, "{class:?}");
            }
        }
    }

    #[test]
    fn philosopher_target_uses_stabilising_automorphisms_only() {
        let ring = classic_ring(4).unwrap();
        let mdp = build_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(1)),
            &options(true),
        );
        for auto in &mdp.automorphisms {
            assert_eq!(auto.phil_map[1], PhilosopherId::new(1));
        }
    }

    /// The automorphism applying `first`, then `second`.
    fn compose(first: &Automorphism, second: &Automorphism) -> Automorphism {
        Automorphism {
            fork_map: first
                .fork_map
                .iter()
                .map(|f| second.fork_map[f.index()])
                .collect(),
            phil_map: first
                .phil_map
                .iter()
                .map(|p| second.phil_map[p.index()])
                .collect(),
        }
    }

    /// `image` is `state` relabelled by `auto`, field for field.
    fn assert_relabelled(
        state: &EngineState<AnyProgram>,
        auto: &Automorphism,
        image: &EngineState<AnyProgram>,
    ) {
        let mut expected = ForkCell::new();
        for (f, cell) in state.forks().iter().enumerate() {
            cell.relabel_philosophers_into(|p| auto.phil_map[p.index()], &mut expected);
            assert_eq!(image.forks()[auto.fork_map[f].index()], expected);
        }
        for (p, private) in state.states().iter().enumerate() {
            assert_eq!(image.states()[auto.phil_map[p].index()], *private);
        }
    }

    /// The exact encoding over every state of small builds: request lists
    /// and guest books (GDP2/LR2 lockout; a ring-3 key fits one word, a
    /// ring-4 tail crosses into a second), product keys (k-bounded,
    /// crash-stop), keys of more than one word (ring-7) and the one-word,
    /// tail-free keys of the ring-5 GDP1 check.  Every
    /// successor's encodings built from its parent's
    /// (`encode_successor`, the build's keys), and every state's encodings
    /// relabelled from its own (`relabel`, the build's parents), equal
    /// `encode`'s word for word.
    #[test]
    fn state_encoding_is_exact_over_every_state_of_small_builds() {
        let (ring3, ring4) = (classic_ring(3).unwrap(), classic_ring(4).unwrap());
        let (ring5, ring7) = (classic_ring(5).unwrap(), classic_ring(7).unwrap());
        let lockout = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        let progress = CheckTarget::Progress;
        let fair = AdversaryClass::Fair;
        let kbounded = AdversaryClass::KBounded { k: 2 };
        let crash = AdversaryClass::CrashStop { max_crashes: 1 };
        // (topology, algorithm, target, class, budget, bookkeeping words per
        // key, whether some state encoding spans more than one word)
        let cases = [
            (&ring3, AlgorithmKind::Gdp2, lockout, fair, 2_000, 0, false),
            (&ring3, AlgorithmKind::Lr2, lockout, fair, 2_000, 0, false),
            (&ring4, AlgorithmKind::Gdp2, lockout, fair, 1_000, 0, true),
            (
                &ring3,
                AlgorithmKind::Lr1,
                progress,
                kbounded,
                200_000,
                3,
                false,
            ),
            (
                &ring3,
                AlgorithmKind::Gdp1,
                progress,
                crash,
                200_000,
                1,
                false,
            ),
            (&ring7, AlgorithmKind::Gdp1, progress, fair, 5_000, 0, true),
            // 5 × (3 + 3) + 5 × 4 = 50 bits.
            (&ring5, AlgorithmKind::Gdp1, progress, fair, 2_000, 0, false),
        ];
        for (topology, kind, target, class, budget, bookkeeping, multiword) in cases {
            let program = kind.program();
            let options = BuildOptions::default()
                .with_max_states(budget)
                .with_threads(1)
                .with_class(class);
            let mdp = build_mdp(topology, &program, target, &options);
            let automorphisms = symmetry::automorphisms(topology, AUTOMORPHISM_LIMIT);
            let codec = StateCodec::new(topology, &program, &automorphisms);
            // One codec per automorphism, and one per composition of two.
            let single: Vec<_> = automorphisms
                .iter()
                .map(|auto| StateCodec::new(topology, &program, std::slice::from_ref(auto)))
                .collect();
            let composition: Vec<Vec<_>> = automorphisms
                .iter()
                .map(|first| {
                    automorphisms
                        .iter()
                        .map(|second| {
                            StateCodec::new(topology, &program, &[compose(first, second)])
                        })
                        .collect()
                })
                .collect();
            assert!(automorphisms[0].is_identity());
            let identity = &single[0];
            let mut state = EngineState::initial(topology, &program);
            let (mut reached, mut back, mut image) = (state.clone(), state.clone(), state.clone());
            let mut by_encoding: HashMap<Vec<u64>, EngineState<AnyProgram>> = HashMap::new();
            let (mut encoded, mut all, mut twice, mut composed) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let (mut parent, mut successor, mut relabelled) = (Vec::new(), Vec::new(), Vec::new());
            let mut longest_seen = 0;
            for index in 0..mdp.num_states as u32 {
                let key = mdp.keys().get(index as usize);
                let words = &key[..key.len() - bookkeeping];
                longest_seen = longest_seen.max(words.len());
                // A key decodes to a state that encodes back to the key.
                state.decode_from(&codec, words);
                encoded.clear();
                assert_eq!(state.encode(identity, &mut encoded), words.len());
                assert_eq!(encoded, words, "{kind} state {index}");
                // Relabelling composes: rotating once, then once more, is
                // rotating twice.
                for (first, by_second) in single.iter().zip(&composition) {
                    encoded.clear();
                    state.encode(first, &mut encoded);
                    image.decode_from(&codec, &encoded);
                    for (second, both) in single.iter().zip(by_second) {
                        twice.clear();
                        image.encode(second, &mut twice);
                        composed.clear();
                        state.encode(both, &mut composed);
                        assert_eq!(twice, composed, "{kind} state {index}");
                    }
                }
                // The state's encodings, relabelled from its own, are
                // `encode`'s.
                parent.clear();
                state.encode(&codec, &mut parent);
                relabelled.clear();
                assert_eq!(codec.relabel(words, &mut relabelled), words.len());
                assert_eq!(relabelled, parent, "{kind} state {index}");
                // Every successor, as a step reaches it:
                for p in 0..topology.num_philosophers() {
                    let p = PhilosopherId::new(p as u32);
                    state.for_each_step_outcome(
                        topology,
                        &program,
                        p,
                        &mut reached,
                        |_, reached, _| {
                            all.clear();
                            let len = reached.encode(&codec, &mut all);
                            // its encodings built from its parent's, and
                            // relabelled from its own, are the same words,
                            successor.clear();
                            let words =
                                reached.encode_successor(&codec, &parent, p, &mut successor);
                            assert_eq!(words, len, "{kind} state {index}");
                            assert_eq!(successor, all, "{kind} state {index}");
                            relabelled.clear();
                            codec.relabel(&all[..len], &mut relabelled);
                            assert_eq!(relabelled, all, "{kind} state {index}");
                            // decoding its encoding gives it back,
                            back.decode_from(&codec, &all[..len]);
                            assert_eq!(back.forks(), reached.forks(), "{kind}");
                            assert_eq!(back.states(), reached.states(), "{kind}");
                            for (auto, encoding) in automorphisms.iter().zip(all.chunks_exact(len))
                            {
                                // its encoding under an automorphism is that of
                                // the relabelled state,
                                image.decode_from(&codec, encoding);
                                assert_relabelled(reached, auto, &image);
                                encoded.clear();
                                image.encode(identity, &mut encoded);
                                assert_eq!(encoded, encoding, "{kind}");
                                // and two states share an encoding only if they
                                // are equal.
                                let known = by_encoding
                                    .entry(encoding.to_vec())
                                    .or_insert_with(|| image.clone());
                                assert_eq!(*known, image, "{kind}");
                            }
                        },
                    );
                }
            }
            assert_eq!(
                longest_seen > 1,
                multiword,
                "{kind} on {}",
                topology.summary()
            );
        }
    }
}
