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
//!   random draws, enumerated exhaustively through the engine's scripted
//!   [`DrawTape`](gdp_sim::DrawTape) protocol with their exact
//!   probabilities.
//!
//! States satisfying the [`CheckTarget`] are absorbing (they are the "good"
//! states of the reachability objective and are never expanded), which also
//! keeps otherwise-unbounded bookkeeping — e.g. LR2/GDP2 guest-book stamps —
//! out of a progress check: no meal ever completes inside the explored
//! fragment.
//!
//! [`BuildOptions::class`] picks the adversary class.  The default, all fair
//! schedulers, builds the plain automaton above; a restricted class builds
//! its product with per-state scheduler bookkeeping ([`crate::restricted`])
//! through the same expansion.
//!
//! Frontier expansion fans out over `std::thread::scope` workers, each with
//! its own engine; results are merged on one thread **in frontier order**,
//! so state numbering, transition order and every probability are
//! bitwise-identical for every thread count — the same determinism contract
//! the Monte-Carlo trial runner enforces (test-enforced here too).
//!
//! The build holds states packed.  The frontier keeps each state's
//! *as-reached* encoding — the labelling in which it was first discovered —
//! and a worker decodes it into one reused [`EngineState`] to expand it;
//! expanding the canonical representative instead would renumber states and
//! change counterexamples.  The dedup table ([`KeyTable`]) holds the
//! canonical keys, and each transition's probability is a one-byte index
//! into the model's few distinct values.

use crate::restricted::{AdversaryClass, Bookkeeping, Crashed, Waits};
use crate::table::{KeyTable, Packed};
use gdp_sim::{Engine, EngineState, Phase, Program, SimConfig, StateCodec};
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
    /// Simulation configuration of the builder's engines.  It holds only a
    /// seed, and the seed is irrelevant: every draw is enumerated, not
    /// sampled.
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
/// layout every solver pass iterates over.
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
    /// Canonical key → state index: the exact dedup table, retained so
    /// extracted strategies can be replayed against a live engine.  A key
    /// is a state's least encoding over [`automorphisms`](Self::automorphisms)
    /// ([`canonical_key`](Self::canonical_key)), followed in product builds
    /// by its scheduler bookkeeping's words.
    pub index_of_key: KeyTable,
    /// Per-state bitmask of the choices a fair adversary must keep taking
    /// infinitely often while confined to an end component containing the
    /// state.  `None` means "every choice" — the paper's unrestricted fair
    /// adversary, where every choice schedules one philosopher.  Product
    /// builds ([`crate::restricted`]) narrow it: under k-bounded fairness
    /// the product structure already enforces fairness (`mask = 0`), and
    /// under crash-stop faults only the *surviving* philosophers'
    /// schedule-choices are required.
    pub fairness_requirement: Option<Vec<u64>>,
    row_offsets: Vec<u32>,
    succs: Vec<u32>,
    /// Per transition, its probability's index into `prob_values`.
    probs: Vec<u8>,
    /// The distinct transition probabilities, bit for bit, in first-use
    /// order.
    prob_values: Vec<f64>,
}

impl Mdp {
    /// The `(successor, probability)` outcomes of scheduling philosopher
    /// `choice` in `state`, in deterministic draw order.  Empty for target,
    /// unexpanded and (vacuously) absorbing rows.
    pub fn outcomes(&self, state: u32, choice: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let row = state as usize * self.num_choices + choice;
        let (start, end) = (
            self.row_offsets[row] as usize,
            self.row_offsets[row + 1] as usize,
        );
        self.succs[start..end].iter().copied().zip(
            self.probs[start..end]
                .iter()
                .map(|&i| self.prob_values[usize::from(i)]),
        )
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
                let all_self = (0..self.num_choices).all(|c| {
                    let mut any = false;
                    let self_looping = self.outcomes(s, c).all(|(succ, _)| {
                        any = true;
                        succ == s
                    });
                    if any {
                        any_choice = true;
                        self_looping
                    } else {
                        true
                    }
                });
                any_choice && all_self
            })
            .count()
    }

    /// The canonical key of an engine state under this model's
    /// automorphism set — its least encoding, written into `scratch` — as
    /// [`index_of_key`](Self::index_of_key) numbers the states of an
    /// all-fair build.  `codec` must be the codec of the model's topology
    /// and program.
    #[must_use]
    pub fn canonical_key<'a, P: Program>(
        &self,
        codec: &StateCodec<P>,
        state: &EngineState<P>,
        scratch: &'a mut Vec<u64>,
    ) -> &'a [u64] {
        scratch.clear();
        let words = state.encode(codec, &self.automorphisms, scratch);
        least(scratch, words)
    }
}

/// The least of `encodings`' `words`-long runs: the canonical key.
fn least(encodings: &[u64], words: usize) -> &[u64] {
    encodings
        .chunks_exact(words)
        .min()
        .expect("the automorphism set holds the identity")
}

pub(crate) fn is_target<P: Program>(engine: &Engine<P>, target: CheckTarget) -> bool {
    engine.with_view(|view| match target {
        CheckTarget::Progress => view.someone_eating(),
        CheckTarget::PhilosopherEats(p) => view.philosopher(p).phase == Phase::Eating,
    })
}

/// A successor reference produced by a worker before global merge.
#[derive(Clone, Copy)]
enum SuccRef {
    /// Already in the global table when the layer started.
    Known(u32),
    /// Index into the worker's new states.
    New(u32),
}

/// A state a worker discovered; its key and as-reached encoding sit at the
/// same index of the worker's `keys` and `reached`.
struct NewState<B> {
    bookkeeping: B,
    target: bool,
    safe: bool,
}

/// Expansion of one contiguous frontier slice: edges in parent-major,
/// choice-minor, draw-lexicographic order, plus the locally new states in
/// discovery order.
struct SliceExpansion<B> {
    edges: Vec<(f64, SuccRef)>,
    /// One length per (parent, choice), parent-major.
    group_lens: Vec<u32>,
    /// The new states' keys, numbered in discovery order.
    keys: KeyTable,
    /// The new states' as-reached encodings.
    reached: Packed,
    new_states: Vec<NewState<B>>,
}

impl<B> SliceExpansion<B> {
    /// Appends the edge to the state keyed `key` — known in the global
    /// table `frozen` at layer start, or one of this slice's new states —
    /// and returns whether the key is new here, in which case the caller
    /// records the state.
    #[inline]
    fn push_edge(&mut self, frozen: &KeyTable, prob: f64, key: &[u64]) -> bool {
        let (succ, new) = match frozen.get(key) {
            Some(idx) => (SuccRef::Known(idx), false),
            None => {
                let (local, new) = self.keys.insert(key);
                (SuccRef::New(local), new)
            }
        };
        self.edges.push((prob, succ));
        new
    }

    fn discover(&mut self, reached: &[u64], new_state: NewState<B>) {
        self.reached.push(reached);
        self.new_states.push(new_state);
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
    sim: &'a SimConfig,
    target: CheckTarget,
    bound: B::Bound,
    /// The identity first, so a state's first encoding is its as-reached
    /// one.
    automorphisms: &'a [Automorphism],
}

impl<P: Program, B: Bookkeeping> Shared<'_, P, B> {
    /// Writes `state`'s encodings under every automorphism into `encodings`
    /// and its dedup key — the least of them, then the bookkeeping's words —
    /// into `key`.  Returns the words of one encoding: `encodings[..words]`
    /// is the as-reached encoding.
    fn key(
        &self,
        state: &EngineState<P>,
        bookkeeping: &B,
        encodings: &mut Vec<u64>,
        key: &mut Vec<u64>,
    ) -> usize {
        encodings.clear();
        let words = state.encode(self.codec, self.automorphisms, encodings);
        key.clear();
        key.extend_from_slice(least(encodings, words));
        bookkeeping.push_words(key);
        words
    }
}

fn expand_slice<P, B>(
    shared: &Shared<'_, P, B>,
    frozen: &KeyTable,
    frontier: &Frontier<B>,
    slice: Range<usize>,
) -> SliceExpansion<B>
where
    P: Program + Clone,
    B: Bookkeeping,
{
    let n = shared.topology.num_philosophers();
    let mut engine = Engine::new(
        shared.topology.clone(),
        shared.program.clone(),
        shared.sim.clone(),
    );
    let mut parent = engine.snapshot();
    let mut succ_buf = engine.snapshot();
    let (mut encodings, mut key) = (Vec::new(), Vec::new());
    let mut out = SliceExpansion {
        edges: Vec::new(),
        group_lens: Vec::with_capacity(slice.len() * n),
        keys: KeyTable::new(),
        reached: Packed::new(),
        new_states: Vec::new(),
    };
    for i in slice {
        parent.decode_from(shared.codec, frontier.reached.get(i));
        let bookkeeping = &frontier.bookkeeping[i];
        let allowed = bookkeeping.allowed(shared.bound, n);
        for choice in 0..n {
            let before = out.edges.len();
            if !B::PRODUCT || allowed & (1 << choice) != 0 {
                let next = bookkeeping.scheduled(choice);
                engine.for_each_step_outcome_from(
                    &parent,
                    PhilosopherId::new(choice as u32),
                    |prob, post, _| {
                        post.snapshot_into(&mut succ_buf);
                        let words = shared.key(&succ_buf, &next, &mut encodings, &mut key);
                        if out.push_edge(frozen, prob, &key) {
                            let new_state = NewState {
                                bookkeeping: next.clone(),
                                target: is_target(post, shared.target),
                                safe: post.state_is_safe(),
                            };
                            out.discover(&encodings[..words], new_state);
                        }
                    },
                );
            }
            out.group_lens.push((out.edges.len() - before) as u32);
        }
        if B::CRASH_ROWS {
            for victim in 0..n {
                let before = out.edges.len();
                if let Some(next) = bookkeeping.crashed(shared.bound, victim, n) {
                    let words = shared.key(&parent, &next, &mut encodings, &mut key);
                    if out.push_edge(frozen, 1.0, &key) {
                        // A crash leaves the engine state as it is, so the
                        // successor shares the (non-target) parent's flags.
                        engine.restore(&parent);
                        let new_state = NewState {
                            bookkeeping: next,
                            target: false,
                            safe: engine.state_is_safe(),
                        };
                        out.discover(&encodings[..words], new_state);
                    }
                }
                out.group_lens.push((out.edges.len() - before) as u32);
            }
        }
    }
    out
}

/// The one-byte index of `prob` in `values`, interning it on first use.
/// Values are compared bit for bit.
///
/// # Panics
///
/// Panics past 256 distinct values.
fn intern(values: &mut Vec<f64>, prob: f64) -> u8 {
    let index = values
        .iter()
        .position(|v| v.to_bits() == prob.to_bits())
        .unwrap_or_else(|| {
            values.push(prob);
            values.len() - 1
        });
    u8::try_from(index).expect("a model has at most 256 distinct transition probabilities")
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
/// encoding ([`StateCodec`]), or past 256 distinct transition
/// probabilities.
#[must_use]
pub fn build_mdp<P>(
    topology: &Topology,
    program: &P,
    target: CheckTarget,
    options: &BuildOptions,
) -> Mdp
where
    P: Program + Clone + Send + Sync,
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
    P: Program + Clone + Send + Sync,
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
    let codec = StateCodec::new(topology, program);
    let shared = Shared {
        topology,
        program,
        codec: &codec,
        sim: &options.sim,
        target,
        bound,
        automorphisms: &automorphisms,
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

    let engine = Engine::new(topology.clone(), program.clone(), options.sim.clone());
    let initial_bookkeeping = B::initial(n);
    let (mut encodings, mut initial_key) = (Vec::new(), Vec::new());
    let words = shared.key(
        &engine.snapshot(),
        &initial_bookkeeping,
        &mut encodings,
        &mut initial_key,
    );

    let mut index_of_key = KeyTable::new();
    index_of_key.insert(&initial_key);
    let mut target_flags = vec![is_target(&engine, target)];
    let mut expanded = vec![false];
    let mut safety_violations = usize::from(!engine.state_is_safe());
    let mut requirements: Vec<u64> = Vec::new();
    if B::PRODUCT {
        requirements.push(requirement(&initial_bookkeeping, target_flags[0]));
    }
    let mut truncated = false;

    let mut row_offsets: Vec<u32> = vec![0];
    let mut succs: Vec<u32> = Vec::new();
    let mut probs: Vec<u8> = Vec::new();
    let mut prob_values: Vec<f64> = Vec::new();
    let mut rows_emitted: usize = 0; // states whose row groups are in the CSR

    let mut frontier = Frontier::new();
    if !target_flags[0] {
        frontier.push(0, &encodings[..words], initial_bookkeeping);
    }

    while !frontier.indices.is_empty() && (B::PRODUCT || !truncated) {
        let len = frontier.indices.len();
        let threads = options.effective_threads(len);
        let chunk_len = len.div_ceil(threads);
        let slices: Vec<Range<usize>> = (0..len)
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(len))
            .collect();
        let mut results: Vec<Option<SliceExpansion<B>>> = Vec::new();
        results.resize_with(slices.len(), || None);
        if threads <= 1 {
            results[0] = Some(expand_slice(
                &shared,
                &index_of_key,
                &frontier,
                slices[0].clone(),
            ));
        } else {
            let (shared, frozen, frontier) = (&shared, &index_of_key, &frontier);
            std::thread::scope(|scope| {
                for (slice, slot) in slices.iter().zip(results.iter_mut()) {
                    scope.spawn(move || {
                        *slot = Some(expand_slice(shared, frozen, frontier, slice.clone()));
                    });
                }
            });
        }

        // Deterministic merge: workers in frontier order, new states in
        // discovery order — identical numbering for every thread count.
        let mut next_frontier = Frontier::new();
        let mut parent_cursor = 0usize;
        for result in results.into_iter().map(Option::unwrap) {
            let mut local_to_global: Vec<u32> = Vec::with_capacity(result.new_states.len());
            for (local, new_state) in result.new_states.into_iter().enumerate() {
                let key = result.keys.key(local as u32);
                let global = if target_flags.len() >= options.max_states {
                    index_of_key.get(key).unwrap_or_else(|| {
                        truncated = true;
                        UNEXPLORED
                    })
                } else {
                    let (idx, inserted) = index_of_key.insert(key);
                    if inserted {
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
                    }
                    idx
                };
                local_to_global.push(global);
            }
            // Append this slice's rows, padding empty row groups for the
            // interleaved states that are not being expanded (targets,
            // budget-capped discoveries).
            let parents_in_slice = result.group_lens.len() / num_choices;
            let mut edge_cursor = 0usize;
            for local_parent in 0..parents_in_slice {
                let parent_index = frontier.indices[parent_cursor + local_parent] as usize;
                while rows_emitted < parent_index {
                    for _ in 0..num_choices {
                        row_offsets.push(succs.len() as u32);
                    }
                    rows_emitted += 1;
                }
                for choice in 0..num_choices {
                    let len = result.group_lens[local_parent * num_choices + choice] as usize;
                    for &(prob, succ) in &result.edges[edge_cursor..edge_cursor + len] {
                        let global = match succ {
                            SuccRef::Known(idx) => idx,
                            SuccRef::New(local) => local_to_global[local as usize],
                        };
                        succs.push(global);
                        probs.push(intern(&mut prob_values, prob));
                    }
                    edge_cursor += len;
                    row_offsets.push(succs.len() as u32);
                }
                expanded[parent_index] = true;
                rows_emitted = parent_index + 1;
            }
            parent_cursor += parents_in_slice;
        }
        frontier = next_frontier;
    }

    // Empty row groups for every remaining (target or unexpanded) state.
    while rows_emitted < target_flags.len() {
        for _ in 0..num_choices {
            row_offsets.push(succs.len() as u32);
        }
        rows_emitted += 1;
    }
    assert!(
        succs.len() < UNEXPLORED as usize,
        "transition count overflows the CSR index type"
    );

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
        index_of_key,
        fairness_requirement: B::PRODUCT.then_some(requirements),
        row_offsets,
        succs,
        probs,
        prob_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn models_are_bitwise_identical_across_thread_counts() {
        let ring = classic_ring(3).unwrap();
        for class in [
            AdversaryClass::Fair,
            AdversaryClass::KBounded { k: 2 },
            AdversaryClass::CrashStop { max_crashes: 1 },
        ] {
            let build = |threads: usize| {
                let options = options(true).with_class(class).with_threads(threads);
                build_mdp(&ring, &Lr1::new(), CheckTarget::Progress, &options)
            };
            let serial = build(1);
            for threads in [2usize, 4, 7] {
                let parallel = build(threads);
                assert_eq!(serial.num_states, parallel.num_states);
                assert_eq!(serial.target, parallel.target);
                assert_eq!(serial.expanded, parallel.expanded);
                assert_eq!(serial.fairness_requirement, parallel.fairness_requirement);
                assert_eq!(serial.row_offsets, parallel.row_offsets);
                assert_eq!(serial.succs, parallel.succs);
                assert_eq!(serial.probs, parallel.probs, "{class:?}, {threads} threads");
                assert_eq!(serial.prob_values, parallel.prob_values);
            }
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
    /// and guest-book stamps (GDP2/LR2 lockout), product keys (k-bounded,
    /// crash-stop) and keys of more than one word (ring-7).
    #[test]
    fn state_encoding_is_exact_over_every_state_of_small_builds() {
        let (ring3, ring7) = (classic_ring(3).unwrap(), classic_ring(7).unwrap());
        let lockout = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        let progress = CheckTarget::Progress;
        let fair = AdversaryClass::Fair;
        let kbounded = AdversaryClass::KBounded { k: 2 };
        let crash = AdversaryClass::CrashStop { max_crashes: 1 };
        // (topology, algorithm, target, class, budget, bookkeeping words per
        // key, whether some state encoding spans more than one word)
        let cases = [
            (&ring3, AlgorithmKind::Gdp2, lockout, fair, 2_000, 0, true),
            (&ring3, AlgorithmKind::Lr2, lockout, fair, 2_000, 0, true),
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
        ];
        for (topology, kind, target, class, budget, bookkeeping, multiword) in cases {
            let program = kind.program();
            let options = BuildOptions::default()
                .with_max_states(budget)
                .with_threads(1)
                .with_class(class);
            let mdp = build_mdp(topology, &program, target, &options);
            let codec = StateCodec::new(topology, &program);
            let automorphisms = symmetry::automorphisms(topology, AUTOMORPHISM_LIMIT);
            let identity = &automorphisms[..1];
            let mut engine = Engine::new(topology.clone(), program, SimConfig::default());
            let mut state = engine.snapshot();
            let (mut reached, mut back, mut image) = (state.clone(), state.clone(), state.clone());
            let mut by_encoding: HashMap<Vec<u64>, EngineState<AnyProgram>> = HashMap::new();
            let (mut encoded, mut all, mut twice, mut composed) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut longest_seen = 0;
            for index in 0..mdp.num_states as u32 {
                let key = mdp.index_of_key.key(index);
                let words = &key[..key.len() - bookkeeping];
                longest_seen = longest_seen.max(words.len());
                // A key decodes to a state that encodes back to the key.
                state.decode_from(&codec, words);
                encoded.clear();
                assert_eq!(state.encode(&codec, identity, &mut encoded), words.len());
                assert_eq!(encoded, words, "{kind} state {index}");
                // Relabelling composes: rotating once, then once more, is
                // rotating twice.
                for first in &automorphisms {
                    encoded.clear();
                    state.encode(&codec, std::slice::from_ref(first), &mut encoded);
                    image.decode_from(&codec, &encoded);
                    for second in &automorphisms {
                        twice.clear();
                        image.encode(&codec, std::slice::from_ref(second), &mut twice);
                        composed.clear();
                        state.encode(&codec, &[compose(first, second)], &mut composed);
                        assert_eq!(twice, composed, "{kind} state {index}");
                    }
                }
                // Every successor, as the engine reaches it:
                for p in 0..topology.num_philosophers() {
                    let p = PhilosopherId::new(p as u32);
                    engine.for_each_step_outcome_from(&state, p, |_, post, _| {
                        post.snapshot_into(&mut reached);
                        all.clear();
                        let len = reached.encode(&codec, &automorphisms, &mut all);
                        // decoding its encoding gives it back,
                        back.decode_from(&codec, &all[..len]);
                        assert_eq!(back.forks(), reached.forks(), "{kind}");
                        assert_eq!(back.states(), reached.states(), "{kind}");
                        for (auto, encoding) in automorphisms.iter().zip(all.chunks_exact(len)) {
                            // its encoding under an automorphism is that of
                            // the relabelled state,
                            image.decode_from(&codec, encoding);
                            assert_relabelled(&reached, auto, &image);
                            encoded.clear();
                            image.encode(&codec, identity, &mut encoded);
                            assert_eq!(encoded, encoding, "{kind}");
                            // and two states share an encoding only if they
                            // are equal.
                            let known = by_encoding
                                .entry(encoding.to_vec())
                                .or_insert_with(|| image.clone());
                            assert_eq!(*known, image, "{kind}");
                        }
                    });
                }
            }
            assert_eq!(
                longest_seen > 1,
                multiword,
                "{kind} on {}",
                topology.summary()
            );
        }

        // A ring-5 GDP1 key is one word: 5 × (3 + 3) + 5 × 4 = 50 bits.
        let ring5 = classic_ring(5).unwrap();
        let options = BuildOptions::default().with_max_states(2_000);
        let mdp = build_mdp(&ring5, &Gdp1::new(), CheckTarget::Progress, &options);
        assert!((0..mdp.num_states as u32).all(|i| mdp.index_of_key.key(i).len() == 1));
    }
}
