//! The semantic state of a system, stepped and encoded without an engine.
//!
//! An [`EngineState`] is exactly the state of the paper's probabilistic
//! automaton:
//!
//! * the shared fork cells (holders, `nr` numbers, request lists, guest
//!   books),
//! * every philosopher's private program state, and
//! * the global step counter.
//!
//! Run *statistics* (meal counts, fairness accounting, the first-meal
//! histogram) are deliberately **not** part of it: two executions that reach
//! the same `EngineState` are indistinguishable to every philosopher and to
//! the shared forks, regardless of how they got there.  Nor is the engine's
//! RNG: the automaton branches on a random draw rather than remembering a
//! sampler.
//!
//! A state steps on its own; an [`Engine`](crate::Engine) drives one
//! ([`Engine::state`](crate::Engine::state)) with sampled draws.
//! [`EngineState::for_each_step_outcome`] runs one philosopher's step once
//! per outcome of its random draws, read from a [`DrawTape`], with no
//! engine, RNG or statistics to keep: `gdp-mcheck`'s builder and
//! counterexample replay and [`Engine::is_stuck`](crate::Engine::is_stuck)
//! explore through it.  [`EngineState::is_safe`] is the safety predicate,
//! the one [`Engine::state_is_safe`](crate::Engine::state_is_safe) applies
//! too.
//!
//! The **exact encoding** half of this module is [`StateCodec`] with
//! [`EngineState::encode`] and [`EngineState::decode_from`]: a state packed
//! bit for bit into `u64` words, written directly under each automorphism
//! of one set.  Two states share an encoding exactly when their forks and
//! private states are equal, so the encoding is a state *key*: `gdp-mcheck`
//! dedups states by their least encoding over an automorphism set (its
//! symmetry quotient) and stores its frontier encoded.
//! [`StateCodec::relabel`] writes a stored state's encodings from its own,
//! with no decoding.  A step reads and writes only the stepping
//! philosopher's private state and its two forks (the paper's full
//! distribution, which [`StepCtx`] enforces), so
//! [`EngineState::encode_successor`] derives a successor's encodings from
//! its parent's by rewriting those three fields and the tail.

use crate::draws::DrawTape;
use crate::fork::ForkCell;
use crate::program::{Action, Phase, Program, StepCtx, StepRandomness};
use gdp_topology::{Automorphism, ForkEnds, PhilosopherId, Topology};

/// The semantic state of a system: forks, private program states and the
/// step counter.
///
/// Borrow a running engine's with [`Engine::state`](crate::Engine::state),
/// or start from [`initial`](Self::initial).
pub struct EngineState<P: Program> {
    pub(crate) forks: Vec<ForkCell>,
    pub(crate) states: Vec<P::State>,
    pub(crate) step_count: u64,
}

// Manual impls: deriving would bound `P` itself instead of just `P::State`
// (the only program-dependent field type).
impl<P: Program> Clone for EngineState<P> {
    fn clone(&self) -> Self {
        EngineState {
            forks: self.forks.clone(),
            states: self.states.clone(),
            step_count: self.step_count,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.forks.clone_from(&source.forks);
        self.states.clone_from(&source.states);
        self.step_count = source.step_count;
    }
}

impl<P: Program> std::fmt::Debug for EngineState<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineState")
            .field("forks", &self.forks)
            .field("states", &self.states)
            .field("step_count", &self.step_count)
            .finish()
    }
}

impl<P: Program> PartialEq for EngineState<P> {
    fn eq(&self, other: &Self) -> bool {
        self.step_count == other.step_count
            && self.forks == other.forks
            && self.states == other.states
    }
}

impl<P: Program> Eq for EngineState<P> {}

impl<P: Program> EngineState<P> {
    /// The state a run of `program` on `topology` starts in: every fork
    /// fresh, every philosopher in the program's initial state, step 0.
    #[must_use]
    pub fn initial(topology: &Topology, program: &P) -> Self {
        EngineState {
            forks: (0..topology.num_forks()).map(|_| ForkCell::new()).collect(),
            states: (0..topology.num_philosophers())
                .map(|_| program.initial_state())
                .collect(),
            step_count: 0,
        }
    }

    /// The shared state of every fork, indexed by
    /// [`ForkId::index`](gdp_topology::ForkId::index).
    #[must_use]
    pub fn forks(&self) -> &[ForkCell] {
        &self.forks
    }

    /// Every philosopher's private program state, indexed by
    /// [`PhilosopherId::index`].
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The number of steps taken to reach this state.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// The phase of `philosopher`, as its program observes its private
    /// state.
    #[must_use]
    pub fn phase_of(&self, topology: &Topology, program: &P, philosopher: PhilosopherId) -> Phase {
        let ends = topology.forks_of(philosopher);
        program
            .observation(&self.states[philosopher.index()], ends)
            .phase
    }

    /// Returns `true` if the state satisfies the safety invariants: every
    /// held fork is held by an adjacent philosopher, and eating implies
    /// holding both forks.
    ///
    /// The single source of truth for the predicate the exact checker
    /// counts as `safety_violations` and the Monte-Carlo estimators surface
    /// as `unsafe_trials`.
    #[must_use]
    pub fn is_safe(&self, topology: &Topology, program: &P) -> bool {
        let adjacent_holders = topology.fork_ids().all(|fork| {
            self.forks[fork.index()]
                .holder
                .is_none_or(|holder| topology.forks_of(holder).contains(fork))
        });
        adjacent_holders
            && topology.philosopher_ids().all(|p| {
                let ends = topology.forks_of(p);
                program.observation(&self.states[p.index()], ends).phase != Phase::Eating
                    || ends
                        .as_array()
                        .iter()
                        .all(|fork| self.forks[fork.index()].holder == Some(p))
            })
    }

    /// Runs one atomic step of `philosopher` on this state, its draws taken
    /// from `randomness`, and returns the step's action: gdp-sim's one call
    /// of [`Program::step`], behind the engine's sampled step and the
    /// outcome enumeration.
    pub(crate) fn step(
        &mut self,
        topology: &Topology,
        program: &P,
        philosopher: PhilosopherId,
        randomness: StepRandomness<'_>,
    ) -> Action {
        self.step_count += 1;
        let ends = topology.forks_of(philosopher);
        let num_forks = self.forks.len();
        let [left, right] = self
            .forks
            .get_disjoint_mut([ends.left.index(), ends.right.index()])
            .expect("a philosopher's two forks are distinct cells of the state");
        let mut ctx = StepCtx::new(philosopher, ends, left, right, num_forks, randomness);
        program.step(&mut self.states[philosopher.index()], &mut ctx)
    }

    /// Enumerates **every** possible outcome of scheduling `philosopher` for
    /// one atomic step from this state — the probabilistic branching of the
    /// paper's automaton, made exhaustive.
    ///
    /// The step runs on `post`, a copy of this state, with its random draws
    /// read from a [`DrawTape`]: a draw past the tape's end poisons the copy,
    /// and the step reruns from a fresh copy once per outcome of that draw.
    /// For each complete outcome, `visit` is called with the outcome's
    /// probability (the product of its draw probabilities), the post-step
    /// state and the step's action; `post` holds the last outcome on return.
    /// The post-step state's step counter is one above this state's.
    ///
    /// The visited probabilities sum to 1 and their order is deterministic
    /// (draw-lexicographic), which the bitwise-determinism guarantees of
    /// `gdp-mcheck` rely on.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology, or if the
    /// state's fork or philosopher count differs from the topology's.
    pub fn for_each_step_outcome(
        &self,
        topology: &Topology,
        program: &P,
        philosopher: PhilosopherId,
        post: &mut EngineState<P>,
        mut visit: impl FnMut(f64, &EngineState<P>, Action),
    ) {
        assert!(
            self.forks.len() == topology.num_forks()
                && self.states.len() == topology.num_philosophers(),
            "state has a different fork or philosopher count than the topology"
        );
        let mut step = |post: &mut EngineState<P>, tape: &mut DrawTape| {
            post.clone_from(self);
            post.step(
                topology,
                program,
                philosopher,
                StepRandomness::Scripted(tape),
            )
        };
        branch_on_draws(&mut step, post, &mut DrawTape::new(), 1.0, &mut visit);
    }

    /// Appends to `out` this state's exact encoding under each of the
    /// codec's automorphisms in turn — the encoding of the state relabelled
    /// by it, written directly from this state without building the
    /// relabelled copy — and returns the words one encoding takes, the same
    /// for every automorphism.
    ///
    /// Under the identity automorphism this is the state's own encoding.
    /// See [`StateCodec`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if the state's fork or philosopher count differs from the
    /// codec's, or if a value does not fit its field: an `nr` above the
    /// fork count or a private state the program does not list.
    pub fn encode(&self, codec: &StateCodec<P>, out: &mut Vec<u64>) -> usize {
        codec.check_counts(self);
        let (words, tail) = codec.words(&self.forks);
        let base = out.len();
        out.resize(base + words * codec.frames.len(), 0);
        let encodings = &mut out[base..];
        for (f, cell) in self.forks.iter().enumerate() {
            let (holder, nr) = codec.fork_fields(f, cell);
            for (key, frame) in encodings.chunks_exact_mut(words).zip(&codec.frames) {
                codec.write_fork(key, frame, f, holder, nr);
            }
        }
        for (p, state) in self.states.iter().enumerate() {
            let code = codec.code_of(state);
            for (key, frame) in encodings.chunks_exact_mut(words).zip(&codec.frames) {
                codec.write_code(key, frame, p, code);
            }
        }
        if tail {
            for (key, frame) in encodings.chunks_exact_mut(words).zip(&codec.frames) {
                codec.write_tail(key, frame, |f| lists(&self.forks[f]));
            }
        }
        words
    }

    /// Appends to `out` this state's encodings under each of the codec's
    /// automorphisms, as [`encode`](Self::encode) does, given `parent`: the
    /// encodings, in the same order, of the state this one was reached from
    /// by one step of `philosopher`.  Returns the words one encoding takes.
    ///
    /// A step changes only the stepping philosopher's private state and its
    /// two forks, so each encoding is its parent's fixed-width part with
    /// those three fields rewritten, followed by the tail.  An encoding of
    /// one word with no tail (every ring-5 GDP1 state) is built in a
    /// register, its three fields replaced by mask and shift.  The result
    /// equals `encode`'s word for word; for any other pair of states it is
    /// meaningless.
    ///
    /// # Panics
    ///
    /// As [`encode`](Self::encode), and if `parent` does not hold one
    /// encoding per automorphism.
    pub fn encode_successor(
        &self,
        codec: &StateCodec<P>,
        parent: &[u64],
        philosopher: PhilosopherId,
        out: &mut Vec<u64>,
    ) -> usize {
        codec.check_counts(self);
        let parent_words = parent.len() / codec.frames.len();
        assert!(
            parent_words > 0 && parent_words * codec.frames.len() == parent.len(),
            "the parent holds one encoding per automorphism"
        );
        let (words, tail) = codec.words(&self.forks);
        let fixed = codec.fixed_bits();
        let p = philosopher.index();
        let [left, right] = codec.ends[p].as_array().map(|fork| {
            let f = fork.index();
            let (holder, nr) = codec.fork_fields(f, &self.forks[f]);
            (f, holder, nr)
        });
        let code = codec.code_of(&self.states[p]);
        if words == 1 && !tail {
            let hb = codec.holder_bits;
            let fixed_mask = low_bits(fixed as u32);
            let fork_mask = low_bits(hb + codec.nr_bits);
            let code_mask = low_bits(codec.code_bits);
            let frames = codec.frames.iter().zip(parent.chunks_exact(parent_words));
            out.extend(frames.map(|(frame, from)| {
                let mut word = from[0] & fixed_mask;
                for (f, holder, nr) in [left, right] {
                    let value = frame.holders[holder as usize] | nr << hb;
                    word = replace(word, frame.fork_at[f], fork_mask, value);
                }
                replace(word, frame.code_at[p], code_mask, code)
            }));
            return 1;
        }
        let (whole, partial) = (fixed / 64, fixed % 64);
        let base = out.len();
        out.resize(base + words * codec.frames.len(), 0);
        let encodings = out[base..].chunks_exact_mut(words);
        for ((key, frame), from) in encodings
            .zip(&codec.frames)
            .zip(parent.chunks_exact(parent_words))
        {
            key[..whole].copy_from_slice(&from[..whole]);
            if partial > 0 {
                key[whole] = from[whole] & ((1 << partial) - 1);
            }
            for (f, holder, nr) in [left, right] {
                codec.write_fork(key, frame, f, holder, nr);
            }
            codec.write_code(key, frame, p, code);
            if tail {
                codec.write_tail(key, frame, |f| lists(&self.forks[f]));
            }
        }
        words
    }

    /// Overwrites this state's forks and private states with the state
    /// `words` encodes — one encoding written by [`encode`](Self::encode)
    /// — reusing its allocations.  The step counter is not encoded and
    /// stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if the state's fork or philosopher count differs from the
    /// codec's, or if `words` is not an encoding of this codec.
    pub fn decode_from(&mut self, codec: &StateCodec<P>, words: &[u64]) {
        codec.check_counts(self);
        let (hb, nb, cb) = (codec.holder_bits, codec.nr_bits, codec.code_bits);
        let fork_bits = (hb + nb) as usize;
        let codes_at = self.forks.len() * fork_bits;
        for (f, cell) in self.forks.iter_mut().enumerate() {
            let at = f * fork_bits;
            cell.holder = match get(words, at, hb) {
                0 => None,
                h => Some(PhilosopherId::new((h - 1) as u32)),
            };
            cell.nr = get(words, at + hb as usize, nb) as u32;
            cell.requests.clear();
            cell.guest_book.clear();
        }
        for (p, state) in self.states.iter_mut().enumerate() {
            let code = get(words, codes_at + p * cb as usize, cb) as usize;
            state.clone_from(
                codec
                    .table
                    .get(code)
                    .expect("an encoded code names a listed private state"),
            );
        }
        let fixed = codec.fixed_bits();
        if words.len() * 64 > fixed && get(words, fixed, 1) == 1 {
            let mut at = fixed + 1;
            let mut pull = |width: u32| {
                let value = get(words, at, width);
                at += width as usize;
                value
            };
            for cell in &mut self.forks {
                for _ in 0..pull(hb) {
                    cell.requests.push(PhilosopherId::new(pull(hb) as u32));
                }
                for _ in 0..pull(hb) {
                    cell.guest_book.push(PhilosopherId::new(pull(hb) as u32));
                }
            }
        }
    }
}

/// Runs `step` on `post` with the draws on `tape`, and on a pending draw
/// extends the tape by each of its outcomes and reruns.
fn branch_on_draws<P: Program>(
    step: &mut impl FnMut(&mut EngineState<P>, &mut DrawTape) -> Action,
    post: &mut EngineState<P>,
    tape: &mut DrawTape,
    probability: f64,
    visit: &mut impl FnMut(f64, &EngineState<P>, Action),
) {
    tape.rewind();
    let action = step(post, tape);
    match tape.pending() {
        None => visit(probability, post, action),
        Some(request) => {
            for (outcome, p) in request.outcomes() {
                tape.push(outcome);
                branch_on_draws(step, post, tape, probability * p, visit);
                tape.pop();
            }
        }
    }
}

/// The exact, bit-packed encoding of the [`EngineState`]s of one system —
/// one topology (`n` philosophers, `k` forks) and one program — under each
/// automorphism of one set.
///
/// An encoding is a run of `u64` words filled from the least significant
/// bit up, with fields at fixed widths:
///
/// * per fork, in fork order: its holder (`0` when free, `p + 1` for
///   philosopher `p`) in ⌈log₂(n+1)⌉ bits, then its `nr` in ⌈log₂(k+1)⌉
///   bits, because the model draws priority numbers from `[1, k]`;
/// * per philosopher, in philosopher order: the code of its private state —
///   the state's index in [`Program::private_states`] — in ⌈log₂ s⌉ bits
///   for `s` listed states;
/// * a variable-length tail for the request lists and guest books of LR2
///   and GDP2, present only when some fork has a request or a guest-book
///   entry: a `1` marker bit, then per fork its request count and
///   requests, and its guest-book count and signers, least recent first.
///   Counts and philosophers take ⌈log₂(n+1)⌉ bits.
///
/// The bits after the last field are zero.  Without a tail the encoding
/// has a fixed length: a ring-5 GDP1 state takes 5 × (3 + 3) + 5 × 4 = 50
/// bits, one word.  The step counter is not encoded.
///
/// The encoding of a state under an automorphism is that of the state it
/// relabels to.  The codec lays each automorphism out once, as a *frame*:
/// the bit offset each fork's and each philosopher's field moves to, the
/// relabelled holder values and the order of the tail's fork records.
/// Every encoding it writes goes through one frame per automorphism, in
/// the set's order.
///
/// The encoding is exact: [`EngineState::decode_from`] inverts it, so two
/// states share an encoding exactly when their forks and private states
/// are equal.  A value that does not fit its field panics; it is never
/// truncated.
pub struct StateCodec<P: Program> {
    holder_bits: u32,
    nr_bits: u32,
    code_bits: u32,
    num_forks: usize,
    /// Each philosopher's two forks: the fields its step may rewrite.
    ends: Vec<ForkEnds>,
    /// The program's private states; a state's code is its index.
    table: Vec<P::State>,
    /// One frame per automorphism, in the set's order.
    frames: Vec<Frame>,
}

/// Where the fields of a state land in its encoding under one
/// automorphism.
struct Frame {
    /// Per fork: the bit offset of its image's holder-and-`nr` field.
    fork_at: Box<[usize]>,
    /// Per philosopher: the bit offset of its image's code field.
    code_at: Box<[usize]>,
    /// Per holder value (`0` free, `p + 1` held by `p`): its image's value.
    holders: Box<[u64]>,
    /// Per tail record, in the encoding's order: the fork the record is
    /// of, the one the automorphism maps to that position.
    tail_forks: Box<[usize]>,
}

impl Frame {
    /// The image of philosopher `p`.
    fn philosopher(&self, p: u64) -> u64 {
        self.holders[p as usize + 1] - 1
    }
}

impl<P: Program> StateCodec<P> {
    /// The codec of `program`'s states on `topology`, under each of
    /// `automorphisms` in turn.
    ///
    /// # Panics
    ///
    /// Panics if the program lists no private state, if `automorphisms` is
    /// empty, or if an automorphism's fork or philosopher count differs
    /// from the topology's.
    #[must_use]
    pub fn new(topology: &Topology, program: &P, automorphisms: &[Automorphism]) -> Self {
        let table = program.private_states();
        assert!(
            !table.is_empty(),
            "program {} lists no private state",
            program.name()
        );
        assert!(
            !automorphisms.is_empty(),
            "a codec encodes under at least one automorphism"
        );
        let (n, k) = (topology.num_philosophers(), topology.num_forks());
        let (holder_bits, nr_bits) = (bits_for(n), bits_for(k));
        let code_bits = bits_for(table.len() - 1);
        let fork_bits = (holder_bits + nr_bits) as usize;
        let frames = automorphisms
            .iter()
            .map(|auto| {
                assert!(
                    auto.fork_map.len() == k && auto.phil_map.len() == n,
                    "an automorphism has a different fork or philosopher count than the topology"
                );
                let mut tail_forks = vec![0; k];
                for (f, image) in auto.fork_map.iter().enumerate() {
                    tail_forks[image.index()] = f;
                }
                Frame {
                    fork_at: auto
                        .fork_map
                        .iter()
                        .map(|g| g.index() * fork_bits)
                        .collect(),
                    code_at: auto
                        .phil_map
                        .iter()
                        .map(|q| k * fork_bits + q.index() * code_bits as usize)
                        .collect(),
                    holders: std::iter::once(0)
                        .chain(auto.phil_map.iter().map(|q| q.index() as u64 + 1))
                        .collect(),
                    tail_forks: tail_forks.into(),
                }
            })
            .collect();
        StateCodec {
            holder_bits,
            nr_bits,
            code_bits,
            num_forks: k,
            ends: topology
                .philosopher_ids()
                .map(|p| topology.forks_of(p))
                .collect(),
            table,
            frames,
        }
    }

    /// Appends to `out` the encodings under each of the codec's
    /// automorphisms of the state whose own encoding is `words` — the
    /// encodings [`EngineState::encode`] writes for it — and returns the
    /// words one encoding takes: `words.len()`.
    ///
    /// Every field is read from `words` and written through each frame, so
    /// a state stored encoded is re-keyed without being decoded.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not an encoding of this codec.
    pub fn relabel(&self, words: &[u64], out: &mut Vec<u64>) -> usize {
        let (hb, nb, cb) = (self.holder_bits, self.nr_bits, self.code_bits);
        let fork_bits = (hb + nb) as usize;
        let codes_at = self.num_forks * fork_bits;
        let len = words.len();
        let base = out.len();
        out.resize(base + len * self.frames.len(), 0);
        let encodings = &mut out[base..];
        for f in 0..self.num_forks {
            let field = get(words, f * fork_bits, hb + nb);
            let (holder, nr) = (field & ((1 << hb) - 1), field >> hb);
            for (key, frame) in encodings.chunks_exact_mut(len).zip(&self.frames) {
                self.write_fork(key, frame, f, holder, nr);
            }
        }
        for p in 0..self.ends.len() {
            let code = get(words, codes_at + p * cb as usize, cb);
            for (key, frame) in encodings.chunks_exact_mut(len).zip(&self.frames) {
                self.write_code(key, frame, p, code);
            }
        }
        let fixed = self.fixed_bits();
        if len * 64 > fixed && get(words, fixed, 1) == 1 {
            // Fork `f`'s record starts at bit `starts[f]`: its request
            // count, the requests, its guest-book count, the signers.
            let mut starts = Vec::with_capacity(self.num_forks);
            let mut at = fixed + 1;
            for _ in 0..self.num_forks {
                starts.push(at);
                let requests = get(words, at, hb) as usize;
                at += (1 + requests) * hb as usize;
                let guests = get(words, at, hb) as usize;
                at += (1 + guests) * hb as usize;
            }
            let list = move |at: usize| {
                let count = get(words, at, hb) as usize;
                (0..count).map(move |i| get(words, at + (1 + i) * hb as usize, hb))
            };
            for (key, frame) in encodings.chunks_exact_mut(len).zip(&self.frames) {
                self.write_tail(key, frame, |f| {
                    let requests = list(starts[f]);
                    let guests = list(starts[f] + (1 + requests.len()) * hb as usize);
                    (requests, guests)
                });
            }
        }
        len
    }

    fn check_counts(&self, state: &EngineState<P>) {
        assert_eq!(
            state.forks.len(),
            self.num_forks,
            "state has a different fork count than the codec"
        );
        assert_eq!(
            state.states.len(),
            self.ends.len(),
            "state has a different philosopher count than the codec"
        );
    }

    /// The bits of the fixed-width part: the fork fields, then the codes.
    fn fixed_bits(&self) -> usize {
        self.num_forks * (self.holder_bits + self.nr_bits) as usize
            + self.ends.len() * self.code_bits as usize
    }

    /// The words one encoding of a state with these forks takes, and
    /// whether it has a tail.
    fn words(&self, forks: &[ForkCell]) -> (usize, bool) {
        let listed: usize = forks
            .iter()
            .map(|c| c.requests.len() + c.guest_book.len())
            .sum();
        let tail = if listed == 0 {
            0
        } else {
            1 + (2 * forks.len() + listed) * self.holder_bits as usize
        };
        ((self.fixed_bits() + tail).div_ceil(64).max(1), tail > 0)
    }

    fn code_of(&self, state: &P::State) -> u64 {
        self.table
            .iter()
            .position(|listed| listed == state)
            .unwrap_or_else(|| {
                panic!("private state {state:?} is not in the program's private_states()")
            }) as u64
    }

    /// Fork `f`'s holder value (`0` free, `p + 1` held by `p`) and `nr`,
    /// checked against their fields.
    fn fork_fields(&self, f: usize, cell: &ForkCell) -> (u64, u64) {
        let nr = u64::from(cell.nr);
        assert!(
            fits(nr, self.nr_bits),
            "fork {f}'s nr {nr} does not fit its {}-bit field (priority numbers are drawn from [1, {}])",
            self.nr_bits,
            self.num_forks
        );
        (cell.holder.map_or(0, |p| p.index() as u64 + 1), nr)
    }

    /// Writes fork `f`'s `holder` value and `nr` into `key`, the encoding
    /// under `frame`, over whatever the field held.
    fn write_fork(&self, key: &mut [u64], frame: &Frame, f: usize, holder: u64, nr: u64) {
        let hb = self.holder_bits;
        // The holder's field, then `nr`'s, written as one.
        let value = frame.holders[holder as usize] | nr << hb;
        put(key, frame.fork_at[f], hb + self.nr_bits, value);
    }

    /// Writes philosopher `p`'s private-state `code` into `key`, the
    /// encoding under `frame`, over whatever the field held.
    fn write_code(&self, key: &mut [u64], frame: &Frame, p: usize, code: u64) {
        put(key, frame.code_at[p], self.code_bits, code);
    }

    /// Writes a tail into `key`, the encoding under `frame`, whose bits
    /// past the fixed-width part are zero.  `lists(f)` gives fork `f`'s
    /// requests and guest book, as philosopher indices.
    fn write_tail<R, G>(&self, key: &mut [u64], frame: &Frame, lists: impl Fn(usize) -> (R, G))
    where
        R: ExactSizeIterator<Item = u64>,
        G: ExactSizeIterator<Item = u64>,
    {
        let hb = self.holder_bits;
        let mut at = self.fixed_bits();
        let mut push = |width: u32, value: u64| {
            put(key, at, width, value);
            at += width as usize;
        };
        push(1, 1);
        for &f in &frame.tail_forks {
            let (requests, guests) = lists(f);
            push(hb, count(requests.len(), hb, f));
            for p in requests {
                push(hb, frame.philosopher(p));
            }
            push(hb, count(guests.len(), hb, f));
            for p in guests {
                push(hb, frame.philosopher(p));
            }
        }
    }
}

/// Fork `cell`'s requests and guest book, as philosopher indices.
fn lists(
    cell: &ForkCell,
) -> (
    impl ExactSizeIterator<Item = u64> + '_,
    impl ExactSizeIterator<Item = u64> + '_,
) {
    let index = |p: &PhilosopherId| p.index() as u64;
    (
        cell.requests.iter().map(index),
        cell.guest_book.iter().map(index),
    )
}

/// The bits a field holding the values `0..=max` takes.
fn bits_for(max: usize) -> u32 {
    usize::BITS - max.leading_zeros()
}

fn fits(value: u64, width: u32) -> bool {
    width >= 64 || value >> width == 0
}

/// A request-list or guest-book length, checked against its field.
fn count(len: usize, width: u32, fork: usize) -> u64 {
    let len = len as u64;
    assert!(
        fits(len, width),
        "fork {fork} lists {len} philosophers, more than its {width}-bit count field holds"
    );
    len
}

/// A mask of the low `width` bits.
fn low_bits(width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        u64::MAX >> (64 - width)
    }
}

/// `word` with the field `mask` covers, shifted to bit offset `at`,
/// replaced by `value`: [`put`] on a one-word encoding.  (A field of width
/// 0 may sit at bit 64; its mask and value are 0, so the shift may wrap.)
fn replace(word: u64, at: usize, mask: u64, value: u64) -> u64 {
    let at = at as u32;
    word & !mask.wrapping_shl(at) | value.wrapping_shl(at)
}

/// Writes the `width`-bit `value` into `words` at bit offset `at`, over
/// whatever the field held.
fn put(words: &mut [u64], at: usize, width: u32, value: u64) {
    debug_assert!(fits(value, width), "{value} overflows {width} bits");
    if width == 0 {
        return;
    }
    let mask = low_bits(width);
    let (word, bit) = (at / 64, (at % 64) as u32);
    words[word] = words[word] & !(mask << bit) | value << bit;
    if bit + width > 64 {
        let shift = 64 - bit;
        words[word + 1] = words[word + 1] & !(mask >> shift) | value >> shift;
    }
}

/// Reads the `width`-bit field at bit offset `at` of `words`.
fn get(words: &[u64], at: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let (word, bit) = (at / 64, (at % 64) as u32);
    let mut value = words[word] >> bit;
    if bit + width > 64 {
        value |= words[word + 1] << (64 - bit);
    }
    value & low_bits(width)
}
