//! First-class engine state snapshots.
//!
//! An [`EngineState`] captures the *semantic* state of a running
//! [`Engine`](crate::Engine) — exactly the state of the paper's
//! probabilistic automaton:
//!
//! * the shared fork cells (holders, `nr` numbers, request lists, guest
//!   books),
//! * every philosopher's private program state, and
//! * the global step counter.
//!
//! Run *statistics* (meal counts, fairness accounting, the first-meal
//! histogram) are deliberately **not** captured: two executions that reach
//! the same `EngineState` are indistinguishable to every philosopher and to
//! the shared forks, regardless of how they got there.  Restoring a
//! snapshot therefore resets the statistics, as documented on
//! [`Engine::restore`](crate::Engine::restore).
//!
//! Nor is the engine's RNG: the automaton branches on a random draw rather
//! than remembering a sampler, and every caller that restores a snapshot
//! (`gdp-mcheck`'s builder and counterexample replay,
//! [`Engine::is_stuck`](crate::Engine::is_stuck)) reads its draws from a
//! [`DrawTape`](crate::DrawTape) in between, which never touches the RNG.
//!
//! Snapshots replace the replay-per-expansion scheme the state-space
//! explorer used before: instead of re-simulating an entire decision prefix
//! to revisit a state (`O(depth)` per expansion), exploration stores the
//! `EngineState` and restores it in `O(n + k)`.  `gdp-mcheck` builds its
//! exact MDP on the same primitive.
//!
//! The **exact encoding** half of this module is [`StateCodec`] with
//! [`EngineState::encode`] and [`EngineState::decode_from`]: a state packed
//! bit for bit into `u64` words, written directly under any topology
//! automorphism.  Two states share an encoding exactly when their forks and
//! private states are equal, so the encoding is a state *key*: `gdp-mcheck`
//! dedups states by their least encoding over an automorphism set (its
//! symmetry quotient) and stores its frontier encoded.

use crate::fork::ForkCell;
use crate::program::Program;
use gdp_topology::{Automorphism, PhilosopherId, Topology};

/// A snapshot of the semantic state of an [`Engine`](crate::Engine).
///
/// Create one with [`Engine::snapshot`](crate::Engine::snapshot) (or reuse
/// allocations with [`Engine::snapshot_into`](crate::Engine::snapshot_into))
/// and go back to it with [`Engine::restore`](crate::Engine::restore).
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

    /// The step count at which the snapshot was taken.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Appends to `out` this state's exact encoding under each automorphism
    /// in turn — the encoding of the state relabelled by it, written
    /// directly from this state without building the relabelled copy — and
    /// returns the words one encoding takes, the same for every
    /// automorphism.
    ///
    /// Under the identity automorphism this is the state's own encoding.
    /// See [`StateCodec`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's fork or philosopher count differs from the
    /// codec's, or if a value does not fit its field: an `nr` above the
    /// fork count or a private state the program does not list.
    pub fn encode(
        &self,
        codec: &StateCodec<P>,
        automorphisms: &[Automorphism],
        out: &mut Vec<u64>,
    ) -> usize {
        codec.check_counts(self);
        let (hb, nb, cb) = (codec.holder_bits, codec.nr_bits, codec.code_bits);
        let fork_bits = (hb + nb) as usize;
        let codes_at = self.forks.len() * fork_bits;
        let fixed = codec.fixed_bits();
        let tail = codec.tail_bits(&self.forks);
        let words = (fixed + tail).div_ceil(64).max(1);
        let base = out.len();
        out.resize(base + words * automorphisms.len(), 0);
        let encodings = &mut out[base..];

        for (f, cell) in self.forks.iter().enumerate() {
            let nr = u64::from(cell.nr);
            assert!(
                fits(nr, nb),
                "fork {f}'s nr {nr} does not fit its {nb}-bit field (priority numbers are drawn from [1, {}])",
                self.forks.len()
            );
            for (key, auto) in encodings.chunks_exact_mut(words).zip(automorphisms) {
                let holder = cell
                    .holder
                    .map_or(0, |p| auto.phil_map[p.index()].index() as u64 + 1);
                // The holder's field, then `nr`'s, written as one.
                let at = auto.fork_map[f].index() * fork_bits;
                put(key, at, hb + nb, holder | nr << hb);
            }
        }
        for (p, state) in self.states.iter().enumerate() {
            let code = codec.code_of(state);
            for (key, auto) in encodings.chunks_exact_mut(words).zip(automorphisms) {
                put(
                    key,
                    codes_at + auto.phil_map[p].index() * cb as usize,
                    cb,
                    code,
                );
            }
        }
        if tail > 0 {
            for (key, auto) in encodings.chunks_exact_mut(words).zip(automorphisms) {
                let mut at = fixed;
                let mut push = |width: u32, value: u64| {
                    put(key, at, width, value);
                    at += width as usize;
                };
                push(1, 1);
                // Fork records go in image order: the record at position
                // `image` is that of the fork the automorphism maps there.
                for image in 0..self.forks.len() {
                    let f = auto
                        .fork_map
                        .iter()
                        .position(|g| g.index() == image)
                        .expect("an automorphism's fork map is a permutation");
                    let cell = &self.forks[f];
                    let phil = |p: PhilosopherId| auto.phil_map[p.index()].index() as u64;
                    push(hb, count(cell.requests.len(), hb, f));
                    for &p in &cell.requests {
                        push(hb, phil(p));
                    }
                    push(hb, count(cell.guest_book.len(), hb, f));
                    for &p in &cell.guest_book {
                        push(hb, phil(p));
                    }
                }
            }
        }
        words
    }

    /// Overwrites this snapshot's forks and private states with the state
    /// `words` encodes — one encoding written by [`encode`](Self::encode)
    /// — reusing its allocations.  The step counter is not encoded and
    /// stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's fork or philosopher count differs from the
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

/// The exact, bit-packed encoding of the [`EngineState`]s of one system:
/// one topology (`n` philosophers, `k` forks) and one program.
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
/// The encoding is exact: [`EngineState::decode_from`] inverts it, so two
/// states share an encoding exactly when their forks and private states
/// are equal.  A value that does not fit its field panics; it is never
/// truncated.
pub struct StateCodec<P: Program> {
    holder_bits: u32,
    nr_bits: u32,
    code_bits: u32,
    num_forks: usize,
    num_philosophers: usize,
    /// The program's private states; a state's code is its index.
    table: Vec<P::State>,
}

impl<P: Program> StateCodec<P> {
    /// The codec of `program`'s states on `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the program lists no private state.
    #[must_use]
    pub fn new(topology: &Topology, program: &P) -> Self {
        let table = program.private_states();
        assert!(
            !table.is_empty(),
            "program {} lists no private state",
            program.name()
        );
        let (n, k) = (topology.num_philosophers(), topology.num_forks());
        StateCodec {
            holder_bits: bits_for(n),
            nr_bits: bits_for(k),
            code_bits: bits_for(table.len() - 1),
            num_forks: k,
            num_philosophers: n,
            table,
        }
    }

    fn check_counts(&self, state: &EngineState<P>) {
        assert_eq!(
            state.forks.len(),
            self.num_forks,
            "snapshot has a different fork count than the codec"
        );
        assert_eq!(
            state.states.len(),
            self.num_philosophers,
            "snapshot has a different philosopher count than the codec"
        );
    }

    /// The bits of the fixed-width part: the fork fields, then the codes.
    fn fixed_bits(&self) -> usize {
        self.num_forks * (self.holder_bits + self.nr_bits) as usize
            + self.num_philosophers * self.code_bits as usize
    }

    /// The bits of the tail of a state with these forks (`0`: no tail).
    fn tail_bits(&self, forks: &[ForkCell]) -> usize {
        let listed: usize = forks
            .iter()
            .map(|c| c.requests.len() + c.guest_book.len())
            .sum();
        if listed == 0 {
            return 0;
        }
        1 + (2 * forks.len() + listed) * self.holder_bits as usize
    }

    fn code_of(&self, state: &P::State) -> u64 {
        self.table
            .iter()
            .position(|listed| listed == state)
            .unwrap_or_else(|| {
                panic!("private state {state:?} is not in the program's private_states()")
            }) as u64
    }
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

/// ORs the `width`-bit `value` into `words` at bit offset `at`.
fn put(words: &mut [u64], at: usize, width: u32, value: u64) {
    debug_assert!(fits(value, width), "{value} overflows {width} bits");
    if width == 0 {
        return;
    }
    let (word, bit) = (at / 64, (at % 64) as u32);
    words[word] |= value << bit;
    if bit + width > 64 {
        words[word + 1] |= value >> (64 - bit);
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
    if width < 64 {
        value & ((1 << width) - 1)
    } else {
        value
    }
}
