//! # gdp-picalc
//!
//! Mixed guarded choice for a miniature π-calculus-like process language,
//! resolved with the generalized dining philosophers machinery.
//!
//! The paper's motivation (Sections 1 and 6) is a fully distributed,
//! *compositional* implementation of the π-calculus: the hard part is the
//! **mixed guarded choice** `x!v.P + y?z.Q + …`, where a process offers
//! several input and output alternatives and exactly one of them must be
//! selected, consistently with the partner it synchronizes with.  Resolving
//! which pairs of processes commit to which synchronization is a distributed
//! conflict-resolution problem with exactly the shape of the generalized
//! dining philosophers: committing one synchronization must atomically claim
//! **two** resources (the two participants' choice states), a resource can
//! be contended by arbitrarily many potential synchronizations, and the
//! conflict graph is arbitrary — not a ring.
//!
//! This crate provides the translation:
//!
//! * each **process** (one mixed-choice state) becomes a *fork*;
//! * each **potential synchronization** — a complementary send/receive pair
//!   of guards on the same channel offered by two different processes —
//!   becomes a *philosopher* connecting the two processes' forks;
//! * a [`ChoiceRound`] builds that conflict topology and commits a
//!   conflict-free set of synchronizations by running one thread per
//!   potential synchronization on top of the GDP2-based
//!   [`gdp_runtime::DiningTable`], so the selection is
//!   symmetric, fully distributed, deadlock-free and non-starving — the
//!   guarantees Theorems 3 and 4 provide.
//!
//! ```
//! use gdp_picalc::{ChannelId, ChoiceRound, Guard, ProcessId};
//!
//! // Two clients both want to talk to a server that offers a mixed choice.
//! let mut round = ChoiceRound::new();
//! let server = round.add_process(vec![Guard::recv(ChannelId::new(0)), Guard::send(ChannelId::new(1), 99)]);
//! let client_a = round.add_process(vec![Guard::send(ChannelId::new(0), 7)]);
//! let client_b = round.add_process(vec![Guard::recv(ChannelId::new(1))]);
//! let outcome = round.resolve();
//! // The server synchronizes with exactly one of the clients.
//! assert_eq!(outcome.committed_partner(server).is_some(), true);
//! let partners = [client_a, client_b]
//!     .iter()
//!     .filter(|&&c| outcome.committed_partner(c).is_some())
//!     .count();
//! assert_eq!(partners, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gdp_algorithms::AlgorithmKind;
use gdp_runtime::DiningTable;
use gdp_topology::{ForkId, PhilosopherId, Topology};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Identifier of a process (one mixed-choice state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// Identifier of a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates a channel identifier.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ChannelId(index)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

/// One alternative of a mixed guarded choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Offer to send `value` on the channel.
    Send {
        /// The channel.
        channel: ChannelId,
        /// The value to transmit.
        value: u64,
    },
    /// Offer to receive on the channel.
    Recv {
        /// The channel.
        channel: ChannelId,
    },
}

impl Guard {
    /// Convenience constructor for a send guard.
    #[must_use]
    pub const fn send(channel: ChannelId, value: u64) -> Self {
        Guard::Send { channel, value }
    }

    /// Convenience constructor for a receive guard.
    #[must_use]
    pub const fn recv(channel: ChannelId) -> Self {
        Guard::Recv { channel }
    }

    /// The channel this guard refers to.
    #[must_use]
    pub const fn channel(&self) -> ChannelId {
        match *self {
            Guard::Send { channel, .. } | Guard::Recv { channel } => channel,
        }
    }
}

/// A committed synchronization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Synchronization {
    /// The sending process.
    pub sender: ProcessId,
    /// The receiving process.
    pub receiver: ProcessId,
    /// The channel used.
    pub channel: ChannelId,
    /// The value transmitted.
    pub value: u64,
}

/// The result of resolving one round of mixed choices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    committed: Vec<Synchronization>,
    num_processes: usize,
}

impl RoundOutcome {
    /// All committed synchronizations, in no particular order.
    #[must_use]
    pub fn synchronizations(&self) -> &[Synchronization] {
        &self.committed
    }

    /// The synchronization `process` took part in, if any.
    #[must_use]
    pub fn committed_partner(&self, process: ProcessId) -> Option<Synchronization> {
        self.committed
            .iter()
            .copied()
            .find(|s| s.sender == process || s.receiver == process)
    }

    /// Returns `true` if no further synchronization could have been added —
    /// every uncommitted potential pair has at least one committed endpoint.
    /// This is the "maximality" sanity check used in tests.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        let mut used = vec![false; self.num_processes];
        for s in &self.committed {
            if used[s.sender.index()] || used[s.receiver.index()] || s.sender == s.receiver {
                return false;
            }
            used[s.sender.index()] = true;
            used[s.receiver.index()] = true;
        }
        true
    }
}

/// A single round of mixed guarded choices awaiting resolution.
#[derive(Clone, Debug, Default)]
pub struct ChoiceRound {
    processes: Vec<Vec<Guard>>,
}

impl ChoiceRound {
    /// Creates an empty round.
    #[must_use]
    pub fn new() -> Self {
        ChoiceRound::default()
    }

    /// Adds a process offering the given alternatives and returns its id.
    pub fn add_process(&mut self, guards: Vec<Guard>) -> ProcessId {
        let id = ProcessId::new(self.processes.len() as u32);
        self.processes.push(guards);
        id
    }

    /// Number of processes in the round.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// All potential synchronizations: complementary guard pairs on the same
    /// channel offered by two distinct processes.
    #[must_use]
    pub fn potential_synchronizations(&self) -> Vec<Synchronization> {
        let mut result = Vec::new();
        for (i, guards_i) in self.processes.iter().enumerate() {
            for (j, guards_j) in self.processes.iter().enumerate() {
                if i == j {
                    continue;
                }
                for gi in guards_i {
                    for gj in guards_j {
                        if let (Guard::Send { channel, value }, Guard::Recv { channel: cr }) =
                            (*gi, *gj)
                        {
                            if channel == cr {
                                result.push(Synchronization {
                                    sender: ProcessId::new(i as u32),
                                    receiver: ProcessId::new(j as u32),
                                    channel,
                                    value,
                                });
                            }
                        }
                    }
                }
            }
        }
        result
    }

    /// The conflict topology of this round: one fork per process, one
    /// philosopher per potential synchronization.  Returns `None` when there
    /// are no potential synchronizations (nothing to resolve) or fewer than
    /// two processes.
    #[must_use]
    pub fn conflict_topology(&self) -> Option<(Topology, Vec<Synchronization>)> {
        let candidates = self.potential_synchronizations();
        if candidates.is_empty() || self.processes.len() < 2 {
            return None;
        }
        let arcs = candidates
            .iter()
            .map(|s| (s.sender.index() as u32, s.receiver.index() as u32));
        let topology = Topology::from_arcs(self.processes.len(), arcs)
            .expect("candidate synchronizations always connect two distinct processes");
        Some((topology, candidates))
    }

    /// Resolves the round: commits a conflict-free set of synchronizations
    /// (each process participates in at most one), chosen by running the
    /// GDP2 protocol with one thread per potential synchronization.
    ///
    /// Progress guarantee: if at least one potential synchronization exists,
    /// at least one is committed (Theorem 3); no process that has a willing,
    /// uncommitted partner is left waiting forever across repeated rounds
    /// (Theorem 4).
    #[must_use]
    pub fn resolve(&self) -> RoundOutcome {
        self.resolve_with(AlgorithmKind::Gdp2)
    }

    /// [`resolve`](Self::resolve) with an explicit conflict-resolution
    /// algorithm, through the runtime's algorithm-generic table API.
    ///
    /// Only algorithms that guarantee progress on arbitrary topologies make
    /// sense here — [`AlgorithmKind::Gdp2`] (the default: lockout-free, so
    /// repeated rounds also stay fair), [`AlgorithmKind::Gdp1`]
    /// (progress only) and [`AlgorithmKind::OrderedForks`] (deadlock-free
    /// but centralized-by-ordering, the baseline the paper argues against).
    /// Passing [`AlgorithmKind::Naive`] can genuinely hang the round.
    #[must_use]
    pub fn resolve_with(&self, algorithm: AlgorithmKind) -> RoundOutcome {
        let Some((topology, candidates)) = self.conflict_topology() else {
            return RoundOutcome {
                committed: Vec::new(),
                num_processes: self.processes.len(),
            };
        };
        let table = DiningTable::for_algorithm(topology, algorithm);
        let committed_flags: Arc<Vec<Mutex<bool>>> = Arc::new(
            (0..self.processes.len())
                .map(|_| Mutex::new(false))
                .collect(),
        );
        let results: Arc<Mutex<Vec<Synchronization>>> = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            for (idx, candidate) in candidates.iter().enumerate() {
                let mut seat = table.seat(PhilosopherId::new(idx as u32));
                let committed_flags = Arc::clone(&committed_flags);
                let results = Arc::clone(&results);
                let candidate = *candidate;
                scope.spawn(move || {
                    // Quick pre-check outside the critical section is only an
                    // optimization; the authoritative check happens while both
                    // forks (process states) are held.
                    seat.dine(|| {
                        let mut sender_state = committed_flags[candidate.sender.index()]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        let mut receiver_state = committed_flags[candidate.receiver.index()]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        if !*sender_state && !*receiver_state {
                            *sender_state = true;
                            *receiver_state = true;
                            results
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(candidate);
                        }
                    });
                });
            }
        });

        let committed = Arc::try_unwrap(results)
            .expect("all threads joined")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        RoundOutcome {
            committed,
            num_processes: self.processes.len(),
        }
    }
}

/// The forks of the conflict topology are the processes; expose the mapping
/// for diagnostics.
#[must_use]
pub fn process_fork(process: ProcessId) -> ForkId {
    ForkId::new(process.index() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(i: u32) -> ChannelId {
        ChannelId::new(i)
    }

    #[test]
    fn potential_synchronizations_pair_complementary_guards() {
        let mut round = ChoiceRound::new();
        let a = round.add_process(vec![Guard::send(chan(0), 1)]);
        let b = round.add_process(vec![Guard::recv(chan(0))]);
        let _lonely = round.add_process(vec![Guard::recv(chan(9))]);
        let candidates = round.potential_synchronizations();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].sender, a);
        assert_eq!(candidates[0].receiver, b);
        assert_eq!(candidates[0].value, 1);
    }

    #[test]
    fn a_process_never_commits_twice_in_a_round() {
        // One server with a mixed choice contended by four clients.
        let mut round = ChoiceRound::new();
        let server = round.add_process(vec![Guard::recv(chan(0)), Guard::send(chan(1), 42)]);
        for _ in 0..2 {
            round.add_process(vec![Guard::send(chan(0), 7)]);
        }
        for _ in 0..2 {
            round.add_process(vec![Guard::recv(chan(1))]);
        }
        let outcome = round.resolve();
        assert!(outcome.is_conflict_free());
        // The server commits exactly once (it is the bottleneck resource).
        assert!(outcome.committed_partner(server).is_some());
        assert_eq!(outcome.synchronizations().len(), 1);
    }

    #[test]
    fn progress_whenever_a_synchronization_exists() {
        for trial in 0..5 {
            let mut round = ChoiceRound::new();
            let _ = round.add_process(vec![Guard::send(chan(trial), trial as u64)]);
            let _ = round.add_process(vec![Guard::recv(chan(trial))]);
            let outcome = round.resolve();
            assert_eq!(outcome.synchronizations().len(), 1);
            assert_eq!(outcome.synchronizations()[0].value, trial as u64);
        }
    }

    #[test]
    fn disjoint_pairs_all_commit() {
        // Four processes forming two independent sender/receiver pairs: both
        // pairs must commit (no false conflicts).
        let mut round = ChoiceRound::new();
        let s1 = round.add_process(vec![Guard::send(chan(0), 10)]);
        let r1 = round.add_process(vec![Guard::recv(chan(0))]);
        let s2 = round.add_process(vec![Guard::send(chan(1), 20)]);
        let r2 = round.add_process(vec![Guard::recv(chan(1))]);
        let outcome = round.resolve();
        assert_eq!(outcome.synchronizations().len(), 2);
        assert!(outcome.is_conflict_free());
        assert_eq!(outcome.committed_partner(s1).unwrap().receiver, r1);
        assert_eq!(outcome.committed_partner(s2).unwrap().receiver, r2);
    }

    #[test]
    fn empty_and_degenerate_rounds_resolve_to_nothing() {
        let round = ChoiceRound::new();
        assert_eq!(round.resolve().synchronizations().len(), 0);
        let mut round = ChoiceRound::new();
        round.add_process(vec![Guard::send(chan(0), 1)]);
        round.add_process(vec![Guard::send(chan(0), 2)]);
        // Two senders, nobody to receive.
        assert!(round.conflict_topology().is_none());
        assert_eq!(round.resolve().synchronizations().len(), 0);
    }

    #[test]
    fn repeated_rounds_always_serve_the_server() {
        // Progress across rounds: three clients repeatedly compete for one
        // server; the server synchronizes in *every* round (the within-round
        // progress guarantee).  Which client wins a given round is decided by
        // the OS scheduling of the contending threads; fairness *across*
        // independent rounds is the caller's concern (e.g. by keeping the
        // clients' identities in the payload and rotating offers), since each
        // `ChoiceRound` is a fresh, memory-less conflict instance.
        for round_index in 0..20 {
            let mut round = ChoiceRound::new();
            let server = round.add_process(vec![Guard::recv(chan(0))]);
            let _clients: Vec<ProcessId> = (0..3)
                .map(|c| round.add_process(vec![Guard::send(chan(0), c as u64)]))
                .collect();
            let outcome = round.resolve();
            assert!(
                outcome.committed_partner(server).is_some(),
                "round {round_index}: the server must synchronize"
            );
            assert_eq!(outcome.synchronizations().len(), 1);
        }
    }

    #[test]
    fn a_round_value_can_be_resolved_repeatedly() {
        // `resolve` borrows the round immutably: one ChoiceRound value is a
        // reusable description of the choice instance, and every resolution
        // builds a fresh table — so repeated rounds (the π-calculus
        // execution model: resolve, rewrite, resolve again) need no
        // rebuilding of the guard lists.
        let mut round = ChoiceRound::new();
        let server = round.add_process(vec![Guard::recv(chan(0)), Guard::send(chan(1), 42)]);
        for c in 0..3 {
            round.add_process(vec![Guard::send(chan(0), c)]);
        }
        round.add_process(vec![Guard::recv(chan(1))]);
        for repeat in 0..5 {
            let outcome = round.resolve();
            assert!(outcome.is_conflict_free(), "repeat {repeat}");
            assert!(
                outcome.committed_partner(server).is_some(),
                "repeat {repeat}: the server must synchronize every round"
            );
        }
    }

    #[test]
    fn resolve_with_gdp1_and_ordered_forks_also_commit() {
        use gdp_algorithms::AlgorithmKind;
        for algorithm in [AlgorithmKind::Gdp1, AlgorithmKind::OrderedForks] {
            let mut round = ChoiceRound::new();
            let s = round.add_process(vec![Guard::send(chan(0), 5)]);
            let r = round.add_process(vec![Guard::recv(chan(0))]);
            let outcome = round.resolve_with(algorithm);
            assert_eq!(outcome.synchronizations().len(), 1, "{algorithm}");
            assert_eq!(outcome.committed_partner(s).unwrap().receiver, r);
        }
    }

    /// Seeded random rounds: every resolution must be conflict-free *and*
    /// maximal — after the round, no potential synchronization has both
    /// endpoints uncommitted (each candidate's critical section ran with
    /// both process states held, and would have committed had both still
    /// been free).
    #[test]
    fn random_rounds_commit_conflict_free_maximal_sets() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut round = ChoiceRound::new();
            let processes = rng.gen_range(3..8usize);
            let channels = rng.gen_range(1..4u32);
            for _ in 0..processes {
                let guards = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        let channel = chan(rng.gen_range(0..channels));
                        if rng.gen_bool(0.5) {
                            Guard::send(channel, rng.gen_range(0..100))
                        } else {
                            Guard::recv(channel)
                        }
                    })
                    .collect();
                round.add_process(guards);
            }
            let candidates = round.potential_synchronizations();
            let outcome = round.resolve();
            assert!(outcome.is_conflict_free(), "seed {seed}");
            // Committed synchronizations come from the candidate set.
            for s in outcome.synchronizations() {
                assert!(candidates.contains(s), "seed {seed}: alien commit {s:?}");
            }
            // Maximality: an uncommitted candidate must have a committed
            // endpoint.
            for c in &candidates {
                let sender_busy = outcome.committed_partner(c.sender).is_some();
                let receiver_busy = outcome.committed_partner(c.receiver).is_some();
                assert!(
                    sender_busy || receiver_busy,
                    "seed {seed}: candidate {c:?} was left on the table"
                );
            }
        }
    }

    /// Regression: a process offering only guards with no complementary
    /// partner must never commit — even when other processes around it do.
    #[test]
    fn a_process_with_no_complementary_partner_never_commits() {
        for seed in 0..4u64 {
            let mut round = ChoiceRound::new();
            // chan(7) is send-only in this round: no receiver exists.
            let lonely = round.add_process(vec![Guard::send(chan(7), seed)]);
            let s = round.add_process(vec![Guard::send(chan(0), 1)]);
            let r = round.add_process(vec![Guard::recv(chan(0))]);
            // A second would-be receiver on chan(7)... also sending: still
            // no complementary pair.
            let lonely2 = round.add_process(vec![Guard::send(chan(7), 9)]);
            let outcome = round.resolve();
            assert!(outcome.committed_partner(lonely).is_none(), "seed {seed}");
            assert!(outcome.committed_partner(lonely2).is_none(), "seed {seed}");
            assert_eq!(outcome.synchronizations().len(), 1);
            assert_eq!(outcome.committed_partner(s).unwrap().receiver, r);
        }
    }

    #[test]
    fn process_fork_mapping_is_the_identity_on_indices() {
        assert_eq!(process_fork(ProcessId::new(3)), ForkId::new(3));
        assert_eq!(ProcessId::new(5).to_string(), "proc5");
        assert_eq!(ChannelId::new(2).to_string(), "chan2");
        assert_eq!(Guard::recv(chan(4)).channel(), chan(4));
        assert_eq!(Guard::send(chan(4), 0).channel(), chan(4));
    }
}
