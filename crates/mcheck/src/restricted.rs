//! Adversary classes: the paper's all-fair default and the **restricted**
//! k-bounded and crash-stop classes, plus the scheduler bookkeeping
//! [`build_mdp`](crate::build_mdp) carries per state for the restricted
//! ones.
//!
//! The default class quantifies over *all* fair adversaries — the paper's
//! notion.  Two families of the adversary catalog (`gdp-adversary`) carve
//! out strictly different classes, and where those classes stay finite they
//! can be checked exactly on the **product** of the system automaton with
//! the scheduler's bookkeeping:
//!
//! * [`AdversaryClass::KBounded`] — only schedules in which no
//!   philosopher's scheduling gap ever grows past a bound are allowed.
//!   The product state carries one wait counter per philosopher; while
//!   every counter is below `k` the adversary chooses freely, and once a
//!   counter reaches `k` the longest-waiting philosophers are *forced*
//!   (so the realized gap is below `k + n`).  Every infinite play of the
//!   product is bounded-fair **by construction**, so the end-component
//!   analysis needs no fairness side condition at all
//!   ([`Mdp::fairness_requirement`](crate::Mdp::fairness_requirement) is
//!   the zero mask).  Restricting the adversary can only help the
//!   algorithm: worst-case probabilities under k-bounded fairness are ≥
//!   the unrestricted ones (test-enforced), and strict gaps — e.g. LR1's
//!   sure starvation on the 3-ring evaporating under small `k` — measure
//!   exactly how much scheduling freedom a negative result needs.
//! * [`AdversaryClass::CrashStop`] — the adversary gains, beyond
//!   scheduling, up to `max_crashes` **crash actions**: choice `n + p`
//!   permanently removes philosopher `p` (mid-protocol, wherever it
//!   stands, forks in hand).  The product state carries the crashed set;
//!   crashed philosophers' schedule-choices are disallowed, and fairness
//!   is required only of the *survivors* (the per-state requirement
//!   mask).  This class is *larger* than the paper's: worst-case
//!   probabilities can only drop, and the checker finds exactly when —
//!   e.g. GDP1's certified progress on the 3-ring is already defeated by
//!   a *single* well-timed crash (the adversary kills a fork holder and
//!   starves both survivors fairly), proving Theorem 3's guarantee relies
//!   on fairness to every philosopher, crashed ones included.
//!
//! A product build runs the same layered, parallel expansion as an
//! all-fair build: the bookkeeping rides along with each frontier state,
//! decides which of its rows are allowed, adds the crash rows, and its
//! exact words are appended to the state's dedup key.  Product builds are quotient-free —
//! the bookkeeping is not invariant under topology relabellings — and the
//! product multiplies the state count by the bookkeeping range, which is
//! why only *finite* classes are offered.

/// The adversary class a check quantifies over (`gdp check --adversary`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdversaryClass {
    /// All fair schedulers, the paper's class (`fair`, the default).
    Fair,
    /// Only k-bounded-fair schedules (`kbounded:<k>`): free scheduling
    /// while every philosopher's wait is below `k`; once a wait reaches
    /// `k`, the longest-waiting philosophers are forced.  Realized gaps
    /// stay below `k + n`.
    KBounded {
        /// The wait bound that triggers forcing (≥ 1).
        k: u32,
    },
    /// Fair scheduling of the survivors plus up to `max_crashes`
    /// crash-stop actions (`crash:<f>`): a crashed philosopher is never
    /// scheduled again and keeps whatever forks it holds forever.
    CrashStop {
        /// Maximum number of crash actions (capped at `n − 1`: somebody
        /// always survives).
        max_crashes: u32,
    },
}

impl AdversaryClass {
    /// Every class as `gdp list` prints it: spelling, then description.
    pub const CATALOG: [(&'static str, &'static str); 3] = [
        ("fair", "all fair schedulers (the paper's default)"),
        (
            "kbounded:<k>",
            "only k-bounded-fair schedulers (product MDP)",
        ),
        ("crash:<f>", "fair scheduling + up to f crash-stop faults"),
    ];

    /// The canonical spelling (`fair`, `kbounded:<k>`, `crash:<f>`) —
    /// stable, because it participates in check-store fingerprints.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            AdversaryClass::Fair => "fair".to_string(),
            AdversaryClass::KBounded { k } => format!("kbounded:{k}"),
            AdversaryClass::CrashStop { max_crashes } => format!("crash:{max_crashes}"),
        }
    }

    /// The most philosophers a product build of this class supports, or
    /// `None` for the unrestricted class.  A product state's allowed and
    /// required choices are 64-bit masks: k-bounded's full-schedule mask
    /// `(1 << n) - 1` needs `n < 64`, and crash-stop's `2n` choices (a
    /// schedule and a crash row per philosopher) need `n <= 32`.
    #[must_use]
    pub const fn max_philosophers(self) -> Option<usize> {
        match self {
            AdversaryClass::Fair => None,
            AdversaryClass::KBounded { .. } => Some(63),
            AdversaryClass::CrashStop { .. } => Some(32),
        }
    }

    /// The certificate's `adversaries:` line, or `None` for the paper's
    /// default class, which certificates leave implicit.
    #[must_use]
    pub fn describe(self) -> Option<String> {
        match self {
            AdversaryClass::Fair => None,
            AdversaryClass::KBounded { k } => Some(format!("k-bounded-fair schedulers (k={k})")),
            AdversaryClass::CrashStop { max_crashes } => Some(format!(
                "fair schedulers with up to {max_crashes} crash-stop fault(s)"
            )),
        }
    }
}

impl std::str::FromStr for AdversaryClass {
    type Err = String;

    /// Parses a spelling of [`AdversaryClass::name`], case-insensitively,
    /// plus the aliases `all-fair`/`all`, `kbounded-rr:<k>` and
    /// `crash-stop:<f>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if matches!(lower.as_str(), "fair" | "all-fair" | "all") {
            return Ok(AdversaryClass::Fair);
        }
        if let Some(k) = lower
            .strip_prefix("kbounded:")
            .or_else(|| lower.strip_prefix("kbounded-rr:"))
        {
            return match k.parse() {
                Ok(k) if k >= 1 => Ok(AdversaryClass::KBounded { k }),
                _ => Err(format!("invalid k in adversary class {s:?}")),
            };
        }
        if let Some(f) = lower
            .strip_prefix("crash:")
            .or_else(|| lower.strip_prefix("crash-stop:"))
        {
            return f
                .parse()
                .map(|max_crashes| AdversaryClass::CrashStop { max_crashes })
                .map_err(|_| format!("invalid crash count in adversary class {s:?}"));
        }
        Err(format!(
            "invalid adversary class {s:?}: expected fair, kbounded:<k> or crash:<f>"
        ))
    }
}

/// The scheduler bookkeeping a build carries per state.
///
/// The all-fair class carries none (`()`): its keys, rows and frontier are
/// exactly those of the plain system automaton.  A restricted class's
/// bookkeeping decides which choices a state offers and joins the state's
/// dedup key; `Bound` is the class parameter it is checked against.
pub(crate) trait Bookkeeping: Clone + Send + Sync {
    /// Whether states carry real bookkeeping (a product build).
    const PRODUCT: bool = true;
    /// Whether the adversary also has one crash choice per philosopher.
    const CRASH_ROWS: bool = false;
    /// The class parameter (`k`, the crash budget).
    type Bound: Copy + Send + Sync;

    /// The bookkeeping of the initial state of `n` philosophers.
    fn initial(n: usize) -> Self;
    /// The schedule choices allowed here, bit `p` for philosopher `p`.
    fn allowed(&self, bound: Self::Bound, n: usize) -> u64;
    /// The bookkeeping after philosopher `p` is scheduled.
    fn scheduled(&self, p: usize) -> Self;
    /// The bookkeeping after `victim` crashes, if that crash is allowed.
    fn crashed(&self, _bound: Self::Bound, _victim: usize, _n: usize) -> Option<Self> {
        None
    }
    /// The choices a fair adversary must keep taking while confined to an
    /// end component through this non-target state, given its `allowed`
    /// schedules.
    fn requirement(&self, allowed: u64) -> u64;
    /// Appends the bookkeeping's exact words to a state's dedup key.  Every
    /// value of one class takes the same number of words.
    fn push_words(&self, key: &mut Vec<u64>);
}

impl Bookkeeping for () {
    const PRODUCT: bool = false;
    type Bound = ();

    fn initial(_: usize) {}

    fn allowed(&self, (): (), _: usize) -> u64 {
        u64::MAX
    }

    fn scheduled(&self, _: usize) {}

    fn requirement(&self, allowed: u64) -> u64 {
        allowed
    }

    fn push_words(&self, _: &mut Vec<u64>) {}
}

/// k-bounded fairness: the steps since each philosopher was last
/// scheduled.
#[derive(Clone)]
pub(crate) struct Waits(Box<[u32]>);

impl Bookkeeping for Waits {
    type Bound = u32;

    fn initial(n: usize) -> Self {
        Waits(vec![0; n].into_boxed_slice())
    }

    fn allowed(&self, k: u32, n: usize) -> u64 {
        let max = *self.0.iter().max().expect("at least one philosopher");
        if max < k {
            (1u64 << n) - 1
        } else {
            self.0
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w == max)
                .fold(0u64, |mask, (p, _)| mask | (1 << p))
        }
    }

    fn scheduled(&self, p: usize) -> Self {
        // The forcing rule keeps every counter below `k + n`, so the
        // product stays finite.
        Waits(
            self.0
                .iter()
                .enumerate()
                .map(|(q, &w)| if q == p { 0 } else { w + 1 })
                .collect(),
        )
    }

    fn requirement(&self, _: u64) -> u64 {
        // The wait counters force fairness structurally: every infinite
        // play of the product is bounded-fair, so no choice needs to recur
        // by fiat.
        0
    }

    fn push_words(&self, key: &mut Vec<u64>) {
        key.extend(self.0.iter().map(|&wait| u64::from(wait)));
    }
}

/// Crash-stop faults: the crashed set, bit `p` for philosopher `p`.
#[derive(Clone, Copy)]
pub(crate) struct Crashed(u64);

impl Bookkeeping for Crashed {
    const CRASH_ROWS: bool = true;
    type Bound = u32;

    fn initial(_: usize) -> Self {
        Crashed(0)
    }

    fn allowed(&self, _: u32, n: usize) -> u64 {
        ((1u64 << n) - 1) & !self.0
    }

    fn scheduled(&self, _: usize) -> Self {
        *self
    }

    fn crashed(&self, max_crashes: u32, victim: usize, n: usize) -> Option<Self> {
        let used = self.0.count_ones();
        let alive = self.0 & (1 << victim) == 0;
        // Somebody always survives.
        (alive && used < max_crashes && (used as usize) + 1 < n)
            .then_some(Crashed(self.0 | (1 << victim)))
    }

    fn requirement(&self, allowed: u64) -> u64 {
        // Only survivors must keep being scheduled.
        allowed
    }

    fn push_words(&self, key: &mut Vec<u64>) {
        key.push(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_mdp, BuildOptions, CheckTarget, Mdp};
    use crate::solve::{solve, SolveOptions};
    use gdp_algorithms::baselines::NaiveLeftRight;
    use gdp_algorithms::{Gdp1, Lr1};
    use gdp_sim::Program;
    use gdp_topology::builders::classic_ring;
    use gdp_topology::PhilosopherId;

    fn ring3<P: Program + Clone + Send + Sync>(
        program: &P,
        target: CheckTarget,
        class: AdversaryClass,
        max_states: usize,
    ) -> Mdp
    where
        P::State: Send + Sync,
    {
        let options = BuildOptions::default()
            .with_max_states(max_states)
            .with_class(class);
        build_mdp(&classic_ring(3).unwrap(), program, target, &options)
    }

    #[test]
    fn kbounded_product_is_finite_and_rows_are_stochastic() {
        let mdp = ring3(
            &Lr1::new(),
            CheckTarget::Progress,
            AdversaryClass::KBounded { k: 2 },
            400_000,
        );
        assert!(!mdp.truncated);
        assert!(mdp.num_states > 10);
        assert_eq!(mdp.safety_violations, 0);
        assert!(mdp.fairness_requirement.is_some());
        for s in 0..mdp.num_states as u32 {
            if !mdp.expanded[s as usize] {
                continue;
            }
            let mut any_choice = false;
            for c in 0..mdp.num_choices {
                let total: f64 = mdp.outcomes(s, c).map(|(_, p)| p).sum();
                if total > 0.0 {
                    any_choice = true;
                    assert!((total - 1.0).abs() < 1e-12, "state {s} choice {c}");
                }
            }
            assert!(any_choice, "state {s} must keep an allowed choice");
        }
    }

    #[test]
    fn restricting_the_adversary_never_hurts_a_certified_property() {
        // GDP1 progress on the 3-ring is certified 1 over *all* fair
        // adversaries; over the k-bounded subclass it must stay 1.
        for k in [1u32, 3] {
            let mdp = ring3(
                &Gdp1::new(),
                CheckTarget::Progress,
                AdversaryClass::KBounded { k },
                2_000_000,
            );
            assert!(!mdp.truncated, "k={k}");
            let solution = solve(&mdp, &SolveOptions::default());
            assert!(solution.holds_with_probability_one(), "k={k}: {solution:?}");
        }
    }

    #[test]
    fn tight_bounds_defeat_lr1_starvation_on_the_three_ring() {
        // Over all fair adversaries a chosen LR1 philosopher starves surely
        // (probability 0 of eating).  Under 1-bounded fairness the
        // adversary degenerates to round-robin-like forced rotations and
        // loses: the worst-case probability climbs strictly above 0.
        let target = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        let tight = ring3(
            &Lr1::new(),
            target,
            AdversaryClass::KBounded { k: 1 },
            2_000_000,
        );
        assert!(!tight.truncated);
        let tight_solution = solve(&tight, &SolveOptions::default());
        assert!(
            tight_solution.probability > 0.0,
            "1-bounded fairness must break the sure-starvation strategy: {tight_solution:?}"
        );

        // With generous k the starvation strategy fits inside the class
        // again: the probability drops back to exactly 0.
        let loose = ring3(
            &Lr1::new(),
            target,
            AdversaryClass::KBounded { k: 6 },
            4_000_000,
        );
        assert!(!loose.truncated);
        let loose_solution = solve(&loose, &SolveOptions::default());
        assert!(
            loose_solution.probability < tight_solution.probability,
            "more scheduling freedom can only help the adversary: {} vs {}",
            loose_solution.probability,
            tight_solution.probability
        );
    }

    #[test]
    fn a_single_crash_defeats_gdp1_progress_on_the_three_ring() {
        // With a zero crash budget the product degenerates to the
        // unrestricted model: GDP1 progress on the 3-ring stays certified 1
        // (Theorem 3 on a witness topology).
        let zero = ring3(
            &Gdp1::new(),
            CheckTarget::Progress,
            AdversaryClass::CrashStop { max_crashes: 0 },
            2_000_000,
        );
        assert!(!zero.truncated);
        let no_crash = solve(&zero, &SolveOptions::default());
        assert!(
            no_crash.holds_with_probability_one(),
            "crash:0 must reproduce the unrestricted certification: {no_crash:?}"
        );

        // One crash already breaks it — a result the Monte-Carlo layer
        // cannot see sharply: the adversary crashes a philosopher while it
        // holds a fork, the neighbour that shares that fork cycles
        // take/fail/release forever, and the third philosopher is scheduled
        // only while its first fork is transiently held, busy-waiting.
        // Every survivor is scheduled infinitely often, nobody ever eats:
        // Theorem 3's progress guarantee genuinely relies on fairness *to
        // the crashed philosopher*.
        let one = ring3(
            &Gdp1::new(),
            CheckTarget::Progress,
            AdversaryClass::CrashStop { max_crashes: 1 },
            2_000_000,
        );
        assert!(!one.truncated);
        let one_crash = solve(&one, &SolveOptions::default());
        assert_eq!(
            one_crash.probability, 0.0,
            "one well-timed crash starves the survivors surely: {one_crash:?}"
        );
        assert!(one_crash.certified);
        assert!(one_crash.fair_core_states > 0);
    }

    #[test]
    fn crash_stop_refutes_individual_liveness_trivially() {
        // Against `philosopher 0 eats`, the adversary just crashes P0
        // before it ever eats: worst-case probability exactly 0.
        let mdp = ring3(
            &Gdp1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
            AdversaryClass::CrashStop { max_crashes: 1 },
            2_000_000,
        );
        assert!(!mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        assert_eq!(solution.probability, 0.0, "{solution:?}");
        assert!(solution.certified);
    }

    #[test]
    fn naive_deadlock_survives_the_kbounded_restriction() {
        // The all-hold-left deadlock needs no adversarial patience at all:
        // it is reachable under 1-bounded fairness too.
        let mdp = ring3(
            &NaiveLeftRight::new(),
            CheckTarget::Progress,
            AdversaryClass::KBounded { k: 1 },
            1_000_000,
        );
        assert!(!mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        // In the product the deadlocked engine state cycles through its
        // wait-counter tags instead of self-looping, so it shows up as a
        // (trivially fair) avoid core rather than in `deadlock_states`.
        assert!(solution.fair_core_states > 0);
        assert!(!solution.holds_with_probability_one());
        assert_eq!(solution.probability, 0.0, "{solution:?}");
    }

    #[test]
    fn restricted_builds_are_deterministic() {
        let build = || {
            ring3(
                &Lr1::new(),
                CheckTarget::Progress,
                AdversaryClass::CrashStop { max_crashes: 1 },
                500_000,
            )
        };
        let a = build();
        let b = build();
        assert_eq!(a.num_states, b.num_states);
        assert_eq!(a.target, b.target);
        assert_eq!(a.fairness_requirement, b.fairness_requirement);
        assert_eq!(a.num_transitions(), b.num_transitions());
        for s in 0..a.num_states as u32 {
            for c in 0..a.num_choices {
                assert!(a.outcomes(s, c).eq(b.outcomes(s, c)));
            }
        }
    }

    #[test]
    fn truncation_is_reported() {
        let mdp = ring3(
            &Lr1::new(),
            CheckTarget::Progress,
            AdversaryClass::KBounded { k: 3 },
            50,
        );
        assert!(mdp.truncated);
        assert_eq!(mdp.num_states, 50);
        // Unlike all-fair builds, a product build still expands every
        // state it discovered.
        assert!(mdp
            .expanded
            .iter()
            .zip(&mdp.target)
            .all(|(&expanded, &target)| expanded != target));
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(!solution.holds_with_probability_one());
        assert!(!solution.certified);
    }
}
