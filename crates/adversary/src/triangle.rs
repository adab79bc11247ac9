//! The Section 3 scheduler: the paper's winning strategy against LR1 (and
//! LR2) on the 6-philosopher / 3-fork system, implemented as a faithful,
//! adaptive script.
//!
//! The system is the leftmost one of Figure 1
//! ([`figure1_triangle`](gdp_topology::builders::figure1_triangle)): three
//! forks, every pair of forks contended by two parallel philosophers.  The
//! paper exhibits a scheduler that cycles the system through States 1–6 in
//! which nobody ever eats, and shows the resulting (fair) no-progress
//! computation has probability at least 1/4.
//!
//! [`TriangleWaveAdversary`] reproduces that strategy:
//!
//! * **Bootstrap** (the probabilistic part, the paper's "State 1 is
//!   reachable from the initial state with a non-null probability"): let
//!   every philosopher become hungry and draw once, then look for a
//!   *rotational* commitment pattern — one philosopher per fork pair
//!   committed so that the three commitments form a directed cycle over the
//!   forks.  If the random draws produce such a pattern (this happens in
//!   well over half of the trials, comfortably above the paper's 1/4 lower
//!   bound), the holder-designate takes its fork and the wave starts.
//!   Otherwise the adversary concedes the trial and falls back to a fair
//!   round-robin.
//! * **Rounds** (the deterministic-up-to-coin-flips part, the paper's
//!   States 1–6): each round performs nine sub-goals — three *stubborn
//!   drivings* ("keep selecting P4 until he commits to the fork taken by
//!   P3"), three first-fork takes and three releases — after which the role
//!   assignment rotates and the round repeats forever.  Every driving uses a
//!   *held* fork as its target and a *free* fork as its retry vehicle, so it
//!   succeeds with probability 1; every take targets a free fork whose
//!   holder-to-be will then point at a held fork; every release happens only
//!   after the released fork has a parked backup.  Consequently **no
//!   philosopher ever eats** once the wave is running, and every philosopher
//!   is scheduled several times per round, so the schedule is fair (each
//!   round is finite with probability 1; the realized bounded-fairness bound
//!   is reported by the engine).
//!
//! Against GDP1/GDP2 the same adversary is harmless: the drivings rely on
//! the *random* first-fork choice of LR1/LR2, while GDP philosophers choose
//! deterministically by fork priority, so the script's sub-goals stop
//! completing, the per-round stubbornness budget runs out, and the adversary
//! degrades to a fair round-robin under which GDP makes progress immediately
//! (Theorem 3/4).  Experiment E2 measures exactly this contrast.

use gdp_sim::{Adversary, Phase, SystemView};
use gdp_topology::{ForkId, PhilosopherId, Topology};
use std::collections::BTreeMap;

/// Role assignment for one round of the wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Roles {
    /// The fork held throughout the round (the paper's fork held by P3).
    g: ForkId,
    /// The free fork that `next_a` is committed to.
    a: ForkId,
    /// The free fork that `next_b` is committed to (the holder's other fork).
    b: ForkId,
    /// Holds `g` at round start; releases it mid-round.
    holder: PhilosopherId,
    /// Committed to `a`; takes it, later releases it.
    next_a: PhilosopherId,
    /// Committed to `b`; takes it, later releases it.
    next_b: PhilosopherId,
    /// Partner of `next_a` (edge a–g); driven onto `g`, takes over `g`.
    sp_a: PhilosopherId,
    /// Partner of `next_b` (edge a–b); driven onto `a`.
    sp_b: PhilosopherId,
    /// Partner of `holder` (edge b–g); driven onto `b`.
    sp_h: PhilosopherId,
}

/// The nine sub-goals of one round, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Goal {
    /// Stubbornly drive `sp_a` until it is committed to `g`.
    DriveSpAOntoG,
    /// `next_a` takes `a`.
    TakeA,
    /// Stubbornly drive `sp_b` until it is committed to `a`.
    DriveSpBOntoA,
    /// `next_b` takes `b`.
    TakeB,
    /// `holder` releases `g` (its pending fork `b` is held, so it must).
    ReleaseG,
    /// Stubbornly drive `sp_h` until it is committed to `b`.
    DriveSpHOntoB,
    /// `next_b` releases `b`.
    ReleaseB,
    /// `sp_a` takes `g` (it has been parked on it since the first goal).
    TakeG,
    /// `next_a` releases `a`; the roles then rotate.
    ReleaseA,
}

const GOALS: [Goal; 9] = [
    Goal::DriveSpAOntoG,
    Goal::TakeA,
    Goal::DriveSpBOntoA,
    Goal::TakeB,
    Goal::ReleaseG,
    Goal::DriveSpHOntoB,
    Goal::ReleaseB,
    Goal::TakeG,
    Goal::ReleaseA,
];

#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// Scheduling philosophers until everyone is hungry and committed.
    Bootstrap,
    /// Roles assigned; scheduling the holder until it has taken fork `g`.
    BootstrapTake,
    /// Running the wave; `goal` indexes into [`GOALS`].
    Wave { goal: usize },
    /// The script gave up (bootstrap failed, a sub-goal exceeded its budget,
    /// or somebody ate); schedule round-robin from now on.
    Conceded,
}

/// The Section 3 adversary for the 6-philosopher / 3-fork system.
#[derive(Clone, Debug)]
pub struct TriangleWaveAdversary {
    mode: Mode,
    roles: Option<Roles>,
    /// Pairs of philosophers per unordered fork pair.
    edges: BTreeMap<(ForkId, ForkId), Vec<PhilosopherId>>,
    /// Attempts spent on the current sub-goal.
    attempts: u64,
    /// Per-goal attempt budget for the current round (the paper's `n_k`).
    budget: u64,
    /// Completed rounds.
    rounds: u64,
    /// Round-robin cursor for bootstrap and concession.
    cursor: usize,
    /// Set once the adversary has conceded the trial.
    conceded: bool,
}

impl TriangleWaveAdversary {
    /// Initial per-goal stubbornness budget; it grows by 50% per completed
    /// round, mirroring the paper's increasing `n_k`.
    const INITIAL_BUDGET: u64 = 64;

    /// Creates the adversary for `topology`, which must be the doubled
    /// triangle: 3 forks, 6 philosophers, each pair of forks shared by
    /// exactly two philosophers.
    ///
    /// # Errors
    ///
    /// Returns an error message if the topology does not have that shape.
    pub fn new(topology: &Topology) -> Result<Self, String> {
        if topology.num_forks() != 3 || topology.num_philosophers() != 6 {
            return Err(format!(
                "the Section 3 scheduler needs 3 forks and 6 philosophers, got {} and {}",
                topology.num_forks(),
                topology.num_philosophers()
            ));
        }
        let mut edges: BTreeMap<(ForkId, ForkId), Vec<PhilosopherId>> = BTreeMap::new();
        for p in topology.philosopher_ids() {
            let ends = topology.forks_of(p);
            let key = if ends.left < ends.right {
                (ends.left, ends.right)
            } else {
                (ends.right, ends.left)
            };
            edges.entry(key).or_default().push(p);
        }
        if edges.len() != 3 || edges.values().any(|v| v.len() != 2) {
            return Err(
                "the Section 3 scheduler needs every pair of forks to be shared by exactly \
                 two philosophers"
                    .to_string(),
            );
        }
        Ok(TriangleWaveAdversary {
            mode: Mode::Bootstrap,
            roles: None,
            edges,
            attempts: 0,
            budget: Self::INITIAL_BUDGET,
            rounds: 0,
            cursor: 0,
            conceded: false,
        })
    }

    /// Returns `true` if the adversary has given up on blocking this run
    /// (failed bootstrap, exhausted sub-goal budget, or somebody ate).
    #[must_use]
    pub fn conceded(&self) -> bool {
        self.conceded
    }

    /// Number of completed wave rounds.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    fn phils_of_edge(&self, x: ForkId, y: ForkId) -> &[PhilosopherId] {
        let key = if x < y { (x, y) } else { (y, x) };
        &self.edges[&key]
    }

    fn round_robin(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let n = view.num_philosophers();
        let p = PhilosopherId::new((self.cursor % n) as u32);
        self.cursor = (self.cursor + 1) % n;
        p
    }

    fn concede(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        self.conceded = true;
        self.mode = Mode::Conceded;
        self.round_robin(view)
    }

    /// Tries to assign roles from the current commitments: we need, for some
    /// orientation of the three forks (x → y → z → x), a philosopher on the
    /// x–y edge committed to x, one on the y–z edge committed to y and one on
    /// the z–x edge committed to z.
    fn assign_roles(&self, view: &SystemView<'_>) -> Option<Roles> {
        let forks: Vec<ForkId> = view.topology().fork_ids().collect();
        let orientations = [
            [forks[0], forks[1], forks[2]],
            [forks[0], forks[2], forks[1]],
        ];
        for [x, y, z] in orientations {
            let committed_to = |fork: ForkId, other: ForkId| -> Option<PhilosopherId> {
                self.phils_of_edge(fork, other).iter().copied().find(|&p| {
                    let pv = view.philosopher(p);
                    pv.holding.is_empty() && pv.committed == Some(fork)
                })
            };
            // Interpret the cycle x→y→z→x as: holder committed to g = x with
            // other fork b = y; next_b committed to b = y with other fork
            // a = z; next_a committed to a = z with other fork g = x.
            let (g, b, a) = (x, y, z);
            let (Some(holder), Some(next_b), Some(next_a)) =
                (committed_to(g, b), committed_to(b, a), committed_to(a, g))
            else {
                continue;
            };
            let sp_h = self.other_on_edge(holder, g, b);
            let sp_b = self.other_on_edge(next_b, b, a);
            let sp_a = self.other_on_edge(next_a, a, g);
            return Some(Roles {
                g,
                a,
                b,
                holder,
                next_a,
                next_b,
                sp_a,
                sp_b,
                sp_h,
            });
        }
        None
    }

    fn other_on_edge(&self, phil: PhilosopherId, x: ForkId, y: ForkId) -> PhilosopherId {
        let pair = self.phils_of_edge(x, y);
        if pair[0] == phil {
            pair[1]
        } else {
            pair[0]
        }
    }

    fn bootstrap_step(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        // Phase 1: get everyone hungry and committed (each philosopher needs
        // a couple of schedulings: become hungry, possibly register (LR2),
        // then draw).
        if let Some(p) = view
            .philosophers()
            .iter()
            .find(|p| p.phase != Phase::Eating && p.holding.is_empty() && p.committed.is_none())
        {
            self.attempts += 1;
            if self.attempts > 8 * view.num_philosophers() as u64 {
                return self.concede(view);
            }
            return p.id;
        }
        // Phase 2: everyone is committed; look for the rotational pattern.
        match self.assign_roles(view) {
            Some(roles) => {
                self.roles = Some(roles);
                self.attempts = 0;
                self.mode = Mode::BootstrapTake;
                self.bootstrap_take_step(view)
            }
            None => self.concede(view),
        }
    }

    fn bootstrap_take_step(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        let roles = self.roles.expect("bootstrap take implies roles");
        // The holder takes g first (it is committed to g and g is free);
        // once we observe it holding g the wave starts.
        if view.holder_of(roles.g) == Some(roles.holder) {
            self.attempts = 0;
            self.mode = Mode::Wave { goal: 0 };
            return self.wave_step(view);
        }
        self.attempts += 1;
        if self.attempts > 8 {
            return self.concede(view);
        }
        roles.holder
    }

    /// Whether the current sub-goal's postcondition already holds.
    fn goal_done(&self, goal: Goal, roles: &Roles, view: &SystemView<'_>) -> bool {
        let parked_on = |phil: PhilosopherId, fork: ForkId| {
            let pv = view.philosopher(phil);
            pv.holding.is_empty() && pv.committed == Some(fork)
        };
        let holds = |phil: PhilosopherId, fork: ForkId| view.holder_of(fork) == Some(phil);
        let empty_handed = |phil: PhilosopherId| view.philosopher(phil).holding.is_empty();
        match goal {
            Goal::DriveSpAOntoG => parked_on(roles.sp_a, roles.g),
            Goal::TakeA => holds(roles.next_a, roles.a),
            Goal::DriveSpBOntoA => parked_on(roles.sp_b, roles.a),
            Goal::TakeB => holds(roles.next_b, roles.b),
            Goal::ReleaseG => !holds(roles.holder, roles.g),
            Goal::DriveSpHOntoB => parked_on(roles.sp_h, roles.b),
            Goal::ReleaseB => empty_handed(roles.next_b),
            Goal::TakeG => holds(roles.sp_a, roles.g),
            Goal::ReleaseA => empty_handed(roles.next_a),
        }
    }

    /// The philosopher to schedule in order to advance `goal`.
    fn goal_actor(goal: Goal, roles: &Roles) -> PhilosopherId {
        match goal {
            Goal::DriveSpAOntoG | Goal::TakeG => roles.sp_a,
            Goal::TakeA | Goal::ReleaseA => roles.next_a,
            Goal::DriveSpBOntoA => roles.sp_b,
            Goal::TakeB | Goal::ReleaseB => roles.next_b,
            Goal::ReleaseG => roles.holder,
            Goal::DriveSpHOntoB => roles.sp_h,
        }
    }

    fn rotate_roles(&mut self) {
        let roles = self.roles.expect("wave mode implies roles");
        self.roles = Some(Roles {
            g: roles.g,
            a: roles.b,
            b: roles.a,
            holder: roles.sp_a,
            next_a: roles.sp_h,
            next_b: roles.sp_b,
            sp_a: roles.holder,
            sp_h: roles.next_a,
            sp_b: roles.next_b,
        });
        self.rounds += 1;
        self.budget = (self.budget + self.budget / 2).min(1_000_000);
    }

    fn wave_step(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        // Somebody eating means the wave already failed; concede.
        if view.someone_eating() {
            return self.concede(view);
        }
        let Mode::Wave { mut goal } = self.mode else {
            return self.concede(view);
        };
        let roles = self.roles.expect("wave mode implies roles");
        // Advance over already-satisfied goals (several can complete from a
        // single scheduling, e.g. a driving that ends exactly when the next
        // goal's precondition is already true).
        let mut advanced = 0;
        while self.goal_done(GOALS[goal], &roles, view) {
            goal += 1;
            self.attempts = 0;
            advanced += 1;
            if goal == GOALS.len() {
                self.rotate_roles();
                self.mode = Mode::Wave { goal: 0 };
                return self.wave_step(view);
            }
            if advanced > GOALS.len() {
                break;
            }
        }
        self.mode = Mode::Wave { goal };
        self.attempts += 1;
        if self.attempts > self.budget {
            // The sub-goal refuses to complete (this is what happens against
            // GDP1/GDP2, whose first-fork choice cannot be steered): concede.
            return self.concede(view);
        }
        Self::goal_actor(GOALS[goal], &roles)
    }
}

impl Adversary for TriangleWaveAdversary {
    fn select(&mut self, view: &SystemView<'_>) -> PhilosopherId {
        match self.mode {
            Mode::Bootstrap => self.bootstrap_step(view),
            Mode::BootstrapTake => self.bootstrap_take_step(view),
            Mode::Wave { .. } => self.wave_step(view),
            Mode::Conceded => self.round_robin(view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_algorithms::{Gdp1, Gdp2, Lr1, Lr2};
    use gdp_sim::{Engine, Program, SimConfig, StopCondition};
    use gdp_topology::builders::{classic_ring, figure1_triangle};

    const WINDOW: u64 = 50_000;
    const TRIALS: u64 = 20;

    fn run_one<P: Program>(program: P, seed: u64) -> (bool, bool, u64) {
        let topology = figure1_triangle();
        let mut engine = Engine::new(
            topology.clone(),
            program,
            SimConfig::default().with_seed(seed),
        );
        let mut adversary = TriangleWaveAdversary::new(&topology).unwrap();
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
        (
            outcome.made_progress(),
            adversary.conceded(),
            adversary.rounds(),
        )
    }

    #[test]
    fn rejects_wrong_topologies() {
        assert!(TriangleWaveAdversary::new(&classic_ring(6).unwrap()).is_err());
        assert!(TriangleWaveAdversary::new(&classic_ring(3).unwrap()).is_err());
        assert!(TriangleWaveAdversary::new(&figure1_triangle()).is_ok());
    }

    #[test]
    fn blocks_lr1_forever_in_most_trials() {
        // The paper's bound: the no-progress computation has probability at
        // least 1/4.  Our adaptive bootstrap does considerably better; we
        // assert the paper-level bound with margin and also check that the
        // successful trials really are the non-conceded ones.
        let mut blocked = 0u64;
        for seed in 0..TRIALS {
            let (progressed, conceded, rounds) = run_one(Lr1::new(), seed);
            if !progressed {
                blocked += 1;
                assert!(!conceded, "a blocked run should not have conceded");
                assert!(
                    rounds > 100,
                    "the wave should cycle many times (got {rounds})"
                );
            }
        }
        let fraction = blocked as f64 / TRIALS as f64;
        assert!(
            fraction >= 0.5,
            "LR1 blocked in only {fraction} of trials (paper lower bound: 1/4)"
        );
    }

    #[test]
    fn blocks_lr2_forever_in_most_trials() {
        // The triangle contains a theta subgraph, so this also witnesses
        // Theorem 2: the courteous LR2 fares no better (its guest books stay
        // empty because nobody ever eats).
        let mut blocked = 0u64;
        for seed in 0..TRIALS {
            let (progressed, _, _) = run_one(Lr2::new(), seed);
            if !progressed {
                blocked += 1;
            }
        }
        let fraction = blocked as f64 / TRIALS as f64;
        assert!(
            fraction >= 0.5,
            "LR2 blocked in only {fraction} of trials (paper lower bound: 1/4)"
        );
    }

    #[test]
    fn cannot_block_gdp1_or_gdp2() {
        // Theorems 3 and 4: under the very same adversary, the paper's
        // algorithms always make progress (the script cannot steer their
        // deterministic fork choice, concedes, and progress follows).
        for seed in 0..10u64 {
            let (progressed, _, _) = run_one(Gdp1::new(), seed);
            assert!(progressed, "GDP1 must make progress (seed {seed})");
            let (progressed, _, _) = run_one(Gdp2::new(), seed);
            assert!(progressed, "GDP2 must make progress (seed {seed})");
        }
    }

    #[test]
    fn blocked_runs_are_fair() {
        // Every philosopher keeps being scheduled while the wave runs.
        let topology = figure1_triangle();
        let mut engine = Engine::new(
            topology.clone(),
            Lr1::new(),
            SimConfig::default().with_seed(3),
        );
        let mut adversary = TriangleWaveAdversary::new(&topology).unwrap();
        let outcome = engine.run(&mut adversary, StopCondition::MaxSteps(WINDOW));
        if !outcome.made_progress() {
            let bound = outcome
                .fairness_bound
                .expect("every philosopher must have been scheduled");
            assert!(
                bound < 2_000,
                "realized fairness bound {bound} unexpectedly large for the wave"
            );
            let counts = &outcome.scheduled_per_philosopher;
            assert!(counts.iter().all(|&c| c > 100), "{counts:?}");
        }
    }
}
