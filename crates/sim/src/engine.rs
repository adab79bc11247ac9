//! The execution engine: adversary-driven interleaving of atomic steps.

use crate::adversary::Adversary;
use crate::config::SimConfig;
use crate::fork::ForkCell;
use crate::hash::fingerprint64;
use crate::outcome::{RunOutcome, StopCondition, StopReason};
use crate::program::{Action, Phase, Program, StepRandomness};
use crate::snapshot::EngineState;
use crate::view::{Holding, PhilosopherView, SystemView};
use gdp_observe::{Event, EventSink, Log2Histogram, SharedSink};
use gdp_topology::{ForkId, PhilosopherId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One scheduled atomic step, as returned by
/// [`Engine::step_philosopher`] and [`Engine::step_with`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepRecord {
    /// Global step index (0-based).
    pub step: u64,
    /// The philosopher that was scheduled.
    pub philosopher: PhilosopherId,
    /// The atomic action it performed.
    pub action: Action,
    /// Its phase after the step.
    pub phase_after: Phase,
}

/// Records one atomic step's trace events into `sink`, all at `clock`: the
/// one mapping from a step to the `gdp-observe` vocabulary, shared by the
/// simulator (clock = step index) and the threaded runtime (clock = the
/// seat's sequence number).
///
/// In order: a `Schedule` for `actor`; an `Acquire` for a successful
/// [`Action::TakeFirst`] or [`Action::TakeSecond`], a `Release` for
/// [`Action::Release`] or a `MealFinish` for [`Action::FinishEating`]; then a
/// `MealStart` when the step started a meal.  A meal has no action of its
/// own, so `started_meal` comes from the step's phase transition into
/// [`Phase::Eating`]; fork releases folded into `FinishEating` by an
/// algorithm's action vocabulary are not synthesized.
pub fn record_step_events(
    sink: &dyn EventSink,
    clock: u64,
    actor: PhilosopherId,
    action: Action,
    started_meal: bool,
) {
    let actor = actor.raw();
    sink.record(&Event::Schedule { clock, actor });
    match action {
        Action::TakeFirst {
            fork,
            success: true,
        }
        | Action::TakeSecond {
            fork,
            success: true,
        } => sink.record(&Event::Acquire {
            clock,
            actor,
            fork: fork.raw(),
        }),
        Action::Release { fork } => sink.record(&Event::Release {
            clock,
            actor,
            fork: fork.raw(),
        }),
        Action::FinishEating => sink.record(&Event::MealFinish { clock, actor }),
        _ => {}
    }
    if started_meal {
        sink.record(&Event::MealStart { clock, actor });
    }
}

/// A deterministic, seedable simulator of one generalized dining
/// philosophers system running one [`Program`] under one [`Adversary`].
///
/// The engine is a driver around one [`EngineState`] — the shared fork
/// state and every philosopher's private program state — which it steps
/// with the philosophers' sampled randomness.  Each call to
/// [`step_philosopher`](Engine::step_philosopher) executes one atomic step;
/// [`run`](Engine::run) drives a whole computation by repeatedly consulting
/// an adversary.
///
/// Determinism: two engines constructed with the same topology, program,
/// configuration (including seed) and driven by the same adversary take
/// identical steps.  The regression tests of `gdp-algorithms` rely on this.
///
/// Performance: the engine keeps one persistent [`PhilosopherView`] buffer
/// that is updated *incrementally* — an atomic step can only change the
/// stepped philosopher's observable state (its phase, commitment and held
/// forks, all derived from its own private state and its own two fork
/// cells), so after each step exactly one view is refreshed in place.  The
/// views also hold the run's per-philosopher counters (meals, schedulings,
/// hunger stamps).  The hot path `step_with` → `with_view` →
/// `step_philosopher` performs no heap allocation; see
/// `docs/PERFORMANCE.md`.
pub struct Engine<P: Program> {
    topology: Topology,
    program: P,
    state: EngineState<P>,
    rng: ChaCha8Rng,
    first_meal_started: Option<u64>,
    last_scheduled: Vec<Option<u64>>,
    max_scheduling_gap: u64,
    /// Step-denominated time-to-first-meal per philosopher (one sample per
    /// philosopher that ever eats).
    first_meal_hist: Log2Histogram,
    /// Optional structured-event sink (see `gdp-observe`).  `None` — the
    /// default — costs one branch per step; it is not part of the state.
    sink: Option<SharedSink>,
    /// Persistent adversary-facing views, kept in sync incrementally:
    /// `views[i]` always equals philosopher `i`'s view rebuilt from the
    /// state (test-enforced, see `rebuilt_views`), and carries its counters.
    views: Vec<PhilosopherView>,
}

impl<P: Program> Engine<P> {
    /// Creates an engine for `topology` running `program` under `config`.
    pub fn new(topology: Topology, program: P, config: SimConfig) -> Self {
        let state = EngineState::initial(&topology, &program);
        let views = topology
            .philosopher_ids()
            .map(|id| {
                let mut view = PhilosopherView {
                    id,
                    phase: Phase::Thinking,
                    committed: None,
                    label: "",
                    holding: Holding::new(),
                    meals: 0,
                    scheduled: 0,
                    hungry_since: None,
                };
                observe(&topology, &program, &state, &mut view);
                view
            })
            .collect();
        Engine {
            last_scheduled: vec![None; topology.num_philosophers()],
            state,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            first_meal_started: None,
            max_scheduling_gap: 0,
            first_meal_hist: Log2Histogram::new(),
            sink: None,
            views,
            topology,
            program,
        }
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The semantic state the engine steps: fork cells, private program
    /// states and step count, without the run statistics or the RNG (see
    /// the [`crate::snapshot`] module docs).
    #[must_use]
    pub fn state(&self) -> &EngineState<P> {
        &self.state
    }

    /// Number of atomic steps executed so far.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.state.step_count
    }

    /// The shared state of `fork`.
    #[must_use]
    pub fn fork(&self, fork: ForkId) -> &ForkCell {
        &self.state.forks[fork.index()]
    }

    /// The current phase of `philosopher`.
    #[must_use]
    pub fn phase_of(&self, philosopher: PhilosopherId) -> Phase {
        self.views[philosopher.index()].phase
    }

    /// Completed meals of `philosopher`.
    #[must_use]
    pub fn meals_of(&self, philosopher: PhilosopherId) -> u64 {
        self.views[philosopher.index()].meals
    }

    /// Total completed meals.
    #[must_use]
    pub fn total_meals(&self) -> u64 {
        self.views.iter().map(|view| view.meals).sum()
    }

    /// Step at which the first meal started, if any.
    #[must_use]
    pub fn first_meal_step(&self) -> Option<u64> {
        self.first_meal_started
    }

    /// Attaches (or with `None`, detaches) a structured-event sink.
    ///
    /// While attached, every atomic step records its events through
    /// [`record_step_events`], keyed by the step index as the logical clock.
    /// Detached — the default — the cost is a single branch per step
    /// (perfbench's `sim.steps_per_s` times this path).
    ///
    /// The sink is engine configuration, not semantic state: the
    /// [`state`](Self::state) never holds it.  Exploration
    /// ([`is_stuck`](Self::is_stuck)) steps a copy of the state, not the
    /// engine, so it emits nothing.
    pub fn set_event_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// The step-denominated time-to-first-meal histogram: one sample per
    /// philosopher that ever started eating, valued at the step index of its
    /// first meal start (a meal start of a philosopher with no completed
    /// meal).
    #[must_use]
    pub fn first_meal_histogram(&self) -> &Log2Histogram {
        &self.first_meal_hist
    }

    /// A 64-bit fingerprint of the *shared-and-private* state (fork cells and
    /// program states), ignoring counters and statistics.
    ///
    /// Two system states with the same fingerprint are identical up to
    /// statistics with overwhelming probability, not with certainty.  The
    /// fingerprint stamps the summary line of a `gdp run --trace`.  Exact
    /// questions about the current state compare the state itself
    /// ([`is_stuck`](Self::is_stuck)) or its exact encoding
    /// ([`EngineState::encode`], the state keys of `gdp-mcheck`).
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        fingerprint64(&(&self.state.forks, &self.state.states))
    }

    /// Rebuilds every philosopher's phase, commitment, label and holding
    /// from the state, bypassing the incremental buffer; the counters are
    /// carried over from it.
    ///
    /// This is the slow reference path; the engine itself never calls it on
    /// the hot path.  It exists so tests can assert that the incremental
    /// buffer stays exactly in sync (see the `incremental_views` tests and
    /// `docs/PERFORMANCE.md`).
    #[must_use]
    pub fn rebuilt_views(&self) -> Vec<PhilosopherView> {
        let mut views = self.views.clone();
        for view in &mut views {
            observe(&self.topology, &self.program, &self.state, view);
        }
        views
    }

    /// The persistent, incrementally maintained philosopher views.
    #[must_use]
    pub fn views(&self) -> &[PhilosopherView] {
        &self.views
    }

    /// Runs `f` with a full-information [`SystemView`] of the current state.
    ///
    /// The view borrows the engine's persistent buffers, so this performs no
    /// allocation and no per-call view rebuilding; it cannot outlive the
    /// call.
    pub fn with_view<R>(&self, f: impl FnOnce(&SystemView<'_>) -> R) -> R {
        let view = SystemView::new(
            &self.topology,
            self.state.step_count,
            self.program.name(),
            &self.state.forks,
            &self.views,
        );
        f(&view)
    }

    /// Executes one atomic step for `philosopher` and returns its record.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology.
    pub fn step_philosopher(&mut self, philosopher: PhilosopherId) -> StepRecord {
        let idx = philosopher.index();
        assert!(
            idx < self.views.len(),
            "adversary selected philosopher {philosopher} but the system has only {} philosophers",
            self.views.len()
        );
        let step = self.state.step_count;
        let phase_before = self.views[idx].phase;
        let action = self.state.step(
            &self.topology,
            &self.program,
            philosopher,
            StepRandomness::Sampled(&mut self.rng),
        );
        // Keep the persistent view buffer exact: only the stepped
        // philosopher's observable state can have changed (see `observe`).
        let view = &mut self.views[idx];
        observe(&self.topology, &self.program, &self.state, view);
        let phase_after = view.phase;

        // Scheduling accounting (for fairness bounds).
        let gap = match self.last_scheduled[idx] {
            Some(prev) => step - prev,
            None => step + 1,
        };
        self.max_scheduling_gap = self.max_scheduling_gap.max(gap);
        self.last_scheduled[idx] = Some(step);
        view.scheduled += 1;

        // Phase-transition accounting.
        let starts_eating = phase_before != Phase::Eating && phase_after == Phase::Eating;
        if phase_before != Phase::Hungry && phase_after == Phase::Hungry {
            view.hungry_since = Some(step);
        }
        if starts_eating {
            if self.first_meal_started.is_none() {
                self.first_meal_started = Some(step);
            }
            if view.meals == 0 {
                self.first_meal_hist.record(step);
            }
        }
        if phase_before == Phase::Eating && phase_after != Phase::Eating {
            view.meals += 1;
            view.hungry_since = None;
        }

        // Structured-event emission (disabled: one branch).  The logical
        // clock is the step index, so the event stream is as deterministic
        // as the run.
        if let Some(sink) = &self.sink {
            record_step_events(&**sink, step, philosopher, action, starts_eating);
        }

        StepRecord {
            step,
            philosopher,
            action,
            phase_after,
        }
    }

    /// Asks `adversary` for the next philosopher and executes its step.
    pub fn step_with<A: Adversary + ?Sized>(&mut self, adversary: &mut A) -> StepRecord {
        let chosen = self.with_view(|view| adversary.select(view));
        self.step_philosopher(chosen)
    }

    fn condition_met(&self, stop: &StopCondition) -> bool {
        match *stop {
            StopCondition::MaxSteps(_) => false,
            StopCondition::FirstMeal { .. } => self.first_meal_started.is_some(),
            StopCondition::TotalMeals { target, .. } => self.total_meals() >= target,
            StopCondition::PhilosopherEats { philosopher, .. } => self.meals_of(philosopher) > 0,
            StopCondition::EveryoneEats { times, .. } => {
                self.views.iter().all(|view| view.meals >= times)
            }
        }
    }

    /// Drives the system with `adversary` until `stop` is satisfied or its
    /// step budget is exhausted, and returns a summary.
    ///
    /// Stop conditions are evaluated against the engine's *absolute* state
    /// (total meals so far, etc.), and the step budget counts steps executed
    /// by this call.  On a fresh engine the two readings coincide.
    pub fn run<A: Adversary + ?Sized>(
        &mut self,
        adversary: &mut A,
        stop: StopCondition,
    ) -> RunOutcome {
        let budget = stop.max_steps();
        let mut executed = 0u64;
        let mut reason = StopReason::StepLimitReached;
        if self.condition_met(&stop) {
            reason = StopReason::TargetReached;
        } else {
            while executed < budget {
                self.step_with(adversary);
                executed += 1;
                if self.condition_met(&stop) {
                    reason = StopReason::TargetReached;
                    break;
                }
            }
        }
        self.outcome(reason)
    }

    fn outcome(&self, reason: StopReason) -> RunOutcome {
        let everyone_scheduled = self.last_scheduled.iter().all(Option::is_some);
        RunOutcome {
            steps: self.state.step_count,
            reason,
            total_meals: self.total_meals(),
            meals_per_philosopher: self.views.iter().map(|view| view.meals).collect(),
            first_meal_step: self.first_meal_started,
            scheduled_per_philosopher: self.views.iter().map(|view| view.scheduled).collect(),
            fairness_bound: everyone_scheduled.then(|| self.max_scheduling_gap.max(1)),
        }
    }

    /// Returns `true` if the current state satisfies the safety invariants
    /// ([`EngineState::is_safe`], the one definition of safety).
    #[must_use]
    pub fn state_is_safe(&self) -> bool {
        self.state.is_safe(&self.topology, &self.program)
    }

    /// Returns `true` if the current state is **stuck**: no scheduling
    /// choice and no random outcome of any single step changes the semantic
    /// state, so no meal can ever happen from here.
    ///
    /// This is the exact finite test for a true deadlock (e.g. the classic
    /// every-philosopher-holds-its-left-fork state): busy-wait loops that
    /// leave forks and program states untouched cannot escape, whereas any
    /// state with a productive step — including a merely improbable one — is
    /// not stuck.  Every outcome is enumerated from the engine's state
    /// ([`EngineState::for_each_step_outcome`]) on a copy and compared with
    /// the state field by field, not by fingerprint, so the answer is exact
    /// and the engine is left as it was.
    #[must_use]
    pub fn is_stuck(&self) -> bool {
        let base = &self.state;
        let mut post = base.clone();
        !self.topology.philosopher_ids().any(|p| {
            let mut moved = false;
            base.for_each_step_outcome(
                &self.topology,
                &self.program,
                p,
                &mut post,
                |_, post, _| {
                    moved |= post.forks != base.forks || post.states != base.states;
                },
            );
            moved
        })
    }
}

/// Rewrites `view`'s phase, commitment, label and holding from `state`,
/// leaving its counters as they are.
///
/// After a step only the stepped philosopher's view needs this: its
/// observation is a function of its own private state, and `take_if_free` /
/// `release` only ever set or clear the caller's holdership of its own two
/// forks.
fn observe<P: Program>(
    topology: &Topology,
    program: &P,
    state: &EngineState<P>,
    view: &mut PhilosopherView,
) {
    let p = view.id;
    let ends = topology.forks_of(p);
    let observation = program.observation(&state.states[p.index()], ends);
    view.phase = observation.phase;
    view.committed = observation.committed;
    view.label = observation.label;
    view.holding = ends
        .as_array()
        .into_iter()
        .filter(|fork| state.forks[fork.index()].holder() == Some(p))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RoundRobinAdversary, UniformRandomAdversary};
    use crate::program::{ProgramObservation, StepCtx};
    use gdp_topology::builders::classic_ring;
    use gdp_topology::Side;

    /// A two-phase toy program: a philosopher becomes hungry, grabs both of
    /// its forks in one atomic step if both are free (so it cannot deadlock),
    /// eats, and releases.  Not symmetric-randomized — just a harness
    /// exerciser.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Toy {
        Thinking,
        Hungry,
        Eating,
    }

    /// With `flips_coin`, a scheduled thinking philosopher first flips a
    /// fair coin ([`StepCtx::random_side`]) and stays thinking on `Right`:
    /// the tests' source of sampled and enumerated randomness.
    struct ToyProgram {
        flips_coin: bool,
    }

    const TOY: ToyProgram = ToyProgram { flips_coin: false };
    const COIN_TOY: ToyProgram = ToyProgram { flips_coin: true };

    impl Program for ToyProgram {
        type State = Toy;

        fn name(&self) -> &'static str {
            "toy"
        }

        fn initial_state(&self) -> Toy {
            Toy::Thinking
        }

        fn private_states(&self) -> Vec<Toy> {
            vec![Toy::Thinking, Toy::Hungry, Toy::Eating]
        }

        fn observation(&self, state: &Toy, _ends: gdp_topology::ForkEnds) -> ProgramObservation {
            let phase = match state {
                Toy::Thinking => Phase::Thinking,
                Toy::Hungry => Phase::Hungry,
                Toy::Eating => Phase::Eating,
            };
            ProgramObservation {
                phase,
                committed: None,
                label: "toy",
            }
        }

        fn step(&self, state: &mut Toy, ctx: &mut StepCtx<'_>) -> Action {
            match state {
                Toy::Thinking => {
                    if self.flips_coin && ctx.random_side() == Side::Right {
                        Action::Wait
                    } else {
                        *state = Toy::Hungry;
                        Action::BecomeHungry
                    }
                }
                Toy::Hungry => {
                    let (l, r) = (ctx.left(), ctx.right());
                    if ctx.is_free(l) && ctx.is_free(r) {
                        ctx.take_if_free(l);
                        ctx.take_if_free(r);
                        *state = Toy::Eating;
                        Action::Custom("take-both")
                    } else {
                        Action::Wait
                    }
                }
                Toy::Eating => {
                    ctx.release(ctx.left());
                    ctx.release(ctx.right());
                    *state = Toy::Thinking;
                    Action::FinishEating
                }
            }
        }
    }

    fn engine(n: usize, seed: u64) -> Engine<ToyProgram> {
        Engine::new(
            classic_ring(n).unwrap(),
            TOY,
            SimConfig::default().with_seed(seed),
        )
    }

    fn coin_engine(n: usize, seed: u64) -> Engine<ToyProgram> {
        Engine::new(
            classic_ring(n).unwrap(),
            COIN_TOY,
            SimConfig::default().with_seed(seed),
        )
    }

    /// Drives `steps` atomic steps and collects their records.
    fn record_steps<A: Adversary>(
        engine: &mut Engine<ToyProgram>,
        adversary: &mut A,
        steps: usize,
    ) -> Vec<StepRecord> {
        (0..steps).map(|_| engine.step_with(adversary)).collect()
    }

    #[test]
    fn round_robin_run_makes_progress_and_counts_meals() {
        let mut e = engine(5, 1);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(1_000),
        );
        assert_eq!(outcome.steps, 1_000);
        assert!(outcome.made_progress());
        assert!(outcome.total_meals > 0);
        assert_eq!(
            outcome.total_meals,
            outcome.meals_per_philosopher.iter().sum::<u64>()
        );
        // Round-robin over 5 philosophers: fairness bound is exactly 5.
        assert_eq!(outcome.fairness_bound, Some(5));
        // Toy grabs both forks atomically, so with round-robin everyone eats.
        assert!(outcome.everyone_ate());
        assert_eq!(outcome.starved(), vec![]);
    }

    #[test]
    fn fairness_bound_requires_everyone_scheduled() {
        // P0, P1, P0 on a 3-ring: P2 never runs, so there is no bound.
        let mut e = engine(3, 0);
        for p in [0, 1, 0] {
            e.step_philosopher(PhilosopherId::new(p));
        }
        let outcome = e.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(0));
        assert_eq!(outcome.fairness_bound, None);
        // P2 first runs at step 3; its gap counts from step 0 and is the
        // largest one.
        e.step_philosopher(PhilosopherId::new(2));
        let outcome = e.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(0));
        assert_eq!(outcome.fairness_bound, Some(4));
        assert_eq!(outcome.scheduled_per_philosopher, vec![2, 1, 1]);
    }

    #[test]
    fn stop_at_first_meal() {
        let mut e = engine(5, 2);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::FirstMeal { max_steps: 10_000 },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.made_progress());
        assert!(outcome.steps <= 10_000);
        assert_eq!(outcome.first_meal_step, e.first_meal_step());
    }

    #[test]
    fn stop_when_specific_philosopher_eats() {
        let mut e = engine(4, 3);
        let target = PhilosopherId::new(2);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::PhilosopherEats {
                philosopher: target,
                max_steps: 10_000,
            },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.meals_per_philosopher[2] >= 1);
    }

    #[test]
    fn stop_when_everyone_has_eaten_twice() {
        let mut e = engine(3, 4);
        let outcome = e.run(
            &mut UniformRandomAdversary::new(9),
            StopCondition::EveryoneEats {
                times: 2,
                max_steps: 100_000,
            },
        );
        assert!(outcome.reason.target_reached());
        assert!(outcome.meals_per_philosopher.iter().all(|&m| m >= 2));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut a = engine(5, 42);
        let mut b = engine(5, 42);
        let ra = record_steps(&mut a, &mut RoundRobinAdversary::new(), 500);
        let rb = record_steps(&mut b, &mut RoundRobinAdversary::new(), 500);
        assert_eq!(ra, rb);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn different_seeds_usually_differ() {
        // The plain toy draws nothing, so flip coins to make sure seeds
        // reach the philosophers.
        let mut c = coin_engine(5, 1);
        let mut d = coin_engine(5, 99);
        let rc = record_steps(&mut c, &mut RoundRobinAdversary::new(), 500);
        let rd = record_steps(&mut d, &mut RoundRobinAdversary::new(), 500);
        assert_ne!(rc, rd);
    }

    /// Property-style check for the incremental view buffer: after arbitrary
    /// step sequences (random adversary, random seeds, several topologies,
    /// coin-flipping philosophers) the persistent views must equal views
    /// rebuilt from scratch, after every single step.
    #[test]
    fn incremental_views_match_rebuilt_views_under_random_stepping() {
        for n in [2usize, 3, 5, 8] {
            for seed in 0..4u64 {
                let mut engine = coin_engine(n, seed);
                let mut adversary = UniformRandomAdversary::new(seed ^ 0xFEED);
                for step in 0..400 {
                    engine.step_with(&mut adversary);
                    assert_eq!(
                        engine.views(),
                        engine.rebuilt_views().as_slice(),
                        "incremental views diverged (n={n}, seed={seed}, step={step})"
                    );
                }
            }
        }
    }

    #[test]
    fn view_reflects_engine_state() {
        let mut e = engine(3, 0);
        e.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(50));
        let meals = e.total_meals();
        e.with_view(|view| {
            assert_eq!(view.total_meals(), meals);
            assert_eq!(view.num_philosophers(), 3);
            assert_eq!(view.step(), 50);
            assert_eq!(view.program_name(), "toy");
        });
    }

    #[test]
    #[should_panic(expected = "adversary selected philosopher")]
    fn out_of_range_selection_panics() {
        let mut e = engine(3, 0);
        e.step_philosopher(PhilosopherId::new(99));
    }

    #[test]
    fn probes_and_restores_leave_the_sampled_stream_alone() {
        // Enumerating the state's outcomes (scripted draws) between sampled
        // steps must not shift the RNG: both engines sample the same coins.
        let mut probed = coin_engine(4, 21);
        let mut plain = coin_engine(4, 21);
        let mut adversary = UniformRandomAdversary::new(5);
        for _ in 0..300 {
            let chosen = probed.with_view(|view| adversary.select(view));
            assert!(!probed.is_stuck());
            let state = probed.state().clone();
            let mut post = state.clone();
            state.for_each_step_outcome(
                &probed.topology,
                &COIN_TOY,
                chosen,
                &mut post,
                |_, _, _| {},
            );
            assert_eq!(probed.state(), &state);
            assert_eq!(
                probed.step_philosopher(chosen),
                plain.step_philosopher(chosen)
            );
        }
    }

    #[test]
    fn scripted_step_with_empty_tape_reports_pending_for_random_draws() {
        use crate::draws::{DrawRequest, DrawTape};
        // The coin toy's very first scheduled step needs a coin.
        let ring = classic_ring(3).unwrap();
        let mut state = EngineState::initial(&ring, &COIN_TOY);
        let mut tape = DrawTape::new();
        state.step(
            &ring,
            &COIN_TOY,
            PhilosopherId::new(0),
            StepRandomness::Scripted(&mut tape),
        );
        assert_eq!(tape.pending(), Some(DrawRequest::Coin));
    }

    #[test]
    fn for_each_step_outcome_enumerates_a_coin_with_probabilities_summing_to_one() {
        let ring = classic_ring(3).unwrap();
        let state = EngineState::initial(&ring, &COIN_TOY);
        let mut post = state.clone();
        let mut outcomes = Vec::new();
        state.for_each_step_outcome(
            &ring,
            &COIN_TOY,
            PhilosopherId::new(0),
            &mut post,
            |p, post, action| {
                outcomes.push((p, post.clone(), action));
            },
        );
        // One fair coin: hungry on `true` (left), still thinking on `false`.
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].0, 0.5);
        assert_eq!(outcomes[1].0, 0.5);
        assert_eq!(outcomes[0].2, Action::BecomeHungry);
        assert_eq!(
            outcomes[0].1.states()[0],
            Toy::Hungry,
            "becoming hungry changes the state"
        );
        assert_eq!(outcomes[1].2, Action::Wait);
        assert_eq!(
            outcomes[1].1.states(),
            state.states(),
            "staying thinking leaves the state"
        );
        assert_eq!(outcomes[1].1.forks(), state.forks());
        // Each outcome is one step past the state it was enumerated from.
        assert!(outcomes.iter().all(|(_, post, _)| post.step_count() == 1));
    }

    #[test]
    fn for_each_step_outcome_is_deterministic_for_always_hungry_steps() {
        // Always-hungry Toy steps draw nothing: exactly one outcome, p = 1.
        let ring = classic_ring(3).unwrap();
        let state = EngineState::initial(&ring, &TOY);
        let mut post = state.clone();
        let mut count = 0;
        state.for_each_step_outcome(
            &ring,
            &TOY,
            PhilosopherId::new(1),
            &mut post,
            |p, _, action| {
                count += 1;
                assert_eq!(p, 1.0);
                assert_eq!(action, Action::BecomeHungry);
            },
        );
        assert_eq!(count, 1);
    }

    #[test]
    fn fresh_states_are_not_stuck_and_toy_never_deadlocks() {
        let mut engine = engine(3, 1);
        assert!(!engine.is_stuck(), "initial state can always advance");
        engine.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(500),
        );
        assert!(!engine.is_stuck());
    }

    #[test]
    fn event_sink_mirrors_the_trace() {
        use gdp_observe::{Event, MemorySink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let mut e = engine(5, 7);
        e.set_event_sink(Some(sink.clone()));
        let records = record_steps(&mut e, &mut RoundRobinAdversary::new(), 400);
        let events = sink.take();
        let schedules: Vec<&Event> = events
            .iter()
            .filter(|ev| matches!(ev, Event::Schedule { .. }))
            .collect();
        assert_eq!(schedules.len(), 400, "one schedule event per step");
        let meal_starts: Vec<(u64, u32)> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::MealStart { clock, actor } => Some((*clock, *actor)),
                _ => None,
            })
            .collect();
        // A meal starts at a step whose philosopher enters Eating.
        let mut phase = [Phase::Thinking; 5];
        let mut from_records = Vec::new();
        for r in &records {
            let before = std::mem::replace(&mut phase[r.philosopher.index()], r.phase_after);
            if before != Phase::Eating && r.phase_after == Phase::Eating {
                from_records.push((r.step, r.philosopher.raw()));
            }
        }
        assert!(!meal_starts.is_empty());
        assert_eq!(meal_starts, from_records, "meal events mirror the steps");
        // Clocks are non-decreasing step indices.
        let clocks: Vec<u64> = events.iter().map(Event::clock).collect();
        assert!(clocks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn record_step_events_maps_every_action() {
        use gdp_observe::MemorySink;
        let (f0, f1) = (ForkId::new(0), ForkId::new(1));
        let events_of = |action: Action, started_meal: bool| {
            let sink = MemorySink::new();
            record_step_events(&sink, 9, PhilosopherId::new(2), action, started_meal);
            let events = sink.take();
            assert!(events.iter().all(|ev| ev.clock() == 9), "{action:?}");
            events
        };
        let schedule = Event::Schedule { clock: 9, actor: 2 };
        let acquire = |fork: ForkId| Event::Acquire {
            clock: 9,
            actor: 2,
            fork: fork.raw(),
        };
        // Steps that touch no fork for good, failed takes included, record
        // only the schedule.
        for action in [
            Action::BecomeHungry,
            Action::RegisterRequests,
            Action::Commit {
                fork: f0,
                random: true,
            },
            Action::TakeFirst {
                fork: f0,
                success: false,
            },
            Action::TakeSecond {
                fork: f1,
                success: false,
            },
            Action::RelabelFork { fork: f0, nr: 2 },
            Action::TestAndSet { fork: f1 },
            Action::Wait,
            Action::Custom("toy"),
        ] {
            assert_eq!(
                events_of(action, false),
                std::slice::from_ref(&schedule),
                "{action:?}"
            );
        }
        let take_first = Action::TakeFirst {
            fork: f0,
            success: true,
        };
        assert_eq!(
            events_of(take_first, false),
            [schedule.clone(), acquire(f0)]
        );
        let take_second = Action::TakeSecond {
            fork: f1,
            success: true,
        };
        assert_eq!(
            events_of(take_second, true),
            [
                schedule.clone(),
                acquire(f1),
                Event::MealStart { clock: 9, actor: 2 }
            ]
        );
        assert_eq!(
            events_of(Action::Release { fork: f1 }, false),
            [
                schedule.clone(),
                Event::Release {
                    clock: 9,
                    actor: 2,
                    fork: 1
                }
            ]
        );
        // A finished meal records no release of the forks it gave back.
        assert_eq!(
            events_of(Action::FinishEating, false),
            [schedule.clone(), Event::MealFinish { clock: 9, actor: 2 }]
        );
        // A meal started by a step with no take of its own (the toy takes
        // both forks in one custom step).
        assert_eq!(
            events_of(Action::Custom("take-both"), true),
            [schedule, Event::MealStart { clock: 9, actor: 2 }]
        );
    }

    #[test]
    fn meal_histograms_are_step_denominated() {
        let mut e = engine(5, 3);
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(2_000),
        );
        let eaters = e
            .topology()
            .philosopher_ids()
            .filter(|&p| e.meals_of(p) > 0)
            .count() as u64;
        assert!(eaters > 0);
        // One first-meal sample per philosopher that ever ate, however many
        // meals it went on to eat.
        assert!(e.total_meals() > eaters);
        assert_eq!(e.first_meal_histogram().total(), eaters);
        // The earliest possible first meal needs a few steps, so the p50
        // estimate is positive and below the step budget.
        let p50 = e.first_meal_histogram().quantile(50.0);
        assert!(p50 > 0.0 && p50 < 2_000.0);
    }
}
