//! The execution engine: adversary-driven interleaving of atomic steps.

use crate::adversary::Adversary;
use crate::config::SimConfig;
use crate::draws::DrawTape;
use crate::fork::ForkCell;
use crate::hash::fingerprint64;
use crate::outcome::{RunOutcome, StopCondition, StopReason};
use crate::program::{Action, Phase, Program, StepCtx, StepRandomness};
use crate::snapshot::EngineState;
use crate::trace::{StepRecord, Trace};
use crate::view::{make_view, Holding, PhilosopherView, SystemView};
use gdp_observe::{Event, Log2Histogram, SharedSink};
use gdp_topology::{ForkId, PhilosopherId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic, seedable simulator of one generalized dining
/// philosophers system running one [`Program`] under one [`Adversary`].
///
/// The engine owns the shared fork state, every philosopher's private
/// program state and the philosophers' randomness.  Each call to
/// [`step_philosopher`](Engine::step_philosopher) executes one atomic step;
/// [`run`](Engine::run) drives a whole computation by repeatedly consulting
/// an adversary.
///
/// Determinism: two engines constructed with the same topology, program,
/// configuration (including seed) and driven by the same adversary produce
/// identical traces.  The regression tests of `gdp-algorithms` rely on this.
///
/// Performance: the engine keeps one persistent [`PhilosopherView`] buffer
/// that is updated *incrementally* — an atomic step can only change the
/// stepped philosopher's observable state (its phase, commitment and held
/// forks, all derived from its own private state and its own two fork
/// cells), so after each step exactly one view is refreshed in place.  The
/// hot path `step_with` → `with_view` → `step_philosopher` performs no heap
/// allocation; see `docs/PERFORMANCE.md`.
pub struct Engine<P: Program> {
    topology: Topology,
    program: P,
    config: SimConfig,
    nr_range: u32,
    forks: Vec<ForkCell>,
    states: Vec<P::State>,
    rng: ChaCha8Rng,
    step_count: u64,
    meals_completed: Vec<u64>,
    first_meal_finished: Vec<Option<u64>>,
    first_meal_started: Option<u64>,
    scheduled: Vec<u64>,
    last_scheduled: Vec<Option<u64>>,
    max_scheduling_gap: u64,
    hungry_since: Vec<Option<u64>>,
    waiting_times: Vec<Vec<u64>>,
    trace: Option<Trace>,
    /// Step at which each philosopher last *started* eating — feeds the
    /// inter-meal histogram.
    last_meal_start: Vec<Option<u64>>,
    /// Step-denominated time-to-first-meal per philosopher (one sample per
    /// philosopher that ever eats).
    first_meal_hist: Log2Histogram,
    /// Step-denominated gaps between consecutive meal starts of the same
    /// philosopher.
    inter_meal_hist: Log2Histogram,
    /// Optional structured-event sink (see `gdp-observe`).  `None` — the
    /// default — costs one branch per step; this is *not* captured by
    /// snapshots and survives `reset`/`restore`, like the trace config.
    sink: Option<SharedSink>,
    /// Persistent adversary-facing views, kept in sync incrementally:
    /// `views[i]` always equals the view rebuilt from scratch for
    /// philosopher `i` (test-enforced, see `rebuilt_views`).
    views: Vec<PhilosopherView>,
}

impl<P: Program> Engine<P> {
    /// Creates an engine for `topology` running `program` under `config`.
    pub fn new(topology: Topology, program: P, config: SimConfig) -> Self {
        let n = topology.num_philosophers();
        let k = topology.num_forks();
        let nr_range = config.effective_nr_range(k);
        let trace = config.record_trace.then(|| Trace::new(n));
        let mut engine = Engine {
            nr_range,
            forks: (0..k).map(|_| ForkCell::new()).collect(),
            states: (0..n).map(|_| program.initial_state()).collect(),
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            step_count: 0,
            meals_completed: vec![0; n],
            first_meal_finished: vec![None; n],
            first_meal_started: None,
            scheduled: vec![0; n],
            last_scheduled: vec![None; n],
            max_scheduling_gap: 0,
            hungry_since: vec![None; n],
            waiting_times: vec![Vec::new(); n],
            trace,
            last_meal_start: vec![None; n],
            first_meal_hist: Log2Histogram::new(),
            inter_meal_hist: Log2Histogram::new(),
            sink: None,
            views: Vec::with_capacity(n),
            topology,
            program,
            config,
        };
        for p in 0..n {
            let view = engine.compute_view(PhilosopherId::new(p as u32));
            engine.views.push(view);
        }
        engine
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

    /// The configuration of this engine.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of atomic steps executed so far.
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// The shared state of `fork`.
    #[must_use]
    pub fn fork(&self, fork: ForkId) -> &ForkCell {
        &self.forks[fork.index()]
    }

    /// The current phase of `philosopher`.
    #[must_use]
    pub fn phase_of(&self, philosopher: PhilosopherId) -> Phase {
        self.program
            .observation(
                &self.states[philosopher.index()],
                self.topology.forks_of(philosopher),
            )
            .phase
    }

    /// Completed meals of `philosopher`.
    #[must_use]
    pub fn meals_of(&self, philosopher: PhilosopherId) -> u64 {
        self.meals_completed[philosopher.index()]
    }

    /// Total completed meals.
    #[must_use]
    pub fn total_meals(&self) -> u64 {
        self.meals_completed.iter().sum()
    }

    /// Step at which the first meal started, if any.
    #[must_use]
    pub fn first_meal_step(&self) -> Option<u64> {
        self.first_meal_started
    }

    /// The recorded waiting times (steps from becoming hungry to starting to
    /// eat) of `philosopher`.
    #[must_use]
    pub fn waiting_times(&self, philosopher: PhilosopherId) -> &[u64] {
        &self.waiting_times[philosopher.index()]
    }

    /// The recorded trace, if trace recording was enabled in the config.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Attaches (or with `None`, detaches) a structured-event sink.
    ///
    /// While attached, every atomic step emits `gdp-observe` events keyed by
    /// the step index as the logical clock: a `Schedule` for the stepped
    /// philosopher plus `Acquire`/`Release`/`MealStart`/`MealFinish` derived
    /// from the step's [`Action`] (fork releases folded into `FinishEating`
    /// by an algorithm's action vocabulary are not synthesized).  Detached —
    /// the default — the cost is a single branch per step (perfbench's
    /// `sim.steps_per_s` times this path).
    ///
    /// The sink is engine configuration, not semantic state: it survives
    /// [`reset`](Self::reset) and [`restore`](Self::restore), and snapshots
    /// never capture it.  Note that exploration entry points
    /// ([`for_each_step_outcome`](Self::for_each_step_outcome),
    /// [`is_stuck`](Self::is_stuck)) execute probe steps that emit like any
    /// other step — detach or drain the sink before exploring.
    pub fn set_event_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// The step-denominated time-to-first-meal histogram: one sample per
    /// philosopher that ever started eating, valued at the step index of its
    /// first meal start.
    #[must_use]
    pub fn first_meal_histogram(&self) -> &Log2Histogram {
        &self.first_meal_hist
    }

    /// The step-denominated inter-meal histogram: gaps between consecutive
    /// meal starts of the same philosopher.
    #[must_use]
    pub fn inter_meal_histogram(&self) -> &Log2Histogram {
        &self.inter_meal_hist
    }

    /// The effective priority-number range `m` used by GDP1/GDP2 in this run.
    #[must_use]
    pub fn nr_range(&self) -> u32 {
        self.nr_range
    }

    /// A 64-bit fingerprint of the *shared-and-private* state (fork cells and
    /// program states), ignoring counters and statistics.
    ///
    /// Two system states with the same fingerprint are, with overwhelming
    /// probability, identical up to statistics; the analysis crate uses
    /// fingerprints to detect the no-progress cycles induced by the paper's
    /// adversaries (State 6 being "isomorphic" to State 1 in Section 3).
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        fingerprint64(&(&self.forks, &self.states))
    }

    fn holding_of(&self, philosopher: PhilosopherId) -> Holding {
        let ends = self.topology.forks_of(philosopher);
        let mut holding = Holding::new();
        for fork in ends.as_array() {
            if self.forks[fork.index()].holder() == Some(philosopher) {
                holding.push(fork);
            }
        }
        holding
    }

    /// Builds philosopher `p`'s view from scratch.
    fn compute_view(&self, p: PhilosopherId) -> PhilosopherView {
        make_view(
            p,
            self.program
                .observation(&self.states[p.index()], self.topology.forks_of(p)),
            self.holding_of(p),
            self.meals_completed[p.index()],
            self.scheduled[p.index()],
            self.hungry_since[p.index()],
        )
    }

    /// Refreshes the persistent view of philosopher `idx` in place.
    ///
    /// An atomic step can only change the stepped philosopher's own
    /// observable state — its program observation is a function of its own
    /// private state, and `take_if_free` / `release` only ever set or clear
    /// the *caller's* holdership of its own two forks — so refreshing this
    /// one view after each step keeps the whole buffer exact.
    fn refresh_view(&mut self, idx: usize) {
        let p = PhilosopherId::new(idx as u32);
        let ends = self.topology.forks_of(p);
        let observation = self.program.observation(&self.states[idx], ends);
        let holding = self.holding_of(p);
        let view = &mut self.views[idx];
        view.phase = observation.phase;
        view.committed = observation.committed;
        view.label = observation.label;
        view.holding = holding;
        view.meals = self.meals_completed[idx];
        view.scheduled = self.scheduled[idx];
        view.hungry_since = self.hungry_since[idx];
    }

    /// Rebuilds every philosopher view from scratch, bypassing the
    /// incremental buffer.
    ///
    /// This is the slow reference path; the engine itself never calls it on
    /// the hot path.  It exists so tests can assert that the incremental
    /// buffer stays exactly in sync (see the `incremental_views` tests and
    /// `docs/PERFORMANCE.md`).
    #[must_use]
    pub fn rebuilt_views(&self) -> Vec<PhilosopherView> {
        self.topology
            .philosopher_ids()
            .map(|p| self.compute_view(p))
            .collect()
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
            self.step_count,
            self.program.name(),
            &self.forks,
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
        self.step_philosopher_impl(philosopher, None)
    }

    /// Executes one atomic step for `philosopher` with its random draws read
    /// from `tape` instead of the engine RNG (which is left untouched).
    ///
    /// This is the replay/enumeration entry point of the scripted-draw
    /// protocol (see [`crate::draws`]): if the step requests a draw past the
    /// end of the tape, [`DrawTape::pending`] reports the request and the
    /// resulting engine state is *meaningless* — the caller must discard it
    /// by [`restore`](Self::restore)-ing a snapshot.
    /// [`for_each_step_outcome`](Self::for_each_step_outcome) wraps the full
    /// probe-extend-rerun loop.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology, or if the
    /// tape's scripted outcomes mismatch the kinds of draws the program
    /// issues.
    pub fn step_philosopher_with_tape(
        &mut self,
        philosopher: PhilosopherId,
        tape: &mut DrawTape,
    ) -> StepRecord {
        self.step_philosopher_impl(philosopher, Some(tape))
    }

    fn step_philosopher_impl(
        &mut self,
        philosopher: PhilosopherId,
        tape: Option<&mut DrawTape>,
    ) -> StepRecord {
        let idx = philosopher.index();
        assert!(
            idx < self.states.len(),
            "adversary selected philosopher {philosopher} but the system has only {} philosophers",
            self.states.len()
        );
        let ends = self.topology.forks_of(philosopher);
        let phase_before = self.program.observation(&self.states[idx], ends).phase;
        let action = {
            let randomness = match tape {
                Some(tape) => StepRandomness::Scripted(tape),
                None => StepRandomness::Sampled(&mut self.rng),
            };
            let mut ctx = StepCtx::new(
                philosopher,
                ends,
                &mut self.forks,
                randomness,
                &self.config.hunger,
                self.config.left_bias,
                self.nr_range,
            );
            self.program.step(&mut self.states[idx], &mut ctx)
        };
        let phase_after = self.program.observation(&self.states[idx], ends).phase;

        // Scheduling accounting (for fairness bounds).
        let gap = match self.last_scheduled[idx] {
            Some(prev) => self.step_count - prev,
            None => self.step_count + 1,
        };
        self.max_scheduling_gap = self.max_scheduling_gap.max(gap);
        self.last_scheduled[idx] = Some(self.step_count);
        self.scheduled[idx] += 1;

        // Phase-transition accounting.
        if phase_before != Phase::Hungry && phase_after == Phase::Hungry {
            self.hungry_since[idx] = Some(self.step_count);
        }
        if phase_before != Phase::Eating && phase_after == Phase::Eating {
            if self.first_meal_started.is_none() {
                self.first_meal_started = Some(self.step_count);
            }
            if let Some(since) = self.hungry_since[idx] {
                self.waiting_times[idx].push(self.step_count - since);
            }
            match self.last_meal_start[idx] {
                None => self.first_meal_hist.record(self.step_count),
                Some(prev) => self.inter_meal_hist.record(self.step_count - prev),
            }
            self.last_meal_start[idx] = Some(self.step_count);
        }
        if phase_before == Phase::Eating && phase_after != Phase::Eating {
            self.meals_completed[idx] += 1;
            if self.first_meal_finished[idx].is_none() {
                self.first_meal_finished[idx] = Some(self.step_count);
            }
            self.hungry_since[idx] = None;
        }

        // Keep the persistent view buffer exact: only the stepped
        // philosopher's observable state can have changed.
        self.refresh_view(idx);

        // Structured-event emission (disabled: one branch).  The logical
        // clock is the step index, so the event stream is as deterministic
        // as the trace.
        if let Some(sink) = &self.sink {
            let clock = self.step_count;
            let actor = philosopher.raw();
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
            // Eating starts *implicitly* when the second fork lands (no
            // algorithm emits a dedicated action for it), so the meal-start
            // event comes from the phase transition, exactly like the
            // histogram accounting above.
            if phase_before != Phase::Eating && phase_after == Phase::Eating {
                sink.record(&Event::MealStart { clock, actor });
            }
        }

        let record = StepRecord {
            step: self.step_count,
            philosopher,
            action,
            phase_after,
        };
        if let Some(trace) = &mut self.trace {
            trace.push(record);
        }
        self.step_count += 1;
        record
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
            StopCondition::PhilosopherEats { philosopher, .. } => {
                self.meals_completed[philosopher.index()] > 0
            }
            StopCondition::EveryoneEats { times, .. } => {
                self.meals_completed.iter().all(|&m| m >= times)
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
        let fairness_bound = if self.last_scheduled.iter().all(Option::is_some) {
            Some(self.max_scheduling_gap.max(1))
        } else {
            None
        };
        RunOutcome {
            steps: self.step_count,
            reason,
            total_meals: self.total_meals(),
            meals_per_philosopher: self.meals_completed.clone(),
            first_meal_step: self.first_meal_started,
            first_meal_per_philosopher: self.first_meal_finished.clone(),
            scheduled_per_philosopher: self.scheduled.clone(),
            fairness_bound,
        }
    }

    /// Resets the engine to its initial state, keeping the same topology,
    /// program and configuration (including the seed: the next run replays
    /// the same philosopher randomness).
    pub fn reset(&mut self) {
        let seed = self.config.seed;
        self.reset_with_seed(seed);
    }

    /// Resets the engine and installs a new random seed — the standard way to
    /// perform independent Monte-Carlo trials without reallocating.
    pub fn reset_with_seed(&mut self, seed: u64) {
        self.config.seed = seed;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        for fork in &mut self.forks {
            fork.reset();
        }
        for state in &mut self.states {
            *state = self.program.initial_state();
        }
        let n = self.states.len();
        self.step_count = 0;
        self.meals_completed.iter_mut().for_each(|m| *m = 0);
        self.first_meal_finished.iter_mut().for_each(|f| *f = None);
        self.first_meal_started = None;
        self.scheduled.iter_mut().for_each(|s| *s = 0);
        self.last_scheduled.iter_mut().for_each(|l| *l = None);
        self.max_scheduling_gap = 0;
        self.hungry_since.iter_mut().for_each(|h| *h = None);
        self.waiting_times.iter_mut().for_each(Vec::clear);
        self.last_meal_start.iter_mut().for_each(|l| *l = None);
        self.first_meal_hist.clear();
        self.inter_meal_hist.clear();
        self.trace = self.config.record_trace.then(|| Trace::new(n));
        for idx in 0..n {
            self.refresh_view(idx);
        }
    }

    /// Captures the engine's semantic state — fork cells, private program
    /// states, RNG position and step count — as an [`EngineState`].
    ///
    /// Statistics (meal counts, waiting times, the trace) are *not*
    /// captured; see the [`crate::snapshot`] module docs for why.
    #[must_use]
    pub fn snapshot(&self) -> EngineState<P> {
        EngineState {
            forks: self.forks.clone(),
            states: self.states.clone(),
            rng: self.rng.clone(),
            step_count: self.step_count,
        }
    }

    /// [`snapshot`](Self::snapshot) into an existing buffer, reusing its
    /// allocations (the hot path of state-space exploration).
    pub fn snapshot_into(&self, out: &mut EngineState<P>) {
        out.forks.clone_from(&self.forks);
        out.states.clone_from(&self.states);
        out.rng = self.rng.clone();
        out.step_count = self.step_count;
    }

    /// Restores the engine to a previously captured [`EngineState`].
    ///
    /// The fork cells, program states, RNG and step counter return exactly
    /// to their snapshot values, so a subsequent
    /// [`step_philosopher`](Self::step_philosopher) sequence replays
    /// bit-for-bit what it would have produced from the snapshot point.
    /// Run statistics — meal
    /// counts, scheduling/fairness accounting, waiting times and the trace —
    /// restart from zero, because a snapshot deliberately does not capture
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from an engine with a different
    /// number of forks or philosophers.
    pub fn restore(&mut self, snapshot: &EngineState<P>) {
        assert_eq!(
            snapshot.forks.len(),
            self.forks.len(),
            "snapshot has a different fork count than this engine"
        );
        assert_eq!(
            snapshot.states.len(),
            self.states.len(),
            "snapshot has a different philosopher count than this engine"
        );
        self.forks.clone_from(&snapshot.forks);
        self.states.clone_from(&snapshot.states);
        self.rng = snapshot.rng.clone();
        self.step_count = snapshot.step_count;
        let n = self.states.len();
        self.meals_completed.iter_mut().for_each(|m| *m = 0);
        self.first_meal_finished.iter_mut().for_each(|f| *f = None);
        self.first_meal_started = None;
        self.scheduled.iter_mut().for_each(|s| *s = 0);
        self.last_scheduled.iter_mut().for_each(|l| *l = None);
        self.max_scheduling_gap = 0;
        self.hungry_since.iter_mut().for_each(|h| *h = None);
        self.waiting_times.iter_mut().for_each(Vec::clear);
        self.last_meal_start.iter_mut().for_each(|l| *l = None);
        self.first_meal_hist.clear();
        self.inter_meal_hist.clear();
        self.trace = self.config.record_trace.then(|| Trace::new(n));
        for idx in 0..n {
            self.refresh_view(idx);
        }
    }

    /// Enumerates **every** possible outcome of scheduling `philosopher` for
    /// one atomic step from the current state — the probabilistic branching
    /// of the paper's automaton, made exhaustive.
    ///
    /// For each complete outcome, `visit` is called with the outcome's
    /// probability (the product of its draw probabilities; outcomes with
    /// probability 0 are never visited), the engine *in the post-step state*,
    /// and the step record.  The engine is restored to its pre-call state
    /// between outcomes and before returning, so `visit` may freely inspect
    /// or [`snapshot`](Self::snapshot) it but must not step it.
    ///
    /// The visited probabilities sum to 1 and their order is deterministic
    /// (draw-lexicographic), which the bitwise-determinism guarantees of
    /// `gdp-mcheck` rely on.
    ///
    /// # Panics
    ///
    /// Panics if `philosopher` is out of range for the topology.
    pub fn for_each_step_outcome(
        &mut self,
        philosopher: PhilosopherId,
        visit: impl FnMut(f64, &mut Engine<P>, &StepRecord),
    ) {
        let snapshot = self.snapshot();
        self.for_each_step_outcome_from(&snapshot, philosopher, visit);
    }

    /// [`for_each_step_outcome`](Self::for_each_step_outcome) relative to
    /// an explicit pre-step snapshot, the allocation-lean form used on the
    /// model-checking hot path (state-space builders already hold a
    /// snapshot of the state they are expanding).
    ///
    /// The engine's current state is clobbered; on return it is restored
    /// to `snapshot`.
    pub fn for_each_step_outcome_from(
        &mut self,
        snapshot: &EngineState<P>,
        philosopher: PhilosopherId,
        mut visit: impl FnMut(f64, &mut Engine<P>, &StepRecord),
    ) {
        let mut tape = DrawTape::new();
        self.enumerate_outcomes(snapshot, philosopher, &mut tape, 1.0, &mut visit);
        self.restore(snapshot);
    }

    fn enumerate_outcomes(
        &mut self,
        snapshot: &EngineState<P>,
        philosopher: PhilosopherId,
        tape: &mut DrawTape,
        probability: f64,
        visit: &mut impl FnMut(f64, &mut Engine<P>, &StepRecord),
    ) {
        self.restore(snapshot);
        tape.rewind();
        let record = self.step_philosopher_with_tape(philosopher, tape);
        match tape.pending() {
            None => visit(probability, self, &record),
            Some(request) => {
                for (outcome, p) in request.outcomes() {
                    tape.push(outcome);
                    self.enumerate_outcomes(snapshot, philosopher, tape, probability * p, visit);
                    tape.pop();
                }
            }
        }
    }

    /// Returns `true` if the current state is **stuck**: no scheduling
    /// choice and no random outcome of any single step changes the semantic
    /// state, so no meal can ever happen from here.
    ///
    /// This is the exact finite test for a true deadlock (e.g. the classic
    /// every-philosopher-holds-its-left-fork state): busy-wait loops that
    /// leave forks and program states untouched cannot escape, whereas any
    /// state with a productive step — including a merely improbable one — is
    /// not stuck.  The engine is restored before returning.
    pub fn is_stuck(&mut self) -> bool {
        let base = self.state_fingerprint();
        let n = self.states.len() as u32;
        for p in 0..n {
            let mut moved = false;
            self.for_each_step_outcome(PhilosopherId::new(p), |_, engine, _| {
                if engine.state_fingerprint() != base {
                    moved = true;
                }
            });
            if moved {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RoundRobinAdversary, UniformRandomAdversary};
    use crate::program::{Action, ProgramObservation};
    use gdp_topology::builders::classic_ring;

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

    struct ToyProgram;

    impl Program for ToyProgram {
        type State = Toy;

        fn name(&self) -> &'static str {
            "toy"
        }

        fn initial_state(&self) -> Toy {
            Toy::Thinking
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
                    if ctx.becomes_hungry() {
                        *state = Toy::Hungry;
                        Action::BecomeHungry
                    } else {
                        Action::KeepThinking
                    }
                }
                Toy::Hungry => {
                    let (l, r) = (ctx.left(), ctx.right());
                    if ctx.is_free(l) && ctx.is_free(r) {
                        ctx.take_if_free(l);
                        ctx.take_if_free(r);
                        *state = Toy::Eating;
                        Action::StartEating
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
            ToyProgram,
            SimConfig::default().with_seed(seed).with_trace(true),
        )
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
        a.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(500),
        );
        b.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(500),
        );
        assert_eq!(a.trace().unwrap(), b.trace().unwrap());
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = engine(5, 1);
        let mut b = engine(5, 2);
        a.run(
            &mut UniformRandomAdversary::new(7),
            StopCondition::MaxSteps(500),
        );
        b.run(
            &mut UniformRandomAdversary::new(7),
            StopCondition::MaxSteps(500),
        );
        // The toy program only uses randomness through the hunger model
        // (Always → no randomness), so instead compare against a Bernoulli
        // model to make sure seeds reach the philosophers.
        let config = SimConfig::default()
            .with_seed(1)
            .with_hunger(crate::HungerModel::Bernoulli(0.5))
            .with_trace(true);
        let mut c = Engine::new(classic_ring(5).unwrap(), ToyProgram, config.clone());
        let mut d = Engine::new(classic_ring(5).unwrap(), ToyProgram, config.with_seed(99));
        c.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(500),
        );
        d.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(500),
        );
        assert_ne!(c.trace().unwrap(), d.trace().unwrap());
    }

    #[test]
    fn reset_replays_identically() {
        let mut e = engine(4, 5);
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(300),
        );
        let first_trace = e.trace().unwrap().clone();
        let fp1 = e.state_fingerprint();
        e.reset();
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(300),
        );
        assert_eq!(e.trace().unwrap(), &first_trace);
        assert_eq!(e.state_fingerprint(), fp1);
    }

    #[test]
    fn reset_with_new_seed_changes_randomized_behaviour() {
        let config = SimConfig::default()
            .with_hunger(crate::HungerModel::Bernoulli(0.3))
            .with_trace(true);
        let mut e = Engine::new(classic_ring(4).unwrap(), ToyProgram, config);
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(400),
        );
        let t1 = e.trace().unwrap().clone();
        e.reset_with_seed(1234);
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(400),
        );
        assert_ne!(e.trace().unwrap(), &t1);
        assert_eq!(e.step_count(), 400);
    }

    #[test]
    fn waiting_times_are_recorded() {
        let mut e = engine(3, 0);
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(600),
        );
        let any_waits = e
            .topology()
            .philosopher_ids()
            .any(|p| !e.waiting_times(p).is_empty());
        assert!(any_waits);
    }

    /// Property-style check for the incremental view buffer: after arbitrary
    /// step sequences (random adversary, random seeds, several topologies and
    /// hunger models) the persistent views must equal views rebuilt from
    /// scratch, after every single step.
    #[test]
    fn incremental_views_match_rebuilt_views_under_random_stepping() {
        for n in [2usize, 3, 5, 8] {
            for seed in 0..4u64 {
                let config = SimConfig::default()
                    .with_seed(seed)
                    .with_hunger(crate::HungerModel::Bernoulli(0.7));
                let mut engine = Engine::new(classic_ring(n).unwrap(), ToyProgram, config);
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
    fn incremental_views_match_after_reset_with_seed() {
        let mut engine = engine(4, 11);
        engine.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(250),
        );
        engine.reset_with_seed(12);
        assert_eq!(engine.views(), engine.rebuilt_views().as_slice());
        engine.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(123),
        );
        assert_eq!(engine.views(), engine.rebuilt_views().as_slice());
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
    fn never_hungry_means_no_meals() {
        let config = SimConfig::default().with_hunger(crate::HungerModel::Never);
        let mut e = Engine::new(classic_ring(4).unwrap(), ToyProgram, config);
        let outcome = e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(1_000),
        );
        assert_eq!(outcome.total_meals, 0);
        assert!(!outcome.made_progress());
    }

    #[test]
    fn snapshot_restore_replays_bit_for_bit() {
        // Run a prefix, snapshot, run a suffix; restoring the snapshot and
        // re-running the suffix must reproduce the exact same state —
        // including the RNG stream.
        let config = SimConfig::default()
            .with_seed(3)
            .with_hunger(crate::HungerModel::Bernoulli(0.6));
        let mut engine = Engine::new(classic_ring(5).unwrap(), ToyProgram, config);
        let mut adversary = UniformRandomAdversary::new(17);
        for _ in 0..137 {
            engine.step_with(&mut adversary);
        }
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.fingerprint(), engine.state_fingerprint());
        assert_eq!(snapshot.step_count(), 137);
        let mut suffix_adversary = adversary.clone();
        let records: Vec<_> = (0..211)
            .map(|_| engine.step_with(&mut suffix_adversary))
            .collect();
        let end_fp = engine.state_fingerprint();

        engine.restore(&snapshot);
        assert_eq!(engine.state_fingerprint(), snapshot.fingerprint());
        assert_eq!(engine.step_count(), 137);
        assert_eq!(engine.views(), engine.rebuilt_views().as_slice());
        let replayed: Vec<_> = (0..211).map(|_| engine.step_with(&mut adversary)).collect();
        assert_eq!(records, replayed);
        assert_eq!(engine.state_fingerprint(), end_fp);
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches_snapshot() {
        let mut engine = engine(4, 9);
        let mut buffer = engine.snapshot();
        engine.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(100),
        );
        engine.snapshot_into(&mut buffer);
        assert_eq!(buffer, engine.snapshot());
    }

    #[test]
    fn scripted_step_with_empty_tape_reports_pending_for_random_draws() {
        use crate::draws::{DrawRequest, DrawTape};
        // Bernoulli hunger: the very first scheduled step needs a coin.
        let config = SimConfig::default().with_hunger(crate::HungerModel::Bernoulli(0.3));
        let mut engine = Engine::new(classic_ring(3).unwrap(), ToyProgram, config);
        let snapshot = engine.snapshot();
        let mut tape = DrawTape::new();
        engine.step_philosopher_with_tape(PhilosopherId::new(0), &mut tape);
        assert_eq!(tape.pending(), Some(DrawRequest::Coin { p_true: 0.3 }));
        engine.restore(&snapshot);
        assert_eq!(engine.state_fingerprint(), snapshot.fingerprint());
    }

    #[test]
    fn for_each_step_outcome_enumerates_a_coin_with_probabilities_summing_to_one() {
        let config = SimConfig::default().with_hunger(crate::HungerModel::Bernoulli(0.25));
        let mut engine = Engine::new(classic_ring(3).unwrap(), ToyProgram, config);
        let before = engine.state_fingerprint();
        let mut outcomes = Vec::new();
        engine.for_each_step_outcome(PhilosopherId::new(0), |p, e, record| {
            outcomes.push((p, e.state_fingerprint(), record.action));
        });
        // One coin: hungry (p = 0.25) or still thinking (p = 0.75).
        assert_eq!(outcomes.len(), 2);
        assert!((outcomes.iter().map(|o| o.0).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(outcomes[0].2, Action::BecomeHungry);
        assert_ne!(outcomes[0].1, before, "becoming hungry changes the state");
        assert_eq!(outcomes[1].1, before, "keep-thinking leaves the state");
        // The engine itself is restored.
        assert_eq!(engine.state_fingerprint(), before);
        assert_eq!(engine.views(), engine.rebuilt_views().as_slice());
    }

    #[test]
    fn for_each_step_outcome_is_deterministic_for_always_hungry_steps() {
        // Always-hungry Toy steps draw nothing: exactly one outcome, p = 1.
        let mut engine = engine(3, 0);
        let mut count = 0;
        engine.for_each_step_outcome(PhilosopherId::new(1), |p, _, record| {
            count += 1;
            assert_eq!(p, 1.0);
            assert_eq!(record.action, Action::BecomeHungry);
        });
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
    fn relabelled_fingerprint_identity_matches_fingerprint() {
        use crate::snapshot::RelabelScratch;
        let mut engine = engine(4, 2);
        engine.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(123),
        );
        let snapshot = engine.snapshot();
        let phil_id: Vec<PhilosopherId> = (0..4).map(PhilosopherId::new).collect();
        let fork_id: Vec<ForkId> = (0..4).map(ForkId::new).collect();
        let mut scratch = RelabelScratch::new();
        assert_eq!(
            snapshot.relabelled_fingerprint(&phil_id, &fork_id, &mut scratch),
            snapshot.fingerprint()
        );
        // A ring rotation relabels the state consistently: rotating twice by
        // one is the same as rotating once by two.
        let rot = |c: u32| {
            (
                (0..4u32)
                    .map(|p| PhilosopherId::new((p + c) % 4))
                    .collect::<Vec<_>>(),
                (0..4u32)
                    .map(|f| ForkId::new((f + c) % 4))
                    .collect::<Vec<_>>(),
            )
        };
        let (p1, f1) = rot(1);
        let (p2, f2) = rot(2);
        let once = snapshot.relabelled_fingerprint(&p1, &f1, &mut scratch);
        let twice = snapshot.relabelled_fingerprint(&p2, &f2, &mut scratch);
        assert_ne!(once, snapshot.fingerprint());
        assert_ne!(once, twice);
    }

    #[test]
    fn event_sink_mirrors_the_trace_and_survives_reset() {
        use gdp_observe::{Event, MemorySink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let mut e = engine(5, 7);
        e.set_event_sink(Some(sink.clone()));
        e.run(
            &mut RoundRobinAdversary::new(),
            StopCondition::MaxSteps(400),
        );
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
        let from_trace: Vec<(u64, u32)> = e
            .trace()
            .unwrap()
            .meals_started()
            .iter()
            .map(|&(step, p)| (step, p.raw()))
            .collect();
        assert_eq!(meal_starts, from_trace, "meal events mirror the trace");
        // Clocks are non-decreasing step indices.
        let clocks: Vec<u64> = events.iter().map(Event::clock).collect();
        assert!(clocks.windows(2).all(|w| w[0] <= w[1]));

        // The sink survives reset and keeps recording.
        e.reset_with_seed(8);
        e.run(&mut RoundRobinAdversary::new(), StopCondition::MaxSteps(10));
        assert_eq!(
            sink.take()
                .iter()
                .filter(|ev| matches!(ev, Event::Schedule { .. }))
                .count(),
            10
        );
    }

    #[test]
    fn meal_histograms_are_step_denominated_and_cleared_on_reset() {
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
        // One first-meal sample per philosopher that ever ate; every later
        // meal start is an inter-meal sample.
        assert_eq!(e.first_meal_histogram().total(), eaters);
        let total_starts = e.trace().unwrap().meals_started().len() as u64;
        assert_eq!(e.inter_meal_histogram().total(), total_starts - eaters);
        // The earliest possible first meal needs a few steps, so the p50
        // estimate is positive and below the step budget.
        let p50 = e.first_meal_histogram().quantile(50.0);
        assert!(p50 > 0.0 && p50 < 2_000.0);

        e.reset();
        assert!(e.first_meal_histogram().is_empty());
        assert!(e.inter_meal_histogram().is_empty());
    }

    #[test]
    fn nr_range_defaults_to_fork_count() {
        let e = engine(6, 0);
        assert_eq!(e.nr_range(), 6);
        let e2 = Engine::new(
            classic_ring(6).unwrap(),
            ToyProgram,
            SimConfig::default().with_nr_range(50),
        );
        assert_eq!(e2.nr_range(), 50);
    }
}
