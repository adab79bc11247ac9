//! Exact solving of the constructed MDP: qualitative certification first,
//! value iteration for the quantitative remainder.
//!
//! The checked quantity is the **worst-case reachability probability over
//! fair adversaries**
//!
//! > `V(s) = inf over fair adversaries of Pr[ target reached from s ]`,
//!
//! the paper's progress / individual-liveness statements ("with probability
//! 1 under every fair adversary") being exactly `V(initial) = 1`.  Fairness
//! — every philosopher is scheduled infinitely often — is essential: an
//! *unrestricted* adversary defeats every algorithm trivially by
//! busy-looping one blocked philosopher forever.
//!
//! **Qualitative phase: fair end components.**  Under any strategy, an
//! infinite play almost surely settles into an *end component* — a set of
//! (state, choice) pairs closed under the probabilistic transitions and
//! strongly connected.  A fair adversary can therefore avoid the target
//! with positive probability **iff** the non-target fragment contains a
//! *fair* end component: one that, for every philosopher `i`, contains a
//! state where scheduling `i` keeps every random outcome inside.  (A true
//! deadlock is the degenerate case: a single state where every
//! philosopher's step self-loops.)  The solver computes the maximal
//! end-component decomposition of the non-target fragment with the
//! standard SCC-refinement algorithm, dropping each round the states that
//! no fair end component can hold; what survives is the union of the fair
//! end components — the **fair cores** — and the solver concludes:
//!
//! * no fair core (and the model untruncated) certifies `V(initial) = 1`
//!   **exactly** — no fixed-point iteration, no rounding;
//! * if the initial state *surely* reaches a fair core (an all-outcomes
//!   attractor), `V(initial) = 0` exactly: starve first, be fair inside
//!   the core forever;
//! * otherwise `V(initial) = 1 − (max probability of reaching a fair core
//!   while avoiding the target)`, computed by value iteration from below.
//!
//! Truncated models are handled conservatively, in both directions: the
//! discovered-but-unexpanded frontier is adversary-friendly for the
//! *quantitative* bound (the reported probability is a lower bound on the
//! true one) yet never the basis of an *exact* claim — "probability 0"
//! certificates rest only on fair cores proved inside the expanded
//! fragment, so a truncated check can refute (a deadlock or starvation
//! component found in the fragment is real) but never certify.
//!
//! **Expected steps.**  The worst-case expected steps-to-target over fair
//! adversaries is degenerate (an adversary may stall on harmless busy-wait
//! self-loops arbitrarily long, so the supremum is infinite whenever any
//! exist); the meaningful exact quantity — and the one Monte-Carlo sweeps
//! estimate as `mean_hunger` — is the expectation under the **uniform
//! random scheduler**, which [`solve`] optionally computes by iterating the
//! induced Markov chain.
//!
//! Every pass iterates states in index order with fixed epsilon and
//! deterministic float arithmetic, so solutions — like the models they are
//! computed from — are bitwise-identical across runs and thread counts.

use crate::model::{Mdp, UNEXPLORED};

/// Convergence threshold of the probability iteration.
const EPSILON: f64 = 1e-13;

/// Convergence threshold of the expected-steps iteration: steps are
/// order-1 integers, so a coarser threshold keeps the iteration count
/// modest while leaving the formatted value stable.
const STEPS_EPSILON: f64 = 1e-10;

/// Iteration cap of both iterations (a backstop; convergence is geometric).
const MAX_ITERATIONS: u64 = 1_000_000;

/// Options controlling the solver.
#[derive(Clone, Debug, Default)]
pub struct SolveOptions {
    /// Also compute the exact expected steps-to-target under the uniform
    /// random scheduler when the probability is certified to be 1 (an
    /// extra value iteration).
    pub expected_steps: bool,
}

/// The solved check.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// Worst-case probability (over fair adversaries) of reaching the
    /// target from the initial state.  Exact when
    /// [`certified`](Self::certified); otherwise iterated to a fixed
    /// convergence threshold of 1e-13 (a lower bound if the model was
    /// truncated).
    pub probability: f64,
    /// `true` when the probability is qualitatively exact (1 via absence
    /// of fair cores, 0 via a sure path into one).
    pub certified: bool,
    /// Number of states inside *genuine* fair avoid cores — fair end
    /// components proved within the expanded fragment.  (The unknown
    /// frontier of a truncated build blocks certification and bounds the
    /// quantitative value, but is never counted here.)
    pub fair_core_states: usize,
    /// Whether the initial state surely reaches a fair core.
    pub initial_sure_avoids: bool,
    /// Probability value-iteration rounds performed (0 when certified).
    pub iterations: u64,
    /// Exact expected steps to the first target state under the uniform
    /// random scheduler; `Some` only when requested and the probability is
    /// certified 1.
    pub expected_steps: Option<f64>,
    /// Rounds of the expected-steps iteration.
    pub expected_steps_iterations: u64,
    /// Per-state avoid potential guiding counterexample replay
    /// (`crate::strategy`): the exact max-avoid value in the quantitative
    /// case, the indicator of the sure-avoid region (core ∪ attractor)
    /// in the certified-0 case, all zeros when the property is certified.
    /// Frame-independent — values attach to canonical states, so a live
    /// engine can be steered without knowing which relabelling the model
    /// stored.
    pub avoid_value: Vec<f64>,
}

impl Solution {
    /// `true` if the worst-case probability is exactly 1 (the paper's
    /// "with probability 1 under every fair adversary").
    #[must_use]
    pub fn holds_with_probability_one(&self) -> bool {
        self.certified && self.probability == 1.0
    }
}

/// A fixed-length set of bits.
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// Marks a state the SCC search has not reached.
const UNSEEN: u32 = u32::MAX;

/// Iterative Tarjan SCC over the sub-graph of the `live` states and their
/// `enabled` rows.  Returns `component[s]` (`UNSEEN` for states outside the
/// sub-graph) and the number of components.  A state's DFS index is read
/// only while the state is on the stack, so the array holding it takes the
/// state's component number when its component closes.
fn strongly_connected_components(mdp: &Mdp, live: &Bits, enabled: &Bits) -> (Vec<u32>, u32) {
    let n_states = mdp.num_states;
    let n_choices = mdp.num_choices;
    let mut index = vec![UNSEEN; n_states];
    let mut lowlink = vec![0u32; n_states];
    let mut on_stack = Bits::new(n_states);
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_component = 0u32;

    // Explicit DFS frames: (state, position in its enabled successors).
    enum Frame {
        Enter(u32),
        Resume(u32, u32),
    }
    let mut work: Vec<Frame> = Vec::new();

    for root in 0..n_states as u32 {
        if !live.get(root as usize) || index[root as usize] != UNSEEN {
            continue;
        }
        work.push(Frame::Enter(root));
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(s) => {
                    index[s as usize] = next_index;
                    lowlink[s as usize] = next_index;
                    next_index += 1;
                    stack.push(s);
                    on_stack.set(s as usize);
                    work.push(Frame::Resume(s, 0));
                }
                Frame::Resume(s, mut edge) => {
                    // Scan the enabled rows' successors from position
                    // `edge`, skipping whole rows before it.
                    let mut descended = false;
                    let mut seen = 0u32;
                    'scan: for (c, (succs, _)) in mdp.rows(s).enumerate() {
                        if !enabled.get(s as usize * n_choices + c) {
                            continue;
                        }
                        let len = succs.len() as u32;
                        if seen + len <= edge {
                            seen += len;
                            continue;
                        }
                        for &succ in &succs[(edge - seen) as usize..] {
                            edge += 1;
                            let t = succ as usize;
                            if index[t] == UNSEEN {
                                work.push(Frame::Resume(s, edge));
                                work.push(Frame::Enter(succ));
                                descended = true;
                                break 'scan;
                            }
                            if on_stack.get(t) {
                                lowlink[s as usize] = lowlink[s as usize].min(index[t]);
                            }
                        }
                        seen += len;
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[s as usize] == index[s as usize] {
                        loop {
                            let t = stack.pop().expect("tarjan stack underflow");
                            on_stack.clear(t as usize);
                            index[t as usize] = next_component;
                            if t == s {
                                break;
                            }
                        }
                        next_component += 1;
                    }
                    // Propagate the lowlink to the parent frame.
                    if let Some(Frame::Resume(parent, _)) = work.last() {
                        let parent = *parent as usize;
                        lowlink[parent] = lowlink[parent].min(lowlink[s as usize]);
                    }
                }
            }
        }
    }
    (index, next_component)
}

/// The fair-core analysis: the states of the non-target fragment that a
/// fair end component holds.
struct FairCores {
    /// States of *genuine* fair end components, proved inside the expanded
    /// fragment — refutations built on these are valid even when the model
    /// is truncated.
    genuine: Vec<bool>,
    genuine_states: usize,
    /// Genuine cores plus the unknown (unexpanded) frontier of a truncated
    /// build: the conservative set that blocks certification and bounds
    /// the quantitative value.
    conservative: Vec<bool>,
}

fn fair_cores(mdp: &Mdp) -> FairCores {
    let n_states = mdp.num_states;
    let n_choices = mdp.num_choices;
    let masks = mdp.fairness_requirement.as_deref();

    // Live fragment: expanded non-target states.
    let mut live = Bits::new(n_states);
    for s in 0..n_states {
        if mdp.expanded[s] && !mdp.target[s] {
            live.set(s);
        }
    }
    // A choice is enabled while it has at least one outcome and all its
    // outcomes stay in the live fragment.  (Restricted models disallow some
    // choices by giving them empty rows; an empty row is never enabled —
    // no play can take it.)
    let mut enabled = Bits::new(n_states * n_choices);
    for s in 0..n_states {
        if !live.get(s) {
            continue;
        }
        for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
            let all_live = succs
                .iter()
                .all(|&succ| succ != UNEXPLORED && live.get(succ as usize));
            if !succs.is_empty() && all_live {
                enabled.set(s * n_choices + c);
            }
        }
    }

    // Standard MEC refinement: SCCs of the enabled sub-graph; disable
    // choices that leave their component; drop states with no enabled
    // choice; repeat until stable.
    //
    // Each round also drops every state whose own requirement its component
    // does not cover.  A fair end component that holds state `s` enables
    // every choice `s` requires, and it lies inside `s`'s component of the
    // round with its rows enabled; so if that component misses a choice `s`
    // requires, no fair end component holds `s`.  Once a round changes
    // nothing, each component is an end component that enables every
    // choice each of its states requires: the surviving states are the
    // fair cores.
    loop {
        let (component, num_components) = strongly_connected_components(mdp, &live, &enabled);
        let mut coverage = Coverage::new(num_components as usize, n_choices, masks.is_some());
        let mut changed = false;
        for s in 0..n_states {
            if !live.get(s) {
                continue;
            }
            let mut any_enabled = false;
            for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
                let row = s * n_choices + c;
                if !enabled.get(row) {
                    continue;
                }
                if succs
                    .iter()
                    .any(|&succ| component[succ as usize] != component[s])
                {
                    enabled.clear(row);
                    changed = true;
                } else {
                    any_enabled = true;
                    coverage.enable(component[s] as usize, c);
                }
            }
            if !any_enabled {
                live.clear(s);
                changed = true;
            }
        }
        for (s, &own) in component.iter().enumerate() {
            let required = masks.map_or(coverage.every.as_slice(), |masks| &masks[s..=s]);
            if live.get(s) && !coverage.covers(own as usize, required) {
                live.clear(s);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // A state that died invalidates choices pointing at it.
        for s in 0..n_states {
            if !live.get(s) {
                continue;
            }
            for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
                let row = s * n_choices + c;
                if enabled.get(row) && succs.iter().any(|&succ| !live.get(succ as usize)) {
                    enabled.clear(row);
                }
            }
        }
    }

    let mut genuine = vec![false; n_states];
    let mut conservative = vec![false; n_states];
    let mut genuine_states = 0usize;
    for s in 0..n_states {
        if live.get(s) {
            genuine[s] = true;
            conservative[s] = true;
            genuine_states += 1;
        } else if !mdp.expanded[s] && !mdp.target[s] {
            // Unknown frontier of a truncated build: conservatively
            // adversary-friendly, but never the basis of an "exact" claim.
            conservative[s] = true;
        }
    }
    FairCores {
        genuine,
        genuine_states,
        conservative,
    }
}

/// The choices the components of one refinement round enable.
///
/// Choice sets are `words` 64-bit words wide, so any number of
/// philosophers fits; a restricted model's fairness masks
/// ([`Mdp::fairness_requirement`]) are one word (its product build caps the
/// philosopher count).
struct Coverage {
    words: usize,
    /// Per component, `words` words: the choices enabled in it.
    covered: Vec<u64>,
    /// Every choice, `words` words: what each state of an unrestricted
    /// model requires.
    every: Vec<u64>,
}

impl Coverage {
    fn new(components: usize, n_choices: usize, masked: bool) -> Self {
        let words = n_choices.div_ceil(64);
        assert!(!masked || words == 1, "fairness masks are one word");
        Coverage {
            words,
            covered: vec![0; components * words],
            every: (0..words)
                .map(|w| u64::MAX >> (64 - (n_choices - 64 * w).min(64)))
                .collect(),
        }
    }

    /// Records that choice `c` is enabled in `component`.
    fn enable(&mut self, component: usize, c: usize) {
        self.covered[component * self.words + c / 64] |= 1 << (c % 64);
    }

    /// Whether `component` enables every choice in `required`.
    fn covers(&self, component: usize, required: &[u64]) -> bool {
        let covered = &self.covered[component * self.words..][..self.words];
        covered.iter().zip(required).all(|(c, r)| c & r == *r)
    }
}

/// All-outcomes attractor of `core`: the states from which the adversary
/// can *surely* (against every random outcome) drive the system into the
/// core.
fn sure_attractor(mdp: &Mdp, core: &[bool]) -> Vec<bool> {
    let n_states = mdp.num_states;
    let mut inside: Vec<bool> = core.to_vec();
    // Simple round-based saturation: the attractor of these models is
    // shallow (bounded by the BFS diameter).
    loop {
        let mut changed = false;
        for s in 0..n_states {
            if inside[s] || mdp.target[s] || !mdp.expanded[s] {
                continue;
            }
            let surely_in = mdp.rows(s as u32).any(|(succs, _)| {
                !succs.is_empty()
                    && succs
                        .iter()
                        .all(|&succ| succ != UNEXPLORED && inside[succ as usize])
            });
            if surely_in {
                inside[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    inside
}

/// Solves `mdp` for the worst-case (fair-adversary) reachability
/// probability, and optionally the uniform-scheduler expected steps.  See
/// the [module docs](self).
#[must_use]
pub fn solve(mdp: &Mdp, options: &SolveOptions) -> Solution {
    let n_states = mdp.num_states;
    let cores = fair_cores(mdp);

    if cores.genuine_states == 0 && !mdp.truncated {
        let (expected_steps, expected_steps_iterations) = if options.expected_steps {
            let (value, iters) = uniform_expected_steps(mdp);
            (Some(value), iters)
        } else {
            (None, 0)
        };
        return Solution {
            probability: 1.0,
            certified: true,
            fair_core_states: 0,
            initial_sure_avoids: false,
            iterations: 0,
            expected_steps,
            expected_steps_iterations,
            avoid_value: vec![0.0; n_states],
        };
    }

    // "Exactly 0" may only rest on *genuine* cores: surely reaching the
    // unknown frontier of a truncated build proves nothing.
    let sure = sure_attractor(mdp, &cores.genuine);
    if cores.genuine_states > 0 && sure[mdp.initial as usize] {
        let avoid_value = sure.iter().map(|&s| f64::from(u8::from(s))).collect();
        return Solution {
            probability: 0.0,
            certified: true,
            fair_core_states: cores.genuine_states,
            initial_sure_avoids: true,
            iterations: 0,
            expected_steps: None,
            expected_steps_iterations: 0,
            avoid_value,
        };
    }

    // Quantitative remainder: the adversary maximises the probability of
    // reaching a fair core — conservatively including the unknown frontier
    // of a truncated build — while avoiding the target; the fair
    // worst-case target probability is the complement (a lower bound when
    // truncated).
    let mut avoid: Vec<f64> = (0..n_states)
        .map(|s| if cores.conservative[s] { 1.0 } else { 0.0 })
        .collect();
    let mut next = avoid.clone();
    let mut iterations = 0u64;
    loop {
        let mut delta: f64 = 0.0;
        for s in 0..n_states {
            if cores.conservative[s] || mdp.target[s] || !mdp.expanded[s] {
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            for (succs, probs) in mdp.rows(s as u32) {
                let mut value = 0.0;
                for (&succ, &p) in succs.iter().zip(probs) {
                    // UNEXPLORED is adversary-friendly (truncated models
                    // only report lower bounds on the target probability).
                    value += p * if succ == UNEXPLORED {
                        1.0
                    } else {
                        avoid[succ as usize]
                    };
                }
                if value > best {
                    best = value;
                }
            }
            delta = delta.max(best - avoid[s]);
            next[s] = best;
        }
        std::mem::swap(&mut avoid, &mut next);
        iterations += 1;
        if delta <= EPSILON || iterations >= MAX_ITERATIONS {
            break;
        }
    }

    // Pin the sure-avoid region at exactly 1 (value iteration from below
    // only approaches it in the limit) so replay can rely on the value-1
    // region being closed.
    for s in 0..n_states {
        if sure[s] {
            avoid[s] = 1.0;
        }
    }
    Solution {
        probability: 1.0 - avoid[mdp.initial as usize],
        certified: false,
        fair_core_states: cores.genuine_states,
        initial_sure_avoids: false,
        iterations,
        expected_steps: None,
        expected_steps_iterations: 0,
        avoid_value: avoid,
    }
}

/// Expected steps to the first target state under the uniform random
/// scheduler (each philosopher scheduled with probability `1/n` each
/// step), iterated on the induced Markov chain.  Only called on certified
/// models, where the expectation is finite.
fn uniform_expected_steps(mdp: &Mdp) -> (f64, u64) {
    let n_states = mdp.num_states;
    let n_choices = mdp.num_choices;
    let uniform = 1.0 / n_choices as f64;
    let mut values = vec![0.0f64; n_states];
    let mut next = values.clone();
    let mut iterations = 0u64;
    loop {
        let mut delta: f64 = 0.0;
        for s in 0..n_states {
            if mdp.target[s] {
                continue;
            }
            let mut value = 1.0;
            for (succs, probs) in mdp.rows(s as u32) {
                let mut choice_value = 0.0;
                for (&succ, &p) in succs.iter().zip(probs) {
                    choice_value += p * values[succ as usize];
                }
                value += uniform * choice_value;
            }
            delta = delta.max(value - values[s]);
            next[s] = value;
        }
        std::mem::swap(&mut values, &mut next);
        iterations += 1;
        if delta <= STEPS_EPSILON || iterations >= MAX_ITERATIONS {
            break;
        }
    }
    (values[mdp.initial as usize], iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_mdp, BuildOptions, CheckTarget};
    use crate::restricted::AdversaryClass;
    use gdp_algorithms::baselines::OrderedForks;
    use gdp_algorithms::{AlgorithmKind, Gdp1, Lr1};
    use gdp_sim::Program;
    use gdp_topology::builders::{classic_ring, generalized_theta, shared_ring};
    use gdp_topology::{PhilosopherId, Topology};

    fn build<P>(topology: &Topology, program: &P, target: CheckTarget, symmetry: bool) -> Mdp
    where
        P: Program + Clone + Send + Sync,
        P::State: Send + Sync,
    {
        build_mdp(
            topology,
            program,
            target,
            &BuildOptions::default()
                .with_symmetry(symmetry)
                .with_threads(1)
                .with_max_states(300_000),
        )
    }

    /// The refinement loop without the prune: SCC rounds until nothing
    /// changes, then the fairness filter over the maximal end components.
    /// It judges each of them whole, so it is exact only while every state
    /// of one requires the same choices, as in the three adversary
    /// classes.
    fn reference_fair_cores(mdp: &Mdp) -> FairCores {
        let n_states = mdp.num_states;
        let n_choices = mdp.num_choices;

        // Live fragment: expanded non-target states.
        let mut live = Bits::new(n_states);
        for s in 0..n_states {
            if mdp.expanded[s] && !mdp.target[s] {
                live.set(s);
            }
        }
        // A choice is enabled while it has at least one outcome and all its
        // outcomes stay in the live fragment.  (Restricted models disallow some
        // choices by giving them empty rows; an empty row is never enabled —
        // no play can take it.)
        let mut enabled = Bits::new(n_states * n_choices);
        for s in 0..n_states {
            if !live.get(s) {
                continue;
            }
            for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
                let all_live = succs
                    .iter()
                    .all(|&succ| succ != UNEXPLORED && live.get(succ as usize));
                if !succs.is_empty() && all_live {
                    enabled.set(s * n_choices + c);
                }
            }
        }

        // Standard MEC refinement: SCCs of the enabled sub-graph; disable
        // choices that leave their component; drop states with no enabled
        // choice; repeat until stable.  The last round changed nothing, so its
        // components are the end components.
        let (component, num_components) = loop {
            let (component, num_components) = strongly_connected_components(mdp, &live, &enabled);
            let mut changed = false;
            for s in 0..n_states {
                if !live.get(s) {
                    continue;
                }
                let mut any_enabled = false;
                for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
                    let row = s * n_choices + c;
                    if !enabled.get(row) {
                        continue;
                    }
                    if succs
                        .iter()
                        .any(|&succ| component[succ as usize] != component[s])
                    {
                        enabled.clear(row);
                        changed = true;
                    } else {
                        any_enabled = true;
                    }
                }
                if !any_enabled {
                    live.clear(s);
                    changed = true;
                }
            }
            if !changed {
                break (component, num_components);
            }
            // A state that died invalidates choices pointing at it.
            for s in 0..n_states {
                if !live.get(s) {
                    continue;
                }
                for (c, (succs, _)) in mdp.rows(s as u32).enumerate() {
                    let row = s * n_choices + c;
                    if enabled.get(row) && succs.iter().any(|&succ| !live.get(succ as usize)) {
                        enabled.clear(row);
                    }
                }
            }
        };

        // Fairness filter: an end component is a fair core iff every choice
        // the fairness requirement names for its member states is enabled
        // somewhere in the component (all outcomes inside).  For unrestricted
        // models the requirement is "every philosopher"; restricted models
        // ([`Mdp::fairness_requirement`]) narrow it — e.g. under crash-stop
        // faults only the surviving philosophers must keep being scheduled.
        //
        // Each component's choice sets are `words` 64-bit words wide, so any
        // number of philosophers fits; a restricted model's requirement masks
        // are one word (its product build caps the philosopher count).
        let words = n_choices.div_ceil(64);
        let mut covered = vec![0u64; num_components as usize * words];
        let mut required = match mdp.fairness_requirement {
            None => (0..words)
                .map(|w| u64::MAX >> (64 - (n_choices - 64 * w).min(64)))
                .collect::<Vec<_>>()
                .repeat(num_components as usize),
            Some(_) => vec![0u64; num_components as usize * words],
        };
        for s in 0..n_states {
            if !live.get(s) {
                continue;
            }
            let base = component[s] as usize * words;
            if let Some(masks) = &mdp.fairness_requirement {
                required[base] |= masks[s];
            }
            for c in 0..n_choices {
                if enabled.get(s * n_choices + c) {
                    covered[base + c / 64] |= 1 << (c % 64);
                }
            }
        }

        let mut genuine = vec![false; n_states];
        let mut conservative = vec![false; n_states];
        let mut genuine_states = 0usize;
        for s in 0..n_states {
            let fair = live.get(s) && {
                let base = component[s] as usize * words;
                let span = base..base + words;
                covered[span.clone()]
                    .iter()
                    .zip(&required[span])
                    .all(|(covered, required)| covered & required == *required)
            };
            if fair {
                genuine[s] = true;
                conservative[s] = true;
                genuine_states += 1;
            } else if !mdp.expanded[s] && !mdp.target[s] {
                // Unknown frontier of a truncated build: conservatively
                // adversary-friendly, but never the basis of an "exact" claim.
                conservative[s] = true;
            }
        }
        FairCores {
            genuine,
            genuine_states,
            conservative,
        }
    }

    /// The prune drops only states that no fair end component holds, so on
    /// models whose requirements are constant inside each component the
    /// fair cores come out as the plain refinement finds them.  The
    /// models: rings of 3 and 4 under five algorithms, both targets and
    /// every adversary class, and theta graphs of 4 and 5 philosophers and
    /// a shared ring under all fair schedulers.  Each is built at budgets
    /// of 300 and 20,000 states: 68 of the 180 builds are whole, and 49
    /// have fair cores.  (Many of these models exceed any budget a unit
    /// test can afford; ring-4 GDP2's lockout model alone passes 2 M
    /// states.)
    #[test]
    fn pruned_fair_cores_match_the_plain_refinement() {
        let kinds = [
            AlgorithmKind::Lr1,
            AlgorithmKind::Lr2,
            AlgorithmKind::Gdp1,
            AlgorithmKind::Gdp2,
            AlgorithmKind::Naive,
        ];
        let lockout = CheckTarget::PhilosopherEats(PhilosopherId::new(0));
        let classes = [
            AdversaryClass::Fair,
            AdversaryClass::KBounded { k: 2 },
            AdversaryClass::CrashStop { max_crashes: 1 },
        ];
        let mut cells = Vec::new();
        for size in [3, 4] {
            cells.extend(classes.map(|class| (classic_ring(size).unwrap(), class)));
        }
        for topology in [
            generalized_theta(&[2, 1, 1]).unwrap(),
            generalized_theta(&[2, 2, 1]).unwrap(),
            shared_ring(3, 2).unwrap(),
        ] {
            cells.push((topology, AdversaryClass::Fair));
        }
        let (mut counts, mut with_cores) = ([0; 2], 0);
        for (topology, class) in &cells {
            for kind in kinds {
                let program = kind.program();
                for target in [CheckTarget::Progress, lockout] {
                    for budget in [300, 20_000] {
                        let options = BuildOptions::default()
                            .with_threads(1)
                            .with_max_states(budget)
                            .with_class(*class);
                        let mdp = build_mdp(topology, &program, target, &options);
                        let (pruned, plain) = (fair_cores(&mdp), reference_fair_cores(&mdp));
                        let context = format!(
                            "{kind} on {} {target:?} {class:?} {budget}",
                            topology.summary()
                        );
                        assert_eq!(pruned.genuine, plain.genuine, "{context}");
                        assert_eq!(pruned.genuine_states, plain.genuine_states, "{context}");
                        assert_eq!(pruned.conservative, plain.conservative, "{context}");
                        counts[usize::from(mdp.truncated)] += 1;
                        with_cores += usize::from(plain.genuine_states > 0);
                    }
                }
            }
        }
        assert_eq!(counts, [68, 112], "models built whole and truncated");
        assert_eq!(with_cores, 49, "models with fair cores");
    }

    /// The prune drops states, not whole components.  Here state 1 shares
    /// a component with state 0 and requires choice 1, which the component
    /// never keeps inside, yet state 0 alone is a fair end component:
    /// dropping the component by what *some* state of it requires would
    /// lose it.
    #[test]
    fn the_prune_keeps_fair_end_components_of_mixed_components() {
        // State 0: choice 0 loops, choice 1 goes to states 1 and 2 with
        // probability 1/2 each.  State 1 returns to 0 and state 2 loops,
        // both by choice 0; choice 1 is disallowed in both.
        let mdp = Mdp::from_rows(
            &[
                &[&[(0, 1.0)], &[(1, 0.5), (2, 0.5)]],
                &[&[(0, 1.0)], &[]],
                &[&[(2, 1.0)], &[]],
            ],
            Some(vec![0b01, 0b11, 0b10]),
        );
        let (pruned, plain) = (fair_cores(&mdp), reference_fair_cores(&mdp));
        assert_eq!(plain.genuine, [true, false, false]);
        assert_eq!(pruned.genuine, plain.genuine);
        assert_eq!(pruned.conservative, plain.conservative);
    }

    /// Requirements that vary inside a maximal end component.  State 1
    /// requires choice 2, which is never enabled, so no fair end component
    /// holds it; state 0 requires only choice 0, and with its loop alone it
    /// is a fair end component.  The reference judges {0, 1} whole by what
    /// some state of it requires, and finds no fair core.
    #[test]
    fn fair_cores_are_exact_when_requirements_vary_inside_a_component() {
        // State 0: choice 0 loops, choice 1 goes to state 1, choice 2 is
        // disallowed.  State 1: choice 0 returns to state 0, choices 1 and
        // 2 are disallowed.
        let mdp = Mdp::from_rows(
            &[&[&[(0, 1.0)], &[(1, 1.0)], &[]], &[&[(0, 1.0)], &[], &[]]],
            Some(vec![0b001, 0b100]),
        );
        let cores = fair_cores(&mdp);
        assert_eq!(cores.genuine, [true, false]);
        assert_eq!(cores.genuine_states, 1);
        assert_eq!(cores.conservative, cores.genuine);
        assert_eq!(reference_fair_cores(&mdp).genuine, [false, false]);
    }

    #[test]
    fn lr1_progress_is_certified_one_on_the_two_ring() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mdp = build(&two_ring, &Lr1::new(), CheckTarget::Progress, false);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(solution.holds_with_probability_one(), "{solution:?}");
        assert_eq!(solution.fair_core_states, 0);
    }

    #[test]
    fn gdp1_progress_is_certified_one_on_the_three_ring() {
        let ring = classic_ring(3).unwrap();
        let mdp = build(&ring, &Gdp1::new(), CheckTarget::Progress, true);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(solution.holds_with_probability_one(), "{solution:?}");
    }

    #[test]
    fn lr1_is_not_lockout_free_even_on_the_three_ring() {
        // A fair adversary starves a chosen LR1 philosopher with
        // probability 1 (the generalisation the blocking adversary only
        // approximates by sampling).
        let ring = classic_ring(3).unwrap();
        let mdp = build(
            &ring,
            &Lr1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
            false,
        );
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(solution.fair_core_states > 0, "{solution:?}");
        assert!(
            solution.initial_sure_avoids,
            "starvation should start from the very first step: {solution:?}"
        );
        assert_eq!(solution.probability, 0.0);
        assert!(solution.certified);
    }

    #[test]
    fn expected_steps_are_finite_and_positive_when_requested() {
        let two_ring = Topology::from_arcs(2, [(0, 1), (1, 0)]).unwrap();
        let mdp = build(&two_ring, &Lr1::new(), CheckTarget::Progress, false);
        let solution = solve(
            &mdp,
            &SolveOptions {
                expected_steps: true,
            },
        );
        let steps = solution.expected_steps.unwrap();
        // A philosopher needs at least hungry → draw → take → take → eat.
        assert!(steps > 3.0, "expected steps {steps}");
        assert!(steps.is_finite());
        assert!(solution.expected_steps_iterations > 0);
    }

    #[test]
    fn ordered_forks_progress_is_certified_on_the_three_ring() {
        // Deterministic and deadlock-free: no fair core can exist.
        // (No symmetry: ordered-forks branches on global fork identifiers.)
        let ring = classic_ring(3).unwrap();
        let mdp = build(&ring, &OrderedForks::new(), CheckTarget::Progress, false);
        assert_eq!(mdp.deadlock_states(), 0);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(solution.holds_with_probability_one(), "{solution:?}");
    }

    #[test]
    fn truncated_models_never_certify_success() {
        let ring = classic_ring(4).unwrap();
        let mdp = build_mdp(
            &ring,
            &Gdp1::new(),
            CheckTarget::Progress,
            &BuildOptions::default()
                .with_symmetry(false)
                .with_threads(1)
                .with_max_states(50),
        );
        assert!(mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(!solution.holds_with_probability_one());
    }

    /// Regression (found in review): a truncated GDP1 build must not
    /// fabricate a *certified* refutation just because the initial state
    /// surely reaches the unknown frontier — "probability 0" may only rest
    /// on fair cores proved inside the expanded fragment.
    #[test]
    fn truncated_models_never_fabricate_certified_refutations() {
        let ring = classic_ring(3).unwrap();
        for budget in [20usize, 100, 500] {
            let mdp = build_mdp(
                &ring,
                &Gdp1::new(),
                CheckTarget::Progress,
                &BuildOptions::default()
                    .with_threads(1)
                    .with_max_states(budget),
            );
            assert!(mdp.truncated, "budget {budget}");
            let solution = solve(&mdp, &SolveOptions::default());
            assert!(
                !solution.certified,
                "no exact claim may rest on the unknown frontier (budget {budget}): {solution:?}"
            );
            assert_eq!(solution.fair_core_states, 0, "budget {budget}");
            assert!(!solution.initial_sure_avoids, "budget {budget}");
        }
    }

    /// The other direction stays intact: a *genuine* starvation component
    /// discovered inside a truncated fragment is still a certified
    /// refutation.
    #[test]
    fn genuine_findings_inside_truncated_fragments_still_refute() {
        // The full LR1 3-ring lockout space has 342 states; a budget of
        // 200 truncates it after the starvation core (the region where
        // P0's neighbours can cycle forever) is inside the expanded
        // fragment.
        let ring = classic_ring(3).unwrap();
        let mdp = build_mdp(
            &ring,
            &Lr1::new(),
            CheckTarget::PhilosopherEats(PhilosopherId::new(0)),
            &BuildOptions::default()
                .with_symmetry(false)
                .with_threads(1)
                .with_max_states(200),
        );
        assert!(mdp.truncated);
        let solution = solve(&mdp, &SolveOptions::default());
        assert!(
            solution.fair_core_states > 0,
            "the starvation component is a genuine core: {solution:?}"
        );
        assert!(solution.certified && solution.probability == 0.0);
        assert!(solution.initial_sure_avoids);
    }
}
