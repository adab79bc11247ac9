//! Scripted randomness: replaying and enumerating a step's random draws.
//!
//! The paper's probabilistic automaton treats a philosopher's random draws
//! as *probabilistic branches*: when a scheduled step reaches a coin flip or
//! a `random[1, m]` draw, the automaton forks into one successor per
//! outcome, weighted by the outcome's probability.  Monte-Carlo simulation
//! samples those branches through the engine's seeded RNG; exact model
//! checking (`gdp-mcheck`) must instead *enumerate* them.
//!
//! A [`DrawTape`] is the bridge between the two worlds.  A scripted step
//! consumes its random draws from the tape instead of the RNG:
//!
//! * while the tape has prerecorded outcomes, each draw pops the next one
//!   (replaying one concrete branch of the automaton);
//! * the first draw *past* the end of the tape records the [`DrawRequest`]
//!   that the program issued — its kind and outcome domain — and returns a
//!   default value.  The caller observes the pending request, discards the
//!   poisoned execution, and re-runs the step once per possible outcome
//!   with an extended tape.
//!
//! [`EngineState::for_each_step_outcome`](crate::EngineState::for_each_step_outcome)
//! packages that probe-extend-rerun loop into a single enumeration
//! primitive on a bare state, discarding a poisoned execution by stepping
//! a fresh copy; everything in `gdp-mcheck` is built on it.

/// The kind (and outcome domain) of one random draw a program requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrawRequest {
    /// A fair coin, issued by
    /// [`StepCtx::random_side`](crate::StepCtx::random_side) (where `true`
    /// means *left*).
    Coin,
    /// A uniform draw from `[1, m]`, issued by
    /// [`StepCtx::random_nr`](crate::StepCtx::random_nr).
    Uniform {
        /// Inclusive upper bound `m` of the outcome range.
        m: u32,
    },
}

impl DrawRequest {
    /// The outcomes of this draw, as `(outcome, probability)` pairs in a
    /// fixed deterministic order: `true` before `false` for a coin, `1`
    /// upwards for a uniform draw.
    #[must_use]
    pub fn outcomes(self) -> Vec<(DrawOutcome, f64)> {
        match self {
            DrawRequest::Coin => vec![
                (DrawOutcome::Coin(true), 0.5),
                (DrawOutcome::Coin(false), 0.5),
            ],
            DrawRequest::Uniform { m } => {
                let p = 1.0 / f64::from(m.max(1));
                (1..=m.max(1))
                    .map(|value| (DrawOutcome::Uniform(value), p))
                    .collect()
            }
        }
    }
}

/// One resolved outcome on a [`DrawTape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrawOutcome {
    /// Outcome of a [`DrawRequest::Coin`].
    Coin(bool),
    /// Outcome of a [`DrawRequest::Uniform`] (a value in `[1, m]`).
    Uniform(u32),
}

/// A finite script of draw outcomes consumed by one scripted step.
///
/// See the [module documentation](self) for the probe-extend-rerun protocol.
#[derive(Clone, Debug, Default)]
pub struct DrawTape {
    outcomes: Vec<DrawOutcome>,
    position: usize,
    pending: Option<DrawRequest>,
}

impl DrawTape {
    /// An empty tape: the very first draw of a scripted step will run past
    /// the end and surface as [`pending`](Self::pending).
    #[must_use]
    pub fn new() -> Self {
        DrawTape::default()
    }

    /// Rewinds the tape to its beginning and clears any pending request,
    /// keeping the recorded outcomes.
    pub fn rewind(&mut self) {
        self.position = 0;
        self.pending = None;
    }

    /// Appends `outcome` to the script.
    pub fn push(&mut self, outcome: DrawOutcome) {
        self.outcomes.push(outcome);
    }

    /// Removes the last scripted outcome, if any.
    pub fn pop(&mut self) -> Option<DrawOutcome> {
        self.outcomes.pop()
    }

    /// The scripted outcomes.
    #[must_use]
    pub fn outcomes(&self) -> &[DrawOutcome] {
        &self.outcomes
    }

    /// The draw request that ran past the end of the tape during the last
    /// scripted step, if any.  A pending request poisons the execution it
    /// occurred in: the state after that step is meaningless and must be
    /// discarded.
    #[must_use]
    pub fn pending(&self) -> Option<DrawRequest> {
        self.pending
    }

    /// Pops the next scripted coin outcome, or records a pending
    /// [`DrawRequest::Coin`] and returns a default.
    ///
    /// # Panics
    ///
    /// Panics if the next scripted outcome is not a coin: programs are
    /// deterministic in the *sequence of draw kinds* they issue from a given
    /// state, so a kind mismatch indicates a caller bug (replaying a tape
    /// recorded for a different state).
    pub(crate) fn draw_coin(&mut self) -> bool {
        match self.next_outcome(DrawRequest::Coin) {
            Some(DrawOutcome::Coin(value)) => value,
            Some(other) => panic!("scripted step expected a coin draw, tape has {other:?}"),
            None => false,
        }
    }

    /// Pops the next scripted uniform outcome, or records a pending
    /// [`DrawRequest::Uniform`] and returns a default.
    ///
    /// # Panics
    ///
    /// Panics if the next scripted outcome is not a uniform draw (see
    /// [`draw_coin`](Self::draw_coin)).
    pub(crate) fn draw_uniform(&mut self, m: u32) -> u32 {
        match self.next_outcome(DrawRequest::Uniform { m }) {
            Some(DrawOutcome::Uniform(value)) => value,
            Some(other) => panic!("scripted step expected a uniform draw, tape has {other:?}"),
            None => 1,
        }
    }

    fn next_outcome(&mut self, request: DrawRequest) -> Option<DrawOutcome> {
        if self.position < self.outcomes.len() {
            let outcome = self.outcomes[self.position];
            self.position += 1;
            Some(outcome)
        } else {
            if self.pending.is_none() {
                self.pending = Some(request);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_replays_in_order_then_reports_pending() {
        let mut tape = DrawTape::new();
        tape.push(DrawOutcome::Coin(true));
        tape.push(DrawOutcome::Uniform(4));
        assert!(tape.draw_coin());
        assert_eq!(tape.draw_uniform(9), 4);
        assert_eq!(tape.pending(), None);
        // Past the end: default value, pending recorded once.
        assert_eq!(tape.draw_uniform(9), 1);
        assert!(!tape.draw_coin());
        assert_eq!(tape.pending(), Some(DrawRequest::Uniform { m: 9 }));
    }

    #[test]
    fn rewind_replays_and_pop_empties() {
        let mut tape = DrawTape::new();
        tape.push(DrawOutcome::Coin(false));
        assert!(!tape.draw_coin());
        tape.rewind();
        assert!(!tape.draw_coin());
        assert_eq!(tape.pop(), Some(DrawOutcome::Coin(false)));
        assert_eq!(tape.outcomes(), &[]);
        tape.rewind();
        let _ = tape.draw_coin();
        assert_eq!(tape.pending(), Some(DrawRequest::Coin));
    }

    #[test]
    #[should_panic(expected = "expected a coin draw")]
    fn kind_mismatch_panics() {
        let mut tape = DrawTape::new();
        tape.push(DrawOutcome::Uniform(2));
        let _ = tape.draw_coin();
    }

    #[test]
    fn coin_outcomes_are_true_then_false_at_one_half() {
        assert_eq!(
            DrawRequest::Coin.outcomes(),
            vec![
                (DrawOutcome::Coin(true), 0.5),
                (DrawOutcome::Coin(false), 0.5)
            ]
        );
    }

    #[test]
    fn uniform_outcomes_cover_the_range_uniformly() {
        let outcomes = DrawRequest::Uniform { m: 4 }.outcomes();
        assert_eq!(outcomes.len(), 4);
        for (i, (outcome, p)) in outcomes.iter().enumerate() {
            assert_eq!(*outcome, DrawOutcome::Uniform(i as u32 + 1));
            assert!((p - 0.25).abs() < 1e-12);
        }
    }
}
