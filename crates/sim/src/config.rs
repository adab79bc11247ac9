//! Simulation configuration.

/// Configuration of one simulated execution: the seed of the philosophers'
/// private randomness.
///
/// The model itself is fixed by [`StepCtx`](crate::StepCtx), as in the
/// paper: a scheduled thinking philosopher becomes hungry,
/// `random_choice(left, right)` flips a fair coin, and a priority number is
/// drawn from `[1, k]` with `k` the number of forks.
///
/// ```
/// use gdp_sim::SimConfig;
/// let config = SimConfig::default().with_seed(7);
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for the philosophers' private randomness.  Two runs with the same
    /// topology, program, adversary and seed are identical.
    pub seed: u64,
}

impl SimConfig {
    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}
