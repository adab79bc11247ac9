//! Simulation configuration.

use crate::hunger::HungerModel;

/// Configuration of one simulated execution.
///
/// `SimConfig` is a plain value with builder-style `with_*` methods:
///
/// ```
/// use gdp_sim::{SimConfig, HungerModel};
/// let config = SimConfig::default()
///     .with_seed(7)
///     .with_hunger(HungerModel::Bernoulli(0.5));
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed for the philosophers' private randomness.  Two runs with the same
    /// topology, program, adversary and seed are identical.
    pub seed: u64,
    /// When does a thinking philosopher become hungry?
    pub hunger: HungerModel,
    /// Probability that `random_choice(left, right)` returns `left`.
    /// The paper notes its negative results hold for any positive bias; the
    /// classic algorithms use 1/2.
    pub left_bias: f64,
    /// Inclusive upper bound `m` of the priority-number range `[1, m]` drawn
    /// by GDP1/GDP2.  `None` means "use the number of forks `k`", the
    /// smallest value permitted by the paper's requirement `m >= k`.
    pub nr_range: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            hunger: HungerModel::Always,
            left_bias: 0.5,
            nr_range: None,
        }
    }
}

impl SimConfig {
    /// Creates the default configuration (seed 0, always hungry, fair coin,
    /// `m = k`).
    #[must_use]
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hunger model.
    #[must_use]
    pub fn with_hunger(mut self, hunger: HungerModel) -> Self {
        self.hunger = hunger;
        self
    }

    /// Sets the probability of drawing the left fork in `random_choice`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not in `(0, 1)`: the paper requires every outcome
    /// of the draw to have positive probability.
    #[must_use]
    pub fn with_left_bias(mut self, bias: f64) -> Self {
        assert!(
            bias > 0.0 && bias < 1.0,
            "left bias must be strictly between 0 and 1, got {bias}"
        );
        self.left_bias = bias;
        self
    }

    /// Sets the upper bound `m` of the GDP priority-number range `[1, m]`.
    #[must_use]
    pub fn with_nr_range(mut self, m: u32) -> Self {
        self.nr_range = Some(m);
        self
    }

    /// Resolves the effective `m` for a system with `num_forks` forks:
    /// the configured value if present (clamped up to `num_forks` to honour
    /// the paper's `m >= k` requirement), otherwise exactly `num_forks`.
    #[must_use]
    pub fn effective_nr_range(&self, num_forks: usize) -> u32 {
        let k = num_forks as u32;
        match self.nr_range {
            Some(m) => m.max(k),
            None => k.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let c = SimConfig::new()
            .with_seed(9)
            .with_left_bias(0.25)
            .with_nr_range(100)
            .with_hunger(HungerModel::Never);
        assert_eq!(c.seed, 9);
        assert_eq!(c.left_bias, 0.25);
        assert_eq!(c.nr_range, Some(100));
        assert_eq!(c.hunger, HungerModel::Never);
    }

    #[test]
    fn effective_nr_range_enforces_m_at_least_k() {
        let c = SimConfig::default();
        assert_eq!(c.effective_nr_range(5), 5);
        // Configured below k: clamped up to k.
        let c = SimConfig::default().with_nr_range(2);
        assert_eq!(c.effective_nr_range(7), 7);
        // Configured above k: honoured.
        let c = SimConfig::default().with_nr_range(64);
        assert_eq!(c.effective_nr_range(7), 64);
    }

    #[test]
    #[should_panic(expected = "left bias")]
    fn degenerate_bias_rejected() {
        let _ = SimConfig::default().with_left_bias(0.0);
    }

    #[test]
    fn default_values_match_paper_assumptions() {
        let c = SimConfig::default();
        assert_eq!(c.left_bias, 0.5);
        assert_eq!(c.hunger, HungerModel::Always);
        assert_eq!(c.nr_range, None);
    }
}
