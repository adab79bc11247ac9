//! The declarative sweep specification and its grid expansion.

use crate::family::TopologyFamily;
use gdp_algorithms::AlgorithmKind;

/// The scheduler every cell of a sweep runs under: any family from the
/// `gdp-adversary` catalog.
///
/// Re-exported here because cell specs embed it; the catalog itself —
/// families, fairness classes, spec strings, the deterministic per-trial
/// [`build`](gdp_adversary::AdversaryKind::build) — lives in
/// [`gdp_adversary`] and is documented in `docs/ADVERSARIES.md`.
pub use gdp_adversary::AdversaryKind;

/// How cell seeds are derived from the spec's base seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeedPolicy {
    /// Every cell uses the base seed directly: cells with the same trial
    /// index share philosopher randomness, isolating topology/algorithm as
    /// the only varying factors (a paired comparison).
    Shared(u64),
    /// Each cell derives its own seed by hashing the cell key into the base
    /// seed, decorrelating cells while remaining independent of execution
    /// order (the default).
    PerCell(u64),
}

impl SeedPolicy {
    /// The base seed.
    #[must_use]
    pub fn base(self) -> u64 {
        match self {
            SeedPolicy::Shared(base) | SeedPolicy::PerCell(base) => base,
        }
    }

    /// Resolves the seed for the cell with key `key`.
    #[must_use]
    pub fn cell_seed(self, key: &str) -> u64 {
        match self {
            SeedPolicy::Shared(base) => base,
            SeedPolicy::PerCell(base) => base ^ stable_cell_hash(key),
        }
    }

    /// The canonical spec string, e.g. `"per-cell:42"`.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            SeedPolicy::Shared(base) => format!("shared:{base}"),
            SeedPolicy::PerCell(base) => format!("per-cell:{base}"),
        }
    }
}

/// The stable hash behind [`SeedPolicy::PerCell`] seed derivation.
///
/// Deliberately **not** `gdp_sim::fingerprint64`: cell seeds determine the
/// concrete trials of every sweep, and the committed qualitative sweep
/// expectations (e.g. `tests/scenarios_sweep.rs`) are pinned to them — so
/// seed derivation stays on the fixed-key SipHash `DefaultHasher` the
/// sweeps have used since PR 2, independent of whatever the engine's
/// state-fingerprint hasher evolves into.
fn stable_cell_hash(key: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// A fully specified scenario sweep: the Cartesian grid
/// *families × sizes × algorithms*, one adversary, and a trial budget.
///
/// Build one with [`ScenarioSpec::new`] plus the `with_*` methods, then
/// expand it with [`expand`](ScenarioSpec::expand) or run it with
/// [`run_sweep`](crate::run_sweep).
///
/// ```
/// use gdp_scenarios::ScenarioSpec;
/// let spec = ScenarioSpec::new("demo")
///     .with_families_str("ring,torus,complete,star").unwrap()
///     .with_sizes([6, 9, 12])
///     .with_algorithms_str("lr1,gdp1").unwrap();
/// // 4 families x 3 sizes x 2 algorithms = 24 cells.
/// assert_eq!(spec.expand().len(), 24);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Sweep name (used in report headers and file comments).
    pub name: String,
    /// Topology families to enumerate.
    pub families: Vec<TopologyFamily>,
    /// Scale parameters; each family interprets `n` per its catalog entry.
    pub sizes: Vec<usize>,
    /// Algorithms every philosopher may run.
    pub algorithms: Vec<AlgorithmKind>,
    /// The scheduler all cells run under.
    pub adversary: AdversaryKind,
    /// Independent trials per cell.
    pub trials: u64,
    /// Step budget per trial.
    pub max_steps: u64,
    /// How cell seeds derive from the base seed.
    pub seed_policy: SeedPolicy,
    /// Monte-Carlo worker threads per cell (`0` = all cores, `1` = serial).
    /// Results are bitwise-identical for every value.
    pub threads: usize,
}

impl ScenarioSpec {
    /// A named spec with the default grid: six paper-contrast families
    /// (`ring`, `torus`, `complete`, `star`, `barbell`, `random-regular:3`)
    /// at sizes 6 and 12 under LR1 and GDP1 (24 cells), 20 trials ×
    /// 40 000 steps, uniform-random scheduling, per-cell seeds from base 0,
    /// all cores.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            families: vec![
                TopologyFamily::Ring,
                TopologyFamily::Torus,
                TopologyFamily::Complete,
                TopologyFamily::Star,
                TopologyFamily::Barbell { bridge: 2 },
                TopologyFamily::RandomRegular { degree: 3 },
            ],
            sizes: vec![6, 12],
            algorithms: vec![AlgorithmKind::Lr1, AlgorithmKind::Gdp1],
            adversary: AdversaryKind::UniformRandom,
            trials: 20,
            max_steps: 40_000,
            seed_policy: SeedPolicy::PerCell(0),
            threads: 0,
        }
    }

    /// Replaces the family list.
    #[must_use]
    pub fn with_families(mut self, families: impl IntoIterator<Item = TopologyFamily>) -> Self {
        self.families = families.into_iter().collect();
        self
    }

    /// Replaces the family list from a comma-separated spec string.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first invalid fragment.
    pub fn with_families_str(mut self, families: &str) -> Result<Self, crate::FamilyParseError> {
        self.families = list_items(families)
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// Replaces the size list.
    #[must_use]
    pub fn with_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Replaces the algorithm list.
    #[must_use]
    pub fn with_algorithms(mut self, algorithms: impl IntoIterator<Item = AlgorithmKind>) -> Self {
        self.algorithms = algorithms.into_iter().collect();
        self
    }

    /// Replaces the algorithm list from a comma-separated string
    /// (`"lr1,gdp1"`).
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first invalid fragment.
    pub fn with_algorithms_str(
        mut self,
        algorithms: &str,
    ) -> Result<Self, gdp_algorithms::ParseAlgorithmError> {
        self.algorithms = list_items(algorithms)
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        Ok(self)
    }

    /// Selects the adversary.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversaryKind) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the trial count per cell.
    #[must_use]
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the per-trial step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the seed policy.
    #[must_use]
    pub fn with_seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Sets the Monte-Carlo worker thread count (`0` = all cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Expands the grid into cells, in the deterministic order
    /// family-major, then size, then algorithm.  Seeds are resolved here, so
    /// the expansion fixes everything a cell needs.
    #[must_use]
    pub fn expand(&self) -> Vec<ScenarioCell> {
        let mut cells =
            Vec::with_capacity(self.families.len() * self.sizes.len() * self.algorithms.len());
        for &family in &self.families {
            for &size in &self.sizes {
                for &algorithm in &self.algorithms {
                    let key = cell_key(family, size, algorithm);
                    let seed = self.seed_policy.cell_seed(&key);
                    cells.push(ScenarioCell {
                        key,
                        family,
                        size,
                        algorithm,
                        seed,
                    });
                }
            }
        }
        cells
    }

    /// The canonical **store context** of this spec: the exact set of
    /// parameters a completed cell's result is a pure function of (besides
    /// the cell key itself), rendered as one stable line.  The cell store
    /// (`crate::store`) digests this string into the spec fingerprint that
    /// content-addresses every persisted record.
    ///
    /// Deliberately **included**: adversary, trial budget, step budget, seed
    /// policy, and the exact-check budget (all of which change cell
    /// results).  Deliberately **excluded**: the sweep `name` (report
    /// header only), `threads` (results are bitwise thread-count
    /// independent), and the `families`/`sizes`/`algorithms` axes (each
    /// cell key pins its own family, size and algorithm) — so two sweeps
    /// that merely slice the grid differently share one store.
    #[must_use]
    pub fn store_context(&self, exact_check: Option<usize>) -> String {
        format!(
            "gdp-cell-store v1 | adversary={} | trials={} | max_steps={} | seed_policy={} | exact_check={}",
            self.adversary.name(),
            self.trials,
            self.max_steps,
            self.seed_policy.name(),
            match exact_check {
                Some(budget) => budget.to_string(),
                None => "none".to_string(),
            },
        )
    }

    /// One-line human summary of the grid shape.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} families x {} sizes x {} algorithms = {} cells, {} trials x {} steps, adversary {}, seeds {}",
            self.name,
            self.families.len(),
            self.sizes.len(),
            self.algorithms.len(),
            self.families.len() * self.sizes.len() * self.algorithms.len(),
            self.trials,
            self.max_steps,
            self.adversary.name(),
            self.seed_policy.name(),
        )
    }
}

/// The cell key, `"<family>/n<size>/<ALGORITHM>"`: the one formatter of
/// the key that names sweep cells, certificate records and stress runs.
pub(crate) fn cell_key(family: TopologyFamily, size: usize, algorithm: AlgorithmKind) -> String {
    format!("{}/n{}/{}", family.name(), size, algorithm.name())
}

/// One cell of the expanded grid: everything needed to run it, with the
/// seed already resolved from the [`SeedPolicy`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioCell {
    /// Stable cell key, `"<family>/n<size>/<ALGORITHM>"`.
    pub key: String,
    /// The topology family.
    pub family: TopologyFamily,
    /// The scale parameter.
    pub size: usize,
    /// The algorithm.
    pub algorithm: AlgorithmKind,
    /// The resolved base seed for this cell's trials (and its topology, for
    /// random families).
    pub seed: u64,
}

/// The sweep-grid fields as a front-end received them — `gdp sweep` /
/// `gdp merge` flags or a `gdp serve` sweep request — before
/// [`parse`](GridFields::parse) turns them into a [`ScenarioSpec`].
/// `None` keeps the default.
///
/// This is the one grid parser: it owns the comma-separated list syntax,
/// the seed policy, the `threads >= 1` rule and the exact-check budget.
/// A front-end only spells the keys, type-checks its raw values, and
/// words the [`GridError`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GridFields {
    /// Sweep name.
    pub name: Option<String>,
    /// Comma-separated topology family specs.
    pub families: Option<String>,
    /// Comma-separated scale parameters.
    pub sizes: Option<String>,
    /// Comma-separated algorithm names.
    pub algorithms: Option<String>,
    /// Adversary spec string.
    pub adversary: Option<String>,
    /// Trials per cell.
    pub trials: Option<u64>,
    /// Steps per trial.
    pub steps: Option<u64>,
    /// Base seed (default 0).
    pub seed: Option<u64>,
    /// `per-cell` (the default) or `shared`.
    pub seed_policy: Option<String>,
    /// Monte-Carlo worker threads per cell; must be at least 1.
    pub threads: Option<u64>,
    /// State budget of the exact verdicts; `None` runs no exact check.
    pub exact_check: Option<u64>,
}

/// Why [`GridFields::parse`] rejected a field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridError {
    /// The rejected field, as a `gdp serve` request spells it: `families`,
    /// `sizes`, `algorithms`, `adversary`, `seed_policy`, `threads` or
    /// `exact_check`.
    pub key: &'static str,
    /// What is wrong with it, without the field's name.
    pub message: String,
}

impl GridError {
    fn new(key: &'static str, message: impl Into<String>) -> Self {
        GridError {
            key,
            message: message.into(),
        }
    }
}

impl GridFields {
    /// Builds the spec and the exact-check budget.  `default_name` and
    /// `default_threads` stand in for absent `name` and `threads` fields.
    ///
    /// # Errors
    ///
    /// The first rejected field: an empty list or an item that does not
    /// parse, an unknown adversary or seed policy, zero threads, or a
    /// budget that does not fit a `usize`.
    pub fn parse(
        &self,
        default_name: &str,
        default_threads: usize,
    ) -> Result<(ScenarioSpec, Option<usize>), GridError> {
        let mut spec = ScenarioSpec::new(self.name.as_deref().unwrap_or(default_name));
        if let Some(list) = &self.families {
            spec = spec
                .with_families_str(list)
                .map_err(|e| GridError::new("families", e.to_string()))?;
        }
        if let Some(list) = &self.sizes {
            spec.sizes = list_items(list)
                .map(|s| {
                    s.parse()
                        .map_err(|e| GridError::new("sizes", format!("invalid size {s:?}: {e}")))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(list) = &self.algorithms {
            spec = spec
                .with_algorithms_str(list)
                .map_err(|e| GridError::new("algorithms", e.to_string()))?;
        }
        for (key, empty) in [
            ("families", spec.families.is_empty()),
            ("sizes", spec.sizes.is_empty()),
            ("algorithms", spec.algorithms.is_empty()),
        ] {
            if empty {
                return Err(GridError::new(key, "the list is empty"));
            }
        }
        if let Some(adversary) = &self.adversary {
            spec.adversary = adversary
                .parse::<AdversaryKind>()
                .map_err(|e| GridError::new("adversary", e.to_string()))?;
        }
        spec.trials = self.trials.unwrap_or(spec.trials);
        spec.max_steps = self.steps.unwrap_or(spec.max_steps);
        let seed = self.seed.unwrap_or(0);
        spec.seed_policy = match self.seed_policy.as_deref().unwrap_or("per-cell") {
            "per-cell" => SeedPolicy::PerCell(seed),
            "shared" => SeedPolicy::Shared(seed),
            other => {
                return Err(GridError::new(
                    "seed_policy",
                    format!("invalid policy {other:?}: expected per-cell or shared"),
                ))
            }
        };
        spec.threads = match self.threads {
            None => default_threads,
            Some(threads) => usize::try_from(threads)
                .ok()
                .filter(|&t| t >= 1)
                .ok_or_else(|| GridError::new("threads", "must be >= 1"))?,
        };
        let exact_check = self
            .exact_check
            .map(|budget| {
                usize::try_from(budget)
                    .map_err(|_| GridError::new("exact_check", "budget too large"))
            })
            .transpose()?;
        Ok((spec, exact_check))
    }
}

/// The items of a comma-separated list, the one list syntax of every
/// list-valued grid field: empty items are skipped.
fn list_items(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_full_cartesian_grid_in_stable_order() {
        let spec = ScenarioSpec::new("t")
            .with_families_str("ring,star")
            .unwrap()
            .with_sizes([4, 5])
            .with_algorithms_str("lr1,gdp1")
            .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].key, "ring/n4/LR1");
        assert_eq!(cells[1].key, "ring/n4/GDP1");
        assert_eq!(cells[2].key, "ring/n5/LR1");
        assert_eq!(cells[4].key, "star/n4/LR1");
        // Expansion is pure: repeated calls agree.
        assert_eq!(cells, spec.expand());
    }

    #[test]
    fn default_grid_covers_at_least_24_cells_and_4_families() {
        let spec = ScenarioSpec::new("default");
        assert!(spec.families.len() >= 4);
        assert!(spec.expand().len() >= 24);
        assert!(spec.summary().contains("cells"));
    }

    #[test]
    fn per_cell_seeds_differ_but_are_stable() {
        let policy = SeedPolicy::PerCell(7);
        let a = policy.cell_seed("ring/n4/LR1");
        let b = policy.cell_seed("ring/n4/GDP1");
        assert_ne!(a, b);
        assert_eq!(a, policy.cell_seed("ring/n4/LR1"));
        assert_eq!(SeedPolicy::Shared(7).cell_seed("anything"), 7);
        assert_eq!(policy.base(), 7);
    }

    #[test]
    fn store_context_tracks_result_parameters_only() {
        let base = ScenarioSpec::new("a");
        // Name, thread count and grid slicing do not change cell results,
        // so they must not change the store context either.
        assert_eq!(
            base.store_context(None),
            ScenarioSpec::new("b")
                .with_threads(7)
                .with_families_str("ring")
                .unwrap()
                .with_sizes([4])
                .store_context(None)
        );
        // Everything a cell's bytes depend on does change it.
        assert_ne!(
            base.store_context(None),
            base.clone().with_trials(21).store_context(None)
        );
        assert_ne!(
            base.store_context(None),
            base.clone().with_max_steps(1).store_context(None)
        );
        assert_ne!(
            base.store_context(None),
            base.clone()
                .with_adversary(AdversaryKind::RoundRobin)
                .store_context(None)
        );
        assert_ne!(
            base.store_context(None),
            base.clone()
                .with_seed_policy(SeedPolicy::Shared(0))
                .store_context(None)
        );
        assert_ne!(base.store_context(None), base.store_context(Some(400_000)));
    }

    #[test]
    fn adversary_specs_parse_build_and_round_trip() {
        for (input, expected) in [
            ("round-robin", AdversaryKind::RoundRobin),
            ("uniform", AdversaryKind::UniformRandom),
            ("blocking", AdversaryKind::Blocking),
            (
                "blocking:50000",
                AdversaryKind::BlockingPatient {
                    stubbornness: 50_000,
                },
            ),
        ] {
            let parsed: AdversaryKind = input.parse().unwrap();
            assert_eq!(parsed, expected);
            assert_eq!(parsed.name().parse::<AdversaryKind>().unwrap(), parsed);
            let _ = parsed.build(1, 0);
        }
        assert!("nope".parse::<AdversaryKind>().is_err());
        assert!("blocking:x".parse::<AdversaryKind>().is_err());
    }
}
