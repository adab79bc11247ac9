//! Exact checking wired into the scenario-spec machinery.
//!
//! [`CheckSpec`] names a cell the way a sweep does — *topology family ×
//! size × algorithm* — plus an objective, and [`run_check`] resolves it
//! through `gdp-mcheck`: build the exact MDP, solve it, extract a
//! counterexample schedule when the property fails, and return
//! byte-reproducible [`Certificate`]s.  This is the engine behind
//! `gdp check`, and the sweep runner reads [`ExactCellVerdict`]s off its
//! reports to put exact verdicts *next to* the Monte-Carlo estimates in
//! sweep reports.
//!
//! This module is deliberately non-generic: `gdp-mcheck`'s builders are
//! monomorphised here (over `gdp_algorithms::AnyProgram`) so every caller —
//! including the unoptimised CLI binary in dev builds — runs the optimised
//! instantiation.

use crate::certificate::{decode_certificate, encode_certificate};
use crate::family::TopologyFamily;
use crate::report::{f64_bits, parse_bits, parse_int, payload_field};
use crate::spec::cell_key;
use crate::store::{newer_format, stable_digest64, CellStore, Lookup, StoreStats};
use gdp_algorithms::AlgorithmKind;
pub use gdp_mcheck::certificate::Verdict as CheckVerdict;
use gdp_mcheck::certificate::Verdict;
use gdp_mcheck::strategy::{counterexample_dot, extract_counterexample, CounterexampleSchedule};
pub use gdp_mcheck::AdversaryClass;
use gdp_mcheck::{
    build_mdp, solve, BuildOptions, Certificate, CheckTarget, SolveOptions, AUTOMORPHISM_LIMIT,
};
use gdp_topology::{symmetry, PhilosopherId, Topology};
use std::fmt::Write as _;

/// The exact class matching a sweep's concrete scheduler: `crash:<f>` maps
/// to the crash-stop class with the same budget (the sweep's faulty
/// scheduler is a member, so the verdict speaks about the row); every
/// *fair* family — dwell round-robin included — is a member of the all-fair
/// default.
///
/// The classes relate to the `gdp-adversary` catalog as follows
/// (tabulated in `docs/ADVERSARIES.md`):
///
/// * `crash:<f>` contains the catalog's `crash:<f>` scheduler exactly
///   (same victim budget, every crash timing/placement), so a
///   `certified` verdict covers every Monte-Carlo crash run;
/// * `kbounded:<K>` contains every scheduler whose waits stay below `K`.
///   Mind the parameter mapping: the catalog's dwell scheduler
///   `kbounded:<k>` produces gaps of `k·(n−1)` steps, so it lies in the
///   exact class `kbounded:<k·(n−1)>` — **not** in `kbounded:<k>` for
///   `k ≥ 2`.
pub(crate) fn sweep_check_class(adversary: gdp_adversary::AdversaryKind) -> AdversaryClass {
    match adversary {
        gdp_adversary::AdversaryKind::CrashStop { crashes } => AdversaryClass::CrashStop {
            max_crashes: crashes,
        },
        _ => AdversaryClass::Fair,
    }
}

/// The objective of a check, as named on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckTargetSpec {
    /// Worst-case progress: some philosopher eats (`--target progress`).
    Progress,
    /// Worst-case individual liveness of one philosopher
    /// (`--target philosopher:<i>`).
    Philosopher(u32),
    /// Lockout-freedom: individual liveness of every philosopher, checked
    /// once per symmetry orbit (`--target lockout`).
    Lockout,
}

impl CheckTargetSpec {
    /// The canonical command-line spelling (`progress`, `lockout`,
    /// `philosopher:<i>`) — stable, because it participates in check-store
    /// fingerprints ([`CheckSpec::store_context`]).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            CheckTargetSpec::Progress => "progress".to_string(),
            CheckTargetSpec::Lockout => "lockout".to_string(),
            CheckTargetSpec::Philosopher(index) => format!("philosopher:{index}"),
        }
    }
}

impl std::str::FromStr for CheckTargetSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "progress" => Ok(CheckTargetSpec::Progress),
            "lockout" => Ok(CheckTargetSpec::Lockout),
            other => match other.strip_prefix("philosopher:") {
                Some(index) => index
                    .parse()
                    .map(CheckTargetSpec::Philosopher)
                    .map_err(|_| format!("invalid philosopher index in target {s:?}")),
                None => Err(format!(
                    "invalid target {s:?}: expected progress, lockout or philosopher:<i>"
                )),
            },
        }
    }
}

/// A fully specified exact check: one sweep-style cell plus an objective.
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// Topology family (same catalog as `gdp sweep`).
    pub family: TopologyFamily,
    /// Family scale parameter.
    pub size: usize,
    /// The algorithm to check.
    pub algorithm: AlgorithmKind,
    /// The objective.
    pub target: CheckTargetSpec,
    /// State budget before the model is truncated (inconclusive verdict).
    pub max_states: usize,
    /// Worker threads for frontier expansion (`0` = all cores); the
    /// certificate is byte-identical for every value.
    pub threads: usize,
    /// Symmetry quotient: `None` resolves automatically from
    /// [`AlgorithmKind::is_relabelling_invariant`].  Restricted classes
    /// build quotient-free; for them it only decides whether a `lockout`
    /// check covers one philosopher per orbit or every philosopher.
    pub symmetry: Option<bool>,
    /// Also compute the exact expected steps-to-first-meal under the
    /// uniform random scheduler.
    pub expected_steps: bool,
    /// Seed used to *build* random topology families (never for the check
    /// itself — every draw is enumerated, not sampled).
    pub topology_seed: u64,
    /// The adversary class to quantify over.  Restricted classes build a
    /// quotient-free product MDP (see `gdp_mcheck::restricted`) and skip
    /// counterexample extraction — the replayer speaks engine states, not
    /// product states.
    pub adversary: AdversaryClass,
}

impl CheckSpec {
    /// A progress check of `algorithm` on `family` at `size` with the
    /// default budget.
    #[must_use]
    pub fn new(family: TopologyFamily, size: usize, algorithm: AlgorithmKind) -> Self {
        CheckSpec {
            family,
            size,
            algorithm,
            target: CheckTargetSpec::Progress,
            max_states: 6_000_000,
            threads: 0,
            symmetry: None,
            expected_steps: false,
            topology_seed: 0,
            adversary: AdversaryClass::Fair,
        }
    }

    fn effective_symmetry(&self) -> bool {
        self.symmetry
            .unwrap_or_else(|| self.algorithm.is_relabelling_invariant())
    }

    /// The checked cell key, `"<family>/n<size>/<ALGORITHM>"` — the same
    /// shape sweep cells use.
    #[must_use]
    pub fn cell_key(&self) -> String {
        cell_key(self.family, self.size, self.algorithm)
    }

    /// The certificate-record **store context**: every option that changes
    /// the certificate bytes, rendered as one stable line.  Like
    /// `ScenarioSpec::store_context` it deliberately excludes what does
    /// *not* change the bytes — `threads` (certificates are byte-identical
    /// for every thread count, test-enforced) — and what lives in the
    /// record key instead (family, size, algorithm, topology seed).
    /// Symmetry is recorded *resolved* (`true`/`false`), so `auto` and an
    /// explicit matching flag share cache entries.
    ///
    /// The leading `gdp-check v2` token versions this vocabulary itself:
    /// records fingerprinted under an older vocabulary simply miss, they
    /// are never misread.  v2 retired the v1 records that could still hold
    /// a quotient refutation or an inconclusive certificate's lasso.
    #[must_use]
    pub fn store_context(&self) -> String {
        format!(
            "gdp-check v2 | target={} | adversary={} | max_states={} | symmetry={} | \
             expected_steps={}",
            self.target.name(),
            self.adversary.name(),
            self.max_states,
            self.effective_symmetry(),
            self.expected_steps,
        )
    }

    /// The FNV-1a fingerprint certificate records of this check spec are
    /// addressed under.
    #[must_use]
    pub fn store_fingerprint(&self) -> u64 {
        stable_digest64(self.store_context().as_bytes())
    }

    /// The certificate-record key: the cell key plus the topology seed of
    /// a random family (it builds a different topology per seed, and the
    /// seed is a cell axis in sweeps, so it belongs in the key, not the
    /// context).  Every other family ignores the seed and keys `@s0`, so
    /// one certificate answers every seed.
    #[must_use]
    pub fn cert_key(&self) -> String {
        let seed = if self.family.is_random() {
            self.topology_seed
        } else {
            0
        };
        format!("{}@s{seed}", self.cell_key())
    }
}

/// The result of [`run_check`]: one certificate per checked objective,
/// plus the extracted counterexample when one exists.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The checked cell key, `"<family>/n<size>/<ALGORITHM>"`.
    pub cell: String,
    /// One certificate per checked target, in a deterministic order.
    pub certificates: Vec<Certificate>,
    /// The extracted worst-case schedule defeating the first violated
    /// target, if any.
    pub counterexample: Option<CounterexampleSchedule>,
    /// Graphviz rendering of the counterexample lasso.
    pub counterexample_dot: Option<String>,
}

impl CheckReport {
    /// The worst verdict across all certificates (`Violated` dominates,
    /// then `Inconclusive`, then `Certified`).
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        overall_verdict(&self.certificates)
    }

    /// Renders every certificate as one stable text block (the `gdp check`
    /// stdout format: byte-identical across runs and thread counts).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cell:              {}", self.cell);
        for certificate in &self.certificates {
            out.push_str(&certificate.render());
        }
        let _ = writeln!(out, "overall verdict:   {}", self.verdict().name());
        out
    }
}

/// Resolves and runs an exact check.  A target the symmetry quotient
/// refutes is rebuilt and reported unreduced: a quotient may certify but
/// never refute.
///
/// # Errors
///
/// Returns a message when the topology parameters are invalid, a
/// `philosopher:<i>` target is out of range, or a restricted class's
/// product cannot hold the topology's philosophers
/// ([`AdversaryClass::max_philosophers`]).
pub fn run_check(spec: &CheckSpec) -> Result<CheckReport, String> {
    let topology = spec
        .family
        .build(spec.size, spec.topology_seed)
        .map_err(|e| {
            format!(
                "cannot build {} at n={}: {e}",
                spec.family.name(),
                spec.size
            )
        })?;
    let cell = spec.cell_key();
    if let Some(limit) = spec.adversary.max_philosophers() {
        let n = topology.num_philosophers();
        if n > limit {
            return Err(format!(
                "{} checks support up to {limit} philosophers; {cell} has {n}",
                spec.adversary.name()
            ));
        }
    }
    let targets: Vec<CheckTarget> = match spec.target {
        CheckTargetSpec::Progress => vec![CheckTarget::Progress],
        CheckTargetSpec::Philosopher(index) => {
            if index as usize >= topology.num_philosophers() {
                return Err(format!(
                    "philosopher {index} is out of range for {} (n={})",
                    cell,
                    topology.num_philosophers()
                ));
            }
            vec![CheckTarget::PhilosopherEats(PhilosopherId::new(index))]
        }
        CheckTargetSpec::Lockout => lockout_representatives(&topology, spec.effective_symmetry())
            .into_iter()
            .map(CheckTarget::PhilosopherEats)
            .collect(),
    };

    let build_options = BuildOptions::default()
        .with_max_states(spec.max_states)
        .with_symmetry(spec.effective_symmetry())
        .with_threads(spec.threads)
        .with_class(spec.adversary);
    let unrestricted = spec.adversary == AdversaryClass::Fair;
    let solve_options = SolveOptions {
        // Expected-steps iteration averages over schedule choices, which
        // only makes sense in the unrestricted model (restricted products
        // add crash choices / forced rows).
        expected_steps: spec.expected_steps && unrestricted,
    };

    let program = spec.algorithm.program();
    let mut certificates = Vec::with_capacity(targets.len());
    let mut counterexample = None;
    let mut counterexample_dot_out = None;
    for target in targets {
        let check = |options: &BuildOptions| {
            let mdp = build_mdp(&topology, &program, target, options);
            let solution = solve(&mdp, &solve_options);
            let certificate = Certificate::new(
                &topology,
                spec.algorithm.name(),
                target,
                &options.sim,
                &mdp,
                &solution,
                None,
            );
            (mdp, solution, certificate)
        };
        let (mut mdp, mut solution, mut certificate) = check(&build_options);
        // A quotient may certify but never refute: its fairness filter
        // compares choice indices of states stored in different
        // relabellings, so a refuted target is rebuilt unreduced
        // (docs/VERIFICATION.md, "Symmetry quotient").
        if certificate.symmetry_group > 1 && certificate.verdict() == Verdict::Violated {
            (mdp, solution, certificate) = check(&build_options.clone().with_symmetry(false));
        }
        // Counterexample replay speaks plain engine states; restricted
        // product states carry scheduler bookkeeping the replayer cannot
        // reconstruct, so extraction is limited to the unrestricted model.
        // A truncated fragment refutes nothing, so only a violated
        // certificate gets a lasso.
        if unrestricted
            && counterexample.is_none()
            && certificate.verdict() == Verdict::Violated
            && !solution.holds_with_probability_one()
        {
            if let Some(schedule) = extract_counterexample(
                &topology,
                &program,
                &mdp,
                &solution,
                &[0, 1, 2, 3, 4, 5, 6, 7],
                counterexample_length(&topology),
            ) {
                certificate.counterexample = Some(schedule.summary());
                counterexample_dot_out = Some(counterexample_dot(&topology, &program, &schedule));
                counterexample = Some(schedule);
            }
        }
        certificates.push(certificate);
    }
    Ok(CheckReport {
        cell,
        certificates,
        counterexample,
        counterexample_dot: counterexample_dot_out,
    })
}

/// The worst verdict across a certificate list (`Violated` dominates, then
/// `Inconclusive`, then `Certified`) — shared by [`CheckReport::verdict`]
/// and the certificate-record codec, so a stored verdict column can never
/// be derived differently than the live one.
fn overall_verdict(certificates: &[Certificate]) -> Verdict {
    let mut verdict = Verdict::Certified;
    for certificate in certificates {
        match certificate.verdict() {
            Verdict::Violated => return Verdict::Violated,
            Verdict::Inconclusive => verdict = Verdict::Inconclusive,
            Verdict::Certified => {}
        }
    }
    verdict
}

/// A decoded certificate record: the cached result of one [`run_check`],
/// plus the derived columns (`verdict`, `progress_probability`, `states`)
/// a sweep row reads without touching the certificate list.  The decoder
/// cross-checks the columns against the certificates they were derived
/// from, so a record whose verdict was tampered with — even with a
/// recomputed checksum — is rejected, never trusted.
#[derive(Clone, Debug)]
pub struct StoredCheck {
    /// The record key, [`CheckSpec::cert_key`].
    pub key: String,
    /// The checked cell key (what [`CheckReport::cell`] holds).
    pub cell: String,
    /// Overall verdict name, derived from the certificates.
    pub verdict: String,
    /// `certificates[0].probability` — the sweep's
    /// `exact_progress_prob` column.
    pub progress_probability: f64,
    /// `certificates[0].states` — the sweep's `exact_states` column.
    pub states: usize,
    /// The full certificates, byte-identical to recomputation.
    pub certificates: Vec<Certificate>,
}

/// Serializes one check's certificates as a certificate-record payload: six
/// derived header fields, then each certificate's 19 lines
/// ([`encode_certificate`]).  The derived columns are computed here, from
/// the certificates themselves — the caller cannot inject a verdict that
/// disagrees with the bytes below it.
fn encode_check_payload(key: &str, cell: &str, certificates: &[Certificate]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "key {key}");
    let _ = writeln!(out, "cell {cell}");
    let _ = writeln!(out, "verdict {}", overall_verdict(certificates).name());
    let _ = writeln!(
        out,
        "progress_probability {}",
        f64_bits(certificates.first().map_or(0.0, |c| c.probability))
    );
    let _ = writeln!(
        out,
        "states {}",
        certificates.first().map_or(0, |c| c.states)
    );
    let _ = writeln!(out, "certificates {}", certificates.len());
    for c in certificates {
        encode_certificate(&mut out, c);
    }
    out
}

/// Parses a certificate-record payload, strictly: fixed header order,
/// exactly `certificates` certificates ([`decode_certificate`]) and no
/// line after them, at least one certificate, and derived columns that
/// agree with the decoded certificates.
pub(crate) fn decode_check_payload(payload: &str) -> Result<StoredCheck, String> {
    let mut lines = payload.lines();
    let mut field = |name: &str| payload_field(&mut lines, name);
    let key = field("key")?.to_string();
    let cell = field("cell")?.to_string();
    let verdict = field("verdict")?.to_string();
    let progress_probability = parse_bits("progress_probability", field("progress_probability")?)?;
    let states: usize = parse_int("states", field("states")?)?;
    let count: usize = parse_int("certificates", field("certificates")?)?;
    if count == 0 {
        return Err("certificate record holds no certificates".to_string());
    }
    let mut certificates = Vec::new();
    for _ in 0..count {
        certificates.push(decode_certificate(&mut lines)?);
    }
    if lines.next().is_some() {
        return Err("certificate record has trailing lines".to_string());
    }
    // The derived columns must agree with the certificates they claim to
    // summarize — a tampered verdict can never outvote its own evidence.
    if verdict != overall_verdict(&certificates).name() {
        return Err(format!(
            "stored verdict {verdict:?} disagrees with the certificates"
        ));
    }
    if progress_probability.to_bits() != certificates[0].probability.to_bits() {
        return Err("stored progress probability disagrees with the certificates".to_string());
    }
    if states != certificates[0].states {
        return Err("stored state count disagrees with the certificates".to_string());
    }
    Ok(StoredCheck {
        key,
        cell,
        verdict,
        progress_probability,
        states,
        certificates,
    })
}

/// Error produced by [`run_check_cached`].
#[derive(Debug)]
pub enum CheckStoreError {
    /// The underlying [`run_check`] failed (invalid topology parameters or
    /// an out-of-range target).
    Check(String),
    /// The store could not be read from or written to.
    Store {
        /// The certificate-record key involved.
        key: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The record on disk carries a store format version newer than this
    /// build; it is left untouched and the check refuses to shadow it.
    Unsupported {
        /// The certificate-record key involved.
        key: String,
        /// The record's declared format version.
        version: u32,
    },
}

impl std::fmt::Display for CheckStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckStoreError::Check(message) => write!(f, "{message}"),
            CheckStoreError::Store { key, message } => {
                write!(f, "certificate record {key}: {message}")
            }
            CheckStoreError::Unsupported { key, version } => f.write_str(&newer_format(
                &format!("certificate record {key}"),
                *version,
            )),
        }
    }
}

impl std::error::Error for CheckStoreError {}

/// [`run_check`] behind the store's certificate cache (`gdp check --store`
/// and the exact columns of `sweep --check --store`).
///
/// With `resume`, a verified certificate record answers the check from
/// disk: the returned report renders **bitwise identical** to a cold run
/// ([`CheckReport::render`] reads only the cell key and the certificates,
/// both cached losslessly).  Counterexample schedules and DOT lassos are
/// *not* cached — callers that need them use [`run_check`] directly.
/// Without `resume`, the check always recomputes, but still persists (the
/// cold-write half of the sweep-store convention).
///
/// Returns the report plus [`StoreStats`] with exactly one of
/// `reused`/`computed` set (and `quarantined` when a bad record was
/// evicted on the way).
///
/// # Errors
///
/// [`run_check`] errors, store I/O errors, and a loud refusal when the
/// record on disk carries a format version newer than this build.
pub fn run_check_cached(
    spec: &CheckSpec,
    store: &CellStore,
    resume: bool,
) -> Result<(CheckReport, StoreStats), CheckStoreError> {
    let fingerprint = spec.store_fingerprint();
    let key = spec.cert_key();
    let store_err = |message: String| CheckStoreError::Store {
        key: spec.cert_key(),
        message,
    };
    store
        .note_context("check", fingerprint, &spec.store_context())
        .map_err(|e| store_err(format!("writing check context note: {e}")))?;
    let mut stats = StoreStats::default();
    if resume {
        match store.read::<StoredCheck>(fingerprint, &key) {
            Lookup::Hit(stored) => {
                stats.reused = 1;
                let StoredCheck {
                    cell, certificates, ..
                } = *stored;
                return Ok((
                    CheckReport {
                        cell,
                        certificates,
                        counterexample: None,
                        counterexample_dot: None,
                    },
                    stats,
                ));
            }
            Lookup::Quarantined { .. } => stats.quarantined = 1,
            Lookup::Absent => {}
            Lookup::Unsupported { version } => {
                return Err(CheckStoreError::Unsupported { key, version });
            }
        }
    }
    let report = run_check(spec).map_err(CheckStoreError::Check)?;
    let payload = encode_check_payload(&key, &report.cell, &report.certificates);
    store
        .write::<StoredCheck>(fingerprint, &key, &payload)
        .map_err(|e| store_err(format!("persisting certificates: {e}")))?;
    stats.computed = 1;
    Ok((report, stats))
}

/// A long-enough starvation demonstration: every philosopher gets many
/// scheduling opportunities.
fn counterexample_length(topology: &Topology) -> usize {
    (topology.num_philosophers() * 120).max(360)
}

/// One philosopher per symmetry orbit (all of them when symmetry is off):
/// individual liveness is isomorphic across an orbit, so checking a
/// representative suffices.
fn lockout_representatives(topology: &Topology, use_symmetry: bool) -> Vec<PhilosopherId> {
    let n = topology.num_philosophers();
    if !use_symmetry {
        return topology.philosopher_ids().collect();
    }
    let autos = symmetry::automorphisms(topology, AUTOMORPHISM_LIMIT);
    let mut orbit = vec![u32::MAX; n];
    for p in 0..n {
        if orbit[p] != u32::MAX {
            continue;
        }
        for auto in &autos {
            let image = auto.phil_map[p].index();
            if orbit[image] == u32::MAX {
                orbit[image] = p as u32;
            }
        }
    }
    (0..n)
        .filter(|&p| orbit[p] == p as u32)
        .map(|p| PhilosopherId::new(p as u32))
        .collect()
}

/// The exact verdict attached to one sweep cell (the `--check` columns of
/// `gdp sweep`): a worst-case progress check with the given state budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactCellVerdict {
    /// `certified`, `violated` or `inconclusive`.
    pub verdict: String,
    /// Worst-case (fair-adversary) progress probability; exact when the
    /// verdict is not `inconclusive`.
    pub progress_probability: f64,
    /// Canonical states explored.
    pub states: usize,
}

impl ExactCellVerdict {
    /// The sweep columns of a progress check's report: its overall verdict,
    /// and the probability and state count of its first certificate.
    #[must_use]
    pub fn from_report(report: &CheckReport) -> Self {
        let certificate = &report.certificates[0];
        ExactCellVerdict {
            verdict: report.verdict().name().to_string(),
            progress_probability: certificate.probability,
            states: certificate.states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gdp1_ring4_progress_check_certifies_exactly_one() {
        let spec = CheckSpec::new(TopologyFamily::Ring, 4, AlgorithmKind::Gdp1);
        let report = run_check(&spec).unwrap();
        assert_eq!(report.verdict(), Verdict::Certified);
        assert_eq!(report.certificates[0].probability, 1.0);
        assert!(report.counterexample.is_none());
        assert!(report.render().contains("overall verdict:   certified"));

        // The small deadlock-free systems certify too, with safety holding
        // in every reachable state under every draw: GDP1 and LR1 on the
        // 2-ring, and the asymmetric ordered-forks baseline on the 3-ring.
        for (size, algorithm, states, transitions) in [
            (2, AlgorithmKind::Gdp1, 50, 81),
            (2, AlgorithmKind::Lr1, 28, 47),
            (3, AlgorithmKind::OrderedForks, 42, 72),
        ] {
            let report = run_check(&CheckSpec::new(TopologyFamily::Ring, size, algorithm)).unwrap();
            assert_eq!(report.verdict(), Verdict::Certified, "{algorithm}");
            let certificate = &report.certificates[0];
            assert_eq!(certificate.safety_violations, 0, "{algorithm}");
            assert_eq!(
                (certificate.states, certificate.transitions),
                (states, transitions),
                "{algorithm} on the {size}-ring"
            );
        }
    }

    #[test]
    fn naive_ring3_progress_check_finds_the_deadlock_with_a_schedule() {
        let spec = CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Naive);
        let report = run_check(&spec).unwrap();
        assert_eq!(report.verdict(), Verdict::Violated);
        let certificate = &report.certificates[0];
        assert!(certificate.deadlock_states > 0);
        assert_eq!(certificate.probability, 0.0);
        let schedule = report.counterexample.as_ref().expect("deadlock schedule");
        assert!(!schedule.steps.is_empty());
        assert!(report
            .counterexample_dot
            .as_ref()
            .unwrap()
            .starts_with("digraph"));
    }

    #[test]
    fn lr1_ring3_lockout_check_finds_sure_starvation_per_orbit() {
        let spec = CheckSpec {
            target: CheckTargetSpec::Lockout,
            ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Lr1)
        };
        let report = run_check(&spec).unwrap();
        // All three philosophers are one rotation orbit: one certificate.
        assert_eq!(report.certificates.len(), 1);
        assert_eq!(report.verdict(), Verdict::Violated);
        assert_eq!(report.certificates[0].probability, 0.0);
        assert!(report.counterexample.is_some());
    }

    /// The quotient may certify but never refute: on the Figure 1 style
    /// shared rings its fairness filter refuted GDP1 (probability 0), while
    /// the unreduced model certifies it, as Theorem 3 says.  `run_check`
    /// now rebuilds a refuted target unreduced, so both agree.
    #[test]
    fn quotient_refutations_are_rebuilt_unreduced() {
        for sharing in [2, 3] {
            let spec = CheckSpec {
                threads: 1,
                ..CheckSpec::new(
                    TopologyFamily::SharedRing { sharing },
                    2,
                    AlgorithmKind::Gdp1,
                )
            };
            let report = run_check(&spec).unwrap();
            assert_eq!(report.verdict(), Verdict::Certified, "sharing {sharing}");
            let unreduced = run_check(&CheckSpec {
                symmetry: Some(false),
                ..spec
            })
            .unwrap();
            assert_eq!(report.verdict(), unreduced.verdict(), "sharing {sharing}");
        }
    }

    #[test]
    fn check_reports_are_reproducible_across_thread_counts() {
        let base = CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1);
        let serial = run_check(&CheckSpec {
            threads: 1,
            ..base.clone()
        })
        .unwrap();
        let parallel = run_check(&CheckSpec { threads: 4, ..base }).unwrap();
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn exact_cell_verdicts_report_budget_exhaustion_as_inconclusive() {
        let exact_cell = |size, algorithm, max_states| {
            let spec = CheckSpec {
                max_states,
                threads: 1,
                ..CheckSpec::new(TopologyFamily::Ring, size, algorithm)
            };
            ExactCellVerdict::from_report(&run_check(&spec).unwrap())
        };
        let tiny = exact_cell(5, AlgorithmKind::Gdp1, 100);
        assert_eq!(tiny.verdict, "inconclusive");
        assert_eq!(tiny.states, 100);
        let real = exact_cell(3, AlgorithmKind::Lr1, 100_000);
        assert_eq!(real.verdict, "certified");
        assert_eq!(real.progress_probability, 1.0);
    }

    #[test]
    fn sweep_exact_columns_match_the_sweep_adversary_class() {
        use gdp_adversary::AdversaryKind;
        // Fair families map to the all-fair default; the crash family maps
        // to the crash class with the same budget...
        assert_eq!(
            sweep_check_class(AdversaryKind::UniformRandom),
            AdversaryClass::Fair
        );
        assert_eq!(
            sweep_check_class(AdversaryKind::KBoundedRoundRobin { k: 4 }),
            AdversaryClass::Fair
        );
        let crash = sweep_check_class(AdversaryKind::CrashStop { crashes: 1 });
        assert_eq!(crash, AdversaryClass::CrashStop { max_crashes: 1 });
        // ...so a crash:1 GDP1 ring-3 cell reports the crash-class verdict
        // (violated, probability 0) instead of a contradictory all-fair
        // "certified" next to faulty Monte-Carlo columns.
        let spec = CheckSpec {
            max_states: 2_000_000,
            threads: 1,
            adversary: crash,
            ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1)
        };
        let exact = ExactCellVerdict::from_report(&run_check(&spec).unwrap());
        assert_eq!(exact.verdict, "violated");
        assert_eq!(exact.progress_probability, 0.0);
    }

    #[test]
    fn restricted_checks_run_and_stamp_the_adversary_class() {
        // The crash-stop class defeats GDP1 progress even on the 3-ring
        // (see gdp-mcheck::restricted): violated, with the class named in
        // the certificate.
        let spec = CheckSpec {
            adversary: AdversaryClass::CrashStop { max_crashes: 1 },
            ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1)
        };
        let report = run_check(&spec).unwrap();
        assert_eq!(report.verdict(), Verdict::Violated);
        assert!(report.counterexample.is_none(), "no replay for products");
        let rendered = report.render();
        assert!(
            rendered.contains("adversaries:       fair schedulers with up to 1 crash-stop"),
            "{rendered}"
        );

        // The k-bounded class is a *subset* of all fair schedulers: GDP1
        // progress stays certified.
        let spec = CheckSpec {
            adversary: AdversaryClass::KBounded { k: 2 },
            ..CheckSpec::new(TopologyFamily::Ring, 3, AlgorithmKind::Gdp1)
        };
        let report = run_check(&spec).unwrap();
        assert_eq!(report.verdict(), Verdict::Certified);
        assert!(report
            .render()
            .contains("adversaries:       k-bounded-fair schedulers (k=2)"));
    }

    #[test]
    fn check_adversary_specs_parse() {
        for (spelling, class) in [
            ("fair", AdversaryClass::Fair),
            ("All-Fair", AdversaryClass::Fair),
            ("kbounded:3", AdversaryClass::KBounded { k: 3 }),
            ("kbounded-rr:3", AdversaryClass::KBounded { k: 3 }),
            ("crash:2", AdversaryClass::CrashStop { max_crashes: 2 }),
            ("crash-stop:2", AdversaryClass::CrashStop { max_crashes: 2 }),
        ] {
            assert_eq!(spelling.parse::<AdversaryClass>(), Ok(class), "{spelling}");
            assert_eq!(class.name().parse::<AdversaryClass>(), Ok(class));
        }
        assert!("kbounded:0".parse::<AdversaryClass>().is_err());
        assert!("uniform-random".parse::<AdversaryClass>().is_err());
        assert_eq!(AdversaryClass::Fair.describe(), None);
    }

    #[test]
    fn target_specs_parse() {
        assert_eq!(
            "progress".parse::<CheckTargetSpec>().unwrap(),
            CheckTargetSpec::Progress
        );
        assert_eq!(
            "lockout".parse::<CheckTargetSpec>().unwrap(),
            CheckTargetSpec::Lockout
        );
        assert_eq!(
            "philosopher:2".parse::<CheckTargetSpec>().unwrap(),
            CheckTargetSpec::Philosopher(2)
        );
        assert!("philosopher:x".parse::<CheckTargetSpec>().is_err());
        assert!("nope".parse::<CheckTargetSpec>().is_err());
    }

    fn temp_cert_store(tag: &str) -> (CellStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "gdp_cert_store_test_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (CellStore::open_bare(&dir).unwrap(), dir)
    }

    #[test]
    fn the_check_payload_codec_round_trips_and_cross_checks_its_columns() {
        let spec = CheckSpec::new(TopologyFamily::Ring, 4, AlgorithmKind::Gdp1);
        let (key, cell) = (spec.cert_key(), spec.cell_key());
        let certified = run_check(&spec).unwrap().certificates;
        // A certificate with every optional field set, which the ring-4 GDP1
        // report leaves empty, and a probability with no short decimal form.
        let mut full = certified[0].clone();
        full.adversary_class = Some("fair schedulers with up to 1 crash-stop".to_string());
        full.probability = 0.1 + 0.2;
        full.certified_probability = false;
        full.expected_steps = Some(7.25);
        full.counterexample = Some("12 steps against \"ring\" (seed 3, lasso)".to_string());
        for certificates in [certified.clone(), vec![certified[0].clone(), full]] {
            let payload = encode_check_payload(&key, &cell, &certificates);
            assert_eq!(payload.lines().count(), 6 + 19 * certificates.len());
            let stored = decode_check_payload(&payload).unwrap();
            assert_eq!((stored.key.as_str(), stored.cell.as_str()), (&*key, &*cell));
            assert_eq!(stored.verdict, overall_verdict(&certificates).name());
            assert_eq!(stored.certificates, certificates);
            for (decoded, original) in stored.certificates.iter().zip(&certificates) {
                assert_eq!(
                    decoded.probability.to_bits(),
                    original.probability.to_bits()
                );
                assert_eq!(
                    decoded.expected_steps.map(f64::to_bits),
                    original.expected_steps.map(f64::to_bits)
                );
                assert_eq!(decoded.render(), original.render());
            }
            assert_eq!(
                encode_check_payload(&stored.key, &stored.cell, &stored.certificates),
                payload,
                "re-encoding is a fixed point"
            );
            // Every torn prefix is rejected, whatever line it ends on.
            let lines: Vec<&str> = payload.lines().collect();
            for keep in 0..lines.len() {
                let torn = lines[..keep].join("\n");
                assert!(decode_check_payload(&torn).is_err(), "kept {keep} lines");
            }
        }

        let payload = encode_check_payload(&key, &cell, &certified);
        // The model lines hold the one model, verbatim.
        assert!(payload.contains("\nhunger always\nleft_bias 3fe0000000000000\n"));
        let mut reordered: Vec<&str> = payload.lines().collect();
        reordered.swap(6, 7);
        let rejected = [
            // Reordered certificate fields.
            reordered.join("\n"),
            // A trailing line.
            format!("{payload}extra line\n"),
            // A certificate count that disagrees with the lines below it.
            payload.replacen("certificates 1", "certificates 2", 1),
            payload.replacen("certificates 1", "certificates 0", 1),
            // Corrupted f64 bit patterns are rejected, not guessed at.
            payload.replacen("\nprobability ", "\nprobability zz", 1),
            payload.replacen("\nprobability 3ff0000000000000", "\nprobability 3ff", 1),
            // A malformed optional.
            payload.replacen("counterexample none", "counterexample maybe", 1),
            // Any other hunger or coin.
            payload.replacen("hunger always", "hunger bernoulli(0.5)", 1),
            payload.replacen(
                "left_bias 3fe0000000000000",
                "left_bias 3fd0000000000000",
                1,
            ),
            // A derived column tampered with, even though the certificate
            // lines themselves still decode.
            payload.replacen("verdict certified", "verdict violated", 1),
        ];
        for tampered in &rejected {
            assert_ne!(tampered, &payload);
            assert!(decode_check_payload(tampered).is_err(), "{tampered}");
        }
    }

    #[test]
    fn cached_checks_reuse_certificates_and_render_identically() {
        let (store, dir) = temp_cert_store("reuse");
        let spec = CheckSpec::new(TopologyFamily::Ring, 4, AlgorithmKind::Gdp1);
        let (cold, stats) = run_check_cached(&spec, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (0, 1));
        let (warm, stats) = run_check_cached(&spec, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (1, 0));
        assert_eq!(warm.render(), cold.render(), "warm render is bitwise cold");
        // Without resume the check recomputes, but converges on the same
        // stored bytes.
        let (_, stats) = run_check_cached(&spec, &store, false).unwrap();
        assert_eq!((stats.reused, stats.computed), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_certificate_cache_is_keyed_by_the_full_check_context() {
        let (store, dir) = temp_cert_store("keying");
        let spec = CheckSpec::new(TopologyFamily::Ring, 4, AlgorithmKind::Gdp1);
        run_check_cached(&spec, &store, true).unwrap();
        // A different adversary class is a different check: no false hit.
        let restricted = CheckSpec {
            adversary: AdversaryClass::KBounded { k: 1 },
            ..spec.clone()
        };
        let (_, stats) = run_check_cached(&restricted, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (0, 1));
        // A family that ignores the seed shares one certificate across seeds.
        let reseeded_ring = CheckSpec {
            topology_seed: 7,
            ..spec.clone()
        };
        let (_, stats) = run_check_cached(&reseeded_ring, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (1, 0));
        // A random family redraws its edges per seed: a different check.
        let random = CheckSpec::new(
            TopologyFamily::RandomRegular { degree: 2 },
            3,
            AlgorithmKind::Gdp1,
        );
        run_check_cached(&random, &store, true).unwrap();
        let reseeded = CheckSpec {
            topology_seed: 1,
            ..random.clone()
        };
        let (_, stats) = run_check_cached(&reseeded, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (0, 1));
        // And each variant now answers warm from its own record.
        for variant in [&spec, &restricted, &random, &reseeded] {
            let (_, stats) = run_check_cached(variant, &store, true).unwrap();
            assert_eq!(
                (stats.reused, stats.computed),
                (1, 0),
                "{}",
                variant.cert_key()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_certificate_records_are_quarantined_and_recomputed() {
        let (store, dir) = temp_cert_store("corrupt");
        let spec = CheckSpec::new(TopologyFamily::Ring, 4, AlgorithmKind::Gdp1);
        let (cold, _) = run_check_cached(&spec, &store, true).unwrap();
        let path = store.path::<StoredCheck>(spec.store_fingerprint(), &spec.cert_key());
        let mut raw = std::fs::read(&path).unwrap();
        let target = raw.len() - 20;
        raw[target] ^= 0x04;
        std::fs::write(&path, raw).unwrap();
        let (recomputed, stats) = run_check_cached(&spec, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed, stats.quarantined), (0, 1, 1));
        assert_eq!(recomputed.render(), cold.render());
        assert!(
            std::fs::read_dir(dir.join("quarantine")).unwrap().count() > 0,
            "the bad record is preserved for forensics"
        );
        // The re-saved record answers the next warm check.
        let (_, stats) = run_check_cached(&spec, &store, true).unwrap();
        assert_eq!((stats.reused, stats.computed), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
