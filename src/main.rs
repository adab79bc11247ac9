//! `gdp` — the command-line workbench for the generalized dining
//! philosophers workspace.
//!
//! Eight subcommands make the whole repo drivable without writing Rust:
//!
//! * `gdp list` — the catalog of topology families, algorithms and
//!   adversaries a sweep can name;
//! * `gdp run` — one detailed simulation of a single *family × size ×
//!   algorithm × adversary* cell;
//! * `gdp sweep` — a full scenario grid through the parallel Monte-Carlo
//!   machinery, streamed to the console and written to JSON + CSV; with
//!   `--store` every completed cell checkpoints to a durable
//!   content-addressed store, `--resume` skips verified-complete cells and
//!   `--shard i/n` runs one deterministic partition of the grid;
//! * `gdp merge` — fuse shard stores into the artifacts an unsharded sweep
//!   would have written, byte for byte, without recomputing;
//! * `gdp check` — the **exact** model checker (`gdp-mcheck`): worst-case
//!   verdicts over every fair adversary and every random draw, emitted as
//!   byte-reproducible certificates (see `docs/VERIFICATION.md`); with
//!   `--store` the certificates persist to the cell store's certificate
//!   cache and `--resume` answers warm checks from disk, byte-identically;
//! * `gdp store` — store lifecycle: `gc` retires records whose spec
//!   context matches no manifest line, `compact` rewrites live records
//!   into a fresh directory, dropping quarantine debris and stale tmp
//!   files behind an atomic swap;
//! * `gdp stress` — one cell on **real contending OS threads** through the
//!   algorithm-generic `gdp-runtime`, with watchdog-bounded runs and
//!   JSON/CSV stress reports (see `docs/RUNTIME.md`);
//! * `gdp serve` — the long-running cache-answering service (`gdp-serve`):
//!   sweep specs over a line-delimited JSON TCP protocol, cache hits
//!   straight from a shared cell store, misses on a bounded worker pool,
//!   graceful drain on SIGTERM/ctrl-c (see `docs/SERVE.md`).
//!
//! Exit codes: `0` success / certified, `1` violation detected (safety
//! breach, true deadlock, or a failed liveness check), `2` usage error,
//! `3` inconclusive (state budget exhausted).
//!
//! Argument parsing is hand-rolled: the build container is offline, so the
//! workspace carries no CLI dependency.  See `docs/SCENARIOS.md` for the
//! spec format and `README.md` for a quickstart.

use gdp::prelude::*;
use gdp_observe::{jsonl, Event, EventSink, MemorySink, SharedSink};
use gdp_scenarios::{
    compact_store, gc_store, merge_stores, run_check, run_check_cached, run_stress_observed,
    run_sweep_durable, run_sweep_with, AdversaryClass, AdversaryKind, CellStore, CheckSpec,
    CheckTargetSpec, CheckVerdict, GridFields, MergeError, ScenarioSpec, ShardSpec, StressLoad,
    StressSpec, SweepOptions, TopologyFamily, ADVERSARY_CATALOG, FAMILY_CATALOG,
};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The actor an event belongs to, for the `(actor, clock)` export order of
/// real-thread traces; actor-free events (the sweep's cell/store lifecycle)
/// sort last.
fn event_actor(event: &Event) -> u32 {
    match event {
        Event::Schedule { actor, .. }
        | Event::Acquire { actor, .. }
        | Event::Release { actor, .. }
        | Event::MealStart { actor, .. }
        | Event::MealFinish { actor, .. }
        | Event::Crash { actor, .. }
        | Event::Watchdog { actor, .. } => *actor,
        _ => u32::MAX,
    }
}

/// What a successfully parsed-and-executed command asks the process to
/// report.
enum CommandOutcome {
    /// Everything held.
    Ok,
    /// A violation was detected (safety breach, deadlock, failed check).
    Violation(String),
    /// An exact check ran out of state budget before reaching a verdict.
    Inconclusive(String),
}

const USAGE: &str = "\
gdp — generalized dining philosophers workbench (Herescu & Palamidessi, PODC 2001)

USAGE:
    gdp list
        Print the topology families, algorithms and adversaries.

    gdp run [OPTIONS]
        Run one simulation and print its metrics.
          --topology <family>    topology family spec        [default: ring]
          --size <n>             family scale parameter      [default: 6]
          --algorithm <name>     lr1|lr2|gdp1|gdp2|ordered   [default: gdp1]
          --adversary <spec>     scheduler spec              [default: uniform-random]
          --steps <n>            step budget                 [default: 40000]
          --seed <n>             random seed                 [default: 0]
          --trace <path>         write the JSONL event trace; bytes are a pure
                                 function of the spec (see docs/OBSERVABILITY.md)

    gdp check [OPTIONS]
        Exactly model-check one cell: build the MDP of the probabilistic
        automaton (adversary choices x random draws) and certify or refute
        the objective over every fair adversary.  The certificate on stdout
        is byte-reproducible and identical for every --threads value.
          --family <family>      topology family spec        [default: ring]
          --size <n>             family scale parameter      [default: 4]
          --algorithm <name>     algorithm to check          [default: gdp1]
          --target <t>           progress|lockout|philosopher:<i> [default: progress]
          --adversary <class>    fair|kbounded:<k>|crash:<f> [default: fair]
          --max-states <n>       canonical-state budget      [default: 6000000]
          --threads <n>          0 = all cores               [default: 0]
          --symmetry <on|off>    quotient symmetric states   [default: auto]
                                 (on needs --adversary fair and an algorithm
                                 other than ordered-forks; a quotient may
                                 certify but never refute)
          --expected-steps       also compute exact E[steps to first meal]
          --counterexample <p>   write the starvation lasso as Graphviz DOT
          --store <dir>          persist the certificates to the store's
                                 certificate cache (crash-safe, checksummed)
          --resume               answer the check from a verified certificate
                                 record when one exists — the stdout report is
                                 byte-identical to recomputing (requires
                                 --store; incompatible with --counterexample,
                                 which needs the lasso the cache drops)

    gdp stress [OPTIONS]
        Run one cell on real contending OS threads (gdp-runtime) and write a
        JSON + CSV stress report.  All six algorithms are runnable; the
        naive baseline genuinely deadlocks and is bounded by the watchdog.
          --family <family>      topology family spec        [default: ring]
          --n <n>                family scale parameter      [default: 5]
          --algorithm <name>     lr1|lr2|gdp1|gdp2|ordered|naive [default: gdp2]
          --threads <n>          driven seats, 0 = all philosophers [default: 0]
          --meals <n>            meal budget per seat        [default: 50]
          --duration-ms <ms>     run for wall-clock time instead of a budget
          --watchdog-ms <ms>     whole-run bound, 0 = none
                                 [default: 30000; with --duration-ms: 0]
          --adversary <spec>     catalog spec; crash:<f> injects f seeded
                                 crash-stop seats (reset_trying recovery),
                                 fair families defer to the OS scheduler
          --spin <iters>         critical-section spin work  [default: 64]
          --seed <n>             topology + randomness seed  [default: 0]
          --json <path>          JSON output                 [default: gdp_stress.json]
          --csv <path>           CSV output                  [default: gdp_stress.csv]
          --timing               embed wall-clock fields (throughput, wait
                                 histogram, first-meal percentiles) in the
                                 artifacts
          --trace <path>         write a JSONL event trace, sorted by
                                 (actor, clock); real-thread interleaving makes
                                 it a measurement, not a reproducible fixture

    gdp sweep [OPTIONS]
        Run a scenario grid (families x sizes x algorithms) and write JSON + CSV.
          --families <a,b,..>    family specs     [default: ring,torus,complete,star,barbell,random-regular:3]
          --sizes <n,m,..>       scale parameters [default: 6,12]
          --algorithms <a,b,..>  algorithms       [default: lr1,gdp1]
          --adversary <spec>     scheduler spec   [default: uniform-random]
          --trials <n>           trials per cell  [default: 20]
          --steps <n>            steps per trial  [default: 40000]
          --seed <n>             base seed        [default: 0]
          --seed-policy <p>      per-cell|shared  [default: per-cell]
          --threads <n>          worker threads, n >= 1 (omit for all cores)
          --json <path>          JSON output      [default: gdp_sweep.json]
          --csv <path>           CSV output       [default: gdp_sweep.csv]
          --name <name>          sweep name       [default: sweep]
          --timing               embed wall-clock steps/sec in the artifacts
                                 (incompatible with --store)
          --quiet                no per-cell console rows
          --check                attach exact worst-case progress verdicts
          --check-states <n>     state budget per exact verdict [default: 400000]
          --store <dir>          checkpoint every completed cell to a durable
                                 content-addressed store (crash-safe)
          --resume               reuse verified-complete store cells; corrupt
                                 records are quarantined and recomputed
                                 (requires --store)
          --shard <i>/<n>        run only the i-th of n deterministic grid
                                 partitions, 1-based (requires --store)
        With --check and --store, every exact verdict also persists as a
        certificate record; --resume restores exact columns from those
        records even when the MC cell record is gone.

    gdp store gc [OPTIONS]
        Retire store records whose spec context matches no manifest line.
        The manifest is a plain-text file of retained spec-context lines —
        `cat <dir>/*.context` emits one per spec that ever wrote to the
        store; keep the lines you still need and gc the rest.
          --store <dir>          the store directory            (required)
          --manifest <file>     spec contexts to retain, one per line
                                 (blank lines and # comments skipped)
          --dry-run              report what would be retired, delete nothing

    gdp store compact [OPTIONS]
        Rewrite every live record into a fresh directory, dropping
        quarantine debris and stale tmp files, then atomically swap it in.
        Every record is re-verified and byte-compared during the rewrite;
        a record from a newer store format aborts the compaction.
          --store <dir>          the store directory            (required)

    gdp merge [OPTIONS]
        Fuse shard stores into the exact JSON + CSV artifacts the unsharded
        sweep would have written, byte for byte, without recomputing.  Pass
        the same grid flags as the original sweep (--name, --families,
        --sizes, --algorithms, --adversary, --trials, --steps, --seed,
        --seed-policy, --check/--check-states) plus one --store per shard.
          --store <dir>          a shard's store directory (repeatable)
          --json <path>          JSON output      [default: gdp_sweep.json]
          --csv <path>           CSV output       [default: gdp_sweep.csv]
          --quiet                no console summary

    gdp serve [OPTIONS]
        Run the cache-answering sweep service: a line-delimited JSON TCP
        protocol (ping | metrics | sweep | shutdown) answering cache hits
        from the cell store and computing misses on a bounded worker pool.
        Streams per-cell results in deterministic grid order with a
        digest-carrying summary footer; drains gracefully (exit 0) on
        SIGTERM/ctrl-c or a shutdown request.  See docs/SERVE.md.
          --addr <host:port>     bind address     [default: 127.0.0.1:7878]
                                 (port 0 picks a free port; the resolved
                                 address is printed on the listening line)
          --store <dir>          shared cell-store directory
                                 [default: gdp_serve_store]
          --workers <n>          compute workers, 0 = all cores [default: 0]
          --queue <n>            bound on queued compute jobs; beyond it,
                                 sweep requests get a retryable error
                                 [default: 256]

Adversary specs (the full catalog, see `gdp list` / docs/ADVERSARIES.md):
round-robin | uniform-random | max-wait | kbounded:<k> | blocking |
blocking:<bound> | greedy-conflict | greedy-conflict:<bound> | crash:<f>.
Results are bitwise-identical for every --threads value (PR-1 determinism
contract); by default the JSON/CSV artifacts are also byte-reproducible
across runs — pass --timing to trade that for embedded throughput figures.

run and sweep exit 1 when a trial ends in a true deadlock or breaks a
safety invariant; merge exits 1 when cells are missing from every store or
when two stores hold valid records that disagree byte-for-byte (a
determinism violation); check exits 1 on a violated objective and 3 when
the state budget truncated the model before a verdict.  See
docs/SCENARIOS.md for the crash-safe store layout and the
resume/shard/merge walkthrough.
";

/// A tiny hand-rolled flag parser: `--flag value` pairs plus boolean flags.
struct Args {
    argv: Vec<String>,
}

impl Args {
    fn new(argv: Vec<String>) -> Self {
        Args { argv }
    }

    /// Consumes `--flag value` and returns the value.
    fn value_of(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => {
                if i + 1 >= self.argv.len() || self.argv[i + 1].starts_with("--") {
                    return Err(format!("flag {flag} needs a value"));
                }
                let value = self.argv.remove(i + 1);
                self.argv.remove(i);
                Ok(Some(value))
            }
        }
    }

    /// Consumes a flag that has two spellings; passing both is an error,
    /// since one of the two values would be silently dropped.
    fn value_of_either(&mut self, flag: &str, alias: &str) -> Result<Option<String>, String> {
        match (self.value_of(flag)?, self.value_of(alias)?) {
            (Some(_), Some(_)) => Err(format!(
                "{flag} and {alias} are two spellings of one flag; pass only one"
            )),
            (value, alias_value) => Ok(value.or(alias_value)),
        }
    }

    /// Consumes `--flag value` and parses the value as a `what`.
    fn parsed_of<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value_of(flag)?.map(|v| parse(what, &v)).transpose()
    }

    /// Consumes every occurrence of `--flag value`, in order.
    fn values_of(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        while let Some(value) = self.value_of(flag)? {
            values.push(value);
        }
        Ok(values)
    }

    /// Consumes a boolean `--flag`.
    fn has(&mut self, flag: &str) -> bool {
        match self.argv.iter().position(|a| a == flag) {
            None => false,
            Some(i) => {
                self.argv.remove(i);
                true
            }
        }
    }

    /// Errors on any unconsumed argument.
    fn finish(self) -> Result<(), String> {
        if let Some(stray) = self.argv.first() {
            return Err(format!("unrecognized argument {stray:?}"));
        }
        Ok(())
    }
}

fn parse<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid {what} {value:?}: {e}"))
}

fn cmd_list() -> Result<(), String> {
    println!("TOPOLOGY FAMILIES (--families / --topology; size n per family):");
    for entry in FAMILY_CATALOG {
        println!(
            "  {:<26} {:<38} {}",
            entry.spec, entry.size_meaning, entry.description
        );
    }
    println!();
    println!("ALGORITHMS (--algorithms / --algorithm):");
    for kind in AlgorithmKind::all() {
        println!("  {:<26} {}", kind.name(), kind.description());
    }
    println!();
    println!("ADVERSARIES (--adversary; catalog in docs/ADVERSARIES.md):");
    for entry in ADVERSARY_CATALOG {
        println!(
            "  {:<26} {:<24} {}",
            entry.spec,
            entry.fairness.name(),
            entry.description
        );
    }
    println!();
    println!("EXACT ADVERSARY CLASSES (gdp check --adversary):");
    for (spec, description) in AdversaryClass::CATALOG {
        println!("  {spec:<26} {description}");
    }
    Ok(())
}

fn cmd_run(mut args: Args) -> Result<CommandOutcome, String> {
    let family: TopologyFamily = parse(
        "topology family",
        &args
            .value_of("--topology")?
            .unwrap_or_else(|| "ring".into()),
    )?;
    let size: usize = parse(
        "size",
        &args.value_of("--size")?.unwrap_or_else(|| "6".into()),
    )?;
    let algorithm: AlgorithmKind = parse(
        "algorithm",
        &args
            .value_of("--algorithm")?
            .unwrap_or_else(|| "gdp1".into()),
    )?;
    let adversary: AdversaryKind = parse(
        "adversary",
        &args
            .value_of("--adversary")?
            .unwrap_or_else(|| "uniform-random".into()),
    )?;
    let steps: u64 = parse(
        "step budget",
        &args.value_of("--steps")?.unwrap_or_else(|| "40000".into()),
    )?;
    let seed: u64 = parse(
        "seed",
        &args.value_of("--seed")?.unwrap_or_else(|| "0".into()),
    )?;
    let trace_path = args.value_of("--trace")?;
    args.finish()?;

    let topology = family
        .build(size, seed)
        .map_err(|e| format!("cannot build {} at n={size}: {e}", family.name()))?;
    println!(
        "topology {} (n={size}): {}",
        family.name(),
        topology.summary()
    );
    let mut engine = Engine::new(
        topology,
        algorithm.program(),
        SimConfig::default().with_seed(seed),
    );
    let sink = trace_path.as_ref().map(|_| Arc::new(MemorySink::new()));
    if let Some(sink) = &sink {
        let shared: SharedSink = sink.clone();
        engine.set_event_sink(Some(shared));
    }
    let mut adv = adversary.build(seed, 0);
    let outcome = engine.run(&mut adv, StopCondition::MaxSteps(steps));
    println!(
        "run      {} under {} for {steps} steps (seed {seed})",
        algorithm.name(),
        adversary.name()
    );
    println!(
        "metrics  steps={} meals={} thru/kstep={:.2} progress={} everyone={} starved={} jain={:.3}",
        outcome.steps,
        outcome.total_meals,
        outcome.throughput_per_kstep(),
        outcome.made_progress(),
        outcome.everyone_ate(),
        outcome.starved().len(),
        jain_index(&outcome.meals_per_philosopher)
    );
    for (i, meals) in outcome.meals_per_philosopher.iter().enumerate() {
        println!("         P{i}: {meals} meals");
    }

    // Observability: the histogram and trace export happen *before* the
    // safety and deadlock probes below — `is_stuck` explores by stepping
    // the engine, and those probe steps must not leak into the trace.  The
    // sink is detached for the same reason.
    let first_meal = engine.first_meal_histogram();
    if !first_meal.is_empty() {
        println!(
            "observe  first-meal steps p50={:.0} p90={:.0} p99={:.0} over {} eater(s) \
             (log2-bucket floor estimate, e <= t < max(2e, 2))",
            first_meal.quantile(50.0),
            first_meal.quantile(90.0),
            first_meal.quantile(99.0),
            first_meal.total(),
        );
    }
    engine.set_event_sink(None);
    if let (Some(path), Some(sink)) = (&trace_path, &sink) {
        let events = sink.take();
        let mut body = jsonl::encode_events(&events);
        // A self-describing footer: the final state fingerprint lets a
        // replay (ReplayAdversary over the schedule events) verify it
        // reached the same state.
        body.push_str(&format!(
            "{{\"clock\":{},\"type\":\"summary\",\"algorithm\":\"{}\",\"seed\":{},\
             \"steps\":{},\"meals\":{},\"fingerprint\":\"{:016x}\"}}\n",
            engine.step_count(),
            algorithm.name(),
            seed,
            engine.step_count(),
            outcome.total_meals,
            engine.state_fingerprint(),
        ));
        std::fs::write(path, &body).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} trace events to {path}", events.len());
    }

    let safe = engine.state_is_safe();
    let stuck = engine.is_stuck();
    if !safe {
        return Ok(CommandOutcome::Violation(
            "final state violates the safety invariants".to_string(),
        ));
    }
    if stuck {
        return Ok(CommandOutcome::Violation(format!(
            "final state is a true deadlock: no scheduling choice and no random \
             outcome can ever unblock it (step {})",
            engine.step_count()
        )));
    }
    Ok(CommandOutcome::Ok)
}

fn cmd_check(mut args: Args) -> Result<CommandOutcome, String> {
    let family: TopologyFamily = parse(
        "topology family",
        &args
            .value_of_either("--family", "--topology")?
            .unwrap_or_else(|| "ring".into()),
    )?;
    let size: usize = parse(
        "size",
        &args.value_of("--size")?.unwrap_or_else(|| "4".into()),
    )?;
    let algorithm: AlgorithmKind = parse(
        "algorithm",
        &args
            .value_of("--algorithm")?
            .unwrap_or_else(|| "gdp1".into()),
    )?;
    let target: CheckTargetSpec = parse(
        "target",
        &args
            .value_of("--target")?
            .unwrap_or_else(|| "progress".into()),
    )?;
    let max_states: usize = parse(
        "state budget",
        &args
            .value_of("--max-states")?
            .unwrap_or_else(|| "6000000".into()),
    )?;
    let threads: usize = parse(
        "thread count",
        &args.value_of("--threads")?.unwrap_or_else(|| "0".into()),
    )?;
    let symmetry = match args.value_of("--symmetry")?.as_deref() {
        None | Some("auto") => None,
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => {
            return Err(format!(
                "invalid --symmetry {other:?}: expected on, off or auto"
            ))
        }
    };
    let expected_steps = args.has("--expected-steps");
    let counterexample_path = args.value_of("--counterexample")?;
    let adversary: AdversaryClass = parse(
        "adversary class",
        &args
            .value_of("--adversary")?
            .unwrap_or_else(|| "fair".into()),
    )?;
    let seed: u64 = parse(
        "seed",
        &args.value_of("--seed")?.unwrap_or_else(|| "0".into()),
    )?;
    let store_dir = args.value_of("--store")?;
    let resume = args.has("--resume");
    args.finish()?;

    if resume && store_dir.is_none() {
        return Err("--resume needs a store; usage: gdp check --store <dir> --resume".to_string());
    }
    if symmetry == Some(true) && adversary != AdversaryClass::Fair {
        return Err(format!(
            "--symmetry on needs --adversary fair: {} checks build a quotient-free product \
             (use --symmetry auto or off)",
            adversary.name()
        ));
    }
    if symmetry == Some(true) && !algorithm.is_relabelling_invariant() {
        return Err(format!(
            "--symmetry on needs a relabelling-invariant algorithm: the quotient of {} is \
             unsound (use --symmetry auto or off)",
            algorithm.name()
        ));
    }
    if resume && counterexample_path.is_some() {
        return Err(
            "--counterexample needs the starvation lasso, which certificate records \
             do not carry; drop --resume to recompute the check"
                .to_string(),
        );
    }

    let spec = CheckSpec {
        family,
        size,
        algorithm,
        target,
        max_states,
        threads,
        symmetry,
        expected_steps,
        topology_seed: seed,
        adversary,
    };
    if expected_steps && adversary != AdversaryClass::Fair {
        println!(
            "note     --expected-steps applies only to the unrestricted class \
             (--adversary fair); skipping it for this restricted check"
        );
    }
    let report = match &store_dir {
        Some(dir) => {
            let store =
                CellStore::open_bare(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
            let (report, stats) =
                run_check_cached(&spec, &store, resume).map_err(|e| e.to_string())?;
            // Stderr, not stdout: the certificate report on stdout stays
            // byte-identical whether the answer came from disk or from a
            // fresh state-space exploration.
            eprintln!(
                "store    reused certificates: {}, computed certificates: {}, \
                 quarantined: {} ({dir})",
                stats.reused, stats.computed, stats.quarantined
            );
            report
        }
        None => run_check(&spec)?,
    };
    print!("{}", report.render());
    if let Some(path) = counterexample_path {
        match &report.counterexample_dot {
            Some(dot) => {
                std::fs::write(&path, dot).map_err(|e| format!("writing {path}: {e}"))?;
                println!("wrote counterexample DOT to {path}");
            }
            None => println!("no counterexample to write to {path}"),
        }
    }
    Ok(match report.verdict() {
        CheckVerdict::Certified => CommandOutcome::Ok,
        CheckVerdict::Violated => {
            CommandOutcome::Violation(format!("check violated for {}", report.cell))
        }
        CheckVerdict::Inconclusive => CommandOutcome::Inconclusive(format!(
            "state budget ({max_states}) exhausted before a verdict for {}",
            report.cell
        )),
    })
}

fn cmd_stress(mut args: Args) -> Result<CommandOutcome, String> {
    let family: TopologyFamily = parse(
        "topology family",
        &args.value_of("--family")?.unwrap_or_else(|| "ring".into()),
    )?;
    let size: usize = parse(
        "size",
        &args
            .value_of_either("--n", "--size")?
            .unwrap_or_else(|| "5".into()),
    )?;
    let algorithm: AlgorithmKind = parse(
        "algorithm",
        &args
            .value_of("--algorithm")?
            .unwrap_or_else(|| "gdp2".into()),
    )?;
    let threads: usize = parse(
        "thread count",
        &args.value_of("--threads")?.unwrap_or_else(|| "0".into()),
    )?;
    let duration_ms: Option<u64> = args
        .value_of("--duration-ms")?
        .map(|v| parse("duration", &v))
        .transpose()?;
    let meals: u64 = parse(
        "meal budget",
        &args.value_of("--meals")?.unwrap_or_else(|| "50".into()),
    )?;
    let load = match duration_ms {
        Some(ms) => StressLoad::DurationMs(ms),
        None => StressLoad::MealsPerSeat(meals),
    };
    // In duration mode the deadline itself bounds the run, so the watchdog
    // defaults to off unless explicitly requested; an explicit shorter
    // watchdog cuts a duration run short and reports as tripped.
    let watchdog_ms: u64 = match (args.value_of("--watchdog-ms")?, duration_ms) {
        (Some(value), _) => parse("watchdog", &value)?,
        (None, Some(_)) => 0,
        (None, None) => 30_000,
    };
    let spin: u32 = parse(
        "spin count",
        &args.value_of("--spin")?.unwrap_or_else(|| "64".into()),
    )?;
    let seed: u64 = parse(
        "seed",
        &args.value_of("--seed")?.unwrap_or_else(|| "0".into()),
    )?;
    // Any catalog family is accepted: the crash-stop family shapes the load
    // (seeded crash-stop seats recovering through reset_trying); for every
    // fair family the OS scheduler itself stands in — real threads cannot
    // be steered step-by-step, which is the point of the stress layer.
    let adversary: AdversaryKind = parse(
        "adversary",
        &args
            .value_of("--adversary")?
            .unwrap_or_else(|| "uniform-random".into()),
    )?;
    let crash_seats = match adversary {
        AdversaryKind::CrashStop { crashes } => crashes as usize,
        _ => 0,
    };
    let json_path = args
        .value_of("--json")?
        .unwrap_or_else(|| "gdp_stress.json".into());
    let csv_path = args
        .value_of("--csv")?
        .unwrap_or_else(|| "gdp_stress.csv".into());
    let timing = args.has("--timing");
    let trace_path = args.value_of("--trace")?;
    args.finish()?;

    let spec = StressSpec {
        family,
        size,
        algorithm,
        threads,
        load,
        watchdog_ms,
        seed,
        spin,
        crash_seats,
    };
    println!(
        "stress   {} x {} driven seats, load {}, watchdog {}ms (seed {seed}{})",
        spec.cell(),
        if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        },
        spec.load.name(),
        watchdog_ms,
        if crash_seats > 0 {
            format!(", {crash_seats} crash-stop seat(s)")
        } else {
            String::new()
        },
    );
    if crash_seats == 0 && adversary != AdversaryKind::UniformRandom {
        println!(
            "note     fair adversary families are subsumed by the OS scheduler on real \
             threads; only crash:<f> shapes a stress load (see docs/ADVERSARIES.md)"
        );
    }
    let sink = trace_path.as_ref().map(|_| Arc::new(MemorySink::new()));
    let report = run_stress_observed(
        &spec,
        timing,
        sink.as_ref().map(|s| s.clone() as SharedSink),
    )?;
    println!(
        "result   {} philosophers / {} forks on real threads: {} meals total, \
         everyone_ate={}, watchdog_tripped={}, jain={:.4}{}",
        report.philosophers,
        report.forks,
        report.total_meals,
        report.everyone_ate,
        report.watchdog_tripped,
        report.jain_fairness,
        if report.crashed_seats.is_empty() {
            String::new()
        } else {
            format!(", crashed={:?}", report.crashed_seats)
        },
    );
    if let Some(t) = &report.timing {
        println!(
            "timing   {:.3}s elapsed, {:.0} meals/s, mean wait {:.1}us, \
             first meal p50={:.0}ns p90={:.0}ns p99={:.0}ns",
            t.elapsed_secs,
            t.meals_per_sec,
            t.mean_wait_micros,
            t.first_meal_p50,
            t.first_meal_p90,
            t.first_meal_p99,
        );
    }
    for (i, m) in report.meals.iter().enumerate() {
        println!("         P{i}: {m} meals");
    }
    report
        .write_json(&json_path)
        .map_err(|e| format!("writing {json_path}: {e}"))?;
    report
        .write_csv(&csv_path)
        .map_err(|e| format!("writing {csv_path}: {e}"))?;
    println!("wrote {json_path} and {csv_path}");
    if let (Some(path), Some(sink)) = (&trace_path, &sink) {
        // Real threads interleave nondeterministically, so the merged stream
        // is a measurement, not a fixture: sort by (actor, clock) so each
        // seat's per-seat sequence reads contiguously and in order.
        let mut events = sink.take();
        events.sort_by_key(|e| (event_actor(e), e.clock()));
        let body = jsonl::encode_events(&events);
        std::fs::write(path, &body).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} trace events to {path}", events.len());
    }
    if !report.succeeded() {
        return Ok(CommandOutcome::Violation(format!(
            "stress cell {} {}",
            report.cell,
            if report.watchdog_tripped {
                "tripped the watchdog before every seat finished its budget"
            } else {
                "left at least one driven philosopher unfed"
            }
        )));
    }
    Ok(CommandOutcome::Ok)
}

/// Reads the scenario-grid flags shared by `gdp sweep` and `gdp merge`
/// into the shared grid parser (`gdp merge` must rebuild the *same* spec
/// to address the shard stores and reproduce the report header byte for
/// byte).  Returns the spec and the exact-check budget (`--check`, with
/// `--check-states` defaulting to 400 000).
fn grid_from_args(args: &mut Args) -> Result<(ScenarioSpec, Option<usize>), String> {
    let mut grid = GridFields {
        name: args.value_of("--name")?,
        families: args.value_of("--families")?,
        sizes: args.value_of("--sizes")?,
        algorithms: args.value_of("--algorithms")?,
        adversary: args.value_of("--adversary")?,
        trials: args.parsed_of("--trials", "trial count")?,
        steps: args.parsed_of("--steps", "step budget")?,
        seed: args.parsed_of("--seed", "seed")?,
        seed_policy: args.value_of("--seed-policy")?,
        threads: args.parsed_of("--threads", "thread count")?,
        exact_check: None,
    };
    if args.has("--check") {
        let budget = args.parsed_of("--check-states", "exact-check state budget")?;
        grid.exact_check = Some(budget.unwrap_or(400_000));
    }
    grid.parse("sweep", 0).map_err(|e| match e.key {
        "threads" => "--threads 0 is not a thread count; pass --threads <n> with n >= 1, \
                      or omit the flag to use all cores"
            .to_string(),
        "exact_check" => format!("--check-states: {}", e.message),
        key => format!("--{}: {}", key.replace('_', "-"), e.message),
    })
}

/// Maps a sweep/merge report onto the process outcome: exit 1 when any
/// cell observed a hard violation.
fn report_outcome(report: &gdp_scenarios::SweepReport) -> CommandOutcome {
    if report.violation_detected() {
        let offenders: Vec<&str> = report
            .cells
            .iter()
            .filter(|c| c.violation_detected())
            .map(|c| c.cell.as_str())
            .collect();
        return CommandOutcome::Violation(format!(
            "deadlock or safety violation detected in: {}",
            offenders.join(", ")
        ));
    }
    CommandOutcome::Ok
}

/// A sweep-local [`EventSink`] that tallies just the certificate-cache
/// events, for the `certs` console line of `gdp sweep --check --store`.
#[derive(Default)]
struct CertCounter {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EventSink for CertCounter {
    fn record(&self, event: &Event) {
        match event {
            Event::CertHit { .. } => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            Event::CertMiss { .. } => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

fn cmd_sweep(mut args: Args) -> Result<CommandOutcome, String> {
    let (spec, exact_check) = grid_from_args(&mut args)?;
    let json_path = args
        .value_of("--json")?
        .unwrap_or_else(|| "gdp_sweep.json".into());
    let csv_path = args
        .value_of("--csv")?
        .unwrap_or_else(|| "gdp_sweep.csv".into());
    let store_dir = args.value_of("--store")?;
    let resume = args.has("--resume");
    let shard_arg = args.value_of("--shard")?;
    let cert_counter =
        (exact_check.is_some() && store_dir.is_some()).then(|| Arc::new(CertCounter::default()));
    let options = SweepOptions {
        record_timing: args.has("--timing"),
        progress: !args.has("--quiet"),
        exact_check,
        sink: cert_counter.clone().map(|c| c as SharedSink),
    };
    args.finish()?;

    if resume && store_dir.is_none() {
        return Err("--resume needs a store; usage: gdp sweep --store <dir> --resume".to_string());
    }
    if shard_arg.is_some() && store_dir.is_none() {
        return Err("--shard needs a store to deposit its partition in; \
             usage: gdp sweep --store <dir> --shard <i>/<n>"
            .to_string());
    }
    if options.record_timing && store_dir.is_some() {
        return Err(
            "--timing embeds wall-clock figures, which would break the store's \
             byte-reproducibility; drop --timing or --store"
                .to_string(),
        );
    }
    let shard: Option<ShardSpec> = shard_arg.map(|s| parse("shard spec", &s)).transpose()?;

    println!("{}", spec.summary());
    let report = match &store_dir {
        Some(dir) => {
            let store = CellStore::open(dir, &spec, options.exact_check)
                .map_err(|e| format!("opening store {dir}: {e}"))?;
            let (report, stats) =
                run_sweep_durable(&spec, &options, Some(&store), resume, shard, |_| {})
                    .map_err(|e| format!("sweep failed: {e}"))?;
            println!("store    {stats} ({dir})");
            if let Some(certs) = &cert_counter {
                println!(
                    "certs    {} reused certificates, {} computed certificates ({dir})",
                    certs.hits.load(Ordering::Relaxed),
                    certs.misses.load(Ordering::Relaxed),
                );
            }
            report
        }
        None => {
            run_sweep_with(&spec, &options, |_| {}).map_err(|e| format!("sweep failed: {e}"))?
        }
    };
    report
        .write_json(&json_path)
        .map_err(|e| format!("writing {json_path}: {e}"))?;
    report
        .write_csv(&csv_path)
        .map_err(|e| format!("writing {csv_path}: {e}"))?;
    println!(
        "wrote {json_path} and {csv_path} ({} cells)",
        report.cells.len()
    );
    Ok(report_outcome(&report))
}

fn cmd_merge(mut args: Args) -> Result<CommandOutcome, String> {
    let (spec, exact_check) = grid_from_args(&mut args)?;
    let json_path = args
        .value_of("--json")?
        .unwrap_or_else(|| "gdp_sweep.json".into());
    let csv_path = args
        .value_of("--csv")?
        .unwrap_or_else(|| "gdp_sweep.csv".into());
    let store_dirs = args.values_of("--store")?;
    // Accepted so a sweep argv can be replayed verbatim as a merge argv;
    // suppresses the console summary.
    let quiet = args.has("--quiet");
    args.finish()?;
    if store_dirs.is_empty() {
        return Err(
            "gdp merge needs at least one store; usage: gdp merge --store <dir> [--store <dir> ...]"
                .to_string(),
        );
    }

    let stores: Vec<CellStore> = store_dirs
        .iter()
        .map(|dir| {
            CellStore::open(dir, &spec, exact_check)
                .map_err(|e| format!("opening store {dir}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if !quiet {
        println!("{}", spec.summary());
    }
    let (report, stats) = match merge_stores(&spec, &stores) {
        Ok(merged) => merged,
        Err(err @ MergeError::Missing { .. }) => {
            return Ok(CommandOutcome::Violation(format!(
                "merge incomplete: {err}"
            )));
        }
        // Valid records that disagree byte-for-byte are a determinism
        // violation (exit 1, like a failed check), not a usage error:
        // name the offending store directories so the operator knows
        // which shards to re-examine.
        Err(MergeError::Mismatch {
            cell,
            first_store,
            other_store,
        }) => {
            return Ok(CommandOutcome::Violation(format!(
                "stores {} and {} hold valid records for cell {cell} that disagree \
                 byte-for-byte — cells are pure functions of (spec, key), so this is \
                 a determinism violation; re-run the offending shard or quarantine \
                 the bad record before merging",
                store_dirs[first_store], store_dirs[other_store],
            )));
        }
        Err(err) => return Err(format!("merge failed: {err}")),
    };
    if !quiet {
        // Same shape as the `store` line `gdp sweep --store` prints, so the
        // fused StoreStats of a sharded run reads exactly like the stats of
        // the unsharded sweep it reproduces.
        println!("store    {stats} ({})", store_dirs.join(", "));
    }
    report
        .write_json(&json_path)
        .map_err(|e| format!("writing {json_path}: {e}"))?;
    report
        .write_csv(&csv_path)
        .map_err(|e| format!("writing {csv_path}: {e}"))?;
    println!(
        "wrote {json_path} and {csv_path} ({} cells)",
        report.cells.len()
    );
    Ok(report_outcome(&report))
}

fn cmd_store(mut args: Args) -> Result<CommandOutcome, String> {
    if args.argv.first().is_none_or(|a| a.starts_with("--")) {
        return Err(
            "gdp store needs a subcommand; usage: gdp store gc|compact [OPTIONS]".to_string(),
        );
    }
    let subcommand = args.argv.remove(0);
    match subcommand.as_str() {
        "gc" => {
            let dir = args
                .value_of("--store")?
                .ok_or("gdp store gc needs --store <dir>")?;
            let manifest_path = args.value_of("--manifest")?.ok_or(
                "gdp store gc needs --manifest <file>: the spec-context lines to retain \
                 (cat the store's *.context files and keep the specs you still need)",
            )?;
            let dry_run = args.has("--dry-run");
            args.finish()?;
            let raw = std::fs::read_to_string(&manifest_path)
                .map_err(|e| format!("reading manifest {manifest_path}: {e}"))?;
            let manifest: Vec<String> = raw
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .map(String::from)
                .collect();
            if manifest.is_empty() {
                return Err(format!(
                    "manifest {manifest_path} names no spec contexts; refusing a gc \
                     that would retire every record"
                ));
            }
            let report = gc_store(Path::new(&dir), &manifest, dry_run)
                .map_err(|e| format!("gc of store {dir}: {e}"))?;
            println!("store gc: {report} ({dir})");
            Ok(CommandOutcome::Ok)
        }
        "compact" => {
            let dir = args
                .value_of("--store")?
                .ok_or("gdp store compact needs --store <dir>")?;
            args.finish()?;
            let report = compact_store(Path::new(&dir))
                .map_err(|e| format!("compaction of store {dir}: {e}"))?;
            println!("store compact: {report} ({dir})");
            Ok(CommandOutcome::Ok)
        }
        other => Err(format!(
            "unknown store subcommand {other:?}; try gc or compact"
        )),
    }
}

fn cmd_serve(mut args: Args) -> Result<CommandOutcome, String> {
    let addr = args
        .value_of("--addr")?
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let store_dir = args
        .value_of("--store")?
        .unwrap_or_else(|| "gdp_serve_store".into());
    let workers: usize = parse(
        "worker count",
        &args.value_of("--workers")?.unwrap_or_else(|| "0".into()),
    )?;
    let queue_capacity: usize = parse(
        "queue capacity",
        &args.value_of("--queue")?.unwrap_or_else(|| "256".into()),
    )?;
    args.finish()?;
    if queue_capacity == 0 {
        return Err("--queue must be >= 1 (the bound is what makes rejection meaningful)".into());
    }
    gdp_serve::run_serve(gdp_serve::ServeConfig {
        addr,
        store_dir: store_dir.into(),
        workers,
        queue_capacity,
    })
    .map_err(|e| format!("serve failed: {e}"))?;
    Ok(CommandOutcome::Ok)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = argv.remove(0);
    let args = Args::new(argv);
    let result = match command.as_str() {
        "list" => {
            let r = cmd_list();
            args.finish().and(r).map(|()| CommandOutcome::Ok)
        }
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "merge" => cmd_merge(args),
        "check" => cmd_check(args),
        "stress" => cmd_stress(args),
        "store" => cmd_store(args),
        "serve" => cmd_serve(args),
        other => Err(format!("unknown command {other:?}; try `gdp --help`")),
    };
    match result {
        Ok(CommandOutcome::Ok) => ExitCode::SUCCESS,
        Ok(CommandOutcome::Violation(message)) => {
            eprintln!("violation: {message}");
            ExitCode::from(1)
        }
        Ok(CommandOutcome::Inconclusive(message)) => {
            eprintln!("inconclusive: {message}");
            ExitCode::from(3)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
