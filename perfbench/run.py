#!/usr/bin/env python3
"""The gdp workspace benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --smoke

Run from the root of a checkout.  It builds `gdp` and the tracer
(`perfbench/tracer`) in release mode, then runs one workload:

* `--trace 0` drives the real `gdp` binary and reports the end-to-end
  metrics of BENCHMARK.json;
* `--trace 1` runs the traced in-process replicas and reports the per-layer
  metrics.  Every traced run reports every layer: the workload that owns a
  layer (see README.md) measures it at full size, the others at smoke size.

Every metric is printed as `name = value unit`; the last stdout line is the
JSON result.  Outputs are checked, and a failed check counts in `failed`.
`--smoke` runs the workload small, with and without tracing, and checks that
every metric named in BENCHMARK.json prints with its unit.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("check-ring5", "sweep-mc", "serve-mixed")
# Traced segments: one per workload, plus the runtime's stress run, which
# is not a workload of its own (see README.md) and always runs at full size.
SEGMENTS = WORKLOADS + ("stress-ring3",)

# Exact state-space sizes of the GDP1 ring check (Theorem 3's witness).
CHECK_COUNTS = {5: (4012473, 12025250), 4: (62914, 164442)}

# The default `gdp sweep` grid: 6 families x 2 sizes x 2 algorithms.
SWEEP_CELLS, SWEEP_STEPS = 24, 40000
# Threads of the timed sweeps.  At 2 threads on a 2-core shared host the
# run medians spread by 0.26 of their median over ten seeds, because any
# neighbour on either core stretches the grid's makespan; at 1 thread they
# hold steady.  The traced run still times and checks 2-thread sweeps.
SWEEP_THREADS = 1

# Store fill for serve-mixed: one sweep of this grid per fill seed.
FILL_FAMILIES = ["ring", "torus", "complete", "star", "barbell", "random-regular:3"]
FILL_SIZES = list(range(3, 13))
FILL_ALGORITHMS = ["lr1", "gdp1", "gdp2"]
FILL_TRIALS, FILL_STEPS = 2, 400

# Full and smoke sizes of every workload.
SCALE = {
    "full": {"check_size": 5, "sweep_trials": 20, "fill_seeds": 16, "rate": 80.0,
             "stress_meals": 20000, "sim_steps": 2000000},
    "smoke": {"check_size": 4, "sweep_trials": 2, "fill_seeds": 2, "rate": 40.0,
              "stress_meals": 5000, "sim_steps": 200000},
}
SMOKE_SECONDS = 2.0

# serve-mixed uses one connection.  With two, a request's CellStore::open
# sweeps the temp file of a cell another request's worker is still saving,
# and that save or open fails with "No such file or directory".
SERVE_CONNECTIONS = 1

# Which workload measures each per-layer metric at full size (an exact
# name first, else its prefix); trace.* always comes from the workload run.
LAYER_OWNER = {"mcheck": "check-ring5", "sim": "sweep-mc", "analysis": "sweep-mc",
               "topology": "sweep-mc", "report.encode_ms": "sweep-mc",
               "report.cell_json_us": "serve-mixed", "store": "serve-mixed",
               "runner": "serve-mixed", "serve": "serve-mixed", "loadgen": "serve-mixed",
               "runtime": "stress-ring3"}


class BenchError(Exception):
    """A set-up failure: the benchmark exits non-zero without a result."""


def owner(metric):
    return LAYER_OWNER.get(metric, LAYER_OWNER.get(metric.split(".")[0]))


def median(values):
    return statistics.median(values)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def fnv1a64(data):
    """The store's stable digest (`gdp_scenarios::stable_digest64`)."""
    digest = 0xcbf29ce484222325
    for byte in data:
        digest = ((digest ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return digest


# ---------------------------------------------------------------------------
# Build and host stamp
# ---------------------------------------------------------------------------

def cargo_build(args, env):
    """Builds one binary; returns its path and the sources it was built from.

    Cargo reports the executable it just brought up to date, with the
    profile it used; the dep-info file next to it lists every source file.
    A binary that is not optimized, or older than one of its sources, is
    refused."""
    done = subprocess.run(["cargo", "build", "--release", "--offline",
                           "--message-format=json-render-diagnostics"] + args,
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if done.returncode != 0:
        raise BenchError("build failed: cargo build " + " ".join(args))
    artifact = [m for m in map(json.loads, done.stdout.splitlines())
                if m.get("reason") == "compiler-artifact" and m.get("executable")][-1]
    exe, profile = artifact["executable"], artifact["profile"]
    if profile["opt_level"] != "3" or profile["debug_assertions"]:
        raise BenchError(f"{exe} is not a release build")
    with open(exe + ".d", encoding="utf-8") as handle:
        sources = handle.read().split(":", 1)[1].split()
    built = os.path.getmtime(exe)
    stale = [s for s in sources if os.path.getmtime(s) > built]
    if stale:
        raise BenchError(f"{exe} is older than {stale[0]}")
    return exe, sources


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml at the checkout root; nothing to build")
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    gdp, gdp_sources = cargo_build(["-p", "gdp", "--bin", "gdp"], env)
    tracer, tracer_sources = cargo_build(
        ["--manifest-path", os.path.join(ROOT, "perfbench", "tracer", "Cargo.toml")], env)
    return {"gdp": gdp, "tracer": tracer}, sorted(set(gdp_sources + tracer_sources))


def host_stamp(sources):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    git = shutil.which("git") and subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                                 capture_output=True, text=True)
    if git and git.returncode == 0:
        commit = git.stdout.strip()
    else:
        # Not a git checkout: name the build by the sources it compiled.
        digest = hashlib.sha256()
        for path in sources:
            with open(path, "rb") as handle:
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + handle.read())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    return {"nproc": len(os.sched_getaffinity(0)), "rustc": rustc, "commit": commit,
            "profile": "release"}


# ---------------------------------------------------------------------------
# Child processes and spans
# ---------------------------------------------------------------------------

class Proc:
    """A finished child: exit code, wall seconds, peak RSS in MB, stdout."""

    def __init__(self, code, wall, rss_mb, out):
        self.code, self.wall, self.rss_mb, self.out = code, wall, rss_mb, out


def run(cmd, name):
    """Runs `cmd` in the work directory and reaps it with its resource use."""
    out_path = os.path.join(WORK, name + ".out")
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=WORK)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as out:
        text = out.read()
    return Proc(child.returncode, wall, usage.ru_maxrss / 1024.0, text)


def facts(proc, what):
    """The tracer's last stdout line: a JSON object of facts."""
    if proc.code != 0:
        raise BenchError(f"{what} exited {proc.code}")
    return json.loads(proc.out.strip().splitlines()[-1])


def read_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def span_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def durations(spans, name):
    return [span_s(s) for s in spans if s["name"] == name]


def coverage(spans, wall_s):
    """Time inside root spans as a share of the tracer's wall time."""
    return sum(span_s(s) for s in spans if s["parent"] is None) / wall_s


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_setup(setup, repeats=3):
    """Runs `setup` several times and returns the median seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        setup()
        times.append(time.perf_counter() - started)
    return median(times)


def repeat_ops(seconds, op):
    """Runs `op` until the next run would end past `seconds`; at least once."""
    started, results = time.perf_counter(), []
    while True:
        results.append(op(len(results)))
        if time.perf_counter() - started + results[-1].wall > seconds:
            return results


class Tally:
    """Counts checked outputs; a failed check or an invalid load makes the
    run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.valid = True

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("check failed: " + message)

    def invalid(self, message):
        self.valid = False
        print("invalid run: " + message)


def op_metrics(setup_s, procs, work_per_op):
    walls = [p.wall for p in procs]
    print(f"operations: {len(procs)}")
    return {"setup_s": setup_s,
            "latency_p50_ms": median(walls) * 1e3,
            "throughput_per_s": work_per_op / median(walls),
            "peak_rss_mb": median(p.rss_mb for p in procs)}


# ---------------------------------------------------------------------------
# check-ring5: cold exact check, no store
# ---------------------------------------------------------------------------

def check_cmd(bins, size):
    return [bins["gdp"], "check", "--family", "ring", "--size", str(size),
            "--algorithm", "gdp1", "--threads", "2"]


def check_op(bins, size, tally, name):
    proc = run(check_cmd(bins, size), name)
    states, transitions = CHECK_COUNTS[size]
    tally.check(proc.code == 0 and proc.out.rstrip().endswith("overall verdict:   certified")
                and f"{states} canonical states, {transitions} transitions" in proc.out,
                f"ring-{size} check did not certify {states} states / {transitions} transitions")
    return proc


def measure_check(bins, scale, seed, seconds, tally):
    size = scale["check_size"]
    setup_s = timed_setup(lambda: check_op(bins, 4, tally, "check-warmup"), repeats=9)
    procs = repeat_ops(seconds, lambda i: check_op(bins, size, tally, f"check-{i}"))
    return op_metrics(setup_s, procs, CHECK_COUNTS[size][0])


def trace_check(bins, scale, seed, seconds, tally):
    size = scale["check_size"]
    untraced = check_op(bins, size, tally, "check-untraced")
    spans_path = os.path.join(WORK, "check.spans")
    render_path = os.path.join(WORK, "check.render")
    traced = facts(run([bins["tracer"], "check", "--size", str(size), "--threads", "2",
                        "--spans", spans_path, "--render", render_path], "check-traced"),
                   "tracer check")
    with open(render_path, encoding="utf-8") as handle:
        tally.check(handle.read() == untraced.out, "traced check renders differently from gdp")
    one_thread = run([bins["tracer"], "build", "--size", str(size), "--threads", "1"],
                     "check-build1")
    build1 = facts(one_thread, "tracer build")
    tally.check(build1["states"] == traced["states"] == CHECK_COUNTS[size][0]
                and traced["transitions"] == CHECK_COUNTS[size][1],
                "traced state or transition count differs")
    spans = read_spans(spans_path)
    build_s = sum(durations(spans, "mcheck.build"))
    return {"mcheck.build_s": build_s,
            "mcheck.solve_s": sum(durations(spans, "mcheck.solve")),
            "mcheck.certificate_s": sum(durations(spans, "mcheck.certificate")),
            "mcheck.states_per_s": traced["states"] / build_s,
            "mcheck.build_speedup_2t": build1["build_s"] / build_s,
            "mcheck.states": traced["states"],
            "mcheck.transitions": traced["transitions"],
            "mcheck.bytes_per_state": one_thread.rss_mb * 2**20 / build1["states"],
            "trace.coverage": coverage(spans, traced["wall_s"]),
            "trace.overhead": traced["wall_s"] / untraced.wall}


# ---------------------------------------------------------------------------
# sweep-mc: the default Monte-Carlo grid, no store, no exact check
# ---------------------------------------------------------------------------

def read_artifacts(out):
    with open(out + ".json", "rb") as js, open(out + ".csv", "rb") as cs:
        return js.read(), cs.read()


def sweep_op(bins, scale, seed, threads, tally, name, reference=None):
    """One `gdp sweep` of the default grid; its artifacts must equal
    `reference`, the serial (1-thread) artifacts of the same seed."""
    out = os.path.join(WORK, name)
    proc = run([bins["gdp"], "sweep", "--threads", str(threads), "--seed", str(seed),
                "--trials", str(scale["sweep_trials"]), "--quiet",
                "--json", out + ".json", "--csv", out + ".csv"], name)
    proc.artifacts = read_artifacts(out) if proc.code == 0 else None
    tally.check(proc.code == 0 and reference in (None, proc.artifacts),
                f"sweep {name} failed or differs from the serial reference")
    return proc


def measure_sweep(bins, scale, seed, seconds, tally):
    references = []
    setup_s = timed_setup(lambda: references.append(
        sweep_op(bins, scale, seed, 1, tally, "sweep-ref").artifacts))
    tally.check(references.count(references[0]) == len(references), "serial sweeps disagree")
    procs = repeat_ops(seconds, lambda i: sweep_op(bins, scale, seed, SWEEP_THREADS, tally,
                                                   f"sweep-{i}", references[0]))
    return op_metrics(setup_s, procs, SWEEP_CELLS * scale["sweep_trials"] * SWEEP_STEPS)


def trace_sweep(bins, scale, seed, seconds, tally):
    reference = sweep_op(bins, scale, seed, 1, tally, "sweep-ref").artifacts
    untraced = sweep_op(bins, scale, seed, 2, tally, "sweep-untraced", reference)
    runs = {}
    for threads in (2, 1):
        out = os.path.join(WORK, f"sweep-traced-{threads}")
        runs[threads] = facts(run([bins["tracer"], "sweep", "--seed", str(seed),
                                   "--threads", str(threads),
                                   "--trials", str(scale["sweep_trials"]),
                                   "--spans", out + ".spans",
                                   "--json", out + ".json", "--csv", out + ".csv"],
                                  f"sweep-traced-{threads}"), "tracer sweep")
        runs[threads]["spans"] = read_spans(out + ".spans")
        tally.check(read_artifacts(out) == reference,
                    f"traced {threads}-thread sweep differs from gdp sweep")
    sim = facts(run([bins["tracer"], "sim", "--steps", str(scale["sim_steps"])], "sim"),
                "tracer sim")
    spans = runs[2]["spans"]
    slowest = max((s for s in spans if s["name"] == "analysis.cell"), key=span_s)
    print(f"slowest cell: {slowest['label']} ({span_s(slowest) * 1e3:.1f} ms at 2 threads)")
    cell_s = durations(spans, "analysis.cell")
    return {"sim.steps_per_s": sim["steps"] / sim["run_s"],
            "sim.allocs_per_step": sim["allocations"] / sim["steps"],
            "analysis.cell_ms_p50": median(cell_s) * 1e3,
            "analysis.cell_ms_max": max(cell_s) * 1e3,
            "analysis.parallel_efficiency":
                sum(durations(runs[1]["spans"], "analysis.cell")) / (2 * sum(cell_s)),
            "topology.build_ms": sum(durations(spans, "topology.build")) * 1e3,
            "report.encode_ms": sum(durations(spans, "report.encode")) * 1e3,
            "trace.coverage": coverage(spans, runs[2]["wall_s"]),
            "trace.overhead": runs[2]["wall_s"] / untraced.wall}


# ---------------------------------------------------------------------------
# serve-mixed: open-loop mixed hit/miss load on a filled store
# ---------------------------------------------------------------------------

def fill_seeds(seed, count):
    return [seed * 1000 + i for i in range(count)]


def fill_store(bins, scale, seed, tally):
    """A fresh store holding one record per fill-grid cell and fill seed."""
    store = fresh_dir("store")
    for fill in fill_seeds(seed, scale["fill_seeds"]):
        proc = run([bins["gdp"], "sweep", "--families", ",".join(FILL_FAMILIES),
                    "--sizes", ",".join(map(str, FILL_SIZES)),
                    "--algorithms", ",".join(FILL_ALGORITHMS),
                    "--trials", str(FILL_TRIALS), "--steps", str(FILL_STEPS),
                    "--seed", str(fill), "--threads", "1", "--store", store, "--quiet",
                    "--json", os.devnull, "--csv", os.devnull], "fill")
        tally.check(proc.code == 0, f"store fill for seed {fill} failed")
    return store


def plan_requests(seed, scale, count):
    """About 9 repeats of stored specs (1-24 cell hits) per fresh seed
    (1-4 small cells that the server computes and saves)."""
    rng = random.Random(seed)
    fills = fill_seeds(seed, scale["fill_seeds"])
    plan = []
    for index in range(count):
        if rng.random() < 0.1:
            families = [rng.choice(FILL_FAMILIES)]
            sizes = rng.sample(range(3, 7), rng.randint(1, 2))
            algorithms = rng.sample(FILL_ALGORITHMS, rng.randint(1, 2))
            spec_seed, fresh = 10**9 + seed * 10**5 + index, True
        else:
            while True:
                shape = (rng.randint(1, 6), rng.randint(1, 10), rng.randint(1, 3))
                if shape[0] * shape[1] * shape[2] <= 24:
                    break
            families = rng.sample(FILL_FAMILIES, shape[0])
            sizes = rng.sample(FILL_SIZES, shape[1])
            algorithms = rng.sample(FILL_ALGORITHMS, shape[2])
            spec_seed, fresh = rng.choice(fills), False
        line = json.dumps({"type": "sweep", "families": ",".join(families),
                           "sizes": ",".join(map(str, sizes)),
                           "algorithms": ",".join(algorithms), "trials": FILL_TRIALS,
                           "steps": FILL_STEPS, "seed": spec_seed}, separators=(",", ":"))
        plan.append({"line": line, "cells": len(families) * len(sizes) * len(algorithms),
                     "fresh": fresh})
    return plan


def reap(server, grace):
    """Waits up to `grace` seconds for the server, kills it if it is still
    up, reaps it and returns its peak RSS in MB."""
    deadline = time.monotonic() + grace
    while True:
        pid, status, usage = os.wait4(server.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            server.kill()
            _, status, usage = os.wait4(server.pid, 0)
            break
        time.sleep(0.01)
    server.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def start_server(bins, store):
    log = os.path.join(WORK, "serve.log")
    with open(log, "wb") as out, open(log + ".err", "wb") as err:
        server = subprocess.Popen([bins["gdp"], "serve", "--addr", "127.0.0.1:0",
                                   "--store", store, "--workers", "2", "--queue", "256"],
                                  stdout=out, stderr=err, cwd=WORK)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with open(log, encoding="utf-8") as handle:
            banner = handle.readline()
        if banner.endswith("\n") and "listening on " in banner:
            return server, int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        time.sleep(0.01)
    reap(server, 0)
    raise BenchError("gdp serve did not start")


def drive(port, plan, rate, connections, records, threads_seen):
    """One client process with `connections` connections, in an open loop at
    `rate` requests/s: request k is due at start + k/rate on connection
    k mod `connections`, whatever became of the requests before it.

    A request goes out when it is due or, if the answer before it on its
    connection came later, when that answer came: `ready` is that time.
    The generator's own lateness is `sent - ready`; the wait for a slow
    server counts in the request's latency, not against the generator."""
    start = time.perf_counter() + 0.05

    def client(conn):
        with socket.create_connection(("127.0.0.1", port)) as sock, \
                sock.makefile("rb") as reader:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            free = start
            for k in range(conn, len(plan), connections):
                due = start + k / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                threads_seen.append(threading.active_count())
                sent = time.perf_counter()
                sock.sendall(plan[k]["line"].encode() + b"\n")
                first, cells = None, []
                while True:
                    raw = reader.readline()
                    if first is None:
                        first = time.perf_counter()
                    if not raw.startswith((b'{"type":"sweep_start"', b'{"type":"cell"')):
                        break
                    if raw.startswith(b'{"type":"cell"'):
                        cells.append(raw)
                records[k] = {"due": due, "ready": max(due, free), "sent": sent,
                              "first": first, "done": time.perf_counter(), "cells": cells,
                              "tail": raw}
                free = records[k]["done"]

    helpers = [threading.Thread(target=client, args=(c,)) for c in range(1, connections)]
    for helper in helpers:
        helper.start()
    try:
        client(0)
    finally:
        for helper in helpers:
            helper.join()


def request(port, line):
    with socket.create_connection(("127.0.0.1", port)) as sock, sock.makefile("rb") as reader:
        sock.sendall(line.encode() + b"\n")
        return json.loads(reader.readline())


def serve_session(bins, scale, seed, seconds, tally, store):
    """Runs the open loop against a server on `store` and verifies every
    answer; returns the plan, the records, the server's counters, its peak
    RSS and the generator's p99 lateness."""
    nproc = len(os.sched_getaffinity(0))
    connections, rate = min(SERVE_CONNECTIONS, nproc), scale["rate"]
    plan = plan_requests(seed, scale, int(rate * seconds))
    records, threads_seen = [None] * len(plan), []
    server, port = start_server(bins, store)
    grace = 0
    try:
        drive(port, plan, rate, connections, records, threads_seen)
        counters = request(port, '{"type":"metrics"}')["metrics"]["counters"]
        request(port, '{"type":"shutdown"}')
        grace = 30
    finally:
        rss_mb = reap(server, grace)
    tally.check(server.returncode == 0, f"gdp serve exited {server.returncode}")
    for item, record in zip(plan, records):
        ok = record is not None and record["tail"].startswith(b'{"type":"summary"')
        if ok:
            summary = json.loads(record["tail"])
            hits = 0 if item["fresh"] else item["cells"]
            record["digest"] = summary["digest"]
            ok = (summary["cells"] == len(record["cells"]) == item["cells"]
                  and summary["reused"] == hits and summary["computed"] == item["cells"] - hits
                  and int(summary["digest"], 16) == fnv1a64(b"".join(record["cells"])))
        tally.check(ok, f"request {item['line']} answered {record and record['tail']!r}")
    late_ms = [(r["sent"] - r["ready"]) * 1e3 for r in records if r]
    late_p99 = nearest_rank(late_ms, 99)
    service_p50 = median(r["done"] - r["sent"] for r in records if r) * 1e3
    print(f"serve requests: {len(plan)} over {connections} connection(s) at {rate:g}/s, "
          f"generator late p99 {late_p99:.3f} ms, send-to-answer p50 {service_p50:.3f} ms")
    # A short host stall delays a few sends; a generator that fell behind
    # its schedule sends many of them a whole period late.
    if nearest_rank(late_ms, 90) > connections / rate * 1e3:
        tally.invalid("the load generator fell behind its schedule")
    if max(threads_seen) > nproc or connections > nproc:
        tally.invalid(f"the load generator used more than {nproc} threads or connections")
    return plan, records, counters, rss_mb, late_p99


def latency_s(record):
    """Latency from the time the request was due, not sent."""
    return record["done"] - record["due"]


def measure_serve(bins, scale, seed, seconds, tally):
    stores = []
    setup_s = timed_setup(lambda: stores.append(fill_store(bins, scale, seed, tally)), repeats=5)
    _, records, _, rss_mb, _ = serve_session(bins, scale, seed, seconds, tally, stores[-1])
    answered = [r for r in records if r]
    print(f"serve latency p99: {nearest_rank([latency_s(r) for r in answered], 99) * 1e3} ms")
    return {"setup_s": setup_s,
            "latency_p50_ms": median(latency_s(r) for r in answered) * 1e3,
            # The rate achieved at the offered rate: it falls below the
            # offered rate only when the server cannot keep up.
            "throughput_per_s": len(answered) / (max(r["done"] for r in answered)
                                                 - min(r["due"] for r in answered)),
            "peak_rss_mb": rss_mb}


def trace_serve(bins, scale, seed, seconds, tally):
    store = fill_store(bins, scale, seed, tally)
    plan, records, counters, _, late_p99 = serve_session(bins, scale, seed, seconds, tally,
                                                         store)
    requests_path = os.path.join(WORK, "serve.requests")
    with open(requests_path, "w", encoding="utf-8") as handle:
        handle.writelines(item["line"] + "\n" for item in plan)
    # The same requests in-process, on a store filled the same way: once
    # without spans and once with them, for the tracing overhead.
    replays = {}
    for spans_path in ("-", os.path.join(WORK, "serve.spans")):
        digests = os.path.join(WORK, "serve.digests")
        replays[spans_path] = facts(run(
            [bins["tracer"], "serve-replay", "--store", fill_store(bins, scale, seed, tally),
             "--requests", requests_path, "--spans", spans_path, "--digests", digests],
            "serve-replay"), "tracer serve-replay")
        with open(digests, encoding="utf-8") as handle:
            tally.check(handle.read().split() == [r and r.get("digest") for r in records],
                        "in-process replay digests differ from the served digests")
    untraced, traced = replays.values()
    spans = read_spans(spans_path)

    def on_hits(name):
        return [span_s(s) for s in spans if s["name"] == name
                and not plan[int(spans[s["parent"]]["label"][1:])]["fresh"]]
    replayed = {s["label"]: span_s(s) for s in spans if s["name"] == "serve.request"}
    unexplained = [latency_s(r) - replayed[f"r{k}"]
                   for k, r in enumerate(records) if r and not plan[k]["fresh"]]
    hits, misses = counters["serve.store_hits"], counters["serve.store_misses"]
    return {"store.records": traced["records"],
            "store.open_us": median(durations(spans, "store.open")) * 1e6,
            "store.lookup_hit_us": median(on_hits("store.lookup")) * 1e6,
            "store.save_us": median(durations(spans, "store.save")) * 1e6,
            "runner.compute_cell_ms": median(durations(spans, "runner.compute_cell")) * 1e3,
            "report.cell_json_us": median(durations(spans, "report.cell_json")) * 1e6,
            "serve.parse_us": median(durations(spans, "serve.parse")) * 1e6,
            "serve.ttfb_ms_p50": median(r["first"] - r["sent"] for r in records if r) * 1e3,
            "serve.latency_p99_ms": nearest_rank([latency_s(r) for r in records if r], 99) * 1e3,
            "serve.hit_ratio": hits / (hits + misses),
            "serve.queue_peak_depth": counters["serve.queue_peak_depth"],
            "serve.queue_rejections": counters["serve.queue_rejections"],
            "serve.unexplained_ms_p50": median(unexplained) * 1e3,
            "loadgen.late_ms_p99": late_p99,
            "trace.coverage": coverage(spans, traced["wall_s"]),
            "trace.overhead": traced["wall_s"] / untraced["wall_s"]}


# ---------------------------------------------------------------------------
# stress-ring3: real threads on two seats of a 3-ring, meal budget
# ---------------------------------------------------------------------------

def stress_op(bins, meals, seed, tally, name):
    out = os.path.join(WORK, name)
    proc = run([bins["gdp"], "stress", "--family", "ring", "--n", "3", "--threads", "2",
                "--timing", "--meals", str(meals), "--seed", str(seed),
                "--json", out + ".json", "--csv", out + ".csv"], name)
    proc.report = {}
    if proc.code == 0:
        with open(out + ".json", encoding="utf-8") as handle:
            proc.report = json.load(handle)
    tally.check(proc.report.get("everyone_ate") is True
                and proc.report.get("total_meals") == 2 * meals,
                f"stress run {name} failed or left a seat unfed")
    return proc


def trace_stress(bins, scale, seed, seconds, tally):
    meals = scale["stress_meals"]
    untraced = stress_op(bins, meals, seed, tally, "stress-untraced")
    spans_path = os.path.join(WORK, "stress.spans")
    traced = facts(run([bins["tracer"], "stress", "--meals", str(meals), "--seed", str(seed),
                        "--spans", spans_path], "stress-traced"), "tracer stress")
    tally.check(traced["meals"] == 2 * meals, "traced stress run lost meals")
    return {"runtime.mean_wait_us": untraced.report.get("mean_wait_micros", 0.0),
            "runtime.jain": untraced.report.get("jain_fairness", 0.0),
            "trace.coverage": coverage(read_spans(spans_path), traced["wall_s"]),
            "trace.overhead": traced["wall_s"] / untraced.wall}


MEASURE = {"check-ring5": measure_check, "sweep-mc": measure_sweep,
           "serve-mixed": measure_serve}
TRACE = {"check-ring5": trace_check, "sweep-mc": trace_sweep,
         "serve-mixed": trace_serve, "stress-ring3": trace_stress}


def traced_run(bins, workload, smoke, seed, seconds, tally):
    """Every per-layer metric: each layer at full size on the workload that
    owns it (the runtime's on every workload) and at smoke size elsewhere;
    trace.* from this workload."""
    metrics = {}
    for other in SEGMENTS:
        full = other in (workload, "stress-ring3") and not smoke
        layer = TRACE[other](bins, SCALE["full" if full else "smoke"], seed,
                             seconds if full else min(seconds, SMOKE_SECONDS), tally)
        for name, value in layer.items():
            if owner(name) == other or (name.startswith("trace.") and other == workload):
                metrics[name] = value
    return metrics


def result_line(spec, kind, metrics, tally):
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} missing or unknown")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    return json.dumps({"correct": tally.valid and tally.failed == 0,
                       "attempted": max(tally.attempted, 1), "failed": tally.failed,
                       "metrics": {n: {"value": float(v), "unit": units[n]}
                                   for n, v in metrics.items()}})


def run_once(bins, spec, workload, seed, seconds, trace, smoke):
    tally = Tally()
    if trace:
        return result_line(spec, "per_layer",
                           traced_run(bins, workload, smoke, seed, seconds, tally), tally)
    scale = SCALE["smoke" if smoke else "full"]
    return result_line(spec, "end_to_end", MEASURE[workload](bins, scale, seed, seconds, tally),
                       tally)


def main():
    parser = argparse.ArgumentParser(description="The gdp workspace benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run small, untraced and traced, and check every metric prints")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        bins, sources = build()
        os.makedirs(WORK, exist_ok=True)
        print("host " + json.dumps(host_stamp(sources)))
        if args.smoke:
            lines = [run_once(bins, spec, args.workload, args.seed, SMOKE_SECONDS, trace, True)
                     for trace in (0, 1)]
            print("smoke: every metric printed with its unit, traced and untraced")
            print(lines[-1])
        else:
            print(run_once(bins, spec, args.workload, args.seed, args.seconds, args.trace,
                           False))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
