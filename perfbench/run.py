#!/usr/bin/env python3
"""Benchmark of `multicolor batch <manifest>` on one workload.

  python3 perfbench/run.py --workload hex-large --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload is generated from --seed (set-up,
timed several times), then batches run one after another, each in a fresh
`python -m multicolor.cli batch` subprocess with PYTHONPATH=src, until
--seconds have passed (at least one batch): a closed loop with one caller.
Each report is checked by checker.py, outside the timed regions.  Times are
scaled to a reference core speed by calibrate.py, on the one core the run
is pinned to.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 also
runs the set-up and one batch under tracer.py, in fresh processes, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# a batch still running after this long is killed, so a run ends within 180 s
BATCH_TIMEOUT_S = 150
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_TOTAL_S = 2.0
STARTUP_REPS = 5
MAX_LISTED = 50


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def clean(work):
    """Delete the work directory and flush the file system, so that its
    deferred deletion work does not land in a later timing."""
    shutil.rmtree(work, ignore_errors=True)
    os.sync()


def run_process(argv, env):
    """Run argv to completion; returns (Timing, exit code, max RSS in MB)."""
    return calibrate.run_child(argv, env, ROOT, BATCH_TIMEOUT_S)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest() if text is not None else "none"


def timed_setup(workload, seed, work, reps_wanted):
    """Generate the workload repeatedly into fresh directories; returns the
    manifest path of the last repetition, the set-up times (user-mode CPU)
    and the same times scaled to the reference speed."""
    times, scaled = [], []
    while True:
        # a fresh directory per repetition: deleting the last one's files
        # here would make the file system's deferred work land in the timing
        out_dir = os.path.join(work, f"inputs_{len(times)}")
        os.sync()  # the last repetition's writes are flushed outside the timing
        manifest, timing = calibrate.run_inline(workloads.generate, workload, seed, out_dir)
        times.append(timing.run_s)
        scaled.append(timing.scaled_s)
        if len(times) >= reps_wanted and (sum(times) >= SETUP_MIN_TOTAL_S
                                          or len(times) >= SETUP_MAX_REPS):
            return manifest, times, scaled


def timed_batches(manifest, work, seconds, env):
    """Closed loop of batch subprocesses for `seconds` (at least one)."""
    batches = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        report = os.path.join(work, f"report_{len(batches)}.csv")
        timing, code, rss = run_process(
            [sys.executable, "-m", "multicolor.cli", "batch", manifest, "--out", report], env)
        batches.append({"wall_s": timing.run_s, "scaled_s": timing.scaled_s,
                        "status": code, "rss_mb": rss, "report": _read(report)})
    return batches


def traced_metrics(workload, seed, manifest, work, env, batch_s, first_report):
    """The per-layer metrics, from a traced set-up and a traced batch in
    fresh processes; returns (metrics, problems, notes)."""
    tracer = os.path.join(HERE, "tracer.py")
    problems, notes = [], []

    setup_out = os.path.join(work, "trace_setup.json")
    run_process([sys.executable, tracer, "setup", workload, str(seed),
                 os.path.join(work, "traced_inputs"), setup_out], env)
    batch_out = os.path.join(work, "trace_batch.json")
    report = os.path.join(work, "report_traced.csv")
    traced, _, _ = run_process([sys.executable, tracer, "batch", manifest, report, batch_out],
                               env)
    with open(setup_out) as fh:
        setup = json.load(fh)["phases"]["setup"]
    with open(batch_out) as fh:
        summary = json.load(fh)
    batch = summary["phases"]["batch"]
    if _read(report) != first_report:
        problems.append("the traced batch wrote a different report")

    funcs = batch["functions"]

    def fn(name, key):
        return funcs.get(name, {}).get(key, 0)

    def layer_self(phase, layer):
        return sum(s["self_s"] for n, s in phase["functions"].items()
                   if n.startswith(layer + "."))

    startup = []
    for _ in range(STARTUP_REPS):
        timing, _, _ = run_process([sys.executable, "-m", "multicolor.cli", "--help"], env)
        startup.append(timing.scaled_s)

    m = {}
    for name in ("graph.maximal_cliques", "instance.validate_full", "instance.peak_clique_load",
                 "oracle.opt_exact", "algorithms.run_player"):
        m[f"{name}.self_s"] = fn(name, "self_s")
        m[f"{name}.calls"] = fn(name, "calls")
    for name in ("graph.build_hexagonal", "graph.build_bipartite", "oracle.advice_43",
                 "oracle.plan_43", "oracle.advice_fpa", "oracle.advice_cancel",
                 "oracle.advice_trivial", "harness.load_instance", "harness.run",
                 "harness.advice_bound", "harness.batch"):
        m[f"{name}.self_s"] = fn(name, "self_s")
    m["instance.demand_clique_weight.calls"] = fn("instance.demand_clique_weight", "calls")
    m["oracle.opt_value.calls"] = fn("oracle.opt_value", "calls")
    m["oracle.advice_43.player_sims"] = batch["player_sims"]
    m["advice.bits_written"] = summary["bits_written"]
    m["advice.bits_read"] = summary["bits_read"]
    m["advice.bits_read_frac"] = summary["bits_read"] / max(1, summary["bits_written"])
    for layer in ("graph", "instance", "advice", "oracle", "algorithms", "harness", "cli"):
        m[f"{layer}.self_s"] = layer_self(batch, layer)
    m["adversary.generate.self_s"] = layer_self(setup, "adversary")
    for layer in ("graph", "instance", "harness"):
        m[f"setup.{layer}.self_s"] = layer_self(setup, layer)
    m["cli.startup_s"] = statistics.median(startup)
    m["trace.wall_s"] = batch["wall_s"]
    m["trace.self_coverage_frac"] = 1.0 - batch["self_s"] / batch["wall_s"]
    m["trace.overhead_frac"] = traced.scaled_s / batch_s - 1.0
    m["trace.spans"] = summary["spans"]

    if workload == "small-exact-batch":
        counts_out = os.path.join(work, "profile_counts.json")
        run_process([sys.executable, tracer, "profile", manifest,
                     os.path.join(work, "report_profiled.csv"), counts_out], env)
        with open(counts_out) as fh:
            counts = json.load(fh)["counts"]
        mismatched = [f"{n}: traced {fn(n, 'calls')} cProfile {c}"
                      for n, c in sorted(counts.items()) if fn(n, "calls") != c]
        if mismatched:
            problems.append("tracer self-check: " + "; ".join(mismatched))
        notes.append(f"tracer self-check: {len(counts) - len(mismatched)}/{len(counts)} "
                     f"functions match cProfile ncalls")
    return m, problems, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # the batches and the calibration kernel share one core, so the kernel
    # sees the speed the batches ran at; children inherit the affinity
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env_record = {"python": sys.version.split()[0], "commit": _commit(),
                  "nproc": os.cpu_count(), "cpu": cpu, "loadavg_start": _loadavg()}
    env = _child_env()
    work = os.path.join(HERE, ".work", args.workload)
    clean(work)
    os.makedirs(work)

    # compiles the package's bytecode, a cost users pay once, not per batch
    run_process([sys.executable, "-m", "multicolor.cli", "--help"], env)
    manifest, setup_times, setup_scaled = timed_setup(args.workload, args.seed, work,
                                        1 if args.trace else SETUP_MIN_REPS)
    os.sync()
    batches = timed_batches(manifest, work, args.seconds, env)

    first = batches[0]
    check = checker.check_report(manifest, first["report"], first["status"])
    problems = list(check.problems)
    if any(b["report"] != first["report"] or b["status"] != first["status"] for b in batches):
        problems.append("reports differ between batches of the same manifest")

    batch_s = statistics.median(b["scaled_s"] for b in batches)
    metrics = {
        "batch_s": batch_s,
        "requests_per_s": check.total_requests / batch_s,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
    }
    notes = []
    if args.trace:
        layer, more_problems, notes = traced_metrics(args.workload, args.seed, manifest, work,
                                                     env, batch_s, first["report"])
        metrics.update(layer)
        problems += more_problems
    env_record["loadavg_end"] = _loadavg()
    clean(work)

    section = "per_layer" if args.trace else "end_to_end"
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]}

    print(f"workload {args.workload} seed {args.seed}: {len(batches)} batches of "
          f"{check.attempted} runs, {check.total_requests} requests per batch, "
          f"{len(setup_times)} set-ups")
    print("env " + json.dumps(env_record))
    print(f"  unscaled medians: batch {statistics.median(b['wall_s'] for b in batches):.6g} s, "
          f"set-up {statistics.median(setup_times):.6g} s (user CPU)")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'failed_frac':<16} {check.failed / max(1, check.attempted):.6g} "
          f"({check.failed} failed / {check.attempted} attempted)")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"report sha256 {_sha256(first['report'])}  batch exit status {first['status']}")
    for inst, algo, reason in check.failures[:MAX_LISTED]:
        print(f"  failed: {inst} {algo}: {reason}")
    for note in notes:
        print(note)
    for problem in problems[:MAX_LISTED]:
        print(f"  INCORRECT: {problem}")
    hidden = max(0, len(check.failures) - MAX_LISTED) + max(0, len(problems) - MAX_LISTED)
    if hidden:
        print(f"  ... {hidden} more lines not listed")
    print(json.dumps({"correct": not problems,
                      "attempted": check.attempted * len(batches),
                      "failed": check.failed * len(batches),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "multicolor", "__init__.py")):
        sys.exit(f"error: no multicolor package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import calibrate
    import checker
    import workloads

    sys.exit(main())
