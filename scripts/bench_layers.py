#!/usr/bin/env python3
"""Per-layer CPU times of `multicolor batch` on the small-exact-batch corpus,
of the corpus's set-up, and the cold-start split of a batch process, written
as one JSON file.

  python3 scripts/bench_layers.py --out bench.json
  python3 scripts/bench_layers.py --out bench.json --base ../parent/src
  python3 scripts/bench_layers.py --out bench.json --base ../parent/src --counts

Run from the repository root.  The corpus is perfbench's small-exact-batch
workload at seed 1: 1,209 instance files and 2,827 runs of all
six players on graphs of at most 17 nodes.  It is written once, into a
temporary directory, and every side reads the same files.

Each repetition runs in a fresh worker process, which imports the package
from its side's src directory and replays the batch layer by layer, over the
whole corpus, with fresh objects, so every cached offline fact is computed
again as a batch computes it.  A layer's time is the user-mode CPU time of
that step summed over the corpus:

  read        harness._load_json of each instance file
  decode      harness.instance_from_dict of each document
  facts       each file's oracle.Optimum: demand, omega, the peak load
              and Opt, and the witness when a trivial run asks
  tape        harness.make_advice of each run, from its file's Optimum
  player      algorithms.run_player of each run
  validation  instance.validate_full of each run's actions
  metrics     harness._report of each run, from its validation: the rest
              of harness.run (max and distinct colors, the advice and color
              bounds, and the RunReport)
  csv         harness.report_row and the CSV writer over every report

A side whose harness has no _report (before it was split out of run) has
neither of the last two layers, and its layers_total leaves them out.

Each worker first times the corpus's set-up (`generation`), before any
batch and with the garbage collector on, as perfbench times it:

  setup       workloads.generate of the corpus into a fresh temporary
              directory: what perfbench's setup_s times
  gen_build   the corpus's instances, built from multicolor.adversary as
              workloads.generate builds them
  gen_text    harness.instance_text of each of those instances

The replay holds the whole corpus at once, which a batch never does, so the
garbage collector is off while a layer is timed.  `batch` is the median of
five (BATCH_TIMINGS) timings of harness.batch on the same manifest, in the
same worker before the replay and after one untimed warm-up batch, with the
collector on; one timing per worker could not resolve a few percent.  It is
more than the sum of the layers: it also pays the batch loop, harness.run's
own code and the collector.  Every batch writes its report to os.devnull.
The warm-up batch is the whole command, `cli.main(["batch", manifest,
"--out", os.devnull])`, run under tracemalloc, whose peak
(`tracemalloc_peak_mb`, MiB) is the most memory the package's objects took
at once during a process's first batch, the manifest's read and decode and
the caches filling included, and the report left out; unlike perfbench's
peak_rss_mb, it leaves out the interpreter and the allocator's slack, which
move with the checkout's path.

Each layer and the batch are timed by calibrate.run_inline, as perfbench
times its in-process batch: the reference kernel runs before, after and
every 0.1 s during the step, and the step's time is also given scaled to the
reference core speed by the kernels around it.  The core's speed swings by
20% to 2x within seconds on a shared host, so one kernel reading per worker
would scale a whole worker's steps by whatever speed that reading caught.
With --base (the src directory of another checkout), the workers of the two
sides alternate, base first on even repetitions, so drift in the machine's
speed falls on both.  Each time is a median over the workers, in CPU seconds
(`cpu_s`) and scaled (`scaled_s`).

The cold-start split is the median wall time of --reps runs each, the sides
alternating as above: `python -c pass`, `python -S -c pass`, and
`import multicolor.cli` from a copy of the package with its bytecode
compiled and from one where no bytecode is written (PYTHONDONTWRITEBYTECODE=1,
as perfbench's batches may run).  The kernel runs before every command and
once at the end; each median is also given scaled by the median of all
those kernel runs (`cold_start_kernel_s`), one factor for every command of
both sides.  A command takes a few tens of milliseconds, so the kernels just
around it catch the core's speed at one instant: scaled by them, the same
code's figure swung by 8% either way.

With --counts, each side also gets exact work counts (`counts`): the
opcodes executed in its multicolor modules, counted per module by a
sys.settrace tracer that turns on opcode events in every frame of the
package's code, over one fresh worker process each for

  small_exact_batch       one harness.batch of the corpus's manifest, the
                          worker's first, with every cache cold
  bip_cancel_large_setup  workloads.generate of perfbench's bip-cancel-large
                          workload at seed 1, as its setup_s times it

The package is imported before the count starts.  A count does not move
with the machine's load, but it prices each call into C code (a file read,
a sort, a set operation) at one opcode, whatever that call does; it is a
record, not a gate.  Bytecode differs between Python versions, so counts
compare only under one version.

Each side is keyed by `code_sha256`, the sha256 of its multicolor/*.py
files (each file's name, a NUL and its bytes, in name order): the code that
ran, whether or not it is committed.  The script pins itself, and so every
process it starts, to one core, as perfbench does.  The last line of stdout
is the path of the JSON file.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
LAYERS = ("read", "decode", "facts", "tape", "player", "validation", "metrics", "csv")
GENERATION = ("setup", "gen_build", "gen_text")
SEED = 1  # the seed of the perfbench small-exact-batch runs that CHANGES.md reports
BATCH_TIMINGS = 5  # timings of the in-process batch per worker, of which the median is kept
COUNTED = ("small_exact_batch", "bip_cancel_large_setup")  # the steps --counts counts


def _code_sha256(src):
    """The sha256 of src's multicolor/*.py files: per file in name order, its
    name, a NUL and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "multicolor", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model, "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# worker: one repetition of the layer split, in a fresh process

def _times(timing):
    return {"cpu_s": timing.run_s, "scaled_s": timing.scaled_s}


def _generation(calibrate):
    """{step: {"cpu_s", "scaled_s"}} for the corpus's set-up and its split
    into building the instances and rendering their text."""
    import workloads
    from multicolor import harness

    with tempfile.TemporaryDirectory() as out_dir:
        setup = calibrate.run_inline(workloads.generate, "small-exact-batch", SEED, out_dir)[1]
    built, gen_build = calibrate.run_inline(workloads._small_exact_batch, SEED)
    gen_text = calibrate.run_inline(lambda: [harness.instance_text(inst) for inst, _ in built])[1]
    return {"setup": _times(setup), "gen_build": _times(gen_build), "gen_text": _times(gen_text)}


def _batch_into(sink):
    """harness.batch as fn(manifest, base_dir), its report written to the
    text stream sink."""
    from multicolor import harness

    return lambda manifest, base_dir: harness.batch(manifest, sink, base_dir)


def _batch(manifest_path, calibrate):
    """{"cpu_s", "scaled_s"}: each the median over BATCH_TIMINGS timings of
    harness.batch on the manifest, its report written to os.devnull."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(os.devnull, "w") as sink:
        timings = [_times(calibrate.run_inline(_batch_into(sink), manifest,
                                               os.path.dirname(manifest_path))[1])
                   for _ in range(BATCH_TIMINGS)]
    return {key: statistics.median(t[key] for t in timings) for key in ("cpu_s", "scaled_s")}


def _batch_peak_mb(manifest_path):
    """tracemalloc's peak, in MiB, over one `multicolor batch` of the
    manifest, run in-process by cli.main with its report to os.devnull: the
    manifest's read and decode count too."""
    from multicolor import cli

    tracemalloc.start()
    try:
        status = cli.main(["batch", manifest_path, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    if status == 2:
        raise SystemExit(f"multicolor batch {manifest_path} exited 2")
    return peak


def _layers(manifest_path, calibrate):
    """{layer: {"cpu_s", "scaled_s"}} for one layer-by-layer replay of the
    batch."""
    from multicolor import harness, oracle
    from multicolor.algorithms import run_player
    from multicolor.errors import MultiColorError
    from multicolor.instance import validate_full

    base = os.path.dirname(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    groups = []  # (path, [(algo, b), ...]) for each run of consecutive entries on one file
    for entry in manifest["runs"]:
        if not groups or groups[-1][0] != entry["instance"]:
            groups.append((entry["instance"], []))
        groups[-1][1].append((entry["algo"], entry.get("b")))

    spent = {}

    def timed(layer, fn, items):
        gc.collect()
        gc.disable()
        out, timing = calibrate.run_inline(lambda: [fn(*item) for item in items])
        gc.enable()
        spent[layer] = _times(timing)
        return out

    docs = timed("read", harness._load_json,
                 [(os.path.join(base, path),) for path, _ in groups])
    instances = timed("decode", harness.instance_from_dict, [(doc,) for doc in docs])

    def facts(instance, runs):
        optimum = oracle.Optimum(instance)
        optimum.demand, optimum.omega, optimum.peak_load, optimum.value
        if any(algo == "trivial" for algo, _ in runs):
            try:
                optimum.witness
            except MultiColorError:
                pass
        return optimum

    optima = timed("facts", facts, [(inst, runs) for inst, (_, runs) in zip(instances, groups)])
    runs = [(inst, opt, algo, b) for inst, opt, (_, group) in zip(instances, optima, groups)
            for algo, b in group]

    def tape(instance, optimum, algo, b):
        try:
            return harness.make_advice(instance, algo, b=b, optimum=optimum)
        except MultiColorError:
            return None

    def play(instance, optimum, algo, b, tape):
        try:
            return run_player(algo, instance.graph, tape, instance.requests, b=b)
        except MultiColorError:
            return None

    def validate(instance, optimum, algo, b, tape, actions):
        return validate_full(instance, actions)

    # each step keeps the runs that the last one did not refuse, with its output
    runs = [(*run, t) for run, t in zip(runs, timed("tape", tape, runs)) if t is not None]
    runs = [(*run, a) for run, a in zip(runs, timed("player", play, runs)) if a is not None]
    runs = [(*run, v) for run, v in zip(runs, timed("validation", validate, runs))]
    if not hasattr(harness, "_report"):
        return spent

    def measure(instance, optimum, algo, b, tape, actions, violation):
        return harness._report(instance, algo, b, optimum, tape, actions, violation)

    reports = timed("metrics", measure, runs)

    def write_csv(reports):
        import io
        writer = harness.csv_writer(io.StringIO())
        for report in reports:
            writer.writerow(harness.report_row(report))

    timed("csv", write_csv, [(reports,)])
    return spent


def _worker(src, manifest_path):
    sys.path.insert(0, src)
    sys.path.insert(0, PERFBENCH)
    import calibrate

    generation = _generation(calibrate)
    peak_mb = _batch_peak_mb(manifest_path)  # the warm-up batch, untimed
    batch = _batch(manifest_path, calibrate)
    print(json.dumps({"generation": generation, "layers": _layers(manifest_path, calibrate),
                      "batch": batch, "tracemalloc_peak_mb": peak_mb}))


def _opcode_counts(fn, *args):
    """{"total": n, "modules": {module: n}}: the opcodes that fn(*args)
    executes in the multicolor package's modules."""
    import multicolor

    package = os.path.dirname(os.path.abspath(multicolor.__file__))
    counts, tracers = {}, {}  # tracers: code file -> its module's tracer, or None

    def tracer_for(path):
        if os.path.dirname(os.path.abspath(path)) != package:
            return None
        module = os.path.splitext(os.path.basename(path))[0]
        counts.setdefault(module, 0)

        def count(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            return count
        return count

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            tracers[path] = tracer_for(path)
        tracer = tracers[path]
        if tracer is not None:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return tracer

    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return {"total": sum(counts.values()), "modules": dict(sorted(counts.items()))}


def _count_worker(src, step, manifest_path):
    """Print the opcode counts of one COUNTED step, run in this fresh process."""
    sys.path.insert(0, src)
    sys.path.insert(0, PERFBENCH)
    import workloads  # imports every module the steps run, so no import is counted

    if step == "small_exact_batch":
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        with open(os.devnull, "w") as sink:
            counts = _opcode_counts(_batch_into(sink), manifest, os.path.dirname(manifest_path))
    else:
        with tempfile.TemporaryDirectory() as out_dir:
            counts = _opcode_counts(workloads.generate, "bip-cancel-large", SEED, out_dir)
    print(json.dumps(counts))


# ---------------------------------------------------------------------------
# the main process: workers, cold start and the JSON file

def _run_worker(*args):
    out = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(samples):
    """Medians per layer, raw and scaled, over the worker samples."""
    def medians(times):
        return {key: statistics.median(t[key] for t in times) for key in ("cpu_s", "scaled_s")}

    layers = {layer: medians([s["layers"][layer] for s in samples])
              for layer in LAYERS if layer in samples[0]["layers"]}
    return {"reps": len(samples), "layers": layers,
            "layers_total": {key: sum(v[key] for v in layers.values())
                             for key in ("cpu_s", "scaled_s")},
            "batch": medians([s["batch"] for s in samples]),
            "generation": {step: medians([s["generation"][step] for s in samples])
                           for step in GENERATION},
            "tracemalloc_peak_mb": statistics.median(s["tracemalloc_peak_mb"] for s in samples)}


def _alternate(sides, reps):
    """Each side once per repetition, the first side first on even ones."""
    for rep in range(reps):
        yield from (sides if rep % 2 == 0 else sides[::-1])


def _cold_start_commands(src, scratch):
    """{label: (argv, env)} of the cold-start commands: interpreter start, and
    importing multicolor.cli from copies of src's package with and without
    bytecode."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    commands = {"python_c_pass_s": ([sys.executable, "-c", "pass"], env),
                "python_S_c_pass_s": ([sys.executable, "-S", "-c", "pass"], env)}
    for label, compiled in (("import_cli_bytecode_s", True), ("import_cli_no_bytecode_s", False)):
        copy = os.path.join(scratch, label)
        shutil.copytree(os.path.join(src, "multicolor"), os.path.join(copy, "multicolor"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = dict(env, PYTHONPATH=copy)
        if compiled:
            subprocess.run([sys.executable, "-m", "compileall", "-q", copy], env=child, check=True)
        else:
            child["PYTHONDONTWRITEBYTECODE"] = "1"
        commands[label] = ([sys.executable, "-c", "import multicolor.cli"], child)
    return commands


def _wall_s(argv, env, calibrate, kernels):
    """The command's wall seconds; the kernel's time, run just before it, is
    appended to kernels."""
    kernels.append(calibrate.kernel())
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--base", help="the src directory of a base to compare with")
    parser.add_argument("--reps", type=int, default=7,
                        help="worker processes and cold-start runs per side")
    parser.add_argument("--counts", action="store_true",
                        help="also count the opcodes each side executes")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sides = {"change": os.path.join(ROOT, "src")}
    if args.base:
        sides = {"base": os.path.abspath(args.base), **sides}

    # the workers, the commands timed and the calibration kernel share one
    # core, as in perfbench, so the kernel sees the speed they ran at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as scratch:
        sys.path[:0] = [sides["change"], PERFBENCH]
        import calibrate
        import workloads

        manifest = workloads.generate("small-exact-batch", SEED,
                                      os.path.join(scratch, "corpus"))
        samples = {side: [] for side in sides}
        for side in _alternate(list(sides), args.reps):
            samples[side].append(_run_worker("--worker", sides[side], manifest))
        counts = {side: {step: _run_worker("--count-worker", src, step, manifest)
                         for step in COUNTED} for side, src in sides.items()} if args.counts else {}
        commands = {side: _cold_start_commands(src, os.path.join(scratch, side))
                    for side, src in sides.items()}
        cold = {side: {label: [] for label in commands[side]} for side in sides}
        kernels = []
        for side in _alternate(list(sides), args.reps):
            for label, (command, env) in commands[side].items():
                cold[side][label].append(_wall_s(command, env, calibrate, kernels))
        kernels.append(calibrate.kernel())
        kernel_s = statistics.median(kernels)
        scale = calibrate.REF_S / kernel_s
    result = {"python": sys.version.split()[0], "machine": _machine(),
              "workload": f"small-exact-batch seed {SEED}", "cold_start_kernel_s": kernel_s,
              "sides": {}}
    for side, src in sides.items():
        result["sides"][side] = {
            "code_sha256": _code_sha256(src), **_summary(samples[side]),
            "cold_start": {label: {"wall_s": statistics.median(walls),
                                   "scaled_s": statistics.median(walls) * scale}
                           for label, walls in cold[side].items()}}
        if side in counts:
            result["sides"][side]["counts"] = counts[side]
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    def cells(times):
        return " ".join(f"{k} {v['cpu_s'] * 1e3:.1f}/{v['scaled_s'] * 1e3:.1f}"
                        for k, v in times.items())

    for side, data in result["sides"].items():
        print(f"{side}: {cells(data['layers'])}; {cells({'batch': data['batch']})} ms "
              f"(cpu/scaled); tracemalloc peak {data['tracemalloc_peak_mb']:.2f} MiB; "
              f"set-up: {cells(data['generation'])}")
        if "counts" in data:
            print(f"{side} opcodes: " + " ".join(f"{step} {data['counts'][step]['total']:,}"
                                                   for step in COUNTED))
    print(args.out)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        _worker(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 5 and sys.argv[1] == "--count-worker":
        _count_worker(*sys.argv[2:])
    else:
        sys.exit(main())
