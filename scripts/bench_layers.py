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
from its side's src directory.  Its layers are self times in one real
batch, its last: harness.batch of the manifest with a span around every
call of the functions below, rebound wherever a multicolor module binds
them (one that none binds stops the worker, so a rename cannot leave a
layer at 0).  A layer's time is its calls' time on the thread's CPU clock
(time.thread_time), less that of the spanned calls they make:

  read        harness._load_json
  decode      harness.instance_from_dict
  facts       each oracle.Optimum cached property's function: each offline
              fact the batch computes, where it first computes it
  tape        harness.make_advice
  player      algorithms.run_player
  validation  instance.validate_full
  metrics     harness.run's own lines: the max and distinct colors, the
              advice and color bounds, and the RunReport
  csv         harness.report_row, and writerow of the batch's CSV writer

A span's own cost (two clock reads and a call) falls on its layer and its
caller's; the batch's loop and the manifest are in no layer.  Each worker
first times the corpus's set-up (`generation`) as perfbench times it: one
workloads.generate of the corpus into a fresh temporary directory
(`setup`), in which `gen_build` is the self time of the workload's corpus
builder and `gen_text` that of harness.instance_text.

`batch` is the median of five (BATCH_TIMINGS) timings of what `multicolor
batch` runs, harness.batch(harness.load_manifest(path), ...), after one
untimed warm-up batch; every batch writes its report to os.devnull.  The
warm-up is the whole command, cli.main(["batch", manifest, "--out",
os.devnull]), under tracemalloc, whose peak (`tracemalloc_peak_mb`, MiB)
is the most memory the package's objects took at once in a process's first
batch, the report left out; unlike perfbench's peak_rss_mb, it leaves out
the interpreter and the allocator's slack, which vary with the checkout.

The set-up, each batch and the span batch are timed by calibrate.run_inline,
as perfbench times its in-process batch: the reference kernel runs before,
after and every 0.1 s during the step (in no span), and the step's time and
its spans' are also given scaled to the reference core speed by the kernels
around them.  The core's speed swings by 20% to 2x within seconds on a
shared host, so one kernel reading per worker would scale a whole worker's
steps by whatever speed that reading caught.  With --base (the src
directory of another checkout), the workers of the two sides alternate,
base first on even repetitions, so drift in the machine's speed falls on
both.  Each time is a median over the workers, in CPU seconds (`cpu_s`)
and scaled (`scaled_s`).

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

  small_exact_batch       one batch of the corpus's manifest as `multicolor
                          batch` runs it, the worker's first, with every
                          cache cold
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
import contextlib
import functools
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
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
LAYERS = ("read", "decode", "facts", "tape", "player", "validation", "metrics", "csv")
GENERATION = ("setup", "gen_build", "gen_text")
CORPUS = "small-exact-batch"
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


def _swap(stack, owner, attr, value):
    """Set owner.attr to value until the ExitStack stack closes."""
    stack.callback(setattr, owner, attr, getattr(owner, attr))
    setattr(owner, attr, value)


def _rebind(stack, fn, replacement):
    """Rebind fn to replacement, until stack closes, wherever a multicolor
    module binds it; stop if none does."""
    bindings = [(mod, attr) for name, mod in list(sys.modules.items())
                if name == "multicolor" or name.startswith("multicolor.")
                for attr, obj in vars(mod).items() if obj is fn]
    if not bindings:
        raise SystemExit(f"bench_layers: no multicolor module binds {fn.__qualname__}")
    for mod, attr in bindings:
        _swap(stack, mod, attr, replacement)


def _span_batch(span, stack):
    """Rebind the functions a batch calls to their layers' spans until stack closes."""
    from multicolor import harness, oracle
    from multicolor.algorithms import run_player
    from multicolor.instance import validate_full

    for layer, fn in (("read", harness._load_json), ("decode", harness.instance_from_dict),
                      ("tape", harness.make_advice), ("player", run_player),
                      ("validation", validate_full), ("metrics", harness.run),
                      ("csv", harness.report_row)):
        _rebind(stack, fn, span(layer, fn))

    def csv_writer(out, csv_writer=harness.csv_writer):
        return types.SimpleNamespace(writerow=span("csv", csv_writer(out).writerow))

    _rebind(stack, harness.csv_writer, csv_writer)
    facts = [prop for prop in vars(oracle.Optimum).values()
             if isinstance(prop, functools.cached_property)]
    if not facts:
        raise SystemExit("bench_layers: oracle.Optimum has no cached property")
    for prop in facts:
        _swap(stack, prop, "func", span("facts", prop.func))


def _spanned(calibrate, install, steps, fn, *args):
    """(Timing, {step: {"cpu_s", "scaled_s"}}) of fn(*args), timed by
    calibrate.run_inline with install(span, stack)'s spans in place, where
    span(step, f) is f in a span: a step's time is its calls' time on the
    thread's CPU clock, less that of the spanned calls they make."""
    self_s = dict.fromkeys((*steps, "kernel"), 0.0)
    inner = [0.0]  # per open span, then the outermost: the time of the spans it opened

    def span(step, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            inner.append(0.0)
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.thread_time() - start
                self_s[step] += took - inner.pop()
                inner[-1] += took
        return spanned

    with contextlib.ExitStack() as stack:
        install(span, stack)
        _swap(stack, calibrate, "kernel", span("kernel", calibrate.kernel))  # in no step
        timing = calibrate.run_inline(fn, *args)[1]
    scale = calibrate.REF_S / statistics.mean(timing.kernel_s)
    return timing, {step: {"cpu_s": self_s[step], "scaled_s": self_s[step] * scale}
                    for step in steps}


def _generation(calibrate):
    """{step: {"cpu_s", "scaled_s"}} for the corpus's set-up and its split
    into building the instances and rendering their text."""
    import workloads
    from multicolor import harness

    def install(span, stack):
        build = workloads._BUILDERS[CORPUS]
        _swap(stack, workloads, "_BUILDERS",
              {**workloads._BUILDERS, CORPUS: span("gen_build", build)})
        _rebind(stack, harness.instance_text, span("gen_text", harness.instance_text))

    with tempfile.TemporaryDirectory() as out_dir:
        setup, steps = _spanned(calibrate, install, ("gen_build", "gen_text"),
                                workloads.generate, CORPUS, SEED, out_dir)
    return {"setup": _times(setup), **steps}


def _run_batch(sink):
    """What `multicolor batch` runs, as fn(manifest_path), its report written
    to the text stream sink."""
    from multicolor import harness

    return lambda path: harness.batch(harness.load_manifest(path), sink,
                                      os.path.dirname(path) or ".")


def _batch(manifest_path, calibrate):
    """{"cpu_s", "scaled_s"}: each the median over BATCH_TIMINGS timings of
    a batch of the manifest, its report written to os.devnull."""
    with open(os.devnull, "w") as sink:
        timings = [_times(calibrate.run_inline(_run_batch(sink), manifest_path)[1])
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


def _layers(manifest_path, calibrate, sink):
    """{layer: {"cpu_s", "scaled_s"}}: the layers' self times in one batch
    of the manifest, its report written to the text stream sink."""
    return _spanned(calibrate, _span_batch, LAYERS, _run_batch(sink), manifest_path)[1]


def _worker(src, manifest_path):
    sys.path.insert(0, src)
    sys.path.insert(0, PERFBENCH)
    import calibrate

    generation = _generation(calibrate)
    peak_mb = _batch_peak_mb(manifest_path)  # the warm-up batch, untimed
    batch = _batch(manifest_path, calibrate)
    with open(os.devnull, "w") as sink:
        layers = _layers(manifest_path, calibrate, sink)
    print(json.dumps({"generation": generation, "layers": layers,
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
        with open(os.devnull, "w") as sink:
            counts = _opcode_counts(_run_batch(sink), manifest_path)
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

    layers = {layer: medians([s["layers"][layer] for s in samples]) for layer in LAYERS}
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

        manifest = workloads.generate(CORPUS, SEED,
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
              "workload": f"{CORPUS} seed {SEED}", "cold_start_kernel_s": kernel_s,
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
