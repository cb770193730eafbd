"""Span tracer for the multicolor layers, installed from outside the program.

Every public module-level function of the layer modules is wrapped, and every
module-level binding of it in the package is rebound to the wrapper, so calls
through `from .graph import maximal_cliques` style imports are seen as well.
Methods (such as Graph.adjacent, tens of millions of calls on a large batch)
are not wrapped: the wrapper would swamp what it measures.

Spans (name, start, end, parent) are kept in flat arrays until the end; a
span's self time is its duration minus the durations of its direct children.

Run as a script it executes one phase in a fresh process:

  tracer.py setup <workload> <seed> <out_dir> <summary.json>
  tracer.py batch <manifest> <report.csv> <summary.json>
  tracer.py profile <manifest> <report.csv> <counts.json>

`profile` runs the batch untraced under cProfile and writes its call counts
for the same functions, for the tracer self-check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("graph", "instance", "advice", "oracle", "algorithms", "adversary", "harness", "cli")


def public_functions():
    """{function: "layer.name"} for the public functions defined in each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"multicolor.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                out[obj] = f"{layer}.{attr}"
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.bits_written = 0
        self.bits_read = 0

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count_written(self, args, kwargs, tape):
        self.bits_written += len(tape)

    def _count_read(self, args, kwargs, actions):
        tape = kwargs["tape"] if "tape" in kwargs else args[2]
        self.bits_read += tape.high_water

    def install(self):
        """Wrap every public layer function and rebind it wherever the
        package binds it."""
        after = {"harness.make_advice": self._count_written,
                 "algorithms.run_player": self._count_read}
        functions = public_functions()
        wrappers = {fn: self.wrap(name, fn, after.get(name)) for fn, name in functions.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "multicolor" and not modname.startswith("multicolor."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def summary(self) -> dict:
        """Per root span (phase): wall time, and calls and self time per
        function name; plus hex43 player simulations inside advice_43."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
            else:
                child[p] += dur[i]
                root[i] = root[p]
        hex43 = self._name_ids.get("algorithms.hex43")
        advice_43 = self._name_ids.get("oracle.advice_43")
        phases = {}
        for i in range(n):  # a root span comes before every span under it
            name = self.names[self.name_id[i]]
            if i == root[i]:
                phases[name] = {"wall_s": dur[i], "self_s": dur[i] - child[i],
                                "functions": {}, "player_sims": 0}
                continue
            phase = phases[self.names[self.name_id[root[i]]]]
            stats = phase["functions"].setdefault(name, {"calls": 0, "self_s": 0.0})
            stats["calls"] += 1
            stats["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if self.name_id[i] == hex43 and p >= 0 and self.name_id[p] == advice_43:
                phase["player_sims"] += 1
        return {"spans": n, "bits_written": self.bits_written, "bits_read": self.bits_read,
                "phases": phases}


def _profile_counts(manifest, report):
    """Run the batch untraced under cProfile; ncalls per public function."""
    import cProfile
    import pstats

    from multicolor import cli

    functions = public_functions()
    prof = cProfile.Profile()
    status = prof.runcall(cli.main, ["batch", manifest, "--out", report])
    stats = pstats.Stats(prof).stats
    by_code = {(k[0], k[1], k[2]): v[1] for k, v in stats.items()}
    counts = {}
    for fn, name in functions.items():
        code = fn.__code__
        counts[name] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    return {"status": status, "counts": counts}


def main(argv):
    mode, *rest = argv
    if mode == "profile":
        manifest, report, out = rest
        payload = _profile_counts(manifest, report)
    else:
        tracer = Tracer()
        from multicolor import cli  # noqa: F401  (loads every layer before patching)

        tracer.install()
        if mode == "setup":
            import workloads

            workload, seed, out_dir, out = rest
            with tracer.span("setup"):
                workloads.generate(workload, int(seed), out_dir)
            status = 0
        else:
            manifest, report, out = rest
            with tracer.span("batch"):
                status = cli.main(["batch", manifest, "--out", report])
        payload = {"status": status, **tracer.summary()}
    with open(out, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
