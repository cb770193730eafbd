"""Timing on a core whose speed drifts.

On a shared host the speed of a core swings by 20% to 2x within seconds, so
wall times of the same work taken minutes apart differ far more than any
useful regression bound.  The benchmark therefore interleaves a fixed
reference kernel with the work it times, on the same core, about every
SLICE_S seconds, and reports the work's time scaled to the reference speed:

    scaled = time the work ran * REF_S / mean(kernel times)

that is, the time the work would have taken on a core that runs the kernel
in exactly REF_S.  The kernel's own time is left out of the work's time.

- run_child() times a subprocess: it stops the child with SIGSTOP every
  SLICE_S, runs the kernel while the child is stopped, and resumes it.
- run_inline() times a call in this process by its user-mode CPU time: a
  SIGALRM timer runs the kernel between bytecodes every SLICE_S.

The caller pins itself (and so its children) to one core, so the kernel runs
on the core the work runs on.

The kernel uses nothing from multicolor, so a change to the program cannot
move it.  It does what the program spends its time on: method calls over
node triples from itertools.combinations, frozenset membership and subset
tests, and dict sums over every clique in generator expressions, once per
step as the clique-load peak does.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import select
import signal
import sys
import time
from itertools import combinations

# seconds one kernel() call takes at the reference speed: about its median on
# a 2-CPU shared Xeon (Python 3.11) when the benchmark was written
REF_S = 0.0045
SLICE_S = 0.1
PR_SET_PDEATHSIG = 1


class _Graph:
    def __init__(self, adj):
        self.adj = adj

    def adjacent(self, u, w):
        return w in self.adj[u]


def _make_graph(n=40, density=0.3, seed=20260417):
    rng = random.Random(seed)
    adj = {v: set() for v in range(n)}
    for u, w in combinations(range(n), 2):
        if rng.random() < density:
            adj[u].add(w)
            adj[w].add(u)
    return _Graph({v: frozenset(s) for v, s in adj.items()})


_G = _make_graph()
_LOAD = {v: (7 * v) % 5 for v in _G.adj}


def _kernel_once(g=_G, load=_LOAD, steps=8):
    triangles = set()
    for u, w, x in combinations(g.adj, 3):
        if g.adjacent(u, w) and g.adjacent(u, x) and g.adjacent(w, x):
            triangles.add(frozenset((u, w, x)))
    edges = {frozenset((u, w)) for u in g.adj for w in g.adj[u]}
    cliques = list(triangles) + [e for e in edges if not any(e < t for t in triangles)]
    live = dict(load)
    peak = 0
    for v in list(live)[:steps]:
        live[v] += 1
        peak = max(peak, max(sum(live[u] for u in c) for c in cliques))
    return peak


def kernel() -> float:
    """Run the fixed reference kernel once; returns its CPU time in seconds.

    CPU time, not wall time: the kernel measures the core's speed, and a
    system thread that preempts it (writing back the set-up's files, say)
    would otherwise count as a slow core.  The garbage collector is off
    meanwhile: a collection triggered here would walk the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    _kernel_once()
    elapsed = time.thread_time() - start
    if enabled:
        gc.enable()
    return elapsed


class Timing:
    def __init__(self, run_s, kernel_s):
        self.run_s = run_s  # wall time the work ran, kernel time left out
        self.kernel_s = kernel_s

    @property
    def scaled_s(self) -> float:
        return self.run_s * REF_S / (sum(self.kernel_s) / len(self.kernel_s))


def _die_with(parent_pid):
    """Run in a forked child: have it killed when its parent dies.  A child
    left stopped by a killed benchmark would never end."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:  # the parent died before prctl
        os._exit(1)


def _launch(timeout_s, argv):
    """Run argv to completion, interleaved with the kernel.

    Runs in a small launcher process (see run_child), so that the child's
    max RSS is its own: a child's ru_maxrss is at least the RSS of the
    process that forked it.  Prints one line: run_s, exit code, max RSS in
    KiB and the kernel times."""
    kernel_s = [kernel()]
    launcher = os.getpid()
    pid = os.fork()
    if pid == 0:
        try:
            _die_with(launcher)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    run_s = 0.0
    start = resumed = time.perf_counter()
    # readable once the child has exited; it is reaped only by wait4 below,
    # which also reads its rusage
    exited = os.pidfd_open(pid)
    while True:
        if not select.select([exited], [], [], SLICE_S)[0]:
            if time.perf_counter() - start > timeout_s:
                os.kill(pid, signal.SIGKILL)
            os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        run_s += time.perf_counter() - resumed
        if not os.WIFSTOPPED(status):
            break
        kernel_s.append(kernel())
        resumed = time.perf_counter()
        os.kill(pid, signal.SIGCONT)
    print(run_s, os.waitstatus_to_exitcode(status), usage.ru_maxrss, *kernel_s)


def run_child(argv, env, cwd, timeout_s):
    """Run argv to completion in a launcher process, interleaved with the
    kernel; returns (Timing, exit code, max RSS in MB).  The child is killed
    after timeout_s."""
    import subprocess

    runner = os.getpid()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), str(timeout_s), *argv],
                         env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True,
                         preexec_fn=lambda: _die_with(runner))
    run_s, code, rss_kib, *kernel_s = out.stdout.split()
    return (Timing(float(run_s), [float(k) for k in kernel_s]), int(code),
            int(rss_kib) / 1024.0)


def _user_s():
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def run_inline(fn, *args):
    """Call fn(*args) in this process, interleaved with the kernel; returns
    (fn's result, Timing).

    Timing.run_s here is the user-mode CPU time of the call, not its wall
    time.  The call writes files, and on a shared disk the operating system's
    time for the same 1209 file writes ranged from 0.04 to 0.8 s."""
    timing = Timing(0.0, [kernel()])
    in_kernel = []

    def on_alarm(signum, frame):
        k = kernel()
        timing.kernel_s.append(k)
        in_kernel.append(k)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = _user_s()
    signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the kernel runs in user mode only, so its CPU time is its user time
    timing.run_s = _user_s() - start - sum(in_kernel)
    timing.kernel_s.append(kernel())
    return result, timing


if __name__ == "__main__":
    _launch(float(sys.argv[1]), sys.argv[2:])
