"""Independent check of a `multicolor batch` CSV report.

Nothing here calls multicolor: instance files are read as plain JSON, cliques
come from networkx, and the advice code length and the README guarantees are
restated below.  The check separates two outcomes:

- a *failed* row: error status, valid=false, more advice bits than the
  declared bound, or a max color above the player's README guarantee;
- a *problem*: the report itself disagrees with the inputs or with the
  program's exit status (wrong rows, wrong Opt or ratio, a crash).  Any
  problem makes the benchmark result incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import networkx as nx

HEX_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def enc_len(x: int) -> int:
    """Length of the three-part self-delimiting code of x >= 0."""
    last = x.bit_length()
    mid = last.bit_length()
    return 2 * mid + 1 + last


@dataclass(frozen=True)
class InstanceFacts:
    name: str
    kind: str
    n: int
    n_nodes: int
    omega: int  # max demand over maximal cliques
    peak: int  # max live load over time and maximal cliques
    has_cancel: bool


def _graph(gd: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(gd["nodes"])
    if gd["kind"] == "hexagonal":
        at = {tuple(c): v for v, c in gd["cells"].items()}
        for v, (q, r) in gd["cells"].items():
            for dq, dr in HEX_OFFSETS:
                u = at.get((q + dq, r + dr))
                if u is not None:
                    g.add_edge(v, u)
    else:
        g.add_edges_from(gd["edges"])
    return g


def instance_facts(path: str) -> InstanceFacts:
    with open(path) as fh:
        data = json.load(fh)
    g = _graph(data["graph"])
    cliques = [tuple(c) for c in nx.find_cliques(g)]
    requests = data["requests"]
    demand = dict.fromkeys(g.nodes, 0)
    for r in requests:
        if r["op"] == "color":
            demand[r["node"]] += 1
    omega = max((sum(demand[v] for v in c) for c in cliques), default=0)
    member = {v: [] for v in g.nodes}
    for i, c in enumerate(cliques):
        for v in c:
            member[v].append(i)
    load = [0] * len(cliques)
    peak = 0
    for r in requests:
        step = 1 if r["op"] == "color" else -1
        for i in member[r["node"]]:
            load[i] += step
            peak = max(peak, load[i])
    return InstanceFacts(name=data["name"], kind=data["graph"]["kind"], n=len(requests),
                         n_nodes=g.number_of_nodes(), omega=omega, peak=peak,
                         has_cancel=any(r["op"] == "cancel" for r in requests))


@dataclass
class CheckResult:
    attempted: int = 0
    total_requests: int = 0
    failures: list = field(default_factory=list)  # (instance, algorithm, reason)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({(inst, algo) for inst, algo, _ in self.failures})


def _bounds(algo, facts, opt, b):
    """(advice-bit bound, color-bound test) for one row, or None where the
    bound needs an Opt the row does not have."""
    omega = facts.omega
    if algo == "greedy_opt":
        return enc_len(omega), lambda c: c <= omega
    if algo == "greedy_truncated":
        a = max(0, omega.bit_length() - b)
        # max color <= (1 + 1/2^(b-1)) * Opt, in integers
        return b + enc_len(a), lambda c: c * 2 ** (b - 1) <= (2 ** (b - 1) + 1) * omega
    if algo == "greedy_cancel":
        return enc_len(facts.peak), lambda c: c <= facts.peak
    if algo == "trivial":
        if opt is None:
            return None
        w = opt.bit_length()
        return enc_len(w) + facts.n * w, lambda c: c == opt
    if algo == "fpa":
        return enc_len((omega + 1) // 2), lambda c: c <= 3 * ((omega + 1) // 2)
    if algo == "hex43":
        return facts.n + 2 * facts.n_nodes, lambda c: c <= (4 * omega + 1) // 3
    return None


def _closed_form_opt(facts):
    if facts.has_cancel:
        return facts.peak
    if facts.kind in ("path", "bipartite"):
        return facts.omega
    return None


def check_report(manifest_path: str, report_text: str | None, exit_status: int) -> CheckResult:
    """Check one report against its manifest; exit_status is the batch
    process's (0 = every row valid and within its advice bound)."""
    base = os.path.dirname(manifest_path)
    with open(manifest_path) as fh:
        runs = json.load(fh)["runs"]
    facts = {}
    for entry in runs:
        if entry["instance"] not in facts:
            facts[entry["instance"]] = instance_facts(os.path.join(base, entry["instance"]))
    res = CheckResult(attempted=len(runs),
                      total_requests=sum(facts[e["instance"]].n for e in runs))
    if exit_status not in (0, 1):
        res.problems.append(f"batch exited with status {exit_status}")
    if report_text is None:
        res.problems.append("no report written")
        return res
    rows = list(csv.DictReader(io.StringIO(report_text)))
    if len(rows) != len(runs):
        res.problems.append(f"{len(rows)} report rows for {len(runs)} manifest runs")
        return res

    program_ok = True
    for entry, row in zip(runs, rows):
        f = facts[entry["instance"]]
        algo = entry["algo"]
        if row["algorithm"] != algo:
            res.problems.append(f"row for {f.name} names {row['algorithm']}, manifest {algo}")
            continue
        if row["status"] != "ok":
            res.failures.append((entry["instance"], algo, row["status"]))
            program_ok = False
            continue
        if row["instance"] != f.name:
            res.problems.append(f"row names instance {row['instance']}, file holds {f.name}")
            continue
        max_color = int(row["max_color"])
        bits = int(row["advice_bits_read"])
        opt = int(row["opt_value"]) if row["opt_value"] else None

        expected_opt = _closed_form_opt(f)
        if expected_opt is not None and opt != expected_opt:
            res.problems.append(f"{f.name}: opt_value {opt}, independent value {expected_opt}")
        if opt is not None and not f.has_cancel and opt < f.omega:
            res.problems.append(f"{f.name}: opt_value {opt} below the clique weight {f.omega}")
        ratio = f"{max_color / opt:.6f}" if opt else ""
        if row["strict_ratio"] != ratio:
            res.problems.append(f"{f.name}/{algo}: strict_ratio {row['strict_ratio']!r}, expected {ratio!r}")

        if row["valid"] != "true":
            res.failures.append((entry["instance"], algo, "valid=false"))
            program_ok = False
        bounds = _bounds(algo, f, opt, entry.get("b"))
        if bounds is None:
            res.failures.append((entry["instance"], algo, "no Opt to bound the run"))
            continue
        bit_bound, color_ok = bounds
        if bits > bit_bound:
            res.failures.append((entry["instance"], algo,
                                 f"advice bits {bits} > bound {bit_bound}"))
            program_ok = False
        if not color_ok(max_color):
            res.failures.append((entry["instance"], algo,
                                 f"max color {max_color} misses the guarantee "
                                 f"(omega={f.omega}, opt={opt}, peak={f.peak})"))
    if exit_status in (0, 1) and (exit_status == 0) != program_ok:
        res.problems.append(f"batch exit status {exit_status} disagrees with its own rows")
    return res
