"""Experiment runner: pairs instances with algorithms and oracle-generated
tapes, validates the output, and reports metrics.

Instance files are JSON:
  { "graph": { "kind": ..., "nodes": [...], "edges": [["u","w"], ...],
               "partition": {"u": "L", ...}, "cells": {"u": [q, r], ...} },
    "requests": [ {"node": "u", "op": "color"}
                | {"node": "u", "op": "cancel", "color": 3} ] }
instance_text writes that layout, the text json.dumps(..., indent=2,
sort_keys=True) gives, without the pure-Python encoder; save_instance and
`multicolor gen` write its text.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii

from .advice import AdviceTape
from .algorithms import ALGORITHMS, run_player
from .errors import (MalformedInstanceError, MalformedLogError, MalformedManifestError,
                     MultiColorError)
from .graph import Graph, build_bipartite, build_hexagonal
from .instance import CancelAction, ColorAction, Instance, Request, validate_full
from .value import Value
from . import oracle


# ---------------------------------------------------------------------------
# serialization

def _field(record, key, where, error=MalformedInstanceError):
    """record[key], or an `error` saying that `where` must be an object or
    naming the missing field."""
    if not isinstance(record, dict):
        raise _wrong_type(where, "an object", record, error)
    if key not in record:
        raise error(f"{where} has no field {key!r}")
    return record[key]


def _wrong_type(where, what, value, error=MalformedInstanceError):
    """The `error` saying that `where` must be `what`."""
    return error(f"{where} must be {what}, got {value!r}")


def _is_pair(value, item_type):
    """Whether value is a list (or tuple) of two item_type values; a bool is no int."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and type(value[0]) is item_type and type(value[1]) is item_type)


def _cell(v, c):
    """The cell c of node v, refused unless v is a string and c a pair of ints."""
    if not isinstance(v, str) or not _is_pair(c, int):
        raise _wrong_type(f"cell {v!r}", "a pair of integers under a node name", c)
    return c


def _name(name):
    """An instance's name, refused unless it is a string."""
    if not isinstance(name, str):
        raise _wrong_type("instance field 'name'", "a string", name)
    return name


def _request(r, i):
    """Request i (from 1) of an instance file, its field types checked."""
    where = f"request {i}"
    node, op = _field(r, "node", where), _field(r, "op", where)
    color = r.get("color")
    if not isinstance(node, str):
        raise _wrong_type(f"{where} field 'node'", "a string", node)
    if op == "cancel" and type(color) is not int:
        raise _wrong_type(f"{where} field 'color'", "an integer", color)
    return Request(node=node, op=op, cancel_color=color)  # checks op; a color op has no color


# Requests are immutable values, so the files one process loads share one per
# (node, op, color): a batch of small files repeats the same few names.
_shared_request = lru_cache(maxsize=4096)(Request)


def _requests(items):
    """The requests of an instance file, one Request per distinct (node, op,
    color), shared with earlier files while _shared_request holds it.  Only
    fields of exact types are looked up and built directly: True and 2.0
    equal the ints 1 and 2, and _request names a cancel's missing color, so
    these go through _request and its checks."""
    made, out = {}, []
    for i, r in enumerate(items, 1):
        if type(r) is dict:
            key = node, op, color = r.get("node"), r.get("op"), r.get("color")
            if type(node) is type(op) is str and (
                    type(color) is int or color is None and op != "cancel"):
                request = made.get(key)
                if request is None:
                    request = made[key] = _shared_request(node, op, color)
                out.append(request)
                continue
        out.append(_request(r, i))
    return tuple(out)


def _node_names(gd):
    """The graph's field 'nodes': node names, none listed twice."""
    nodes = _field(gd, "nodes", "graph")
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise _wrong_type("graph field 'nodes'", "a list of node names", nodes)
    seen = set()
    for v in nodes:
        if v in seen:
            raise MalformedInstanceError(f"graph field 'nodes' lists {v!r} twice")
        seen.add(v)
    return nodes


def instance_from_dict(data: dict) -> Instance:
    """The instance of a decoded instance file.  A missing field or a field
    of the wrong type raises MalformedInstanceError naming the field."""
    gd = _field(data, "graph", "instance")
    kind = _field(gd, "kind", "graph")
    if kind == "hexagonal":
        cells = _field(gd, "cells", "graph")
        if not isinstance(cells, dict):
            raise _wrong_type("graph field 'cells'", "an object", cells)
        for v, c in cells.items():
            _cell(v, c)
        if "nodes" in gd:  # optional here; when given, it names each cell's node once
            listed = set(_node_names(gd))
            for v in cells:
                if v not in listed:
                    raise MalformedInstanceError(f"graph field 'nodes' does not list cell {v!r}")
            extra = sorted(listed - cells.keys())
            if extra:
                raise MalformedInstanceError(f"graph field 'nodes' lists {extra[0]!r}, "
                                             "which has no cell")
        graph = build_hexagonal(cells)
    elif kind in ("path", "bipartite"):
        nodes = _node_names(gd)
        if kind == "path":  # an absent field, and only that, takes the path's default
            edges = gd["edges"] if "edges" in gd else [
                [nodes[i], nodes[i + 1]] for i in range(len(nodes) - 1)]
            partition = gd["partition"] if "partition" in gd else {
                v: ("L" if i % 2 == 0 else "U") for i, v in enumerate(nodes)}
        else:
            edges, partition = _field(gd, "edges", "graph"), _field(gd, "partition", "graph")
        if not isinstance(edges, list) or not all(_is_pair(e, str) for e in edges):
            raise _wrong_type("graph field 'edges'", "a list of node-name pairs", edges)
        if not isinstance(partition, dict):
            raise _wrong_type("graph field 'partition'", "an object", partition)
        graph = build_bipartite(nodes, edges, partition)
        if kind == "path":  # the file's node order, the bipartite graph's neighbour dicts
            graph = Graph("path", tuple(nodes), {v: graph.adjacency[v] for v in nodes},
                          graph.partition)
    else:
        raise MalformedInstanceError(f"unknown graph kind {kind!r}")
    requests = _field(data, "requests", "instance")
    if not isinstance(requests, list):
        raise _wrong_type("instance field 'requests'", "a list", requests)
    name = _name(data.get("name", "instance"))
    return Instance(graph=graph, requests=_requests(requests), name=name)


def _block(brackets, items, pad):
    """A JSON list or object of rendered items, laid out as json.dumps(indent=2)
    lays it out with its items at indent pad."""
    if not items:
        return brackets
    return brackets[0] + "\n" + pad + (",\n" + pad).join(items) + "\n" + pad[2:] + brackets[1]


def instance_text(instance: Instance) -> str:
    """The text of the instance's file (the layout above, and a newline),
    written field by field with the C string encoder, each distinct request
    rendered once.  A node, name or cell that the file could not hold raises
    MalformedInstanceError naming it."""
    g, enc = instance.graph, encode_basestring_ascii
    for v in g.nodes:
        if not isinstance(v, str):
            raise MalformedInstanceError(f"node {v!r} is not named by a string")
    name = _name(instance.name)
    node = {v: enc(v) for v in g.nodes}
    if g.kind in ("path", "bipartite"):
        edges = [_block("[]", (node[u], node[w]), " " * 8) for u, w in g.edge_list()]
        sides = [node[v] + ": " + enc(g.partition[v]) for v in sorted(g.nodes)]
        fields = {"edges": _block("[]", edges, " " * 6), "partition": _block("{}", sides, " " * 6)}
    else:
        cells = [node[v] + ": " + _block("[]", [str(x) for x in _cell(v, g.cell_of[v])], " " * 8)
                 for v in sorted(g.nodes)]
        fields = {"cells": _block("{}", cells, " " * 6)}
    fields["kind"] = enc(g.kind)
    fields["nodes"] = _block("[]", [node[v] for v in g.nodes], " " * 6)
    graph = _block("{}", ['"%s": %s' % (k, fields[k]) for k in sorted(fields)], " " * 4)

    @cache  # keyed by (node, cancel color), not by the Request: a Request hashes slowly
    def render(v, color):
        parts = ['"node": ' + node[v], '"op": "color"'] if color is None else [
            '"color": %d' % color, '"node": ' + node[v], '"op": "cancel"']
        return _block("{}", parts, " " * 6)

    requests = _block("[]", [render(r.node, r.cancel_color) for r in instance.requests], " " * 4)
    return '{\n  "graph": %s,\n  "name": %s,\n  "requests": %s\n}\n' % (graph, enc(name), requests)


def save_instance(instance: Instance, path: str) -> None:
    text = instance_text(instance)  # checked before the file is opened
    with open(path, "w") as fh:
        fh.write(text)


def _load_json(path: str, error=MalformedInstanceError):
    """The JSON document in the file at path, read as bytes and decoded as
    UTF-8, with the newlines that text mode translates (a lone \\r or \\r\\n)
    read as \\n; `error` if it is not JSON."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode()
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise error(str(exc)) from exc


def load_instance(path: str) -> Instance:
    return instance_from_dict(_load_json(path))


def actions_to_dicts(actions) -> list[dict]:
    """A player's actions as the "actions" list of an assignment log file."""
    return [{"op": "color", "color": a.color} if isinstance(a, ColorAction) else
            {"op": "cancel", "recolor": list(a.recolor) if a.recolor else None} for a in actions]


def _action(a, i):
    """Action i (from 1) of an assignment log, its field types checked."""
    where = f"action {i}"
    op = _field(a, "op", where, MalformedLogError)
    if op == "color":
        color = _field(a, "color", where, MalformedLogError)
        if type(color) is not int:
            raise _wrong_type(f"{where} field 'color'", "an integer", color, MalformedLogError)
        return ColorAction(color)
    if op != "cancel":
        raise _wrong_type(f"{where} field 'op'", "'color' or 'cancel'", op, MalformedLogError)
    rec = a.get("recolor")
    if rec is not None and not _is_pair(rec, int):
        raise _wrong_type(f"{where} field 'recolor'", "null or a pair of integers", rec,
                          MalformedLogError)
    return CancelAction(recolor=None if rec is None else tuple(rec))


def actions_from_dicts(items) -> list:
    """The actions of a decoded log.  A missing field or a field of the wrong
    type raises MalformedLogError naming the action and the field."""
    return [_action(a, i) for i, a in enumerate(items, 1)]


def load_log(path: str) -> list:
    """The actions of an assignment log file {"actions": [...]}."""
    items = _field(_load_json(path, MalformedLogError), "actions", "log", MalformedLogError)
    if not isinstance(items, list):
        raise _wrong_type("log field 'actions'", "a list", items, MalformedLogError)
    return actions_from_dicts(items)


# ---------------------------------------------------------------------------
# running

class RunReport(Value):
    """The measurements of one run.  Equality ignores runtime_millis, so
    reruns compare equal."""

    __slots__ = __match_args__ = (
        "algorithm", "instance", "max_color", "distinct_colors", "advice_bits_read",
        "opt_value", "strict_ratio", "valid", "advice_bound", "color_bound", "runtime_millis")

    def __init__(self, algorithm: str, instance: str, max_color: int, distinct_colors: int,
                 advice_bits_read: int, opt_value: int | None, strict_ratio: float | None,
                 valid: bool, advice_bound: int | None, color_bound: int | None = None,
                 runtime_millis: float = 0.0):
        self._init(algorithm, instance, max_color, distinct_colors, advice_bits_read, opt_value,
                   strict_ratio, valid, advice_bound, color_bound, runtime_millis)

    def _key(self) -> tuple:
        return self._fields()[:-1]  # all but runtime_millis

    @property
    def ok(self) -> bool:
        """Valid, and within the declared advice bound and the guaranteed
        color bound, each when there is one."""
        return (self.valid
                and (self.advice_bound is None or self.advice_bits_read <= self.advice_bound)
                and (self.color_bound is None or self.max_color <= self.color_bound))


def make_advice(instance: Instance, algo: str, b: int | None = None,
                optimum: oracle.Optimum | None = None) -> AdviceTape:
    """The oracle's advice tape for the algorithm on this instance."""
    return ALGORITHMS[algo].advise(optimum or oracle.Optimum(instance), b)


def advice_bound(instance: Instance, algo: str, b: int | None = None,
                 optimum: oracle.Optimum | None = None) -> int | None:
    """Declared worst-case advice length for the algorithm on this instance."""
    return ALGORITHMS[algo].bound(optimum or oracle.Optimum(instance), b)


def _metrics(actions):
    """(max color, number of distinct colors) over colorings and recolorings."""
    colors = set()
    for a in actions:
        if isinstance(a, ColorAction):
            colors.add(a.color)
        elif isinstance(a, CancelAction) and a.recolor:
            colors.add(a.recolor[1])
    return max(colors, default=0), len(colors)


def run(instance: Instance, algo: str, b: int | None = None,
        optimum: oracle.Optimum | None = None) -> RunReport:
    """Generate the tape, run the player, validate, and measure.  The tape,
    the advice bound and the reported Opt share one oracle.Optimum of the
    instance: optimum when given (its budget bounds the exact search), else
    a fresh one with the default budget."""
    start = time.perf_counter()
    optimum = optimum or oracle.Optimum(instance)
    tape = make_advice(instance, algo, b=b, optimum=optimum)
    actions = run_player(algo, instance.graph, tape, instance.requests, b=b)
    violation = validate_full(instance, actions)
    max_color, distinct = _metrics(actions)
    opt = optimum.value
    ratio = (max_color / opt) if opt else None
    bound = advice_bound(instance, algo, b=b, optimum=optimum)
    color_bound = ALGORITHMS[algo].color_bound(optimum, b)
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(
        algorithm=algo,
        instance=instance.name,
        max_color=max_color,
        distinct_colors=distinct,
        advice_bits_read=tape.high_water,
        opt_value=opt,
        strict_ratio=ratio,
        valid=violation is None,
        advice_bound=bound,
        color_bound=color_bound,
        runtime_millis=elapsed,
    )


CSV_COLUMNS = ("algorithm", "instance", "max_color", "distinct_colors",
               "advice_bits_read", "opt_value", "strict_ratio", "valid", "status")


def report_row(report: RunReport) -> list:
    """The CSV row of a successful run, in CSV_COLUMNS order."""
    return [report.algorithm, report.instance, report.max_color, report.distinct_colors,
            report.advice_bits_read, "" if report.opt_value is None else report.opt_value,
            "" if report.strict_ratio is None else f"{report.strict_ratio:.6f}",
            "true" if report.valid else "false", "ok"]


def csv_writer(out):
    """A CSV report writer (csv.writer) on the text stream out, header
    written; its rows are lists in CSV_COLUMNS order."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    return writer


def _run_entry(entry, i):
    """(instance file, algorithm, b) of manifest run i (from 1), its field
    types checked."""
    where = f"run {i}"
    path = _field(entry, "instance", where, MalformedManifestError)
    algo, b = _field(entry, "algo", where, MalformedManifestError), entry.get("b")
    if not isinstance(path, str):
        raise _wrong_type(f"{where} field 'instance'", "a string", path, MalformedManifestError)
    if not isinstance(algo, str):
        raise _wrong_type(f"{where} field 'algo'", "a string", algo, MalformedManifestError)
    if b is not None and type(b) is not int:
        raise _wrong_type(f"{where} field 'b'", "an integer", b, MalformedManifestError)
    return path, algo, b


def batch(manifest: dict, base_dir: str = ".") -> tuple[str, bool]:
    """Run every manifest entry; returns (csv_text, all_ok).

    Rows keep manifest order.  A failing entry becomes an error row and the
    batch continues.  runtime is deliberately not a CSV column so reruns are
    byte-identical.  Consecutive entries on one instance file share its load
    and its offline optimum (one oracle.Optimum); only the last file loaded
    is kept.
    """
    runs = _field(manifest, "runs", "manifest", MalformedManifestError)
    if not isinstance(runs, list):
        raise _wrong_type("manifest field 'runs'", "a list", runs, MalformedManifestError)
    buf = io.StringIO()
    writer = csv_writer(buf)
    all_ok = True
    loaded, instance, optimum = None, None, None  # the last file loaded, its instance and Optimum
    for i, entry in enumerate(runs, 1):
        record = entry if isinstance(entry, dict) else {}
        algo = record.get("algo", "?")
        try:
            path, algo, b = _run_entry(entry, i)
            if path != loaded:
                instance = load_instance(os.path.join(base_dir, path))
                loaded, optimum = path, oracle.Optimum(instance)
            report = run(instance, algo, b=b, optimum=optimum)
            writer.writerow(report_row(report))
            all_ok = all_ok and report.ok
        except (MultiColorError, OSError) as exc:
            writer.writerow([algo, record.get("instance", "?"), "", "", "", "", "", "",
                             f"error: {exc}"])
            all_ok = False
    return buf.getvalue(), all_ok

