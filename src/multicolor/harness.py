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
import json
import os
from json.encoder import encode_basestring_ascii

from .advice import AdviceTape
from .algorithms import ALGORITHMS, run_player
from .errors import (DomainError, MalformedInstanceError, MalformedLogError,
                     MalformedManifestError, MultiColorError)
from .graph import Graph, build_bipartite, build_hexagonal
from .instance import CancelAction, ColorAction, Instance, Request, _Requests, validate_full
from .jsonwalk import Items, array_field
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


def _requests(items):
    """The requests of an instance file, one per distinct (node, op, color),
    from an instance._Requests.  Only fields of exact types are looked up
    and built directly: True and 2.0 equal the ints 1 and 2, and _request
    names a cancel's missing color, so these go through _request's checks."""
    made, out = _Requests(), []
    for i, r in enumerate(items, 1):
        if type(r) is dict:
            key = node, op, color = r.get("node"), r.get("op"), r.get("color")
            if type(node) is type(op) is str and (
                    type(color) is int or color is None and op != "cancel"):
                out.append(made[key])
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
    """The text of the instance's file (the layout above, and a newline): the
    strings by the C encoder, each leaf (an edge, a cell, a request) by one
    %-format, and each distinct request once.  A node, name or cell that the
    file could not hold raises MalformedInstanceError naming it."""
    g, enc = instance.graph, encode_basestring_ascii
    for v in g.nodes:
        if not isinstance(v, str):
            raise MalformedInstanceError(f"node {v!r} is not named by a string")
    name = _name(instance.name)
    node = {v: enc(v) for v in g.nodes}
    if g.kind in ("path", "bipartite"):
        edges = ["[\n        %s,\n        %s\n      ]" % (node[u], node[w])
                 for u, w in g.edge_list()]
        sides = [node[v] + ": " + enc(g.partition[v]) for v in sorted(g.nodes)]
        fields = {"edges": _block("[]", edges, " " * 6), "partition": _block("{}", sides, " " * 6)}
    else:
        cells = ["%s: [\n        %d,\n        %d\n      ]" % (node[v], *_cell(v, g.cell_of[v]))
                 for v in sorted(g.nodes)]
        fields = {"cells": _block("{}", cells, " " * 6)}
    fields["kind"] = enc(g.kind)
    fields["nodes"] = _block("[]", [node[v] for v in g.nodes], " " * 6)
    graph = _block("{}", ['"%s": %s' % (k, fields[k]) for k in sorted(fields)], " " * 4)
    keys = [(r.node, r.cancel_color) for r in instance.requests]  # a Request hashes slowly
    text = {(v, c): '{\n      "node": %s,\n      "op": "color"\n    }' % node[v] if c is None
            else '{\n      "color": %d,\n      "node": %s,\n      "op": "cancel"\n    }'
            % (c, node[v]) for v, c in set(keys)}
    requests = _block("[]", [text[key] for key in keys], " " * 4)
    return '{\n  "graph": %s,\n  "name": %s,\n  "requests": %s\n}\n' % (graph, enc(name), requests)


def _file_name(path: str, error=DomainError) -> str:
    """path, or `error` if it holds a NUL, which no file name does (open()
    would raise ValueError)."""
    if "\0" in path:
        raise error(f"no file name holds a NUL, got {path!r}")
    return path


def save_instance(instance: Instance, path: str) -> None:
    text = instance_text(instance)  # checked before the file is opened
    with open(_file_name(path), "w") as fh:
        fh.write(text)


def _read_text(path: str, error=MalformedInstanceError) -> str:
    """The text of the file at path, read as bytes and decoded as UTF-8,
    with the newlines that text mode translates (a lone \\r or \\r\\n) read
    as \\n; `error` if it is not UTF-8, or if path holds a NUL."""
    try:
        with open(_file_name(path, error), "rb", buffering=0) as fh:
            text = fh.read().decode()  # the bytes are dropped once decoded
    except ValueError as exc:  # not UTF-8
        raise error(str(exc)) from exc
    if "\r" in text:  # one replace at a time, so at most two copies are held
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


def _parse(text: str, error=MalformedInstanceError):
    """The JSON document text; `error` if it is not JSON or nests too deep."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(str(exc)) from exc


def _load_json(path: str, error=MalformedInstanceError):
    """The JSON document in the file at path, read as _read_text reads it;
    `error` if it is not UTF-8 or not JSON, or if path holds a NUL."""
    return _parse(_read_text(path, error), error)


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
    """The measurements of one run."""

    __slots__ = __match_args__ = (
        "algorithm", "instance", "max_color", "distinct_colors", "advice_bits_read",
        "opt_value", "strict_ratio", "valid", "advice_bound", "color_bound")

    def __init__(self, algorithm: str, instance: str, max_color: int, distinct_colors: int,
                 advice_bits_read: int, opt_value: int | None, strict_ratio: float | None,
                 valid: bool, advice_bound: int | None, color_bound: int | None = None):
        self._init(algorithm, instance, max_color, distinct_colors, advice_bits_read, opt_value,
                   strict_ratio, valid, advice_bound, color_bound)

    @property
    def status(self) -> str:
        """ok, or the first rule broken: invalid, over advice bound N, over color bound N."""
        if not self.valid:
            return "invalid"
        if self.advice_bound is not None and self.advice_bits_read > self.advice_bound:
            return f"over advice bound {self.advice_bound}"
        if self.color_bound is not None and self.max_color > self.color_bound:
            return f"over color bound {self.color_bound}"
        return "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


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
    optimum = optimum or oracle.Optimum(instance)
    tape = make_advice(instance, algo, b=b, optimum=optimum)
    actions = run_player(algo, instance.graph, tape, instance.requests, b=b)
    violation = validate_full(instance, actions)
    max_color, distinct = _metrics(actions)
    opt = optimum.value
    return RunReport(
        algorithm=algo,
        instance=instance.name,
        max_color=max_color,
        distinct_colors=distinct,
        advice_bits_read=tape.high_water,
        opt_value=opt,
        strict_ratio=(max_color / opt) if opt else None,
        valid=violation is None,
        advice_bound=advice_bound(instance, algo, b=b, optimum=optimum),
        color_bound=ALGORITHMS[algo].color_bound(optimum, b),
    )


CSV_COLUMNS = ("algorithm", "instance", "max_color", "distinct_colors",
               "advice_bits_read", "opt_value", "strict_ratio", "valid", "status")


def report_row(report: RunReport) -> list:
    """The CSV row of a run that raised nothing, in CSV_COLUMNS order."""
    return [report.algorithm, report.instance, report.max_color, report.distinct_colors,
            report.advice_bits_read, "" if report.opt_value is None else report.opt_value,
            "" if report.strict_ratio is None else f"{report.strict_ratio:.6f}",
            "true" if report.valid else "false", report.status]


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


def _manifest_runs(manifest):
    """The manifest's field 'runs', refused unless it is a list (or the
    Items of a manifest's text that load_manifest gives)."""
    runs = _field(manifest, "runs", "manifest", MalformedManifestError)
    if not isinstance(runs, (list, Items)):
        raise _wrong_type("manifest field 'runs'", "a list", runs, MalformedManifestError)
    return runs


def load_manifest(path: str) -> dict:
    """The manifest file at path, for batch: {"runs": the jsonwalk.Items of
    its text}, which decodes each run entry as it is reached.

    The file is read as _load_json reads it, and its text is walked once,
    each value decoded and dropped, so this raises what
    _manifest_runs(_load_json(path, MalformedManifestError)) raises, with
    the same text.  Where the walk does not reach the end of an object
    whose last 'runs' is an array, the whole document is decoded, to say
    why, or, should the walk have been too cautious, to be the manifest.
    """
    text = _read_text(path, MalformedManifestError)
    try:
        start = array_field(text, "runs")
    except (ValueError, RecursionError):
        start = None
    if start is not None:
        return {"runs": Items(text, start)}
    manifest = _parse(text, MalformedManifestError)
    _manifest_runs(manifest)
    return manifest


def batch(manifest: dict, out, base_dir: str = ".") -> bool:
    """Run every manifest entry, writing the CSV report to the text stream
    out row by row, each as its run finishes; returns all_ok.  manifest is
    a decoded manifest document, or what load_manifest gives.

    Rows keep manifest order.  A failing entry becomes an error row and the
    batch continues; an error in writing to out ends it.  Consecutive entries
    on one instance file share its load and its offline optimum (one
    oracle.Optimum); only the last file loaded is kept.
    """
    runs = _manifest_runs(manifest)
    writer = csv_writer(out)
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
        except (MultiColorError, OSError) as exc:
            blanks = [""] * (len(CSV_COLUMNS) - 3)
            row = [algo, record.get("instance", "?"), *blanks, f"error: {exc}"]
            all_ok = False
        else:
            row = report_row(report)
            all_ok = all_ok and report.ok
        writer.writerow(row)  # outside the try: a failed write is no run's error
    return all_ok
