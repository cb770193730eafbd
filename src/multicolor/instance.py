"""Request sequences, the evolving per-node color sets f(v), validity
checking, and demand / peak-load statistics.

Colors are positive integers starting at 1.  A cancellation names the node
and the color to remove; the optional recolor directive moves one other
color of the same node (Algorithm-2 style 0-recoloring).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, MalformedInstanceError, MalformedLogError
from .graph import Graph, clique_weight, peak_load
from .value import Value


class Request(Value):
    __slots__ = __match_args__ = ("node", "op", "cancel_color")

    def __init__(self, node: str, op: str, cancel_color: int | None = None):
        if op == "cancel":
            if type(cancel_color) is not int or cancel_color < 1:
                raise MalformedInstanceError("cancel request needs an integer color >= 1")
        elif op != "color":
            raise MalformedInstanceError(f"unknown op {op!r}")
        elif cancel_color is not None:
            raise MalformedInstanceError(f"color request takes no color, got {cancel_color!r}")
        self._init(node, op, cancel_color)


# Requests are immutable values, so the instances one process builds or loads
# share one per (node, op, color) while this table holds it, and each keeps a
# dict in front of it to hold one per triple after the table drops it.
_shared_request = lru_cache(maxsize=4096)(Request)


class _Requests(dict):
    """An instance's (node, op, color) -> Request, filled from _shared_request."""

    def __missing__(self, key):
        request = self[key] = _shared_request(*key)
        return request


class Instance(Value):
    __slots__ = __match_args__ = ("graph", "requests", "name")

    def __init__(self, graph: Graph, requests: tuple, name: str = "instance"):
        adjacency = graph.adjacency
        for r in requests:
            if r.node not in adjacency:
                raise MalformedInstanceError(f"request to unknown node {r.node!r}")
        self._init(graph, requests, name)

    @property
    def n(self) -> int:
        return len(self.requests)

    def has_cancellations(self) -> bool:
        return _cancels(self.requests)


def _cancels(requests) -> bool:
    """Whether any of the requests is a cancellation."""
    for r in requests:
        if r.op == "cancel":
            return True
    return False


def refuse_outside(algo: str, graph: Graph, requests, kinds=None, cancels=False) -> None:
    """Raise the DomainError of algo asked to serve outside its domain: a
    graph whose kind is not in kinds (None: every kind is served), or a
    cancellation when cancels is false.  Every player, and each tape writer
    that must refuse before any offline work, calls it first."""
    if kinds is not None and graph.kind not in kinds:
        raise DomainError(f"{algo} needs a {'/'.join(kinds)} graph, got {graph.kind}")
    if not cancels and _cancels(requests):
        raise DomainError(f"{algo} does not handle cancellations")


class ColorAction(Value):
    __slots__ = __match_args__ = ("color",)

    def __init__(self, color: int):
        self._init(color)


class CancelAction(Value):
    """recolor = (old_color, new_color) at the cancelled node, or None."""

    __slots__ = __match_args__ = ("recolor",)

    def __init__(self, recolor: tuple[int, int] | None = None):
        self._init(recolor)


class Violation(Value):
    """kind is "edge-conflict" | "node-duplicate" | "bad-cancel" | "invalid-color"."""

    __slots__ = __match_args__ = ("step", "kind", "node", "color", "other_node")

    def __init__(self, step: int, kind: str, node: str, color: int | None = None,
                 other_node: str | None = None):
        self._init(step, kind, node, color, other_node)


class ColoringState(Value):
    """f maps node -> frozenset of live colors."""

    __slots__ = __match_args__ = ("graph", "f", "step")

    def __init__(self, graph: Graph, f: dict | None = None, step: int = 0):
        self._init(graph, {} if f is None else f, step)

    def colors_at(self, v) -> frozenset:
        return self.f.get(v, frozenset())


def _serve(graph: Graph, f: dict, step: int, request: Request, action):
    """Apply one request's rules to f (node -> set of live colors), changing
    only f[request.node], in place.  Returns the Violation, else None."""
    v = request.node
    live = f[v]
    if request.op == "color":
        if not isinstance(action, ColorAction):
            return Violation(step=step, kind="invalid-color", node=v)
        new = action.color
    else:
        if not isinstance(action, CancelAction):
            return Violation(step=step, kind="bad-cancel", node=v, color=request.cancel_color)
        c = request.cancel_color
        if c not in live:
            return Violation(step=step, kind="bad-cancel", node=v, color=c)
        live.discard(c)
        if action.recolor is None:
            return None
        old, new = action.recolor
        if old not in live:
            return Violation(step=step, kind="bad-cancel", node=v, color=old)
        live.discard(old)
    if new < 1:
        return Violation(step=step, kind="invalid-color", node=v, color=new)
    if new in live:
        return Violation(step=step, kind="node-duplicate", node=v, color=new)
    for u in graph.adjacency[v]:  # in sorted order: the smallest conflict is named
        if new in f.get(u, ()):
            return Violation(step=step, kind="edge-conflict", node=v, color=new, other_node=u)
    live.add(new)
    return None


def apply_step(state: ColoringState, request: Request, action):
    """Advance the state by one served request.

    Returns the new ColoringState, or a Violation if the action is illegal.
    The input state is never mutated.  A request to a node the graph does not
    have raises MalformedInstanceError, as Instance does.
    """
    v = request.node
    if v not in state.graph.adjacency:
        raise MalformedInstanceError(f"request to unknown node {v!r}")
    f = {**state.f, v: set(state.colors_at(v))}
    bad = _serve(state.graph, f, state.step + 1, request, action)
    if bad is not None:
        return bad
    f[v] = frozenset(f[v])
    return ColoringState(state.graph, f, state.step + 1)


def validate_full(instance: Instance, actions):
    """Check the log under apply_step's rules: in bulk when it has no
    cancellation, else, or when the bulk check finds a fault, by a replay
    on mutable per-node sets that names the first Violation.

    Returns None if the whole log is legal, otherwise the first Violation.
    Raises MalformedLogError if the log length does not match.
    """
    if len(actions) != instance.n:
        raise MalformedLogError(
            f"log has {len(actions)} actions for {instance.n} requests"
        )
    if _legal_in_bulk(instance, actions):
        return None
    f = {v: set() for v in instance.graph.nodes}
    for step, (request, action) in enumerate(zip(instance.requests, actions), 1):
        bad = _serve(instance.graph, f, step, request, action)
        if bad is not None:
            return bad
    return None


def _legal_in_bulk(instance: Instance, actions) -> bool:
    """Whether a log of only color requests and ColorActions is legal: each
    node's colors are at least 1 and distinct, and disjoint from each
    neighbour's.  False on any other log, for the stepwise replay to judge."""
    held = {v: set() for v in instance.graph.nodes}
    try:
        for request, action in zip(instance.requests, actions):
            if request.op != "color" or type(action) is not ColorAction:
                return False
            colors, c = held[request.node], action.color
            if c < 1 or c in colors:
                return False
            colors.add(c)
    except TypeError:  # a color that does not compare with 1
        return False
    adjacency = instance.graph.adjacency
    for v, colors in held.items():
        if colors:
            for u in adjacency[v]:
                if u > v and not colors.isdisjoint(held[u]):
                    return False
    return True


def demand(instance: Instance) -> dict:
    """n_v: color requests per node.  Cancellations never decrement it."""
    counts = {v: 0 for v in instance.graph.nodes}
    for r in instance.requests:
        if r.op == "color":
            counts[r.node] += 1
    return counts


def peak_clique_load(instance: Instance) -> int:
    """Maximum over time and maximal cliques of the live request count: the
    peak_load of the requests, a color request a rise by 1 at its node and
    a cancellation a drop by 1."""
    return peak_load(instance.graph, ((r.node, 1 if r.op == "color" else -1)
                                      for r in instance.requests))


def demand_clique_weight(instance: Instance) -> int:
    """clique_weight of the instance's total demand (ignores cancellations)."""
    return clique_weight(instance.graph, demand(instance))
