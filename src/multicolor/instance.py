"""Request sequences, the evolving per-node color sets f(v), validity
checking, and demand / peak-load statistics.

Colors are positive integers starting at 1.  A cancellation names the node
and the color to remove; the optional recolor directive moves one other
color of the same node (Algorithm-2 style 0-recoloring).
"""

from __future__ import annotations

from .errors import MalformedInstanceError, MalformedLogError
from .graph import Graph, maximal_cliques, clique_weight
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


class Instance(Value):
    __slots__ = __match_args__ = ("graph", "requests", "name")

    def __init__(self, graph: Graph, requests: tuple, name: str = "instance"):
        for r in requests:
            if r.node not in graph.adjacency:
                raise MalformedInstanceError(f"request to unknown node {r.node!r}")
        self._init(graph, requests, name)

    @property
    def n(self) -> int:
        return len(self.requests)

    def has_cancellations(self) -> bool:
        return any(r.op == "cancel" for r in self.requests)


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
    """Replay all requests under apply_step's rules, on mutable per-node sets.

    Returns None if the whole log is legal, otherwise the first Violation.
    Raises MalformedLogError if the log length does not match.
    """
    if len(actions) != instance.n:
        raise MalformedLogError(
            f"log has {len(actions)} actions for {instance.n} requests"
        )
    f = {v: set() for v in instance.graph.nodes}
    for step, (request, action) in enumerate(zip(instance.requests, actions), 1):
        bad = _serve(instance.graph, f, step, request, action)
        if bad is not None:
            return bad
    return None


def demand(instance: Instance) -> dict:
    """n_v: color requests per node.  Cancellations never decrement it."""
    counts = {v: 0 for v in instance.graph.nodes}
    for r in instance.requests:
        if r.op == "color":
            counts[r.node] += 1
    return counts


def peak_clique_load(instance: Instance) -> int:
    """Maximum over time and maximal cliques of the live request count, kept
    as one running load per clique: a request moves the loads of the
    cliques through its node by one, and only a color request can raise
    the peak."""
    cliques = maximal_cliques(instance.graph)
    through = {v: [] for v in instance.graph.nodes}  # node -> indices of the cliques containing it
    for i, c in enumerate(cliques):
        for v in c:
            through[v].append(i)
    load = [0] * len(cliques)
    live = {v: 0 for v in instance.graph.nodes}
    peak = 0
    for step, r in enumerate(instance.requests, 1):
        v = r.node
        if r.op == "color":
            live[v] += 1
            for i in through[v]:
                load[i] += 1
                if load[i] > peak:
                    peak = load[i]
        else:
            if live[v] == 0:
                raise MalformedInstanceError(
                    f"step {step}: cancellation at {v!r} with no live request"
                )
            live[v] -= 1
            for i in through[v]:
                load[i] -= 1
    return peak


def demand_clique_weight(instance: Instance) -> int:
    """clique_weight of the instance's total demand (ignores cancellations)."""
    return clique_weight(instance.graph, demand(instance))
