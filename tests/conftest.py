"""Shared helpers and brute-force reference oracles for the test suite."""

from itertools import combinations

import pytest

from multicolor.errors import AdviceError, CapacityExceededError, MalformedInstanceError
from multicolor.graph import BORROW_FROM, PALETTE_START, Graph, maximal_cliques
from multicolor.instance import ColorAction, Instance


def brute_force_maximal_cliques(g: Graph):
    """Reference clique enumeration: all subsets, keep cliques that are
    maximal.  Only usable on small graphs."""
    nodes = list(g.nodes)
    cliques = []
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if all(w in g.adjacency[u] for u, w in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    return {c for c in cliques if not any(c < d for d in cliques)}


def clique_weight_by_cliques(g: Graph, demand: dict) -> int:
    """Reference omega: the largest total demand over the listed maximal
    cliques (maximal_cliques)."""
    return max((sum(demand.get(v, 0) for v in c) for c in maximal_cliques(g)), default=0)


def peak_load_by_cliques(instance: Instance) -> int:
    """Reference peak clique load: every listed maximal clique re-summed
    after every request; a cancellation with no live request raises the
    error peak_clique_load raises."""
    cliques = maximal_cliques(instance.graph)
    live = {v: 0 for v in instance.graph.nodes}
    peak = 0
    for step, r in enumerate(instance.requests, 1):
        if r.op == "cancel" and live[r.node] == 0:
            raise MalformedInstanceError(
                f"step {step}: cancellation at {r.node!r} with no live request")
        live[r.node] += 1 if r.op == "color" else -1
        peak = max(peak, max((sum(live[v] for v in c) for c in cliques), default=0))
    return peak


def instance_to_dict(instance: Instance) -> dict:
    """The instance as the loader reads it back: the reference whose
    json.dumps(..., indent=2, sort_keys=True) the writer's text must equal."""
    g = instance.graph
    gd = {"kind": g.kind, "nodes": list(g.nodes)}
    if g.kind in ("path", "bipartite"):
        gd["edges"] = [list(e) for e in g.edge_list()]
        gd["partition"] = {v: g.partition[v] for v in g.nodes}
    else:
        gd["cells"] = {v: list(g.cell_of[v]) for v in g.nodes}
    reqs = [{"node": r.node, "op": "color"} if r.op == "color" else
            {"node": r.node, "op": "cancel", "color": r.cancel_color} for r in instance.requests]
    return {"graph": gd, "requests": reqs, "name": instance.name}


def witness_actions(instance: Instance, coloring):
    """Per-request ColorActions replaying a witness coloring, giving each
    node its colors in increasing order."""
    pending = {v: sorted(coloring[v]) for v in instance.graph.nodes}
    served = {v: 0 for v in instance.graph.nodes}
    actions = []
    for r in instance.requests:
        actions.append(ColorAction(pending[r.node][served[r.node]]))
        served[r.node] += 1
    return actions


def all_two_colorings(instance: Instance):
    """All valid colorings of the demand-1 requested nodes with palette {1, 2}."""
    dem_nodes = sorted({r.node for r in instance.requests})
    g = instance.graph
    out = []
    for bits in range(2 ** len(dem_nodes)):
        coloring = {v: 1 + ((bits >> i) & 1) for i, v in enumerate(dem_nodes)}
        if all(
            coloring[u] != coloring[w]
            for u, w in combinations(dem_nodes, 2)
            if w in g.adjacency[u]
        ):
            out.append(coloring)
    return out


def hex43_with_sets(graph: Graph, tape, requests) -> list:
    """Reference 4/3 hexagonal player: algorithms.hex43 as it was written with
    a set of colors per node, each borrow taking the largest of the lender's
    first `size` colors that neither the node nor any neighbour holds."""
    size, frozen, top = 0, False, None
    phase = dict.fromkeys(graph.nodes, 1)
    upper, nxt = {}, {}
    f = {v: set() for v in graph.nodes}
    class_of, read_bit = graph.class_of, tape.read_bit
    out = []
    for r in requests:
        v = r.node
        held = f[v]
        if phase[v] == 1:
            if frozen and len(held) == size:
                phase[v] = 2
            elif read_bit() == 0:
                color = PALETTE_START[class_of[v]] + 3 * len(held)
                size = max(size, len(held) + 1)
            else:
                phase[v] = 2
                frozen = True
        if phase[v] == 2:
            if read_bit() == 0:
                lender = set(range(PALETTE_START[BORROW_FROM[class_of[v]]], 3 * size + 1, 3)) - held
                for u in graph.adjacency[v]:
                    lender -= f[u]
                if not lender:
                    raise CapacityExceededError(f"no borrowable color left at {v!r}")
                color = max(lender)
            else:
                upper[v] = read_bit()
                if upper[v] and top is None:
                    d = tape.read_fixed(2)
                    if d == 3:
                        raise AdviceError("hex43 header d must be 0, 1 or 2, got 3")
                    top = 4 * size - 1 + d
                nxt[v] = top if upper[v] else 3 * size + 1
                phase[v] = 3
        if phase[v] == 3:
            color = nxt[v]
            if color <= 3 * size:
                raise CapacityExceededError(f"phase-3 window exhausted at {v!r}")
            nxt[v] += -1 if upper[v] else 1
        held.add(color)
        out.append(ColorAction(color))
    return out


@pytest.fixture
def path_i2():
    from multicolor.adversary import path_family

    return path_family(40)[2]
