"""Shared helpers and brute-force reference oracles for the test suite."""

from itertools import combinations

import pytest

from multicolor.graph import Graph
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


@pytest.fixture
def path_i2():
    from multicolor.adversary import path_family

    return path_family(40)[2]
