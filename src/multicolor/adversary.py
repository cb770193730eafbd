"""Generators: the path lower-bound family, the hexagonal chain families,
and seeded random instances for stress corpora.
"""

from __future__ import annotations

import random

from .errors import DomainError
from .graph import CellCoord, build_bipartite, build_hexagonal, build_path
from .instance import Instance, Request, peak_clique_load

# chance that a request to a node with a live color cancels one (random_cancel_instance)
CANCEL_PROB = 0.3


class _ColorRequests(dict):
    """node -> its one color Request, built on first use and shared by all
    its color requests (a Request is an immutable value)."""

    def __missing__(self, node):
        request = self[node] = Request(node=node, op="color")
        return request


def path_family(n: int) -> list[Instance]:
    """The m+1 sequences I_0..I_m on a 10-node path, m = floor(n/4).

    All share the length-2m prefix (m requests to v1, then m to v4); I_i adds
    i requests to each of v2 and v3, and pads with n-2m-2i filler requests
    split as evenly as possible over v6, v8, v10.  Opt(I_i) = m + i.
    """
    if n < 40:
        raise DomainError(f"path_family needs n >= 40, got {n}")
    m = n // 4
    graph = build_path(10)
    color = _ColorRequests()
    instances = []
    for i in range(m + 1):
        reqs = [color["v1"]] * m + [color["v4"]] * m + [color["v2"]] * i + [color["v3"]] * i
        t = n - 2 * m - 2 * i
        c6 = -(-t // 3)
        c8 = -(-(t - c6) // 2)
        c10 = t - c6 - c8
        reqs += [color["v6"]] * c6 + [color["v8"]] * c8 + [color["v10"]] * c10
        instances.append(Instance(graph=graph, requests=tuple(reqs), name=f"path_family_n{n}_i{i}"))
    return instances


def _chain_cells(k: int) -> dict:
    """Cell embedding of the k-unit hexagonal chain gadget.

    Outer nodes O_j sit on row 0 at even columns; the single node S_{2j-1}
    between consecutive O's; the double pair D_{2j-1}, D_{2j} alternates
    between rows +1 and -1 so D pairs of consecutive units never touch.
    Padding nodes S_{2j} live on row -3, isolated from everything requested;
    R is a far-away isolated node.
    """
    cells = {}
    for j in range(k + 1):
        cells[f"O{j}"] = CellCoord(2 * j, 0)
    for j in range(1, k + 1):
        cells[f"S{2 * j - 1}"] = CellCoord(2 * j - 1, 0)
        if j % 2 == 1:
            cells[f"D{2 * j - 1}"] = CellCoord(2 * j - 2, 1)
            cells[f"D{2 * j}"] = CellCoord(2 * j - 1, 1)
        else:
            cells[f"D{2 * j - 1}"] = CellCoord(2 * j - 1, -1)
            cells[f"D{2 * j}"] = CellCoord(2 * j, -1)
        cells[f"S{2 * j}"] = CellCoord(2 * j, -3)
    cells["R"] = CellCoord(2 * k + 4, 0)
    return cells


def hex_chain(k: int, branch, pad_requests: int = 0) -> Instance:
    """One request to each O node, then per unit either the D pair or the
    S pair, per the branch tuple.  Opt = 2 for every branch choice."""
    if k < 1:
        raise DomainError(f"hex_chain needs k >= 1, got {k}")
    if pad_requests < 0:
        raise DomainError(f"hex_chain needs pad_requests >= 0, got {pad_requests}")
    branch = tuple(branch)
    if len(branch) != k or any(b not in (0, 1) for b in branch):
        raise DomainError(f"branch must be a {{0,1}}-tuple of length {k}")
    graph = build_hexagonal(_chain_cells(k))
    color = _ColorRequests()
    reqs = [color[f"O{j}"] for j in range(k + 1)]
    for j in range(1, k + 1):
        pair = "D" if branch[j - 1] == 1 else "S"
        reqs += [color[f"{pair}{2 * j - 1}"], color[f"{pair}{2 * j}"]]
    reqs += [color["R"]] * pad_requests
    name = f"hex_chain_k{k}_b{''.join(map(str, branch))}"
    return Instance(graph=graph, requests=tuple(reqs), name=name)


def hex_54(p: int, branch: int) -> Instance:
    """One chain unit, p/4 requests per requested node; Opt = p/2 for both
    branch choices."""
    if p % 4 != 0 or p < 4:
        raise DomainError(f"p must be a positive multiple of 4, got {p}")
    if branch not in (0, 1):
        raise DomainError("branch must be 0 or 1")
    chain = hex_chain(1, (branch,))
    reqs = tuple(r for r in chain.requests for _ in range(p // 4))
    return Instance(graph=chain.graph, requests=reqs, name=f"hex_54_p{p}_b{branch}")


def _check_sizes(n_nodes, n_requests):
    if n_nodes < 1 or n_requests < 0:
        raise DomainError(f"a random instance needs at least 1 node and 0 requests, "
                          f"got {n_nodes} and {n_requests}")


def random_instance(kind: str, seed: int, n_nodes: int = 8, n_requests: int = 20,
                    edge_density: float = 0.5, grid_extent: int = 4) -> Instance:
    """Seeded random bipartite or hexagonal instance; identical for equal seeds."""
    _check_sizes(n_nodes, n_requests)
    rng = random.Random(seed)
    if kind == "bipartite":
        nodes = [f"n{i}" for i in range(n_nodes)]
        partition = {v: rng.choice(("L", "U")) for v in nodes}
        edges = [
            (u, w)
            for i, u in enumerate(nodes)
            for w in nodes[i + 1:]
            if partition[u] != partition[w] and rng.random() < edge_density
        ]
        graph = build_bipartite(nodes, edges, partition)
    elif kind == "hexagonal":
        all_cells = [(q, r) for q in range(grid_extent) for r in range(grid_extent)]
        if n_nodes > len(all_cells):
            raise DomainError(f"grid_extent {grid_extent} has fewer than {n_nodes} cells")
        chosen = rng.sample(all_cells, n_nodes)
        graph = build_hexagonal({f"n{i}": CellCoord(q, r) for i, (q, r) in enumerate(chosen)})
    else:
        raise DomainError(f"random_instance supports bipartite/hexagonal, got {kind!r}")
    color = _ColorRequests()
    reqs = [color[rng.choice(graph.nodes)] for _ in range(n_requests)]
    return Instance(graph=graph, requests=tuple(reqs),
                    name=f"random_{kind}_s{seed}")


def random_cancel_instance(seed: int, n_nodes: int = 8, n_requests: int = 24,
                           edge_density: float = 0.5) -> Instance:
    """Random bipartite instance with interleaved cancellations.

    Cancelled colors are chosen to be live under the interval invariant the
    cancellation player maintains (L nodes hold {1..k}, U nodes hold
    {m-k+1..m} with m = the peak clique load), so the sequence is servable.
    """
    _check_sizes(n_nodes, n_requests)
    rng = random.Random(seed)
    base = random_instance("bipartite", seed=seed ^ 0x5EED, n_nodes=n_nodes,
                           n_requests=0, edge_density=edge_density)
    graph = base.graph

    # op pattern first; live counts (and hence the peak load) do not depend
    # on which colors get cancelled
    ops = []
    live = {v: 0 for v in graph.nodes}
    for _ in range(n_requests):
        v = rng.choice(graph.nodes)
        if live[v] > 0 and rng.random() < CANCEL_PROB:
            ops.append((v, "cancel"))
            live[v] -= 1
        else:
            ops.append((v, "color"))
            live[v] += 1

    color = _ColorRequests()
    pattern = Instance(graph=graph, name="pattern", requests=tuple(
        color[v] if op == "color" else Request(node=v, op="cancel", cancel_color=1)
        for v, op in ops))
    m = peak_clique_load(pattern)

    # replay the interval invariant to pick concrete live colors to cancel
    counts = {v: 0 for v in graph.nodes}
    reqs = []
    for v, op in ops:
        if op == "color":
            counts[v] += 1
            reqs.append(color[v])
        else:
            k = counts[v]
            interval = range(1, k + 1) if graph.partition[v] == "L" else range(m - k + 1, m + 1)
            reqs.append(Request(node=v, op="cancel", cancel_color=rng.choice(list(interval))))
            counts[v] -= 1
    return Instance(graph=graph, requests=tuple(reqs), name=f"random_cancel_s{seed}")
