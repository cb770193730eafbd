"""Graph model for the three supported topologies: paths, bipartite graphs,
and hexagonal-grid graphs.

A hexagonal node sits on a cell, the plain pair (q, r) of its axial
coordinates; two cells are adjacent iff their coordinate difference is one
of the six axial offsets.  Every cell gets one of three classes R/G/B via
(q - r) mod 3, which yields a proper 3-coloring of the grid.
"""

from __future__ import annotations

from itertools import repeat

from .errors import (
    InvalidEmbeddingError,
    InvalidSizeError,
    MalformedInstanceError,
    NotBipartiteError,
    UnknownNodeError,
)
from .value import Value

HEX_OFFSETS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)})

CLASS_NAMES = ("R", "G", "B")

# class -> the class whose private palette it borrows from (fpa, hex43, the 4/3 plan)
BORROW_FROM = {"R": "G", "G": "B", "B": "R"}
# class -> first color of its interleaved private palette: R 1,4,7,...; G 2,5,8,...; B 3,6,9,...
PALETTE_START = {"R": 1, "G": 2, "B": 3}


class Graph(Value):
    """Immutable graph with a kind tag ("path" | "bipartite" | "hexagonal"),
    its nodes (a tuple), its adjacency and kind-specific annotations.

    adjacency maps node -> {neighbour: None}, keyed in node order, each
    neighbour dict in sorted order, as the builders make it.  partition maps
    node -> "L"/"U" for path and bipartite graphs; cell_of (node -> its
    (q, r) cell) and class_of are populated for hexagonal graphs only.
    """

    __match_args__ = ("kind", "nodes", "adjacency", "partition", "cell_of", "class_of")
    __slots__ = __match_args__

    def __init__(self, kind: str, nodes: tuple, adjacency: dict, partition: dict | None = None,
                 cell_of: dict | None = None, class_of: dict | None = None):
        self._init(kind, nodes, adjacency, {} if partition is None else partition,
                   {} if cell_of is None else cell_of, {} if class_of is None else class_of)

    def edge_list(self) -> list[tuple[str, str]]:
        """The edges (u, w), u < w, sorted: each neighbour dict already is."""
        adj = self.adjacency
        return [(u, w) for u in sorted(adj) for w in adj[u] if w > u]


def _adjacency(nodes, pairs) -> dict:
    """node -> {neighbour: None} for the node pairs: each node's list of
    pair partners, sorted once, keys its dict (a repeated pair collapses)."""
    adj = {v: [] for v in nodes}
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    for v, nbrs in adj.items():  # one list at a time: a lower memory peak
        nbrs.sort()
        adj[v] = dict.fromkeys(nbrs)
    return adj


def build_path(k: int) -> Graph:
    """Path v1..vk with partition alternating L, U, L, ... from v1."""
    if k < 1:
        raise InvalidSizeError(f"path needs at least one node, got k={k}")
    nodes = tuple(f"v{i}" for i in range(1, k + 1))
    partition = {v: ("L" if i % 2 == 0 else "U") for i, v in enumerate(nodes)}
    return Graph("path", nodes, _adjacency(nodes, zip(nodes, nodes[1:])), partition)


def build_bipartite(nodes, edges, partition) -> Graph:
    """Bipartite graph from an explicit L/U partition; rejects same-side edges."""
    nodes = tuple(sorted(nodes))
    node_set = set(nodes)
    for v in nodes:  # in sorted order: the smallest node without a side is named
        if partition.get(v) not in ("L", "U"):
            raise NotBipartiteError(f"node {v!r} has no L/U side")
    pairs = []
    for u, w in edges:
        if u not in node_set or w not in node_set:
            raise UnknownNodeError(f"edge ({u!r}, {w!r}) has an endpoint outside the node set")
        if u == w:
            raise NotBipartiteError(f"self-loop at {u!r}")
        if partition[u] == partition[w]:
            raise NotBipartiteError(f"edge ({u!r}, {w!r}) joins two {partition[u]} nodes")
        pairs.append((u, w))
    return Graph("bipartite", nodes, _adjacency(nodes, pairs), {v: partition[v] for v in nodes})


def build_hexagonal(cells: dict) -> Graph:
    """Hexagonal graph from an injective node -> (q, r) embedding.

    Adjacency is derived from the six axial offsets; the R/G/B class of a
    node at (q, r) is (q - r) mod 3.
    """
    cell_of, node_at = {}, {}
    for v, (q, r) in cells.items():
        if node_at.setdefault((q, r), v) != v:
            raise InvalidEmbeddingError(f"duplicate cell {(q, r)} (node {v!r})")
        cell_of[v] = (q, r)
    nodes = tuple(sorted(cell_of))
    adj, class_of = {v: {} for v in nodes}, {}
    for v in nodes:  # in sorted order, so each adj[u] fills in sorted order
        q, r = cell_of[v]
        class_of[v] = CLASS_NAMES[(q - r) % 3]
        for dq, dr in HEX_OFFSETS:
            if (q + dq, r + dr) in node_at:
                adj[node_at[q + dq, r + dr]][v] = None
    return Graph("hexagonal", nodes, adj, cell_of=cell_of, class_of=class_of)


def maximal_cliques(g: Graph) -> list[frozenset]:
    """All maximal cliques of g, sorted for determinism, listed anew on
    each call.

    For the three supported kinds, every clique has size at most 3 (paths
    and bipartite graphs are triangle-free; hexagonal grids have no K4), so
    isolated nodes, edges, and triangles are the only candidates.  Each edge
    u < w of the adjacency gives the triangle (u, w, x) once per common
    neighbour x > w (Chiba & Nishizeki), and is a maximal clique itself when
    u and w have none.  Only a hexagonal graph is searched for them, in
    O(|E| * max degree) time; the rest take O(|E|).  As tuples of sorted
    members they sort as the cliques do.  No run lists them: peak_load reads
    a node's neighbours, and only exact search (oracle._opt_search) calls this.
    """
    adj, found = g.adjacency, []
    triangles = g.kind == "hexagonal"
    for u, nbrs in adj.items():
        if not nbrs:
            found.append((u,))
        for w in nbrs:
            if w > u:
                common = triangles and nbrs.keys() & adj[w].keys()
                if not common:
                    found.append((u, w))
                    continue
                for x in common:
                    if x > w:
                        found.append((u, w, x))
    found.sort()
    return list(map(frozenset, found))


def clique_weight(g: Graph, demand: dict) -> int:
    """omega: maximum total demand over the maximal cliques of g, the
    peak_load of one step per node, by its demand (a negative demand raises
    its error)."""
    return peak_load(g, zip(g.nodes, map(demand.get, g.nodes, repeat(0))))


def peak_load(g: Graph, steps) -> int:
    """The largest total load over a maximal clique of g at any time: every
    node's load starts at 0, and each (node, change) of the steps, streamed
    in order, moves that node's load by change.  A step that would take a
    load below 0 is a cancellation with no live request, and raises
    MalformedInstanceError naming it (steps count from 1).

    Loads are never negative, so only a rise can raise the peak, and only
    through the cliques at its node v.  Every clique here is a node, an edge
    or a triangle (maximal_cliques), so the peak after the rise is v's load
    plus the larger of its largest neighbour load and, on a hexagonal graph,
    the largest load[u] + load[w] over an edge u-w among v's neighbours.  No
    clique is listed."""
    adj, peak = g.adjacency, 0
    triangles = g.kind == "hexagonal"  # the rest are triangle-free
    load = dict.fromkeys(adj, 0)  # from a dict it is sized once: a lower memory peak
    for step, (v, change) in enumerate(steps, 1):
        k = load[v] = load[v] + change
        if change > 0:
            top = peak - k if peak > k else 0  # a clique through v above it raises the peak
            nbrs = adj[v]
            for u in nbrs:  # plain loops: a max() per step costs more
                if load[u] > top:
                    top = load[u]
            if triangles:
                for u in nbrs:
                    t = load[u]
                    for w in adj[u]:
                        if w in nbrs and t + load[w] > top:
                            top = t + load[w]
            peak = k + top
        elif k < 0:
            raise _no_live_request(step, v)
    return peak


def _no_live_request(step, v):
    return MalformedInstanceError(f"step {step}: cancellation at {v!r} with no live request")
