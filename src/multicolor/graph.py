"""Graph model for the three supported topologies: paths, bipartite graphs,
and hexagonal-grid graphs.

A hexagonal node sits on a cell, the plain pair (q, r) of its axial
coordinates; two cells are adjacent iff their coordinate difference is one
of the six axial offsets.  Every cell gets one of three classes R/G/B via
(q - r) mod 3, which yields a proper 3-coloring of the grid.
"""

from __future__ import annotations

from functools import cached_property
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
    __slots__ = __match_args__ + ("__dict__",)  # __dict__ holds the cached cliques

    def __init__(self, kind: str, nodes: tuple, adjacency: dict, partition: dict | None = None,
                 cell_of: dict | None = None, class_of: dict | None = None):
        self._init(kind, nodes, adjacency, {} if partition is None else partition,
                   {} if cell_of is None else cell_of, {} if class_of is None else class_of)

    @cached_property
    def cliques(self) -> list[frozenset]:
        """All maximal cliques, sorted for determinism; enumerated once.

        For the three supported kinds, every clique has size at most 3
        (paths and bipartite graphs are triangle-free; hexagonal grids have
        no K4), so isolated nodes, edges, and triangles are the only
        candidates.  Each edge u < w of the adjacency gives the triangle
        (u, w, x) once per common neighbour x > w (Chiba & Nishizeki), and is
        a maximal clique itself when u and w have none.  Only a hexagonal graph
        is searched for them, in O(|E| * max degree) time; the rest take O(|E|).
        As tuples of sorted members they sort as the cliques do.  peak_load,
        the one clique-load walk behind clique_weight and peak_clique_load,
        reads them on a hexagonal graph only: on a path or bipartite graph it
        works from node and edge loads, so a run there never lists them.
        """
        adj, found = self.adjacency, []
        triangles = self.kind == "hexagonal"
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

    def edge_list(self) -> list[tuple[str, str]]:
        return sorted((u, w) for u, nbrs in self.adjacency.items() for w in nbrs if u < w)


def _adjacency(nodes, pairs) -> dict:
    """node -> {neighbour: None} for the node pairs: filled with the pairs
    ordered and sorted, so each neighbour dict is in sorted order."""
    adj = {v: {} for v in nodes}
    for u, w in sorted((u, w) if u < w else (w, u) for u, w in pairs):
        adj[u][w] = adj[w][u] = None
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
    """All maximal cliques of g, sorted for determinism: the list cached on
    the graph (Graph.cliques), shared by every caller, so never mutate it."""
    return g.cliques


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

    Only a rise can raise the peak.  A path or bipartite graph is
    triangle-free: its maximal cliques are its edges and isolated nodes, so
    after a rise at v the peak is v's load plus its largest neighbour load,
    and no clique is listed.  A hexagonal graph keeps one running load per
    maximal clique, and a step moves those of the cliques through its node."""
    adj, peak = g.adjacency, 0
    load = dict.fromkeys(adj, 0)  # from a dict it is sized once: a lower memory peak
    if g.kind != "hexagonal":
        for step, (v, change) in enumerate(steps, 1):
            k = load[v] = load[v] + change
            if change > 0:
                top = peak - k if peak > k else 0  # a neighbour load above it raises the peak
                for u in adj[v]:  # plain loops: a max() per step costs more
                    if load[u] > top:
                        top = load[u]
                peak = k + top
            elif k < 0:
                raise _no_live_request(step, v)
        return peak
    cliques = maximal_cliques(g)
    through = {v: [] for v in load}  # node -> indices of the cliques containing it
    for i, c in enumerate(cliques):
        for v in c:
            through[v].append(i)
    total = [0] * len(cliques)
    for step, (v, change) in enumerate(steps, 1):
        k = load[v] = load[v] + change
        if k < 0:
            raise _no_live_request(step, v)
        for i in through[v]:
            t = total[i] = total[i] + change
            if t > peak:
                peak = t
    return peak


def _no_live_request(step, v):
    return MalformedInstanceError(f"step {step}: cancellation at {v!r} with no live request")
