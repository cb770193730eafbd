"""Graph model for the three supported topologies: paths, bipartite graphs,
and hexagonal-grid graphs.

Hexagonal graphs use axial coordinates (q, r); two cells are adjacent iff
their coordinate difference is one of the six axial offsets.  Every cell
gets one of three classes R/G/B via (q - r) mod 3, which yields a proper
3-coloring of the grid.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    InvalidEmbeddingError,
    InvalidSizeError,
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


class CellCoord(Value):
    __slots__ = __match_args__ = ("q", "r")

    def __init__(self, q: int, r: int):
        self._init(q, r)


class Graph(Value):
    """Immutable graph with a kind tag ("path" | "bipartite" | "hexagonal"),
    its nodes (a tuple), its adjacency and kind-specific annotations.

    adjacency maps node -> {neighbour: None}, keyed in node order, each
    neighbour dict in sorted order, as the builders make it.  partition maps
    node -> "L"/"U" for path and bipartite graphs; cell_of and class_of are
    populated for hexagonal graphs only.
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
        (u, w, x) once per common neighbour x > w (Chiba & Nishizeki), in
        O(|E| * max degree) time, and is a maximal clique itself when u and
        w have none.  As tuples of sorted members they sort as the cliques do.
        """
        adj, found = self.adjacency, []
        for u, nbrs in adj.items():
            if not nbrs:
                found.append((u,))
            for w in nbrs:
                if w > u:
                    common = nbrs.keys() & adj[w].keys()
                    found += [(u, w, x) for x in common if x > w] if common else [(u, w)]
        return [frozenset(c) for c in sorted(found)]

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
    """Hexagonal graph from an injective node -> CellCoord embedding.

    Adjacency is derived from the six axial offsets; the R/G/B class of a
    node at (q, r) is (q - r) mod 3.
    """
    coords, node_at = {}, {}
    for v, c in cells.items():
        if not isinstance(c, CellCoord):
            c = CellCoord(*c)
        if node_at.setdefault((c.q, c.r), v) != v:
            raise InvalidEmbeddingError(f"duplicate cell {c} (node {v!r})")
        coords[v] = c
    nodes = tuple(sorted(coords))
    adj = {v: {} for v in nodes}
    for v in nodes:  # in sorted order, so each adj[u] fills in sorted order
        c = coords[v]
        for dq, dr in HEX_OFFSETS:
            if (c.q + dq, c.r + dr) in node_at:
                adj[node_at[c.q + dq, c.r + dr]][v] = None
    class_of = {v: CLASS_NAMES[(coords[v].q - coords[v].r) % 3] for v in nodes}
    return Graph("hexagonal", nodes, adj, cell_of=coords, class_of=class_of)


def maximal_cliques(g: Graph) -> list[frozenset]:
    """All maximal cliques of g, sorted for determinism: the list cached on
    the graph (Graph.cliques), shared by every caller, so never mutate it."""
    return g.cliques


def clique_weight(g: Graph, demand: dict) -> int:
    """omega: maximum total demand over the maximal cliques of g."""
    return max((sum(demand.get(v, 0) for v in c) for c in maximal_cliques(g)), default=0)
