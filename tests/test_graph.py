import copy
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from multicolor.errors import (
    InvalidEmbeddingError,
    InvalidSizeError,
    NotBipartiteError,
    UnknownNodeError,
)
from multicolor.graph import (
    HEX_OFFSETS,
    CellCoord,
    Graph,
    build_bipartite,
    build_hexagonal,
    build_path,
    clique_weight,
    maximal_cliques,
)
from multicolor.adversary import (hex_54, hex_chain, path_family, random_cancel_instance,
                                  random_instance)
from conftest import brute_force_maximal_cliques


class TestBuildPath:
    def test_single_node(self):
        g = build_path(1)
        assert g.nodes == ("v1",)
        assert not g.edges
        assert g.partition == {"v1": "L"}

    def test_three_nodes(self):
        g = build_path(3)
        assert g.edge_list() == [("v1", "v2"), ("v2", "v3")]
        assert [g.partition[v] for v in g.nodes] == ["L", "U", "L"]

    def test_ten_nodes_alternation(self):
        g = build_path(10)
        assert len(g.edges) == 9
        for v in ("v4", "v6", "v8", "v10"):
            assert g.partition[v] == "U"
        for v in ("v1", "v3", "v5", "v7", "v9"):
            assert g.partition[v] == "L"

    def test_zero_raises(self):
        with pytest.raises(InvalidSizeError):
            build_path(0)


class TestBuildBipartite:
    def test_star(self):
        g = build_bipartite(
            ["c", "l1", "l2", "l3"],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
            {"c": "U", "l1": "L", "l2": "L", "l3": "L"},
        )
        assert g.kind == "bipartite"
        assert g.neighbors("c") == {"l1", "l2", "l3"}

    def test_triangle_rejected(self):
        with pytest.raises(NotBipartiteError):
            build_bipartite(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("a", "c")],
                {"a": "L", "b": "U", "c": "L"},
            )

    def test_empty_edges_ok(self):
        g = build_bipartite(["a", "b"], [], {"a": "L", "b": "L"})
        assert not g.edges

    def test_dangling_endpoint(self):
        with pytest.raises(UnknownNodeError):
            build_bipartite(["a"], [("a", "ghost")], {"a": "L"})


class TestBuildHexagonal:
    def test_triangle(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        assert len(g.edges) == 3
        assert {g.class_of[v] for v in g.nodes} == {"R", "G", "B"}

    def test_distance_two_no_edge(self):
        g = build_hexagonal({"a": (0, 0), "b": (2, 0)})
        assert not g.edges

    def test_row_of_three(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (2, 0)})
        assert g.edge_list() == [("a", "b"), ("b", "c")]
        assert [g.class_of[v] for v in ("a", "b", "c")] == ["R", "G", "B"]

    def test_duplicate_cell_rejected(self):
        with pytest.raises(InvalidEmbeddingError):
            build_hexagonal({"a": (0, 0), "b": (0, 0)})


class TestMaximalCliques:
    def test_path_of_three(self):
        g = build_path(3)
        assert set(maximal_cliques(g)) == {
            frozenset({"v1", "v2"}),
            frozenset({"v2", "v3"}),
        }

    def test_hex_triangle(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        assert maximal_cliques(g) == [frozenset({"a", "b", "c"})]

    def test_isolated_node(self):
        g = build_path(1)
        assert maximal_cliques(g) == [frozenset({"v1"})]


class TestCliqueWeight:
    def test_triangle(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        assert clique_weight(g, {"a": 2, "b": 1, "c": 1}) == 4

    def test_path_family_demands(self):
        g = build_path(4)
        assert clique_weight(g, {"v1": 10, "v2": 2, "v3": 2, "v4": 10}) == 12

    def test_all_zero(self):
        g = build_path(5)
        assert clique_weight(g, {v: 0 for v in g.nodes}) == 0


# -- properties -------------------------------------------------------------

cells_strategy = st.sets(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=10
)


@given(cells_strategy)
def test_hex_edges_never_join_same_class(cells):
    g = build_hexagonal({f"n{i}": c for i, c in enumerate(sorted(cells))})
    for e in g.edges:
        u, w = tuple(e)
        assert g.class_of[u] != g.class_of[w]


@given(cells_strategy)
@settings(max_examples=50)
def test_maximal_cliques_match_brute_force_hex(cells):
    g = build_hexagonal({f"n{i}": c for i, c in enumerate(sorted(cells))})
    assert set(maximal_cliques(g)) == brute_force_maximal_cliques(g)


@given(st.integers(1, 8), st.integers(0, 2 ** 16))
def test_maximal_cliques_match_brute_force_bipartite(n, mask):
    import random

    rng = random.Random(mask)
    nodes = [f"n{i}" for i in range(n)]
    partition = {v: rng.choice("LU") for v in nodes}
    edges = [
        (u, w)
        for i, u in enumerate(nodes)
        for w in nodes[i + 1:]
        if partition[u] != partition[w] and rng.random() < 0.5
    ]
    g = build_bipartite(nodes, edges, partition)
    cliques = maximal_cliques(g)
    assert set(cliques) == brute_force_maximal_cliques(g)
    # no clique contains another
    assert not any(a < b for a in cliques for b in cliques)


@given(cells_strategy, st.data())
def test_clique_weight_monotone(cells, data):
    g = build_hexagonal({f"n{i}": c for i, c in enumerate(sorted(cells))})
    demand = {v: data.draw(st.integers(0, 5)) for v in g.nodes}
    base = clique_weight(g, demand)
    bumped = dict(demand)
    v = data.draw(st.sampled_from(list(g.nodes)))
    bumped[v] += data.draw(st.integers(1, 5))
    assert clique_weight(g, bumped) >= base


@given(cells_strategy)
def test_hex_round_trip_adjacency(cells):
    g = build_hexagonal({f"n{i}": c for i, c in enumerate(sorted(cells))})
    rebuilt = build_hexagonal(g.cell_of)
    assert rebuilt.edges == g.edges
    assert rebuilt.class_of == g.class_of


# -- the adjacency index and the code built on it ---------------------------

def random_bipartite_graph(seed, n, density):
    """Seeded random bipartite graph; low densities leave isolated nodes."""
    import random

    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    partition = {v: rng.choice("LU") for v in nodes}
    edges = [(u, w) for i, u in enumerate(nodes) for w in nodes[i + 1:]
             if partition[u] != partition[w] and rng.random() < density]
    return build_bipartite(nodes, edges, partition)


def random_hex_graph(seed, n, extent):
    from multicolor.adversary import random_instance

    return random_instance("hexagonal", seed=seed, n_nodes=n, n_requests=0,
                           grid_extent=extent).graph


CROSS_CHECK_GRAPHS = (
    [build_path(k) for k in (1, 2, 3, 17)]
    + [random_bipartite_graph(s, n, d) for s in range(5) for n, d in ((12, 0.1), (60, 0.08))]
    + [random_hex_graph(s, n, e) for s in range(5) for n, e in ((10, 4), (90, 14), (200, 17))]
)


@pytest.mark.parametrize("g", CROSS_CHECK_GRAPHS, ids=lambda g: f"{g.kind}-{len(g.nodes)}")
def test_maximal_cliques_match_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = nx.Graph()
    ref.add_nodes_from(g.nodes)
    ref.add_edges_from(g.edge_list())
    cliques = maximal_cliques(g)
    assert set(cliques) == {frozenset(c) for c in nx.find_cliques(ref)}
    assert len(set(cliques)) == len(cliques)
    assert cliques == sorted(cliques, key=sorted)


def test_cross_check_graphs_have_isolated_nodes_and_triangles():
    def sizes(kind):
        return {len(c) for g in CROSS_CHECK_GRAPHS if g.kind == kind for c in maximal_cliques(g)}

    assert sizes("bipartite") == {1, 2}
    assert sizes("hexagonal") == {1, 2, 3}


@given(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40))
def test_hex_edges_match_all_pairs_reference(cells):
    coords = {f"n{i}": CellCoord(*c) for i, c in enumerate(sorted(cells))}
    g = build_hexagonal(coords)
    assert g.edges == frozenset(
        frozenset((u, w)) for u in coords for w in coords
        if (coords[w].q - coords[u].q, coords[w].r - coords[u].r) in HEX_OFFSETS
    )


def test_duplicate_cell_among_many_rejected():
    cells = {f"n{i}": (i % 7, i // 7) for i in range(30)}
    cells["z"] = (3, 2)
    with pytest.raises(InvalidEmbeddingError, match="'z'"):
        build_hexagonal(cells)


def test_adjacency_index_sorted_and_symmetric():
    g = random_bipartite_graph(3, 40, 0.2)
    for v in g.nodes:
        nbrs = list(g.neighbors(v))
        assert nbrs == sorted(nbrs)
        assert set(nbrs) == {w for e in g.edges if v in e for w in e - {v}}
        assert all(g.adjacent(v, w) and g.adjacent(w, v) for w in nbrs)
    assert not g.adjacent("n0", "n0") and not g.adjacent("n0", "missing")
    assert list(g.neighbors("missing")) == []


# -- the adjacency the builders make ----------------------------------------

def derived(g):
    """The same fields in a fresh Graph, which derives its adjacency from the edges."""
    fresh = Graph(g.kind, g.nodes, g.edges, g.partition, g.cell_of, g.class_of)
    assert "adjacency" not in fresh.__dict__  # not derived until first asked for
    return fresh


def assert_adjacency_as_derived(g):
    """g's adjacency equals the derived one in key order and neighbour order,
    and so do the edge list and the cliques built on it."""
    ref = derived(g)
    assert [(v, list(nbrs)) for v, nbrs in g.adjacency.items()] == [
        (v, list(nbrs)) for v, nbrs in ref.adjacency.items()]
    assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency.values())
    assert g.edge_list() == ref.edge_list() == sorted(tuple(sorted(e)) for e in g.edges)
    assert g.cliques == ref.cliques


def reloaded(inst):
    from multicolor.harness import instance_from_dict, instance_text

    return instance_from_dict(json.loads(instance_text(inst))).graph


@pytest.mark.parametrize("g", CROSS_CHECK_GRAPHS, ids=lambda g: f"{g.kind}-{len(g.nodes)}")
def test_builder_adjacency_is_the_derived_one(g):
    assert_adjacency_as_derived(g)


@pytest.mark.parametrize("make", [
    lambda: build_path(3), lambda: random_bipartite_graph(1, 12, 0.3),
    lambda: random_hex_graph(1, 10, 4), lambda: reloaded(path_family(40)[0]),
    lambda: reloaded(random_instance("bipartite", seed=1)),
    lambda: reloaded(random_instance("hexagonal", seed=1)),
], ids=["path", "bipartite", "hexagonal", "path-file", "bipartite-file", "hexagonal-file"])
def test_builders_hand_over_the_adjacency(make):
    assert "adjacency" in make().__dict__  # made with the graph, not derived later


def test_path_adjacency_in_node_order_with_names_out_of_sorted_order():
    g = build_path(12)
    assert "v10" < "v2" and list(g.adjacency) == list(g.nodes)
    assert list(g.neighbors("v9")) == ["v10", "v8"]
    assert_adjacency_as_derived(g)


def test_bipartite_file_with_an_edge_in_both_orientations():
    from multicolor.harness import instance_from_dict

    data = {"graph": {"kind": "bipartite", "nodes": ["c", "b", "a"],
                      "edges": [["a", "b"], ["b", "a"], ["c", "b"]],
                      "partition": {"a": "L", "b": "U", "c": "L"}}, "requests": []}
    g = instance_from_dict(data).graph
    assert g.edges == {frozenset("ab"), frozenset("bc")}
    assert dict(g.adjacency) == {"a": {"b": None}, "b": {"a": None, "c": None}, "c": {"b": None}}
    assert_adjacency_as_derived(g)


@pytest.mark.parametrize("make", [
    lambda: path_family(40)[2], lambda: hex_chain(3, (1, 0, 1)), lambda: hex_54(8, 1),
    lambda: random_instance("bipartite", seed=4), lambda: random_cancel_instance(seed=4),
    *(lambda s=s: random_instance("hexagonal", seed=s, n_nodes=10) for s in range(5)),
    lambda: random_instance("hexagonal", seed=1, n_nodes=200, n_requests=0, grid_extent=17),
])
def test_reloaded_graph_adjacency_is_the_derived_one(make):
    inst = make()
    g = reloaded(inst)
    assert list(g.adjacency) == list(g.nodes)  # a path file keeps its node order
    assert_adjacency_as_derived(g)
    assert_adjacency_as_derived(inst.graph)


@pytest.mark.parametrize("g", [build_path(11), CROSS_CHECK_GRAPHS[6], CROSS_CHECK_GRAPHS[-1]],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("copy_of", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_graph_derives_the_builder_adjacency(g, copy_of):
    twin = copy_of(g)
    assert twin == g
    assert "adjacency" not in twin.__dict__  # rebuilt through __init__, derived on first use
    assert [(v, list(n)) for v, n in twin.adjacency.items()] == [
        (v, list(n)) for v, n in g.adjacency.items()]
    assert twin.cliques == g.cliques
