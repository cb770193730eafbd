import copy
import json
import pickle
from itertools import combinations

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
        assert g.edge_list() == []
        assert g.partition == {"v1": "L"}

    def test_three_nodes(self):
        g = build_path(3)
        assert g.edge_list() == [("v1", "v2"), ("v2", "v3")]
        assert [g.partition[v] for v in g.nodes] == ["L", "U", "L"]

    def test_ten_nodes_alternation(self):
        g = build_path(10)
        assert len(g.edge_list()) == 9
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
        assert list(g.adjacency["c"]) == ["l1", "l2", "l3"]

    def test_triangle_rejected(self):
        with pytest.raises(NotBipartiteError):
            build_bipartite(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("a", "c")],
                {"a": "L", "b": "U", "c": "L"},
            )

    def test_empty_edges_ok(self):
        g = build_bipartite(["a", "b"], [], {"a": "L", "b": "L"})
        assert g.edge_list() == []

    def test_dangling_endpoint(self):
        with pytest.raises(UnknownNodeError):
            build_bipartite(["a"], [("a", "ghost")], {"a": "L"})

    def test_self_loop_rejected(self):
        with pytest.raises(NotBipartiteError, match="self-loop at 'a'"):
            build_bipartite(["a"], [("a", "a")], {"a": "L"})


class TestBuildHexagonal:
    def test_triangle(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        assert len(g.edge_list()) == 3
        assert {g.class_of[v] for v in g.nodes} == {"R", "G", "B"}

    def test_distance_two_no_edge(self):
        g = build_hexagonal({"a": (0, 0), "b": (2, 0)})
        assert g.edge_list() == []

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
    for u, w in g.edge_list():
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
    assert rebuilt.edge_list() == g.edge_list()
    assert rebuilt.class_of == g.class_of


# -- the adjacency index and the code built on it ---------------------------

def random_bipartite_spec(seed, n, density):
    """Nodes, edge pairs and sides of a seeded random bipartite graph; low
    densities leave isolated nodes."""
    import random

    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    partition = {v: rng.choice("LU") for v in nodes}
    edges = [(u, w) for i, u in enumerate(nodes) for w in nodes[i + 1:]
             if partition[u] != partition[w] and rng.random() < density]
    return nodes, edges, partition


def random_bipartite_graph(seed, n, density):
    return build_bipartite(*random_bipartite_spec(seed, n, density))


def random_hex_graph(seed, n, extent):
    from multicolor.adversary import random_instance

    return random_instance("hexagonal", seed=seed, n_nodes=n, n_requests=0,
                           grid_extent=extent).graph


def path_pairs(k):
    return [(f"v{i}", f"v{i + 1}") for i in range(1, k)]


def hex_pairs(cells):
    """The all-pairs offset reference: each pair of nodes whose (q, r) cells
    are one axial offset apart, in both orientations."""
    return [(u, w) for u in cells for w in cells
            if (cells[w][0] - cells[u][0], cells[w][1] - cells[u][1]) in HEX_OFFSETS]


def cell_pairs(g):
    return hex_pairs(g.cell_of)


# (graph, the edge pairs it was built from)
CROSS_CHECK = (
    [(build_path(k), path_pairs(k)) for k in (1, 2, 3, 17)]
    + [(build_bipartite(*spec), spec[1]) for s in range(5) for n, d in ((12, 0.1), (60, 0.08))
       for spec in [random_bipartite_spec(s, n, d)]]
    + [(g, cell_pairs(g)) for s in range(5) for n, e in ((10, 4), (90, 14), (200, 17))
       for g in [random_hex_graph(s, n, e)]]
)
CROSS_CHECK_GRAPHS = [g for g, _ in CROSS_CHECK]


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
    coords = {f"n{i}": c for i, c in enumerate(sorted(cells))}
    g = build_hexagonal(coords)
    assert g.edge_list() == sorted((u, w) for u, w in hex_pairs(coords) if u < w)


def test_duplicate_cell_among_many_rejected():
    cells = {f"n{i}": (i % 7, i // 7) for i in range(30)}
    cells["z"] = (3, 2)
    with pytest.raises(InvalidEmbeddingError, match="'z'"):
        build_hexagonal(cells)


def test_adjacency_index_sorted_and_symmetric():
    nodes, pairs, sides = random_bipartite_spec(3, 40, 0.2)
    g = build_bipartite(nodes, pairs, sides)
    for v in g.nodes:
        nbrs = list(g.adjacency[v])
        assert nbrs == sorted(nbrs)
        assert set(nbrs) == {w for e in pairs if v in e for w in e if w != v}
        assert all(v in g.adjacency[w] for w in nbrs)
    assert "n0" not in g.adjacency["n0"] and "missing" not in g.adjacency


# -- the adjacency the builders make ----------------------------------------

def reference_cliques(nbrs):
    """The maximal cliques of a graph with no K4 (as none of the three kinds
    has), from node -> set of neighbours: triangles, edges in no triangle and
    isolated nodes, sorted by their sorted members."""
    cliques = {frozenset((u, w, x)) for u in nbrs for w, x in combinations(nbrs[u], 2)
               if x in nbrs[w]}
    cliques |= {frozenset((u, w)) for u in nbrs for w in nbrs[u] if not nbrs[u] & nbrs[w]}
    cliques |= {frozenset((v,)) for v in nbrs if not nbrs[v]}
    return sorted(cliques, key=sorted)


def assert_adjacency_from_pairs(g, pairs):
    """g's adjacency, against a reference derived from the edge pairs: keyed
    in node order, each neighbour dict sorted, symmetric, and the same
    neighbours; the edge list and the cliques agree with it too."""
    ref = {v: set() for v in g.nodes}
    for u, w in pairs:
        ref[u].add(w)
        ref[w].add(u)
    assert list(g.adjacency) == list(g.nodes)
    assert [(v, list(nbrs)) for v, nbrs in g.adjacency.items()] == [
        (v, sorted(ref[v])) for v in g.nodes]
    assert all(u in g.adjacency[w] for u, nbrs in g.adjacency.items() for w in nbrs)
    assert g.edge_list() == sorted({(u, w) if u < w else (w, u) for u, w in pairs})
    assert maximal_cliques(g) == reference_cliques(ref)


def file_pairs(gd):
    """The edge pairs an instance file's graph names: its edges, else the
    all-pairs offset reference over its cells."""
    return gd["edges"] if "edges" in gd else hex_pairs(gd["cells"])


def reloaded(inst):
    from multicolor.harness import instance_from_dict, instance_text

    return instance_from_dict(json.loads(instance_text(inst))).graph


@pytest.mark.parametrize("g, pairs", CROSS_CHECK,
                         ids=[f"{g.kind}-{len(g.nodes)}" for g in CROSS_CHECK_GRAPHS])
def test_builder_adjacency_is_the_derived_one(g, pairs):
    assert_adjacency_from_pairs(g, pairs)


@pytest.mark.parametrize("make", [
    lambda: build_path(3), lambda: random_bipartite_graph(1, 12, 0.3),
    lambda: random_hex_graph(1, 10, 4), lambda: reloaded(path_family(40)[0]),
    lambda: reloaded(random_instance("bipartite", seed=1)),
    lambda: reloaded(random_instance("hexagonal", seed=1)),
], ids=["path", "bipartite", "hexagonal", "path-file", "bipartite-file", "hexagonal-file"])
def test_builders_hand_over_the_adjacency(make):
    g = make()
    assert not hasattr(g, "__dict__")  # the adjacency is a field: nothing is derived or cached
    assert list(g.adjacency) == list(g.nodes)
    assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency.values())


def test_path_adjacency_in_node_order_with_names_out_of_sorted_order():
    g = build_path(12)
    assert "v10" < "v2" and list(g.adjacency) == list(g.nodes)
    assert list(g.adjacency["v9"]) == ["v10", "v8"]
    assert_adjacency_from_pairs(g, path_pairs(12))


def test_bipartite_file_with_an_edge_in_both_orientations():
    from multicolor.harness import instance_from_dict

    data = {"graph": {"kind": "bipartite", "nodes": ["c", "b", "a"],
                      "edges": [["a", "b"], ["b", "a"], ["c", "b"]],
                      "partition": {"a": "L", "b": "U", "c": "L"}}, "requests": []}
    g = instance_from_dict(data).graph
    assert g.edge_list() == [("a", "b"), ("b", "c")]
    assert dict(g.adjacency) == {"a": {"b": None}, "b": {"a": None, "c": None}, "c": {"b": None}}
    assert_adjacency_from_pairs(g, data["graph"]["edges"])


@pytest.mark.parametrize("make", [
    lambda: path_family(40)[2], lambda: hex_chain(3, (1, 0, 1)), lambda: hex_54(8, 1),
    lambda: random_instance("bipartite", seed=4), lambda: random_cancel_instance(seed=4),
    *(lambda s=s: random_instance("hexagonal", seed=s, n_nodes=10) for s in range(5)),
    lambda: random_instance("hexagonal", seed=1, n_nodes=200, n_requests=0, grid_extent=17),
])
def test_reloaded_graph_adjacency_is_the_derived_one(make):
    from multicolor.harness import instance_from_dict, instance_text

    inst = make()
    data = json.loads(instance_text(inst))
    g = instance_from_dict(data).graph
    assert list(g.adjacency) == data["graph"]["nodes"]  # a path file keeps its node order
    assert_adjacency_from_pairs(g, file_pairs(data["graph"]))
    assert_adjacency_from_pairs(inst.graph, file_pairs(data["graph"]))


@pytest.mark.parametrize("g", [build_path(11), CROSS_CHECK_GRAPHS[6], CROSS_CHECK_GRAPHS[-1]],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("copy_of", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_graph_derives_the_builder_adjacency(g, copy_of):
    twin = copy_of(g)
    assert twin == g and twin.adjacency is not g.adjacency  # rebuilt through __init__
    assert [(v, list(n)) for v, n in twin.adjacency.items()] == [
        (v, list(n)) for v, n in g.adjacency.items()]
    assert maximal_cliques(twin) == maximal_cliques(g)


@pytest.mark.parametrize("g", [build_path(11), CROSS_CHECK_GRAPHS[6], CROSS_CHECK_GRAPHS[-1]],
                         ids=lambda g: g.kind)
def test_maximal_cliques_lists_anew_on_each_call(g):
    first, second = maximal_cliques(g), maximal_cliques(g)
    assert first == second and first is not second
    first.clear()  # a caller may mutate its list: the next one is whole
    assert second and second == maximal_cliques(g)


@given(st.data())
def test_bipartite_adjacency_from_repeated_reversed_shuffled_pairs(data):
    nodes = data.draw(st.permutations([f"n{i}" for i in range(data.draw(st.integers(1, 12)))]))
    sides = {v: data.draw(st.sampled_from("LU")) for v in nodes}
    cross = [(u, w) for u, w in combinations(nodes, 2) if sides[u] != sides[w]]
    pairs = data.draw(st.lists(st.sampled_from(cross), max_size=40)) if cross else []
    pairs += [(w, u) for u, w in pairs if data.draw(st.booleans())]  # both orientations
    pairs = data.draw(st.permutations(pairs))
    assert_adjacency_from_pairs(build_bipartite(nodes, pairs, sides), pairs)
