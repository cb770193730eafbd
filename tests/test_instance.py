import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from multicolor.errors import MalformedInstanceError, MalformedLogError
from multicolor.graph import build_bipartite, build_hexagonal, build_path, clique_weight
from multicolor.instance import (
    CancelAction,
    ColorAction,
    ColoringState,
    Instance,
    Request,
    Violation,
    apply_step,
    demand,
    demand_clique_weight,
    peak_clique_load,
    validate_full,
)
from multicolor.oracle import Optimum
from conftest import clique_weight_by_cliques, peak_load_by_cliques


def edge_graph():
    return build_bipartite(["u", "w"], [("u", "w")], {"u": "L", "w": "U"})


@pytest.mark.parametrize("op, color, error", [
    ("cancel", None, "needs an integer color"), ("cancel", 0, "needs an integer color"),
    ("cancel", 2.5, "needs an integer color"), ("cancel", True, "needs an integer color"),
    ("cancel", "1", "needs an integer color"), ("color", 1, "takes no color, got 1"),
    ("color", [1], r"takes no color, got \[1\]"),
])
def test_request_color_checked(op, color, error):
    with pytest.raises(MalformedInstanceError, match=error):
        Request("u", op, cancel_color=color)
    assert Request("u", op, cancel_color=1 if op == "cancel" else None).op == op


class TestApply:
    def test_edge_conflict(self):
        g = edge_graph()
        state = ColoringState(graph=g, f={"u": frozenset({1})})
        result = apply_step(state, Request("w", "color"), ColorAction(1))
        assert isinstance(result, Violation)
        assert result.kind == "edge-conflict"

    def test_second_color_at_node(self):
        g = edge_graph()
        state = ColoringState(graph=g, f={"u": frozenset({1})})
        result = apply_step(state, Request("u", "color"), ColorAction(2))
        assert result.colors_at("u") == {1, 2}

    def test_cancel_with_recolor(self):
        g = edge_graph()
        state = ColoringState(graph=g, f={"u": frozenset({1, 2})})
        result = apply_step(
            state, Request("u", "cancel", cancel_color=1), CancelAction(recolor=(2, 1))
        )
        assert result.colors_at("u") == {1}

    def test_cancel_absent_color(self):
        g = edge_graph()
        state = ColoringState(graph=g, f={"u": frozenset({1})})
        result = apply_step(state, Request("u", "cancel", cancel_color=3), CancelAction())
        assert isinstance(result, Violation)
        assert result.kind == "bad-cancel"

    def test_violation_leaves_state_untouched(self):
        g = edge_graph()
        state = ColoringState(graph=g, f={"u": frozenset({1})})
        before = dict(state.f)
        result = apply_step(state, Request("u", "color"), ColorAction(1))
        assert isinstance(result, Violation)
        assert result.kind == "node-duplicate"
        assert state.f == before and state.step == 0

    def test_request_to_unknown_node_raises(self):
        state = ColoringState(build_path(2))
        with pytest.raises(MalformedInstanceError, match="^request to unknown node 'zz'$"):
            apply_step(state, Request("zz", "color"), ColorAction(1))
        assert state.f == {} and state.step == 0


class TestValidateFull:
    def test_legal_run_ok(self):
        g = edge_graph()
        inst = Instance(g, (Request("u", "color"), Request("w", "color")))
        assert validate_full(inst, [ColorAction(1), ColorAction(2)]) is None

    def test_adjacent_duplicate_flagged_at_first_bad_step(self):
        g = edge_graph()
        inst = Instance(g, (Request("u", "color"), Request("w", "color")))
        v = validate_full(inst, [ColorAction(1), ColorAction(1)])
        assert v.kind == "edge-conflict" and v.step == 2

    def test_color_zero_invalid(self):
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"),))
        v = validate_full(inst, [ColorAction(0)])
        assert v.kind == "invalid-color"

    def test_length_mismatch(self):
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"),))
        with pytest.raises(MalformedLogError):
            validate_full(inst, [])


class TestDemand:
    def test_counts(self):
        g = edge_graph()
        inst = Instance(g, (Request("u", "color"), Request("u", "color"), Request("w", "color")))
        assert demand(inst) == {"u": 2, "w": 1}

    def test_empty(self):
        g = edge_graph()
        inst = Instance(g, ())
        assert demand(inst) == {"u": 0, "w": 0}

    def test_path_family_i2(self, path_i2):
        assert {v: c for v, c in demand(path_i2).items() if c} == {
            "v1": 10, "v4": 10, "v2": 2, "v3": 2, "v6": 6, "v8": 5, "v10": 5,
        }

    def test_cancellations_do_not_decrement(self):
        g = edge_graph()
        inst = Instance(g, (Request("u", "color"), Request("u", "cancel", cancel_color=1)))
        assert demand(inst)["u"] == 1


@pytest.mark.parametrize("ops", [(), ("color",), ("color", "cancel"), ("cancel", "color", "color")])
def test_has_cancellations_is_recorded_once_and_is_not_a_field(ops):
    """Whether any request cancels is kept through copy and pickle, and left
    out of equality and repr."""
    g = build_path(1)
    inst = Instance(g, tuple(Request("v1", op, cancel_color=1 if op == "cancel" else None)
                             for op in ops))
    for other in (inst, copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert other.has_cancellations() is ("cancel" in ops)
        assert other == inst and repr(other) == repr(inst)


class TestPeakCliqueLoad:
    def test_cancel_dip(self):
        g = edge_graph()
        reqs = (
            Request("u", "color"),
            Request("w", "color"),
            Request("u", "cancel", cancel_color=1),
            Request("w", "color"),
        )
        assert peak_clique_load(Instance(g, reqs)) == 2

    def test_empty(self):
        assert peak_clique_load(Instance(edge_graph(), ())) == 0

    def test_cancel_of_idle_node_rejected(self):
        g = edge_graph()
        inst = Instance(g, (Request("u", "cancel", cancel_color=1),))
        with pytest.raises(MalformedInstanceError):
            peak_clique_load(inst)

    def test_cancel_then_repeat(self):
        g = edge_graph()
        reqs = (
            Request("u", "color"),
            Request("u", "cancel", cancel_color=1),
            Request("u", "color"),
        )
        assert peak_clique_load(Instance(g, reqs)) == 1


@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(0, 20))
@settings(max_examples=50)
def test_peak_equals_clique_weight_without_cancellations(seed, n_nodes, n_requests):
    from multicolor.adversary import random_instance

    inst = random_instance("bipartite", seed=seed, n_nodes=n_nodes, n_requests=n_requests)
    assert peak_clique_load(inst) == demand_clique_weight(inst)


def test_replay_determinism(path_i2):
    from conftest import witness_actions
    from multicolor.oracle import opt_exact

    actions = witness_actions(path_i2, opt_exact(path_i2).coloring)
    assert validate_full(path_i2, actions) is None
    assert validate_full(path_i2, actions) is None


# -- incremental peak load and in-place validation --------------------------

@pytest.mark.parametrize("seed", range(100))
def test_peak_clique_load_matches_brute_force(seed):
    from multicolor.adversary import random_cancel_instance

    inst = random_cancel_instance(seed=seed, n_nodes=3 + seed % 12, n_requests=10 + seed)
    assert peak_clique_load(inst) == peak_load_by_cliques(inst)


@st.composite
def triangle_free_instances(draw):
    """A path, or a bipartite graph whose nodes may be isolated, with up to
    30 color and cancel requests; a cancel may find no live request."""
    if draw(st.booleans()):
        graph = build_path(draw(st.integers(1, 8)))
    else:
        nodes = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
        partition = {v: draw(st.sampled_from("LU")) for v in nodes}
        pairs = [(u, w) for i, u in enumerate(nodes) for w in nodes[i + 1:]
                 if partition[u] != partition[w]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = build_bipartite(nodes, edges, partition)
    return Instance(graph, draw_requests(draw, graph))


def draw_requests(draw, graph):
    """Up to 30 color and cancel requests to the graph's nodes; a cancel
    may find no live request."""
    ops = draw(st.lists(st.tuples(st.sampled_from(graph.nodes), st.sampled_from("cccx")),
                        max_size=30))
    idle_cancels = draw(st.booleans())
    live, requests = dict.fromkeys(graph.nodes, 0), []
    for v, op in ops:
        if op == "x" and (live[v] or idle_cancels):
            requests.append(Request(v, "cancel", cancel_color=1))
            live[v] -= 1
        else:
            requests.append(Request(v, "color"))
            live[v] += 1
    return tuple(requests)


def check_peak_load_by_cliques(inst):
    """peak_clique_load equals the clique re-sum, or raises its error, same
    text and same step."""
    try:
        expected = peak_load_by_cliques(inst)
    except MalformedInstanceError as exc:
        with pytest.raises(MalformedInstanceError) as raised:
            peak_clique_load(inst)
        assert str(raised.value) == str(exc)
    else:
        assert peak_clique_load(inst) == expected


@given(triangle_free_instances())
@settings(max_examples=300)
def test_triangle_free_peak_load_equals_the_clique_reference(inst):
    """peak_clique_load from node loads equals the clique re-sum."""
    check_peak_load_by_cliques(inst)


@given(triangle_free_instances(), st.data())
@settings(max_examples=300)
def test_triangle_free_omega_equals_the_clique_reference(inst, data):
    """omega from node and edge demands equals the largest clique sum, for
    the instance's demand (also through Optimum) and for any demand of
    some of the nodes."""
    g, dem = inst.graph, demand(inst)
    assert clique_weight(g, dem) == clique_weight_by_cliques(g, dem) == Optimum(inst).omega
    some = data.draw(st.dictionaries(st.sampled_from(g.nodes), st.integers(0, 50)))
    assert clique_weight(g, some) == clique_weight_by_cliques(g, some)


@pytest.mark.parametrize("requests, expected", [
    ((), 0),
    ((("a", "color"),), 1),
    ((("a", "color"), ("a", "color"), ("z", "color")), 2),
    ((("z", "color"),) * 3 + (("a", "color"), ("b", "color")), 3),
    ((("a", "color"), ("b", "color"), ("a", "cancel"), ("b", "color"), ("z", "color")), 2),
    ((("a", "color"), ("b", "color"), ("b", "cancel"), ("b", "cancel")),
     "step 4: cancellation at 'b' with no live request"),
])
def test_triangle_free_loads_with_an_isolated_node(requests, expected):
    """The edge a-b and the isolated node z: omega and the peak load agree
    with the clique reference, and a second cancel at b names step 4."""
    g = build_bipartite(["a", "b", "z"], [("a", "b")], {"a": "L", "b": "U", "z": "L"})
    check_loads(g, requests, expected)


def check_loads(g, requests, expected):
    """The peak load of the (node, op) requests on g, and omega when none
    cancels, equal the clique reference and expected, or both raise the
    error text expected."""
    inst = Instance(g, tuple(Request(v, op, cancel_color=1 if op == "cancel" else None)
                             for v, op in requests))
    if isinstance(expected, str):
        with pytest.raises(MalformedInstanceError, match=f"^{expected}$"):
            peak_clique_load(inst)
        with pytest.raises(MalformedInstanceError, match=f"^{expected}$"):
            peak_load_by_cliques(inst)
        return
    assert peak_clique_load(inst) == peak_load_by_cliques(inst) == expected
    if not inst.has_cancellations():
        assert demand_clique_weight(inst) == clique_weight_by_cliques(g, demand(inst)) == expected


@st.composite
def hexagonal_instances(draw):
    """Up to 12 cells of a 6 x 6 patch, so triangles, edges in no triangle
    and isolated cells all occur, with draw_requests' requests."""
    cells = draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                         max_size=12))
    graph = build_hexagonal({f"n{i}": cell for i, cell in enumerate(sorted(cells))})
    return Instance(graph, draw_requests(draw, graph))


@given(hexagonal_instances(), st.data())
@settings(max_examples=300)
def test_hexagonal_loads_equal_the_clique_reference(inst, data):
    """On a hexagonal graph the peak load equals the clique re-sum, and
    omega the largest clique sum for any demand of some of the nodes."""
    check_peak_load_by_cliques(inst)
    g = inst.graph
    some = data.draw(st.dictionaries(st.sampled_from(g.nodes), st.integers(0, 50)))
    assert clique_weight(g, some) == clique_weight_by_cliques(g, some)


@pytest.mark.parametrize("requests, expected", [
    ((), 0),
    ((("z", "color"),) * 3 + (("a", "color"),), 3),
    ((("d", "color"), ("d", "color"), ("e", "color"), ("a", "color")), 3),
    ((("a", "color"), ("b", "color"), ("c", "color"), ("d", "color")), 3),
    ((("a", "color"), ("b", "color"), ("a", "cancel"), ("c", "color"), ("e", "color")), 2),
    ((("a", "color"), ("d", "color"), ("z", "color"), ("d", "cancel"), ("d", "cancel")),
     "step 5: cancellation at 'd' with no live request"),
])
def test_hexagonal_loads_with_a_lone_edge_and_an_isolated_cell(requests, expected):
    """The triangle a-b-c, the edge d-e in no triangle and the isolated cell
    z: omega and the peak load agree with the clique reference, and a second
    cancel at d names step 5."""
    g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (4, 0), "e": (5, 0),
                         "z": (8, 0)})
    assert sorted(map(sorted, g.cliques)) == [["a", "b", "c"], ["d", "e"], ["z"]]
    check_loads(g, requests, expected)


def star():
    """Centre c joined to the leaves a, b, d, e."""
    leaves = ["a", "b", "d", "e"]
    return build_bipartite(["c"] + leaves, [("c", v) for v in leaves],
                           {"c": "L", **{v: "U" for v in leaves}})


def test_edge_conflict_names_smallest_neighbour():
    reqs = tuple(Request(v, "color") for v in ("e", "d", "b", "a", "c"))
    v = validate_full(Instance(star(), reqs), [ColorAction(1)] * 5)
    assert v == Violation(step=5, kind="edge-conflict", node="c", color=1, other_node="a")


def test_recolor_violation_leaves_state_untouched():
    state = ColoringState(graph=edge_graph(), f={"u": frozenset({1, 2}), "w": frozenset({3})})
    result = apply_step(state, Request("u", "cancel", cancel_color=1), CancelAction(recolor=(2, 3)))
    assert result.kind == "edge-conflict" and result.other_node == "w"
    assert state.f == {"u": {1, 2}, "w": {3}}


def replay_apply_step(inst, actions):
    """Reference validator: the pure apply_step, one step at a time."""
    state = ColoringState(graph=inst.graph)
    for request, action in zip(inst.requests, actions):
        state = apply_step(state, request, action)
        if isinstance(state, Violation):
            return state
    return None


@given(st.integers(0, 500), st.data())
@settings(max_examples=300, deadline=None)
def test_validate_full_matches_apply_step_on_corrupted_logs(seed, data):
    from multicolor.adversary import random_cancel_instance
    from multicolor.algorithms import greedy_cancel
    from multicolor.oracle import Optimum, advice_cancel

    inst = random_cancel_instance(seed=seed, n_nodes=6, n_requests=30)
    actions = greedy_cancel(inst.graph, advice_cancel(Optimum(inst)), inst.requests)
    assert validate_full(inst, actions) is None
    colors = st.integers(-1, 10)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, inst.n - 1))
        r = inst.requests[i]
        kind = data.draw(st.sampled_from(["wrong-color", "duplicate", "bad-cancel", "bad-recolor"]))
        if kind == "wrong-color":
            actions[i] = ColorAction(data.draw(colors))
        elif kind == "duplicate":
            earlier = [a.color for a, q in zip(actions[:i], inst.requests)
                       if q.node == r.node and isinstance(a, ColorAction)]
            actions[i] = ColorAction(data.draw(st.sampled_from(earlier)) if earlier else 1)
        elif kind == "bad-cancel":
            actions[i] = ColorAction(1) if r.op == "cancel" else CancelAction()
        else:
            actions[i] = CancelAction(recolor=(data.draw(colors), data.draw(colors)))
    assert validate_full(inst, actions) == replay_apply_step(inst, actions)


def played_log(kind, seed):
    """A seeded instance and its legal log: greedy_cancel on a random
    cancellation instance, fpa on a hexagonal one, greedy_opt otherwise."""
    from multicolor.adversary import random_cancel_instance, random_instance
    from multicolor.algorithms import run_player
    from multicolor.harness import make_advice

    if kind == "cancel":
        inst, algo = random_cancel_instance(seed=seed, n_nodes=6, n_requests=30), "greedy_cancel"
    else:
        inst = random_instance(kind, seed=seed, n_nodes=6, n_requests=20)
        algo = "fpa" if kind == "hexagonal" else "greedy_opt"
    return inst, run_player(algo, inst.graph, make_advice(inst, algo), inst.requests)


@given(st.sampled_from(["bipartite", "hexagonal", "cancel"]), st.integers(0, 500), st.data())
@settings(max_examples=300, deadline=None)
def test_bulk_validation_matches_apply_step(kind, seed, data):
    """Logs with and without cancellations, left legal or corrupted by a
    color below 1, a node's or a neighbour's color, or an action of the
    wrong type."""
    inst, actions = played_log(kind, seed)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, inst.n - 1))
        v = inst.requests[i].node
        held = {a.color for a, q in zip(actions, inst.requests)
                if isinstance(a, ColorAction) and q.node in inst.graph.adjacency[v]}
        actions[i] = data.draw(st.one_of(
            st.builds(ColorAction, st.integers(-1, 10)),
            st.builds(ColorAction, st.sampled_from(sorted(held) or [1])),
            st.sampled_from([None, 3, CancelAction(), CancelAction(recolor=(1, 2))])))
    assert validate_full(inst, actions) == replay_apply_step(inst, actions)


def test_legal_cancellation_free_log_is_not_replayed(monkeypatch):
    from multicolor import instance

    calls = []
    serve = instance._serve
    monkeypatch.setattr(instance, "_serve", lambda *args: calls.append(args) or serve(*args))
    for kind in ("bipartite", "hexagonal"):
        assert validate_full(*played_log(kind, 4)) is None
    assert calls == []
    assert validate_full(*played_log("cancel", 4)) is None
    assert calls


def test_edge_conflict_names_the_first_step_and_its_holder():
    from multicolor.adversary import random_instance
    from multicolor.algorithms import run_player
    from multicolor.harness import make_advice

    inst = random_instance("bipartite", seed=4, n_nodes=8, n_requests=20)
    actions = run_player("greedy_opt", inst.graph, make_advice(inst, "greedy_opt"), inst.requests)
    assert validate_full(inst, actions) is None
    # n1 is joined to n0, n5 and n7, which all take color 1; at step 5 only n5 holds it
    actions[4] = ColorAction(1)
    assert validate_full(inst, actions) == Violation(step=5, kind="edge-conflict", node="n1",
                                                     color=1, other_node="n5")


def test_color_action_on_the_only_cancellation_is_a_bad_cancel():
    inst = Instance(build_path(1),
                    (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
    actions = [ColorAction(1), ColorAction(2)]
    assert (validate_full(inst, actions) == replay_apply_step(inst, actions)
            == Violation(step=2, kind="bad-cancel", node="v1", color=1))


def test_a_color_that_does_not_compare_is_left_to_the_replay():
    inst = Instance(edge_graph(), tuple(Request(v, "color") for v in ("u", "w", "w")))
    actions = [ColorAction(1), ColorAction(1), ColorAction(None)]
    assert validate_full(inst, actions) == Violation(step=2, kind="edge-conflict", node="w",
                                                     color=1, other_node="u")
    with pytest.raises(TypeError):
        validate_full(inst, [ColorAction(1), ColorAction(2), ColorAction(None)])
