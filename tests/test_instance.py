import pytest
from hypothesis import given, settings, strategies as st

from multicolor.errors import MalformedInstanceError, MalformedLogError
from multicolor.graph import build_bipartite, build_path
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

def brute_force_peak(inst):
    """Re-sum every maximal clique after every request."""
    from multicolor.graph import maximal_cliques

    cliques = maximal_cliques(inst.graph)
    live = {v: 0 for v in inst.graph.nodes}
    peak = 0
    for r in inst.requests:
        live[r.node] += 1 if r.op == "color" else -1
        peak = max(peak, max((sum(live[v] for v in c) for c in cliques), default=0))
    return peak


@pytest.mark.parametrize("seed", range(100))
def test_peak_clique_load_matches_brute_force(seed):
    from multicolor.adversary import random_cancel_instance

    inst = random_cancel_instance(seed=seed, n_nodes=3 + seed % 12, n_requests=10 + seed)
    assert peak_clique_load(inst) == brute_force_peak(inst)


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
    from multicolor.oracle import advice_cancel

    inst = random_cancel_instance(seed=seed, n_nodes=6, n_requests=30)
    actions = greedy_cancel(inst.graph, advice_cancel(inst), inst.requests)
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
