import os
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import oracle
from multicolor.adversary import hex_chain, path_family, random_instance
from multicolor.advice import enc, enc_len
from multicolor.errors import BudgetExceededError, DomainError
from multicolor.graph import (HEX_OFFSETS, build_bipartite, build_hexagonal, build_path,
                              maximal_cliques)
from multicolor.instance import Instance, Request, demand, demand_clique_weight, validate_full
from multicolor.oracle import (
    advice_43,
    advice_cancel,
    advice_fpa,
    advice_greedyopt,
    advice_trivial,
    advice_truncated,
    Optimum,
    opt_bipartite,
    opt_exact,
    plan_43,
)
from conftest import witness_actions


def single_node(demand_count):
    g = build_path(1)
    return Instance(g, tuple(Request("v1", "color") for _ in range(demand_count)))


def hex_triangle_211():
    g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    reqs = ["a", "a", "b", "c"]
    return Instance(g, tuple(Request(v, "color") for v in reqs))


def edge_instance(n_u, n_w):
    g = build_bipartite(["u", "w"], [("u", "w")], {"u": "L", "w": "U"})
    reqs = [Request("u", "color")] * n_u + [Request("w", "color")] * n_w
    return Instance(g, tuple(reqs))


class TestOptExact:
    def test_single_node(self):
        assert opt_exact(single_node(5)).opt_value == 5

    def test_path_family_value(self, path_i2):
        assert opt_exact(path_i2).opt_value == 12

    def test_hex_triangle(self):
        w = opt_exact(hex_triangle_211())
        assert w.opt_value == 4

    def test_witness_is_valid_and_sized(self):
        inst = hex_triangle_211()
        w = opt_exact(inst)
        assert validate_full(inst, witness_actions(inst, w.coloring)) is None
        dem = demand(inst)
        assert all(len(w.coloring[v]) == dem[v] for v in inst.graph.nodes)
        assert max(max(s) for s in w.coloring.values() if s) == w.opt_value

    def test_budget_carries_lower_bound(self):
        inst = single_node(3)
        with pytest.raises(BudgetExceededError) as exc:
            opt_exact(inst, max_requests=2)
        assert exc.value.lower_bound == 3

    def test_rejects_cancellations(self):
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
        with pytest.raises(DomainError):
            opt_exact(inst)


class TestOptBipartite:
    def test_path_family(self, path_i2):
        assert opt_bipartite(path_i2) == 12

    def test_star(self):
        g = build_bipartite(
            ["c", "l1", "l2", "l3"],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
            {"c": "U", "l1": "L", "l2": "L", "l3": "L"},
        )
        reqs = [Request("c", "color")] * 3 + [Request("l1", "color")] * 2
        reqs += [Request("l2", "color")] * 4 + [Request("l3", "color")] * 1
        inst = Instance(g, tuple(reqs))
        assert opt_bipartite(inst) == 7
        assert opt_exact(inst).opt_value == 7

    def test_isolated_node(self):
        assert opt_bipartite(single_node(7)) == 7

    def test_wrong_kind(self):
        with pytest.raises(DomainError):
            opt_bipartite(hex_triangle_211())


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_exact_search(seed):
    inst = random_instance("bipartite", seed=seed, n_nodes=8, n_requests=24)
    assert opt_bipartite(inst) == opt_exact(inst).opt_value


class TestClosedFormWitness:
    """Optimum.witness on a cancellation-free path or bipartite instance is
    the closed form: valid, and using exactly Opt colors."""

    @staticmethod
    def check(inst):
        witness, opt = Optimum(inst).witness, opt_bipartite(inst)
        assert witness.opt_value == opt
        assert validate_full(inst, witness_actions(inst, witness.coloring)) is None
        assert set().union(*witness.coloring.values()) == set(range(1, opt + 1))

    def test_acceptance_bipartite_corpus(self):
        for seed in range(500):
            self.check(random_instance("bipartite", seed=seed,
                                       n_nodes=3 + seed % 8, n_requests=6 + seed % 25))

    def test_path_family(self):
        for inst in path_family(40):
            self.check(inst)

    def test_empty_and_isolated(self):
        self.check(Instance(build_path(3), ()))
        self.check(single_node(4))

    def test_hexagonal_and_cancellations_still_search(self):
        assert Optimum(hex_triangle_211()).witness == opt_exact(hex_triangle_211())
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
        with pytest.raises(DomainError):
            Optimum(inst).witness


class TestAdviceGreedyOpt:
    def test_tape_is_enc_opt(self):
        inst = edge_instance(2, 1)  # Opt = 3
        assert advice_greedyopt(inst).bits == enc(3)

    def test_path_family(self, path_i2):
        assert advice_greedyopt(path_i2).bits == enc(12)

    def test_empty_instance(self):
        inst = Instance(build_path(2), ())
        assert advice_greedyopt(inst).to_string() == "0"


class TestAdviceTruncated:
    def test_opt_13_b2(self):
        inst = edge_instance(6, 7)  # Opt = 13 = 1101b
        tape = advice_truncated(inst, 2)
        assert tape.bits == [1, 1] + enc(2)

    def test_opt_8_b2(self):
        inst = edge_instance(3, 5)  # Opt = 8 = 1000b
        tape = advice_truncated(inst, 2)
        assert tape.bits == [1, 0] + enc(2)

    def test_small_opt_padded(self):
        inst = edge_instance(2, 1)  # Opt = 3, fits in b=4
        tape = advice_truncated(inst, 4)
        assert tape.bits == [0, 0, 1, 1] + enc(0)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            advice_truncated(edge_instance(1, 1), 0)


class TestAdviceCancel:
    def test_peak_load_encoded(self):
        g = build_bipartite(["u", "w"], [("u", "w")], {"u": "L", "w": "U"})
        reqs = (
            Request("u", "color"),
            Request("w", "color"),
            Request("u", "cancel", cancel_color=1),
            Request("w", "color"),
        )
        assert advice_cancel(Instance(g, reqs)).bits == enc(2)

    def test_matches_greedyopt_without_cancellations(self, path_i2):
        assert advice_cancel(path_i2).bits == advice_greedyopt(path_i2).bits

    def test_cancel_and_repeat(self):
        g = build_path(1)
        reqs = (
            Request("v1", "color"),
            Request("v1", "cancel", cancel_color=1),
            Request("v1", "color"),
        )
        assert advice_cancel(Instance(g, reqs)).bits == enc(1)


class TestAdviceTrivial:
    def test_single_node_two_requests(self):
        tape = advice_trivial(single_node(2))
        assert tape.bits == enc(2) + [0, 0] + [0, 1]

    def test_length_formula(self, path_i2):
        tape = advice_trivial(path_i2)
        w = 12 .bit_length()  # Opt = 12 -> 4-bit fields
        assert len(tape) == enc_len(w) + 40 * w

    def test_empty(self):
        tape = advice_trivial(Instance(build_path(1), ()))
        assert tape.bits == enc(0)


class TestAdviceFpa:
    def test_omega4(self):
        assert advice_fpa(hex_triangle_211()).bits == enc(2)

    def test_empty(self):
        g = build_hexagonal({"a": (0, 0)})
        assert advice_fpa(Instance(g, ())).bits == enc(0)

    def test_omega3_rounds_up(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = (Request("a", "color"), Request("a", "color"), Request("b", "color"))
        assert advice_fpa(Instance(g, reqs)).bits == enc(2)


def hex_edge_21():
    # u at (0,0) is R, v at (1,0) is G; demands 2 and 1
    g = build_hexagonal({"u": (0, 0), "v": (1, 0)})
    reqs = (Request("u", "color"), Request("v", "color"), Request("u", "color"))
    return Instance(g, reqs)


class TestPlan43:
    def test_edge_two_one(self):
        inst = hex_edge_21()
        plan = plan_43(inst)
        assert plan.omega == 3 and plan.q == 1
        assert plan.n_prime["u"] == 1 and plan.b_v["u"] == 0
        assert plan.borrow_count["u"] == 0
        assert plan.in_g2 == {"u": True, "v": False}
        assert plan.upper["u"] == 0

    def test_all_demands_within_quota(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = tuple(Request(v, "color") for v in ("a", "b"))
        plan = plan_43(Instance(g, reqs))
        assert plan.q == 1
        assert not any(plan.in_g2.values())
        assert all(c == 0 for c in plan.borrow_count.values())

    def test_triangle(self):
        plan = plan_43(hex_triangle_211())
        assert plan.omega == 4 and plan.q == 1
        assert plan.n_prime["a"] == 1 and plan.b_v["a"] == 0
        assert plan.in_g2["a"]


def test_oracle_does_not_import_algorithms():
    # load multicolor.oracle with an empty package, so that the package's
    # own __init__ (which imports everything) does not hide what oracle loads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, types; pkg = types.ModuleType('multicolor'); "
            f"pkg.__path__ = [{os.path.join(src, 'multicolor')!r}]; "
            "sys.modules['multicolor'] = pkg; import multicolor.oracle; "
            "print(*sorted(m for m in sys.modules if m.startswith('multicolor.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "multicolor.oracle" in loaded
    assert "multicolor.algorithms" not in loaded


class TestAdvice43:
    def test_edge_trace(self):
        assert advice_43(hex_edge_21()).to_string() == "00110"

    def test_quota_only_all_zeros(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = tuple(Request(v, "color") for v in ("a", "b"))
        assert advice_43(Instance(g, reqs)).to_string() == "00"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_bit_budget(self, seed):
        inst = random_instance("hexagonal", seed=seed, n_nodes=10, n_requests=30)
        tape = advice_43(inst)
        assert len(tape) <= inst.n + 2 * len(inst.graph.nodes)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_omega_bounds_opt_on_hex(seed):
    from multicolor.instance import demand_clique_weight

    inst = random_instance("hexagonal", seed=seed, n_nodes=9, n_requests=24)
    omega = demand_clique_weight(inst)
    opt = opt_exact(inst).opt_value
    q = (omega + 1) // 3
    assert omega <= opt <= max(4 * q + 1, omega)


def test_path_family_all_opts():
    for i, inst in enumerate(path_family(40)):
        assert opt_exact(inst).opt_value == 10 + i


def milp_opt(instance):
    """Opt by a 0/1 program solved with scipy's HiGHS, independent of
    opt_exact: x[v, c] says node v holds color c, y[c] that color c is in
    use; minimize the colors in use.  Every maximal clique holds a color at
    most once, and only a color in use.  A greedy coloring needs at most
    max(n_v + the demands of v's neighbours) colors, so that many suffice."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")

    g, dem = instance.graph, demand(instance)
    active = [v for v in g.nodes if dem[v] > 0]
    if not active:
        return 0
    top = max(dem[v] + sum(dem[u] for u in g.adjacency[v]) for v in active)
    col = {v: i * top for i, v in enumerate(active)}  # x[v, c] is column col[v] + c
    y = len(active) * top                            # y[c] is column y + c
    rows, lower, upper = [], [], []

    def add(coefficients, lo, hi):
        row = np.zeros(y + top)
        for j, a in coefficients:
            row[j] += a
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for v in active:
        add([(col[v] + c, 1) for c in range(top)], dem[v], dem[v])
    for clique in maximal_cliques(g):
        members = [v for v in clique if v in col]
        for c in range(top):
            if members:
                add([(col[v] + c, 1) for v in members] + [(y + c, -1)], -np.inf, 0)
    for c in range(top - 1):  # colors come into use in order
        add([(y + c + 1, 1), (y + c, -1)], -np.inf, 0)
    cost = np.zeros(y + top)
    cost[y:] = 1
    result = optimize.milp(cost, integrality=np.ones(y + top),
                           bounds=optimize.Bounds(0, 1),
                           constraints=optimize.LinearConstraint(np.array(rows), lower, upper))
    assert result.success
    return round(result.fun)


def reference_opt_exact(instance):
    """opt_exact's search written on Python sets, with every candidate list
    built in full and sorted: the reference for its witness."""

    g, dem = instance.graph, demand(instance)
    active = [v for v in g.nodes if dem[v] > 0]
    omega = max((sum(dem[v] for v in c) for c in maximal_cliques(g)), default=0)
    order = sorted(active, key=lambda v: (-dem[v], v))
    neighbors = {v: [u for u in g.adjacency[v] if dem[u] > 0] for v in order}
    cliques = [c & set(active) for c in maximal_cliques(g)]
    cliques = [c for c in cliques if len(c) >= 2]

    def candidates(avail, k, used):
        used_avail = [c for c in avail if c in used]
        fresh = [c for c in avail if c not in used]
        return sorted(tuple(sorted(comb + tuple(fresh[:k - s])))
                      for s in range(min(k, len(used_avail)) + 1) if k - s <= len(fresh)
                      for comb in combinations(used_avail, s))

    def search(size):
        assigned = {}

        def avail_for(v):
            blocked = set().union(*(assigned.get(u, ()) for u in neighbors[v]))
            return [c for c in range(1, size + 1) if c not in blocked]

        def forward_ok(rest):
            avail = {v: set(avail_for(v)) for v in rest}
            if any(len(avail[v]) < dem[v] for v in rest):
                return False
            for clique in cliques:
                open_nodes = clique & set(rest)
                if len(open_nodes) >= 2 and sum(dem[v] for v in open_nodes) > len(
                        set().union(*(avail[v] for v in open_nodes))):
                    return False
            return True

        def backtrack(idx):
            if idx == len(order):
                return True
            v = order[idx]
            avail = avail_for(v)
            if len(avail) < dem[v]:
                return False
            if any(u not in assigned for u in neighbors[v]):
                options = candidates(avail, dem[v], set().union(*assigned.values()))
            else:
                options = [tuple(avail[:dem[v]])]
            for option in options:
                assigned[v] = frozenset(option)
                if forward_ok(order[idx + 1:]) and backtrack(idx + 1):
                    return True
                del assigned[v]
            return False

        return assigned if backtrack(0) else None

    size = omega
    while (witness := search(size)) is None:
        size += 1
    return size, {v: witness.get(v, frozenset()) for v in g.nodes}


def hex_ring_9(d):
    """The induced 9-cycle around three mutually adjacent cells, d requests
    per node: omega = 2d, but a color holds at most 4 of the 9 nodes, so
    Opt = ceil(9d / 4) > omega."""

    centers = {(0, 0), (1, 0), (0, 1)}
    ring = {(q + dq, r + dr) for q, r in centers for dq, dr in HEX_OFFSETS} - centers
    g = build_hexagonal({f"c{i}": cell for i, cell in enumerate(sorted(ring))})
    return Instance(g, tuple(Request(v, "color") for v in g.nodes for _ in range(d)),
                    name=f"hex_ring_9_d{d}")


SMALL_EXACT_INSTANCES = (
    [hex_ring_9(d) for d in (1, 2, 3, 4)]
    + [random_instance("hexagonal", seed=s, n_nodes=10, n_requests=30) for s in range(40)]
    + [random_instance("hexagonal", seed=s, n_nodes=14, n_requests=40, grid_extent=5)
       for s in range(10)]
    + [random_instance("bipartite", seed=s, n_nodes=8, n_requests=24) for s in range(20)]
    + [random_instance("bipartite", seed=s, n_nodes=14, n_requests=40, edge_density=0.3)
       for s in range(10)]
)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hex_ring_9_opt_exceeds_omega(d):
    inst = hex_ring_9(d)
    assert opt_exact(inst).opt_value == -(-9 * d // 4) > demand_clique_weight(inst) == 2 * d


@pytest.mark.parametrize("inst", SMALL_EXACT_INSTANCES,
                         ids=lambda inst: f"{inst.name}_v{len(inst.graph.nodes)}")
def test_opt_exact_matches_milp_and_reference(inst):
    """Opt against an independent 0/1 program; the witness is a proper
    coloring with exact demands, and the one the set-based search finds."""
    witness = opt_exact(inst)
    assert witness.opt_value == milp_opt(inst)
    dem = demand(inst)
    assert all(len(witness.coloring[v]) == dem[v] for v in inst.graph.nodes)
    assert validate_full(inst, witness_actions(inst, witness.coloring)) is None
    assert max(max(s) for s in witness.coloring.values() if s) == witness.opt_value
    assert (witness.opt_value, witness.coloring) == reference_opt_exact(inst)


# the hexagonal instances of acceptance criteria 6, 7 and 8
ACCEPTANCE_HEX_CORPUS = (
    [random_instance("hexagonal", seed=s, n_nodes=12, n_requests=36) for s in range(200)]
    + [random_instance("hexagonal", seed=2000 + s, n_nodes=4 + s % 7, n_requests=6 + s % 25)
       for s in range(44)]
)


def hex_shapes(max_cells):
    """Every connected set of at most max_cells hexagonal cells, once up to
    translation: grown a cell at a time, shifted so its least cell is (0, 0)."""
    def shifted(cells):
        q0, r0 = min(cells)
        return frozenset((q - q0, r - r0) for q, r in cells)

    level = {frozenset({(0, 0)})}
    shapes = set(level)
    for _ in range(max_cells - 1):
        level = {shifted(cells | {(q + dq, r + dr)})
                 for cells in level for q, r in cells for dq, dr in HEX_OFFSETS
                 if (q + dq, r + dr) not in cells}
        shapes |= level
    return sorted(sorted(cells) for cells in shapes)


class TestHexagonalWitness:
    """Optimum.witness on a cancellation-free hexagonal instance within the
    budget: an omega-coloring when a class order gives one, else the exact
    search's witness.  Either way it is a proper coloring with exact demands
    that uses exactly the colors 1..Opt."""

    @staticmethod
    def check(inst):
        optimum = Optimum(inst)
        witness, dem = optimum.witness, demand(inst)
        assert optimum.value == witness.opt_value
        assert all(len(witness.coloring[v]) == dem[v] for v in inst.graph.nodes)
        assert validate_full(inst, witness_actions(inst, witness.coloring)) is None
        assert set().union(*witness.coloring.values()) == set(range(1, witness.opt_value + 1))
        return witness

    @pytest.mark.parametrize("inst", SMALL_EXACT_INSTANCES + ACCEPTANCE_HEX_CORPUS,
                             ids=lambda inst: f"{inst.name}_v{len(inst.graph.nodes)}")
    def test_value_matches_milp(self, inst):
        assert self.check(inst).opt_value == milp_opt(inst)

    def test_hex_shapes_counts(self):
        # fixed polyhexes of 1..4 cells: 1, 3, 11 and 44 (OEIS A001207)
        assert [sum(len(c) == k for c in hex_shapes(4)) for k in (1, 2, 3, 4)] == [1, 3, 11, 44]

    def test_every_shape_of_up_to_4_cells_is_certified(self):
        for cells in hex_shapes(4):
            g = build_hexagonal({f"c{i}": cell for i, cell in enumerate(cells)})
            for dem in product((1, 2, 3), repeat=len(cells)):
                inst = Instance(g, tuple(Request(v, "color")
                                         for v, k in zip(g.nodes, dem) for _ in range(k)))
                omega = demand_clique_weight(inst)
                assert oracle.omega_coloring(g, demand(inst), omega) is not None
                assert self.check(inst).opt_value == omega == opt_exact(inst).opt_value

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_opt_above_omega_falls_back_to_the_search(self, d):
        inst = hex_ring_9(d)
        witness = self.check(inst)
        assert witness == opt_exact(inst)
        assert witness.opt_value == -(-9 * d // 4) > demand_clique_weight(inst)

    def test_no_class_order_falls_back_to_the_search(self):
        inst = hex_chain(4, (1, 1, 1, 1))
        assert oracle.omega_coloring(inst.graph, demand(inst), 2) is None
        witness = self.check(inst)
        assert witness == opt_exact(inst)
        assert witness.opt_value == 2

    def test_beyond_the_budget_nothing_changes(self):
        inst = random_instance("hexagonal", seed=1, n_nodes=200, n_requests=2000, grid_extent=17)
        optimum = Optimum(inst)
        assert optimum.value is None
        with pytest.raises(BudgetExceededError) as exc:
            optimum.witness
        assert exc.value.lower_bound == optimum.omega
