import hashlib
import os
import re
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from multicolor import harness, oracle
from multicolor.adversary import hex_chain, path_family, random_cancel_instance, random_instance
from multicolor.advice import enc, enc_len, fixed
from multicolor.errors import BudgetExceededError, DomainError, InternalConsistencyError
from multicolor.graph import (CLASS_NAMES, HEX_OFFSETS, Graph, build_bipartite, build_hexagonal,
                              build_path, maximal_cliques)
from multicolor.instance import Instance, Request, demand, demand_clique_weight, validate_full
from multicolor.oracle import (
    advice_43,
    advice_cancel,
    advice_fpa,
    advice_greedyopt,
    advice_trivial,
    advice_truncated,
    Optimum,
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

    @pytest.mark.parametrize("demanded", [14, 15])
    def test_budget_counts_each_demanded_node(self, demanded):
        """One request on each of `demanded` of 15 isolated cells: the gate
        counts the demanded nodes only, and 15 are one more than the default
        budget."""
        g = build_hexagonal({f"n{i:02}": (2 * i, 0) for i in range(15)})
        inst = Instance(g, tuple(Request(v, "color") for v in g.nodes[:demanded]))
        if demanded == 14:
            assert opt_exact(inst).opt_value == 1
            return
        with pytest.raises(BudgetExceededError, match=re.escape("(15 demanded nodes, 15 requests)")):
            opt_exact(inst)

    def test_rejects_cancellations(self):
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
        with pytest.raises(DomainError):
            opt_exact(inst)

    def test_no_requests(self):
        w = opt_exact(Instance(build_path(3), ()))
        assert w.opt_value == 0
        assert w.coloring == {v: frozenset() for v in ("v1", "v2", "v3")}


class TestOptBipartite:
    def test_path_family(self, path_i2):
        assert Optimum(path_i2).peak_load == 12

    def test_star(self):
        g = build_bipartite(
            ["c", "l1", "l2", "l3"],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
            {"c": "U", "l1": "L", "l2": "L", "l3": "L"},
        )
        reqs = [Request("c", "color")] * 3 + [Request("l1", "color")] * 2
        reqs += [Request("l2", "color")] * 4 + [Request("l3", "color")] * 1
        inst = Instance(g, tuple(reqs))
        assert Optimum(inst).peak_load == 7
        assert opt_exact(inst).opt_value == 7

    def test_isolated_node(self):
        assert Optimum(single_node(7)).peak_load == 7

    def test_wrong_kind(self):
        """A hexagonal graph or a cancellation is refused in one place, the
        bipartite player, with a DomainError that names the algorithm."""
        cancels = random_cancel_instance(seed=0)
        for algo, b, inst in [("greedy_opt", None, hex_triangle_211()),
                              ("greedy_opt", None, cancels),
                              ("greedy_truncated", 2, cancels)]:
            with pytest.raises(DomainError, match=f"^{algo} "):
                harness.run(inst, algo, b=b)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_exact_search(seed):
    inst = random_instance("bipartite", seed=seed, n_nodes=8, n_requests=24)
    assert Optimum(inst).peak_load == opt_exact(inst).opt_value


class TestClosedFormWitness:
    """Optimum.witness on a cancellation-free path or bipartite instance is
    the closed form: valid, and using exactly Opt colors."""

    @staticmethod
    def check(inst):
        witness, opt = Optimum(inst).witness, Optimum(inst).peak_load
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
        assert advice_greedyopt(Optimum(inst)).bits == enc(3)

    def test_path_family(self, path_i2):
        assert advice_greedyopt(Optimum(path_i2)).bits == enc(12)

    def test_empty_instance(self):
        inst = Instance(build_path(2), ())
        assert advice_greedyopt(Optimum(inst)).to_string() == "0"


class TestAdviceTruncated:
    def test_opt_13_b2(self):
        inst = edge_instance(6, 7)  # Opt = 13 = 1101b
        tape = advice_truncated(Optimum(inst), 2)
        assert tape.bits == [1, 1] + enc(2)

    def test_opt_8_b2(self):
        inst = edge_instance(3, 5)  # Opt = 8 = 1000b
        tape = advice_truncated(Optimum(inst), 2)
        assert tape.bits == [1, 0] + enc(2)

    def test_small_opt_padded(self):
        inst = edge_instance(2, 1)  # Opt = 3, fits in b=4
        tape = advice_truncated(Optimum(inst), 4)
        assert tape.bits == [0, 0, 1, 1] + enc(0)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            advice_truncated(Optimum(edge_instance(1, 1)), 0)


class TestAdviceCancel:
    def test_peak_load_encoded(self):
        g = build_bipartite(["u", "w"], [("u", "w")], {"u": "L", "w": "U"})
        reqs = (
            Request("u", "color"),
            Request("w", "color"),
            Request("u", "cancel", cancel_color=1),
            Request("w", "color"),
        )
        assert advice_cancel(Optimum(Instance(g, reqs))).bits == enc(2)

    def test_matches_greedyopt_without_cancellations(self, path_i2):
        assert advice_cancel(Optimum(path_i2)).bits == advice_greedyopt(Optimum(path_i2)).bits

    def test_cancel_and_repeat(self):
        g = build_path(1)
        reqs = (
            Request("v1", "color"),
            Request("v1", "cancel", cancel_color=1),
            Request("v1", "color"),
        )
        assert advice_cancel(Optimum(Instance(g, reqs))).bits == enc(1)


class TestAdviceTrivial:
    def test_single_node_two_requests(self):
        tape = advice_trivial(Optimum(single_node(2)))
        assert tape.bits == enc(2) + [0, 0] + [0, 1]

    def test_length_formula(self, path_i2):
        tape = advice_trivial(Optimum(path_i2))
        w = 12 .bit_length()  # Opt = 12 -> 4-bit fields
        assert len(tape) == enc_len(w) + 40 * w

    def test_empty(self):
        tape = advice_trivial(Optimum(Instance(build_path(1), ())))
        assert tape.bits == enc(0)

    def test_refuses_cancellations_before_any_offline_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "demand", lambda inst: calls.append(inst) or demand(inst))
        inst = Instance(build_path(2), (Request("v1", "color"),
                                        Request("v1", "cancel", cancel_color=1)))
        with pytest.raises(DomainError, match="^trivial does not handle cancellations$"):
            advice_trivial(Optimum(inst))
        assert calls == []

    def test_mutated_tapes_leave_the_next_tapes_unchanged(self, path_i2):
        """A tape's bits, and every enc and fixed result, are the caller's own:
        changing them in place changes no later tape."""
        writers = (advice_trivial, advice_greedyopt)
        expected = [writer(Optimum(path_i2)).to_string() for writer in writers]
        for _ in range(2):
            for writer in writers:
                tape = writer(Optimum(path_i2))
                tape.bits[:4] = [1 - b for b in tape.bits[:4]]
                tape.bits.append(1)
            for bits in (enc(4), enc(12), fixed(11, 4), fixed(0, 4)):
                bits[0] ^= 1
                bits.append(0)
            assert [writer(Optimum(path_i2)).to_string() for writer in writers] == expected

    def test_corpus_tapes_are_pinned(self):
        """sha256 over the trivial tapes, one per line, of the small-exact-batch
        corpus in scripts/run_benchmarks.py's order; the trivial player reads
        each tape to its end."""
        from multicolor.adversary import hex_54
        from multicolor.algorithms import trivial

        instances = [path_family(40)[i] for i in (0, 2, 5, 10)]
        instances += [hex_chain(k, branch) for k, branch in [(1, (0,)), (1, (1,)), (3, (1, 0, 1))]]
        instances += [hex_54(p, 1) for p in (4, 8)]
        for s in range(400):
            instances += [random_instance("bipartite", seed=s, n_nodes=8, n_requests=24),
                          random_instance("hexagonal", seed=s, n_nodes=10, n_requests=30)]
        h = hashlib.sha256()
        for inst in instances:
            tape = advice_trivial(Optimum(inst))
            h.update((tape.to_string() + "\n").encode())
            trivial(inst.graph, tape, inst.requests)
            assert tape.exhausted()
        assert h.hexdigest() == "d87e8c420b5b87713fac499352bbfa5f10a7dfcbe14ae2e378dbcb02b1aab0e2"


class TestAdviceFpa:
    def test_omega4(self):
        assert advice_fpa(Optimum(hex_triangle_211())).bits == enc(2)

    def test_empty(self):
        g = build_hexagonal({"a": (0, 0)})
        assert advice_fpa(Optimum(Instance(g, ()))).bits == enc(0)

    def test_omega3_rounds_up(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = (Request("a", "color"), Request("a", "color"), Request("b", "color"))
        assert advice_fpa(Optimum(Instance(g, reqs))).bits == enc(2)


def hex_edge_21():
    # u at (0,0) is R, v at (1,0) is G; demands 2 and 1
    g = build_hexagonal({"u": (0, 0), "v": (1, 0)})
    reqs = (Request("u", "color"), Request("v", "color"), Request("u", "color"))
    return Instance(g, reqs)


class TestPlan43:
    def test_rejects_cancellations(self):
        g = build_hexagonal({"u": (0, 0)})
        inst = Instance(g, (Request("u", "color"), Request("u", "cancel", cancel_color=1)))
        with pytest.raises(DomainError, match="hex43 does not handle cancellations"):
            plan_43(Optimum(inst))

    def test_edge_two_one(self):
        omega, q, private, borrow, upper = plan_43(Optimum(hex_edge_21()))
        assert omega == 3 and q == 1
        assert borrow["u"] == 0
        assert upper == {"u": 0}

    def test_all_demands_within_quota(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = tuple(Request(v, "color") for v in ("a", "b"))
        omega, q, private, borrow, upper = plan_43(Optimum(Instance(g, reqs)))
        assert q == 1
        assert upper == {}
        assert all(c == 0 for c in borrow.values())

    def test_triangle(self):
        omega, q, private, borrow, upper = plan_43(Optimum(hex_triangle_211()))
        assert omega == 4 and q == 1
        assert "a" in upper


class TestSelfChecks:
    """Each InternalConsistencyError of the oracle, reached with an input that
    breaks what the theory assumes: an Optimum whose cached omega is wrong, or
    a Graph made directly, which build_hexagonal would not make."""

    @staticmethod
    def uniform(graph, d):
        return Instance(graph, tuple(Request(v, "color") for v in graph.nodes for _ in range(d)))

    def test_omega_coloring_checks_what_it_returns(self):
        # the edge a-b is listed at a only, so b, colored after a, takes a's colors
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        one_sided = Graph("hexagonal", g.nodes, {"a": {"b": None}, "b": {}}, cell_of=g.cell_of,
                          class_of=g.class_of)
        with pytest.raises(InternalConsistencyError, match="^omega-coloring fails at 'a'$"):
            Optimum(self.uniform(one_sided, 2)).witness

    def test_plan_43_refuses_a_triangle_in_g2(self):
        triangle = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        optimum = Optimum(self.uniform(triangle, 3))
        optimum.omega = 2  # is 9: q = 1 leaves 2 requests of each triangle node pending
        with pytest.raises(InternalConsistencyError, match="^triangle in G2$"):
            plan_43(optimum)

    def test_plan_43_refuses_a_g2_edge_over_the_pending_pair_bound(self):
        optimum = Optimum(self.uniform(build_hexagonal({"a": (0, 0), "b": (1, 0)}), 3))
        optimum.omega = 3  # is 6: pending 2 + 1 exceed omega - 2q = 1
        with pytest.raises(InternalConsistencyError,
                           match="^G2 edge exceeds the pending-pair bound$"):
            plan_43(optimum)

    def test_plan_43_refuses_an_odd_cycle_in_g2(self):
        # a 9-cycle whose classes run R, G, B around it, so every node has a
        # neighbour of its lender class: with demand 3 (omega 6, q 2) no node
        # borrows and all nine stay pending, one request each
        nodes = tuple(f"c{i}" for i in range(9))
        adjacency = {v: dict.fromkeys(sorted((nodes[i - 1], nodes[(i + 1) % 9])))
                     for i, v in enumerate(nodes)}
        classes = {v: CLASS_NAMES[i % 3] for i, v in enumerate(nodes)}
        graph = Graph("hexagonal", nodes, adjacency, class_of=classes)
        with pytest.raises(InternalConsistencyError, match="^G2 is not bipartite$"):
            plan_43(Optimum(self.uniform(graph, 3)))


def test_oracle_does_not_import_algorithms():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, multicolor.oracle; "
            "print(*sorted(m for m in sys.modules if m.startswith('multicolor.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "multicolor.oracle" in loaded
    assert "multicolor.algorithms" not in loaded


class TestAdvice43:
    def test_edge_trace(self):
        assert advice_43(Optimum(hex_edge_21())).to_string() == "00110"

    def test_quota_only_all_zeros(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = tuple(Request(v, "color") for v in ("a", "b"))
        assert advice_43(Optimum(Instance(g, reqs))).to_string() == "00"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_bit_budget(self, seed):
        inst = random_instance("hexagonal", seed=seed, n_nodes=10, n_requests=30)
        tape = advice_43(Optimum(inst))
        assert len(tape) <= inst.n + 2 * len(inst.graph.nodes)

    @pytest.mark.parametrize("shared", [False, True])
    def test_tapes_are_pinned(self, shared):
        """sha256 over the tapes, one per line, of 400 small and then 5
        hex-large-sized random instances; an Optimum already read for omega
        and the peak load, as a run shares it, changes no bit."""
        h = hashlib.sha256()

        def add(inst):
            optimum = Optimum(inst)
            if shared:
                optimum.omega, optimum.peak_load
            tape = advice_43(optimum)
            h.update((tape.to_string() + "\n").encode())

        for s in range(400):
            add(random_instance("hexagonal", seed=s, n_nodes=10, n_requests=30))
        assert h.hexdigest() == "15f4e935a4e62a9072da8f01c729bdce78e2cbb2532ba67d2a1eef79c9fb4c18"
        for s in range(1, 6):
            add(random_instance("hexagonal", seed=s, n_nodes=200, n_requests=2000, grid_extent=17))
        assert h.hexdigest() == "d7438b687fd612db16eea2779d4603a03d6382070ad2d37bdc9144260eb1d496"


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
    """Optimum.witness on a cancellation-free hexagonal instance: an
    omega-coloring when a class order gives one, at any size, else the exact
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
        """No class order serves seed 2 (omega 40), so the search refuses."""
        inst = random_instance("hexagonal", seed=2, n_nodes=200, n_requests=2000, grid_extent=17)
        optimum = Optimum(inst)
        assert optimum.value is None
        message = ("instance too large for exact search (200 demanded nodes, 2000 requests); "
                   "best lower bound is 40")
        with pytest.raises(BudgetExceededError, match=re.escape(message)) as exc:
            optimum.witness
        assert exc.value.lower_bound == optimum.omega

    def test_beyond_the_budget_the_certificate_decides(self, monkeypatch):
        """The omega-certificate runs at any size: seed 1 is certified at
        Opt 46, and seed 2, which no class order serves, is refused before
        the search is entered."""
        calls = []
        monkeypatch.setattr(oracle, "_search", lambda *args: calls.append(args))
        for seed, value in [(1, 46), (2, None)]:
            inst = random_instance("hexagonal", seed=seed, n_nodes=200, n_requests=2000,
                                   grid_extent=17)
            assert Optimum(inst).value == value
        assert calls == []

    @pytest.mark.parametrize("kind", ["path", "hexagonal"])
    def test_a_cancellation_is_refused_without_search(self, monkeypatch, kind):
        g = build_path(2) if kind == "path" else build_hexagonal({"v1": (0, 0), "v2": (1, 0)})
        inst = Instance(g, (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
        calls = []
        for name in ("opt_exact", "_search"):
            monkeypatch.setattr(oracle, name, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError, match="^opt_exact handles cancellation-free instances only$"):
            Optimum(inst).witness
        assert calls == []


def test_witness_search_counts_demand_and_omega_once(monkeypatch):
    """hex_ring_9 fails the omega-certificate, so the witness falls back to
    the exact search, which takes the Optimum's demand and omega."""
    calls = []
    for name in ("demand", "clique_weight"):
        fn = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
    report = harness.run(hex_ring_9(2), "trivial")
    assert report.ok and report.opt_value == 5
    assert sorted(calls) == ["clique_weight", "demand"]
