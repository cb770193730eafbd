"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Corpora are seeded and deterministic; every bound is checked at its stated
tolerance (exact where the criterion says exact).
"""

import sys
from contextlib import contextmanager
from itertools import product

import pytest

from multicolor.advice import AdviceTape, dec, enc, enc_len
from multicolor.adversary import (
    hex_54,
    hex_chain,
    path_family,
    random_cancel_instance,
    random_instance,
)
from multicolor.algorithms import (
    fpa,
    greedy_cancel,
    greedy_opt,
    greedy_truncated,
    hex43,
    run_player,
    trivial,
)
from multicolor.graph import maximal_cliques
from multicolor.harness import make_advice
from multicolor.instance import (
    CancelAction,
    ColorAction,
    ColoringState,
    Instance,
    Request,
    apply_step,
    demand_clique_weight,
    peak_clique_load,
    validate_full,
)
from multicolor.oracle import Optimum, opt_exact
from conftest import all_two_colorings


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL: {desc}", file=sys.__stdout__)
        raise
    print(f"[criterion {num:02d}] PASS: {desc}", file=sys.__stdout__)


def max_color(actions):
    return max((a.color for a in actions if isinstance(a, ColorAction)), default=0)


@pytest.fixture(scope="module")
def bipartite_corpus():
    return [
        random_instance("bipartite", seed=seed,
                        n_nodes=3 + seed % 8, n_requests=6 + seed % 25)
        for seed in range(500)
    ]


@pytest.fixture(scope="module")
def bipartite_opts(bipartite_corpus):
    return [opt_exact(inst).opt_value for inst in bipartite_corpus]


@pytest.fixture(scope="module")
def family():
    return path_family(40)


@pytest.fixture(scope="module")
def hex_corpus():
    return [
        random_instance("hexagonal", seed=seed, n_nodes=12, n_requests=36)
        for seed in range(200)
    ]


@pytest.fixture(scope="module")
def cancel_corpus():
    return [random_cancel_instance(seed=seed) for seed in range(200)]


def test_criterion_01_strict_one_competitive(bipartite_corpus, bipartite_opts, family):
    with criterion(1, "greedy_opt max color equals the exact optimum on 500 "
                      "random bipartite instances and the whole n=40 path family"):
        for inst, opt in zip(bipartite_corpus, bipartite_opts):
            acts = greedy_opt(inst.graph, make_advice(inst, "greedy_opt"), inst.requests)
            assert validate_full(inst, acts) is None
            assert max_color(acts) == opt
        for i, inst in enumerate(family):
            acts = greedy_opt(inst.graph, make_advice(inst, "greedy_opt"), inst.requests)
            assert validate_full(inst, acts) is None
            assert max_color(acts) == opt_exact(inst).opt_value == 10 + i


def test_criterion_02_bipartite_closed_form(bipartite_corpus, bipartite_opts):
    with criterion(2, "closed-form bipartite optimum equals the exact search "
                      "on all 500 instances"):
        for inst, opt in zip(bipartite_corpus, bipartite_opts):
            assert Optimum(inst).peak_load == opt


def test_criterion_03_path_family_values(family):
    with criterion(3, "path family optima are floor(n/4)+i for n=40"):
        for i, inst in enumerate(family):
            assert opt_exact(inst).opt_value == 10 + i


def test_criterion_04_truncated_ratio_and_bits(bipartite_corpus, bipartite_opts):
    with criterion(4, "truncated advice is strictly (1+1/2^(b-1))-competitive "
                      "with exactly b+enc_len(a) bits read, b=1..6"):
        for b in range(1, 7):
            for inst, opt in zip(bipartite_corpus, bipartite_opts):
                tape = make_advice(inst, "greedy_truncated", b=b)
                acts = greedy_truncated(inst.graph, tape, inst.requests, b)
                assert validate_full(inst, acts) is None
                assert max_color(acts) <= (1 + 1 / 2 ** (b - 1)) * opt
                a = max(0, opt.bit_length() - b)
                assert tape.high_water == b + enc_len(a)


def test_criterion_05_advice_accounting(bipartite_corpus, bipartite_opts, family):
    with criterion(5, "greedy_opt reads exactly enc_len(Opt) bits; "
                      "enc_len spot values match the three-part formulas"):
        assert enc_len(0) == 1
        assert enc_len(5) == 8
        for inst, opt in zip(bipartite_corpus, bipartite_opts):
            tape = make_advice(inst, "greedy_opt")
            greedy_opt(inst.graph, tape, inst.requests)
            assert tape.high_water == enc_len(opt)
        for inst in family:
            tape = make_advice(inst, "greedy_opt")
            greedy_opt(inst.graph, tape, inst.requests)
            assert tape.high_water == enc_len(Optimum(inst).peak_load)


def test_criterion_06_trivial_algorithm(family):
    with criterion(6, "trivial player matches the optimum with exactly "
                      "enc_len(w)+n*w advice bits on 100 mixed-kind instances"):
        instances = list(family)  # 11 path instances
        instances += [random_instance("bipartite", seed=1000 + s,
                                      n_nodes=3 + s % 8, n_requests=6 + s % 25)
                      for s in range(45)]
        instances += [random_instance("hexagonal", seed=2000 + s,
                                      n_nodes=4 + s % 7, n_requests=6 + s % 25)
                      for s in range(44)]
        assert len(instances) == 100
        for inst in instances:
            opt = opt_exact(inst).opt_value
            tape = make_advice(inst, "trivial")
            acts = trivial(inst.graph, tape, inst.requests)
            assert validate_full(inst, acts) is None
            assert max_color(acts) == opt
            w = opt.bit_length()
            assert tape.high_water == enc_len(w) + inst.n * w
            assert tape.high_water < (inst.n + 1) * w + enc_len(w)


def test_criterion_07_fpa(hex_corpus):
    with criterion(7, "FPA is valid with max color at most 3*ceil(omega/2) "
                      "on 200 random hexagonal instances"):
        for inst in hex_corpus:
            acts = fpa(inst.graph, make_advice(inst, "fpa"), inst.requests)
            assert validate_full(inst, acts) is None
            omega = demand_clique_weight(inst)
            mc = max_color(acts)
            assert mc <= 3 * ((omega + 1) // 2)
            opt = opt_exact(inst).opt_value
            assert mc <= 1.5 * opt + 1.5


def test_criterion_08_four_thirds(hex_corpus):
    with criterion(8, "phase-automaton player is valid with max color at most "
                      "floor((4*omega+1)/3), at most n+2|V| bits, tape fully consumed"):
        for inst in hex_corpus:
            tape = make_advice(inst, "hex43")
            acts = hex43(inst.graph, tape, inst.requests)
            assert validate_full(inst, acts) is None
            omega = demand_clique_weight(inst)
            bound = (4 * omega + 1) // 3
            assert max_color(acts) <= bound
            opt = opt_exact(inst).opt_value
            assert 3 * bound <= 4 * opt + 1  # bound <= (4/3)*Opt + 1/3, exactly
            assert tape.high_water <= inst.n + 2 * len(inst.graph.nodes)
            assert tape.exhausted()


def _peak_witness(inst):
    """Cancellation-free instance demanding the live counts at the moment the
    clique load peaks."""
    cliques = maximal_cliques(inst.graph)
    live = {v: 0 for v in inst.graph.nodes}
    best_live, best_load = dict(live), 0
    for r in inst.requests:
        live[r.node] += 1 if r.op == "color" else -1
        load = max(sum(live[v] for v in c) for c in cliques)
        if load > best_load:
            best_load, best_live = load, dict(live)
    reqs = tuple(Request(v, "color")
                 for v in inst.graph.nodes for _ in range(best_live[v]))
    return Instance(inst.graph, reqs), best_load


def test_criterion_09_cancellations(cancel_corpus):
    with criterion(9, "cancellation player: stepwise validity, max color at most "
                      "the peak clique load (= optimum of the peak witness), at "
                      "most one recolor per cancellation, interval invariants"):
        for inst in cancel_corpus:
            m = peak_clique_load(inst)
            witness, load = _peak_witness(inst)
            assert load == m
            assert m <= opt_exact(witness).opt_value
            acts = greedy_cancel(inst.graph, make_advice(inst, "greedy_cancel"),
                                 inst.requests)
            assert max_color(acts) <= m
            state = ColoringState(graph=inst.graph)
            for r, a in zip(inst.requests, acts):
                if r.op == "cancel":
                    assert isinstance(a, CancelAction)
                    assert a.recolor is None or len(a.recolor) == 2
                state = apply_step(state, r, a)
                assert isinstance(state, ColoringState), f"violation: {state}"
                for v in inst.graph.nodes:
                    colors = state.colors_at(v)
                    k = len(colors)
                    if not k:
                        continue
                    if inst.graph.partition[v] == "L":
                        assert colors == set(range(1, k + 1))
                    else:
                        assert colors == set(range(m - k + 1, m + 1))


def test_criterion_10_hex_lower_bound_families():
    with criterion(10, "hex chain optima are 2 with the per-branch outer-node "
                       "color relation; one-unit family optima are p/2"):
        for k in (1, 2, 3):
            for branch in product((0, 1), repeat=k):
                inst = hex_chain(k, branch)
                assert opt_exact(inst).opt_value == 2
                colorings = all_two_colorings(inst)
                assert colorings
                for coloring in colorings:
                    for j in range(1, k + 1):
                        same = coloring[f"O{j - 1}"] == coloring[f"O{j}"]
                        assert same == (branch[j - 1] == 0)
        for p in (4, 8):
            for branch in (0, 1):
                assert opt_exact(hex_54(p, branch)).opt_value == p // 2


def test_criterion_11_codec_exhaustive():
    with criterion(11, "codec round-trips and is prefix-free for all x <= 2^14"):
        words = []
        for x in range(2 ** 14 + 1):
            bits = enc(x)
            tape = AdviceTape(bits=bits)
            assert dec(tape) == x
            assert tape.exhausted()
            words.append("".join(map(str, bits)))
        assert len(set(words)) == len(words)
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            assert not b.startswith(a)


def test_criterion_12_online_ness():
    with criterion(12, "each player is online: 50 random prefix replays per "
                       "algorithm reproduce the output prefix"):
        import random

        specs = [
            ("greedy_opt", "bipartite", None),
            ("greedy_truncated", "bipartite", 3),
            ("greedy_cancel", "cancel", None),
            ("trivial", "bipartite", None),
            ("fpa", "hexagonal", None),
            ("hex43", "hexagonal", None),
        ]
        for idx, (algo, kind, b) in enumerate(specs):
            rng = random.Random(97 + idx)
            for _ in range(50):
                seed = rng.randrange(10 ** 6)
                if kind == "cancel":
                    inst = random_cancel_instance(seed=seed, n_nodes=6, n_requests=18)
                else:
                    inst = random_instance(kind, seed=seed, n_nodes=7, n_requests=18)
                full = run_player(algo, inst.graph, make_advice(inst, algo, b=b),
                                  inst.requests, b=b)
                k = rng.randrange(inst.n + 1)
                prefix = run_player(algo, inst.graph, make_advice(inst, algo, b=b),
                                    inst.requests[:k], b=b)
                assert prefix == full[:k]
