import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from multicolor.advice import AdviceTape, dec, enc
from multicolor.adversary import (
    path_family,
    random_cancel_instance,
    random_instance,
)
from multicolor.algorithms import (
    ALGORITHMS,
    fpa,
    greedy_cancel,
    greedy_opt,
    greedy_truncated,
    hex43,
    run_player,
    trivial,
)
from multicolor.errors import (
    AdviceError,
    CapacityExceededError,
    DomainError,
    MultiColorError,
    TapeUnderrunError,
)
from multicolor.graph import build_bipartite, build_hexagonal, build_path
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

from conftest import hex43_with_sets


def colors(actions):
    return [a.color for a in actions if isinstance(a, ColorAction)]


def tape_for(value):
    return AdviceTape(bits=enc(value))


class TestGreedyOpt:
    def test_path_trace(self):
        g = build_path(3)
        reqs = tuple(Request(v, "color") for v in ("v1", "v2", "v1", "v3"))
        acts = greedy_opt(g, tape_for(3), reqs)
        assert colors(acts) == [1, 3, 2, 1]

    def test_lower_node_bottom_up(self):
        g = build_path(1)
        reqs = tuple(Request("v1", "color") for _ in range(4))
        assert colors(greedy_opt(g, tape_for(4), reqs)) == [1, 2, 3, 4]

    def test_upper_node_top_down(self):
        g = build_path(2)
        reqs = tuple(Request("v2", "color") for _ in range(3))
        assert colors(greedy_opt(g, tape_for(5), reqs)) == [5, 4, 3]

    def test_m_too_small_errors(self):
        """Past m = 2, the L node v1 asks for color 3 and the U node v2 for 0."""
        g = build_path(2)
        for node, color in (("v1", 3), ("v2", 0)):
            reqs = tuple(Request(node, "color") for _ in range(3))
            message = f"node '{node}' needs color {color} outside 1..2; advice value too small"
            with pytest.raises(CapacityExceededError, match=f"^{re.escape(message)}$"):
                greedy_opt(g, tape_for(2), reqs)


class TestGreedyTruncated:
    def _run(self, opt_u, opt_w, b):
        g = build_bipartite(["u", "w"], [("u", "w")], {"u": "L", "w": "U"})
        reqs = tuple([Request("u", "color")] * opt_u + [Request("w", "color")] * opt_w)
        inst = Instance(g, reqs)
        from multicolor.oracle import Optimum, advice_truncated

        tape = advice_truncated(Optimum(inst), b)
        acts = greedy_truncated(g, tape, reqs, b)
        assert validate_full(inst, acts) is None
        return max(colors(acts)), tape

    def test_opt13_b2_uses_m15(self):
        max_color, _ = self._run(6, 7, 2)
        assert max_color == 15

    def test_opt8_b2_uses_m11(self):
        max_color, _ = self._run(3, 5, 2)
        assert max_color == 11
        assert 11 <= 1.5 * 8

    def test_exact_when_opt_fits(self):
        max_color, _ = self._run(2, 1, 4)
        assert max_color == 3


class TestGreedyCancel:
    def test_edge_trace(self):
        g = build_bipartite(["l", "u"], [("l", "u")], {"l": "L", "u": "U"})
        reqs = (
            Request("l", "color"),
            Request("u", "color"),
            Request("l", "cancel", cancel_color=1),
            Request("u", "color"),
        )
        acts = greedy_cancel(g, tape_for(2), reqs)
        assert acts[0] == ColorAction(1)
        assert acts[1] == ColorAction(2)
        assert acts[2] == CancelAction()  # cancelled color is the extreme
        assert acts[3] == ColorAction(1)

    def test_upper_node_recolor(self):
        g = build_path(2)
        reqs = tuple(Request("v2", "color") for _ in range(3))
        reqs += (Request("v2", "cancel", cancel_color=5),)
        acts = greedy_cancel(g, tape_for(5), reqs)
        # f was {3,4,5}; cancelling 5 recolors the min (3) onto 5
        assert acts[3] == CancelAction(recolor=(3, 5))

    def test_lower_node_extreme_cancel_no_recolor(self):
        g = build_path(1)
        reqs = tuple(Request("v1", "color") for _ in range(3))
        reqs += (Request("v1", "cancel", cancel_color=3),)
        acts = greedy_cancel(g, tape_for(3), reqs)
        assert acts[3] == CancelAction()

    @pytest.mark.parametrize("node, m, held, cancel", [
        ("v1", 3, 0, 1), ("v1", 3, 2, 3),  # L holds {1..held}
        ("v2", 5, 0, 5), ("v2", 5, 2, 3),  # U holds {m-held+1..m}
    ])
    def test_cancel_of_absent_color_errors(self, node, m, held, cancel):
        reqs = tuple(Request(node, "color") for _ in range(held))
        reqs += (Request(node, "cancel", cancel_color=cancel),)
        with pytest.raises(DomainError, match=f"^cancel of absent color {cancel} at '{node}'$"):
            greedy_cancel(build_path(2), tape_for(m), reqs)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_interval_invariant_every_step(self, seed):
        inst = random_cancel_instance(seed=seed, n_nodes=6, n_requests=20)
        tape = make_advice(inst, "greedy_cancel")
        m = peak_clique_load(inst)
        acts = greedy_cancel(inst.graph, tape, inst.requests)
        state = ColoringState(graph=inst.graph)
        for r, a in zip(inst.requests, acts):
            state = apply_step(state, r, a)
            assert not hasattr(state, "kind"), f"violation at step {state.step}"
            for v in inst.graph.nodes:
                live = state.colors_at(v)
                k = len(live)
                if not k:
                    continue
                if inst.graph.partition[v] == "L":
                    assert live == set(range(1, k + 1))
                else:
                    assert live == set(range(m - k + 1, m + 1))


class TestTrivial:
    def test_frozen_tape(self):
        g = build_path(1)
        reqs = (Request("v1", "color"), Request("v1", "color"))
        tape = AdviceTape(bits=enc(2) + [0, 0, 0, 1])
        assert colors(trivial(g, tape, reqs)) == [1, 2]

    def test_empty_reads_only_width(self):
        g = build_path(1)
        tape = AdviceTape(bits=enc(0))
        assert trivial(g, tape, ()) == []
        assert tape.exhausted()

    def test_matches_opt_on_family(self):
        inst = path_family(40)[2]
        tape = make_advice(inst, "trivial")
        acts = trivial(inst.graph, tape, inst.requests)
        assert validate_full(inst, acts) is None
        assert max(colors(acts)) == 12
        assert tape.high_water == len(tape)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 10),
           st.lists(st.sampled_from([0, 1]), max_size=40), st.data())
    def test_decode_equals_the_read_fixed_fold(self, w, n, body, data):
        """The colors, the cursor and any underrun message are those of
        reading enc(w) and then n w-bit fields with read_fixed, one by one,
        also for w = 0 and for a tape that ends in the header or a field."""
        bits = enc(w) + body
        bits = bits[:data.draw(st.integers(0, len(bits)))]

        def fold(tape):
            width = dec(tape)
            return [tape.read_fixed(width) + 1 for _ in range(n)]

        outcomes = []
        for play in (fold, lambda tape: colors(trivial(build_path(1), tape,
                                                      (Request("v1", "color"),) * n))):
            tape = AdviceTape(bits=list(bits))
            try:
                outcomes.append((play(tape), tape.cursor))
            except TapeUnderrunError as exc:
                outcomes.append((str(exc), tape.cursor))
        assert outcomes[0] == outcomes[1]


class TestFpa:
    def test_triangle_trace(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
        reqs = tuple(Request(v, "color") for v in ("a", "a", "b", "c"))
        acts = fpa(g, tape_for(2), reqs)
        assert colors(acts) == [1, 2, 3, 5]

    def test_single_request(self):
        g = build_hexagonal({"a": (0, 0)})
        assert colors(fpa(g, tape_for(1), (Request("a", "color"),))) == [1]

    def test_borrow_takes_top_of_lender(self):
        # R node with demand c+1 = 3, lender class G idle: borrow color 2c = 4
        g = build_hexagonal({"r": (0, 0), "g": (1, 0)})
        reqs = tuple(Request("r", "color") for _ in range(3))
        acts = fpa(g, AdviceTape(bits=enc(2)), reqs)
        assert colors(acts) == [1, 2, 4]

    @pytest.mark.parametrize("c, served", [(0, []), (1, [1, 2]), (2, [1, 2, 4, 3])])
    def test_out_of_borrowable_colors_errors(self, c, served):
        # an R node takes its own c colors, then the c of G, then has none left
        g = build_hexagonal({"r": (0, 0)})
        reqs = tuple(Request("r", "color") for _ in range(2 * c))
        assert colors(fpa(g, tape_for(c), reqs)) == served
        with pytest.raises(CapacityExceededError, match="^no borrowable color left at 'r'$"):
            fpa(g, tape_for(c), reqs + (Request("r", "color"),))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_never_reuses_a_neighbor_color(self, seed):
        # fpa does not consult the neighbors' colors, so validity shows that
        # a neighbor's color is never picked
        inst = random_instance("hexagonal", seed=seed, n_nodes=9, n_requests=24)
        acts = fpa(inst.graph, make_advice(inst, "fpa"), inst.requests)
        assert validate_full(inst, acts) is None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_palette_membership(self, seed):
        inst = random_instance("hexagonal", seed=seed, n_nodes=9, n_requests=24)
        c = (demand_clique_weight(inst) + 1) // 2
        base = {"R": 0, "G": c, "B": 2 * c}
        borrow = {"R": "G", "G": "B", "B": "R"}
        acts = fpa(inst.graph, make_advice(inst, "fpa"), inst.requests)
        assert validate_full(inst, acts) is None
        for r, a in zip(inst.requests, acts):
            cls = inst.graph.class_of[r.node]
            own = range(base[cls] + 1, base[cls] + c + 1)
            lent = range(base[borrow[cls]] + 1, base[borrow[cls]] + c + 1)
            assert a.color in own or a.color in lent


# cell shapes: an edge, three in a row, a triangle, four in a row, a diamond
# (two triangles on an edge) and a bent row
HEX_SHAPES = [
    [(0, 0), (1, 0)],
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (1, 0), (2, 0), (3, 0)],
    [(0, 0), (1, 0), (0, 1), (1, -1)],
    [(0, 0), (1, 0), (2, 0), (2, -1)],
]


def row_instance(demands):
    """Cells in a row, named a, b, c, ..., with the given demands, requests
    issued node by node."""
    g = build_hexagonal({chr(97 + i): (i, 0) for i in range(len(demands))})
    reqs = tuple(Request(v, "color") for v, k in zip(g.nodes, demands) for _ in range(k))
    return Instance(g, reqs, name="row_" + "_".join(map(str, demands)))


def hex43_misses(inst):
    """None if hex43 on its oracle tape is valid, stays within
    floor((4*omega+1)/3) and n + 2|V| bits, and reads the whole tape; else
    what went wrong."""
    tape = make_advice(inst, "hex43")
    acts = hex43(inst.graph, tape, inst.requests)
    if validate_full(inst, acts) is not None:
        return "invalid"
    bound = (4 * demand_clique_weight(inst) + 1) // 3
    if max(colors(acts), default=0) > bound:
        return f"max color {max(colors(acts))} > {bound}"
    if len(tape) > inst.n + 2 * len(inst.graph.nodes):
        return f"{len(tape)} bits > n + 2|V|"
    if not tape.exhausted():
        return "tape not consumed"
    return None


class TestHex43:
    def test_edge_trace(self):
        g = build_hexagonal({"u": (0, 0), "v": (1, 0)})  # u is R, v is G
        reqs = (Request("u", "color"), Request("v", "color"), Request("u", "color"))
        tape = AdviceTape.from_string("00110")
        acts = hex43(g, tape, reqs)
        assert colors(acts) == [1, 2, 4]
        assert tape.exhausted()

    def test_pure_phase1(self):
        g = build_hexagonal({"a": (0, 0), "b": (1, 0)})
        reqs = (Request("a", "color"), Request("b", "color"))
        acts = hex43(g, AdviceTape.from_string("00"), reqs)
        assert colors(acts) == [1, 2]

    @pytest.mark.parametrize("bits, demand, error", [
        # stop at once: the palette freezes at size 0, so nothing to borrow
        ("10", 1, "no borrowable color left at 'a'"),
        # color 1 grows the palette to 1; stop, leave phase 2, upper, d = 0:
        # the window starts at 4*1 - 1 + 0 = 3, which is not above 3*1
        ("011100", 2, "phase-3 window exhausted at 'a'"),
    ])
    def test_capacity_errors(self, bits, demand, error):
        g = build_hexagonal({"a": (0, 0)})
        reqs = tuple(Request("a", "color") for _ in range(demand))
        with pytest.raises(CapacityExceededError, match=f"^{error}$"):
            hex43(g, AdviceTape.from_string(bits), reqs)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_exact_consumption(self, seed):
        inst = random_instance("hexagonal", seed=seed, n_nodes=10, n_requests=30)
        assert hex43_misses(inst) is None

    def test_skipped_stop_bit_and_header(self):
        # a-b-c in a row (R, G, B), demands 2, 2, 1: omega = 4, q = 1, d = 2.
        # a: 0 (color 1), then stop 1, leave phase 2 with 1, lower 0 (color 4).
        # b: 0 (color 2); the palette is frozen and b holds q colors, so no
        # stop bit: leave phase 2 with 1, upper 1, header d = 10 (color 5).
        # c: 0 (color 3).
        inst = row_instance((2, 2, 1))
        assert make_advice(inst, "hex43").to_string() == "0110" "0" "11" "10" "0"
        tape = AdviceTape.from_string("0110011100")
        assert colors(hex43(inst.graph, tape, inst.requests)) == [1, 4, 2, 5, 3]
        assert tape.exhausted()
        with pytest.raises(AdviceError):
            hex43(inst.graph, AdviceTape.from_string("0110011110"), inst.requests)

    @pytest.mark.parametrize("inst", [
        *(random_instance("hexagonal", seed=s, n_nodes=10, n_requests=30, grid_extent=4)
          for s in (39, 87, 318)),
        random_instance("hexagonal", seed=391, n_nodes=16, n_requests=60, grid_extent=5),
        row_instance((4, 5, 4)),
        row_instance((3, 3, 3)),
    ], ids=lambda inst: inst.name)
    def test_former_misses(self, inst):
        assert hex43_misses(inst) is None

    def test_counts_play_as_the_set_based_reference(self):
        # random grids of side 3..8, each with its oracle tape, that tape with
        # one bit flipped, and random bits at three rates of 1s: hex43 must
        # give the reference's actions and cursor, or its error at its cursor
        rng, outcomes = random.Random(43), Counter()
        for seed in range(600):
            side = 3 + seed % 6
            inst = random_instance("hexagonal", seed=seed, n_nodes=rng.randint(1, side * side),
                                   n_requests=rng.randint(0, 5 * side * side), grid_extent=side)
            oracle_bits = make_advice(inst, "hex43").bits
            flipped = list(oracle_bits)
            if flipped:
                flipped[rng.randrange(len(flipped))] ^= 1
            length = inst.n + 2 * len(inst.graph.nodes) + 2
            tapes = [oracle_bits, flipped] + [[int(rng.random() < p) for _ in range(length)]
                                              for p in (0.05, 0.2, 0.5)]
            for bits in tapes:
                played = []
                for player in (hex43, hex43_with_sets):
                    tape = AdviceTape(bits=list(bits))
                    try:
                        played.append((player(inst.graph, tape, inst.requests), tape.cursor))
                    except MultiColorError as exc:
                        played.append((type(exc), str(exc), tape.cursor))
                assert played[0] == played[1], (inst.name, bits)
                outcomes["ok" if len(played[0]) == 2 else played[0][1].split(" at ")[0]] += 1
        assert min(outcomes.values()) >= 20, outcomes
        assert set(outcomes) == {"ok", "no borrowable color left", "phase-3 window exhausted",
                                 "hex43 header d must be 0, 1 or 2, got 3",
                                 "read past written prefix"}, outcomes

    def test_exhaustive_small_shapes(self):
        # every demand vector in 0..7 on six shapes of 2-4 cells, requests
        # issued node by node: 64 + 2 * 512 + 3 * 4096 = 13,376 instances
        checked, misses = 0, []
        for cells in HEX_SHAPES:
            g = build_hexagonal({f"c{i}": cell for i, cell in enumerate(cells)})
            for demands in product(range(8), repeat=len(cells)):
                reqs = tuple(Request(v, "color") for v, k in zip(g.nodes, demands)
                             for _ in range(k))
                miss = hex43_misses(Instance(g, reqs))
                checked += 1
                if miss:
                    misses.append((cells, demands, miss))
        assert checked == 13376
        assert misses == []


PLAYERS = [
    ("greedy_opt", "bipartite", None),
    ("greedy_truncated", "bipartite", 3),
    ("greedy_cancel", "cancel", None),
    ("trivial", "bipartite", None),
    ("fpa", "hexagonal", None),
    ("hex43", "hexagonal", None),
]


@pytest.mark.parametrize("algo,kind,b", PLAYERS)
def test_online_prefix_replay(algo, kind, b):
    import random

    rng = random.Random(1234)
    for trial in range(10):
        seed = rng.randrange(10 ** 6)
        if kind == "cancel":
            inst = random_cancel_instance(seed=seed, n_nodes=6, n_requests=18)
        else:
            inst = random_instance(kind, seed=seed, n_nodes=7, n_requests=18)
        tape = make_advice(inst, algo, b=b)
        full = run_player(algo, inst.graph, tape, inst.requests, b=b)
        k = rng.randrange(inst.n + 1)
        prefix_tape = AdviceTape(bits=list(make_advice(inst, algo, b=b).bits))
        prefix = run_player(algo, inst.graph, prefix_tape, inst.requests[:k], b=b)
        assert prefix == full[:k]


@pytest.mark.parametrize("algo", ["greedy_opt", "greedy_truncated", "trivial", "fpa", "hex43"])
def test_players_without_cancellations_refuse_one(algo):
    graph = build_hexagonal({"v1": (0, 0)}) if algo in ("fpa", "hex43") else build_path(1)
    tape = AdviceTape(bits=[0, 1] + enc(0)) if algo == "greedy_truncated" else tape_for(1)
    with pytest.raises(DomainError, match=f"^{algo} does not handle cancellations$"):
        run_player(algo, graph, tape, (Request("v1", "cancel", cancel_color=1),), b=2)


@pytest.mark.parametrize("algo", ["greedy_opt", "greedy_truncated", "trivial", "fpa", "hex43"])
def test_players_refuse_cancellations_before_reading_a_bit(algo):
    graph = build_hexagonal({"v1": (0, 0)}) if algo in ("fpa", "hex43") else build_path(1)
    tape = make_advice(Instance(graph, (Request("v1", "color"),)), algo, b=2)
    requests = (Request("v1", "color"), Request("v1", "cancel", cancel_color=1))
    with pytest.raises(DomainError, match=f"^{algo} does not handle cancellations$"):
        run_player(algo, graph, tape, requests, b=2)
    assert tape.high_water == 0


def test_greedy_truncated_refuses_b_0():
    with pytest.raises(DomainError, match="b must be >= 1, got 0"):
        greedy_truncated(build_path(1), tape_for(1), (Request("v1", "color"),), 0)


@pytest.mark.parametrize("b", [0, -1])
@pytest.mark.parametrize("field", ["play", "advise", "bound", "color_bound"])
def test_greedy_truncated_entry_refuses_b_below_1(field, b):
    inst = path_family(40)[2]
    args = ((inst.graph, tape_for(12), inst.requests, b) if field == "play"
            else (Optimum(inst), b))
    with pytest.raises(DomainError, match=f"^b must be >= 1, got {b}$"):
        getattr(ALGORITHMS["greedy_truncated"], field)(*args)


def test_advice_truncated_refuses_a_missing_width():
    from multicolor.oracle import advice_truncated

    with pytest.raises(DomainError, match="^greedy_truncated needs the truncation width b$"):
        advice_truncated(Optimum(path_family(40)[0]), None)


def test_greedy_truncated_refuses_a_missing_width_before_reading_a_bit():
    inst = path_family(40)[2]
    tape = tape_for(12)
    with pytest.raises(DomainError, match="^greedy_truncated needs the truncation width b$"):
        greedy_truncated(inst.graph, tape, inst.requests, None)
    assert tape.high_water == 0


@pytest.mark.parametrize("graph, requests, message", [
    (build_hexagonal({"v1": (0, 0)}), (Request("v1", "color"),),
     "greedy_truncated needs a path/bipartite graph, got hexagonal"),
    (build_path(1), (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)),
     "greedy_truncated does not handle cancellations"),
], ids=["hexagonal", "cancellation"])
def test_greedy_truncated_entry_points_refuse_the_domain_before_the_width(graph, requests,
                                                                          message):
    entry_points = (lambda tape: run_player("greedy_truncated", graph, tape, requests, b=0),
                    lambda tape: greedy_truncated(graph, tape, requests, 0))
    for play in entry_points:
        tape = tape_for(1)
        with pytest.raises(DomainError, match=f"^{message}$"):
            play(tape)
        assert tape.high_water == 0


def test_players_reject_wrong_graph_kind():
    hex_g = build_hexagonal({"a": (0, 0)})
    path_g = build_path(2)
    with pytest.raises(DomainError):
        greedy_opt(hex_g, tape_for(1), ())
    with pytest.raises(DomainError):
        fpa(path_g, tape_for(1), ())
    with pytest.raises(DomainError):
        hex43(path_g, AdviceTape(), ())


def test_greedy_opt_exactly_opt_on_corpus():
    for seed in range(40):
        inst = random_instance("bipartite", seed=seed, n_nodes=8, n_requests=24)
        tape = make_advice(inst, "greedy_opt")
        acts = greedy_opt(inst.graph, tape, inst.requests)
        assert validate_full(inst, acts) is None
        opt = Optimum(inst).peak_load
        assert max(colors(acts), default=0) == opt == opt_exact(inst).opt_value
