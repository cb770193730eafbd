"""The online players.  Each is a deterministic function of the graph, the
request prefix seen so far, and the advice bits read so far; all return one
action per request (a ColorAction, or a CancelAction for cancellations).
"""

from __future__ import annotations

from functools import cache

from . import oracle
from .advice import AdviceTape, _width, dec, enc_len
from .errors import AdviceError, CapacityExceededError, DomainError
from .graph import BORROW_FROM, PALETTE_START, Graph
from .instance import CancelAction, ColorAction, refuse_outside
from .value import Value


_color = cache(ColorAction)  # one shared action per color: a run has many colors, few distinct


def _ordered(requests, group, orders, capacity) -> list:
    """The fixed-preference player.  A node of group g takes its colors in the
    order orders[g] = (up, n_up, down, n_down): up, up+1, ... for n_up colors,
    then down, down-1, ... for n_down; with k live colors it holds the first k.
    A request past the order raises the text capacity(v, down - n_down).
    Cancelling any held color but the k-th moves the k-th to it."""
    live = dict.fromkeys(group, 0)
    out = []
    for r in requests:
        v = r.node
        up, n_up, down, n_down = orders[group[v]]
        k = live[v]
        if r.op == "color":
            color = up + k if k < n_up else down + n_up - k
            if k >= n_up + n_down:
                raise CapacityExceededError(capacity(v, color))
            live[v] = k + 1
            out.append(_color(color))
            continue
        c = r.cancel_color
        i = c - up if up <= c < up + n_up else n_up + down - c if down - n_down < c <= down else k
        if i >= k:
            raise DomainError(f"cancel of absent color {c} at {v!r}")
        last = up + k - 1 if k <= n_up else down + n_up - k + 1
        out.append(CancelAction() if c == last else CancelAction(recolor=(last, c)))
        live[v] = k - 1
    return out


def _greedy(algo, graph: Graph, tape: AdviceTape, requests, read_m, cancels=False) -> list:
    """GreedyOptAdvice with m = read_m(tape): an L node takes 1, 2, ..., m
    (bottom-up), a U node m, m-1, ..., 1 (top-down).  Past m, an L node asks
    for m+1, where its empty down run starts, and a U node for 0."""
    refuse_outside(algo, graph, requests, ("path", "bipartite"), cancels)
    m = read_m(tape)
    return _ordered(requests, graph.partition, {"L": (1, m, m + 1, 0), "U": (0, 0, m, m)},
                    lambda v, color: f"node {v!r} needs color {color} outside 1..{m}; "
                                     "advice value too small")


def greedy_opt(graph: Graph, tape: AdviceTape, requests) -> list:
    """Strictly 1-competitive bipartite player; advice is enc(Opt)."""
    return _greedy("greedy_opt", graph, tape, requests, dec)


def greedy_truncated(graph: Graph, tape: AdviceTape, requests, b: int) -> list:
    """Reads the b high-order bits of Opt and enc(a); reconstructs
    m = 2^a * Opt_b + 2^a - 1 (or m = Opt exactly when a = 0) and plays
    greedy_opt with that m; a b that is None, below 1 or above 64 is refused
    before a bit is read."""
    def read_m(tape):  # the b-bit field, then enc(a)
        return ((tape.read_fixed(_width(b)) + 1) << dec(tape)) - 1

    return _greedy("greedy_truncated", graph, tape, requests, read_m)


def greedy_cancel(graph: Graph, tape: AdviceTape, requests) -> list:
    """greedy_opt extended with 0-recoloring for cancellations; advice is
    enc(peak clique load)."""
    return _greedy("greedy_cancel", graph, tape, requests, dec, cancels=True)


def trivial(graph: Graph, tape: AdviceTape, requests) -> list:
    """Reads w = ceil(log2(Opt+1)) once, then w bits per request naming the
    color directly, all n fields in one pass over the tape's bits.  A tape
    too short for the fields fails in one read_fixed over them, which stops
    at the end of the tape as the first short field would."""
    refuse_outside("trivial", graph, requests)
    w = dec(tape)
    if not w:
        return [_color(1)] * len(requests)
    start = tape.cursor
    end = start + w * len(requests)
    if end > len(tape.bits):
        tape.read_fixed(end - start)
    out, value, k = [], 0, 0
    for bit in tape.bits[start:end]:
        value, k = value << 1 | bit, k + 1
        if k == w:
            out.append(_color(value + 1))
            value = k = 0
    tape.cursor = end
    return out


def fpa(graph: Graph, tape: AdviceTape, requests) -> list:
    """Fixed preference allocation with advice c = ceil(omega/2).

    Private palettes: R = 1..c, G = c+1..2c, B = 2c+1..3c.  A node of class X
    takes its own block bottom-up, base[X]+1, ..., base[X]+c, then borrows
    the next class's block top-down, base[X']+c, ..., base[X']+1.
    Neighbors' colors are not consulted, as the pseudocode states.
    """
    refuse_outside("fpa", graph, requests, ("hexagonal",))
    c = dec(tape)
    base = {"R": 0, "G": c, "B": 2 * c}
    return _ordered(requests, graph.class_of,
                    {x: (base[x] + 1, c, base[BORROW_FROM[x]] + c, c) for x in base},
                    lambda v, color: f"no borrowable color left at {v!r}")


def hex43(graph: Graph, tape: AdviceTape, requests) -> list:
    """4/3-competitive hexagonal player driven by the phase bit stream of
    oracle.advice_43.

    Phase 1 uses interleaved private palettes that grow on demand; the first
    stop bit anywhere freezes the palette size at q, and from then on a node
    holding q private colors enters phase 2 without reading a bit.  Phase 2
    borrows the highest borrow-class color free at the node and all its
    neighbors.  Phase 3 colors above 3q: lower nodes bottom-up from 3q+1,
    upper nodes top-down from omega+q, which the 2 bits d = omega-3q+1 after
    the first upper partition bit give as 4q-1+d.  So no color exceeds
    floor((4*omega+1)/3).
    """
    refuse_outside("hex43", graph, requests, ("hexagonal",))
    size = 0          # current private palette size (per class)
    frozen = False    # set once any node leaves phase 1
    top = None        # omega + q, known from the first upper node on
    phase = dict.fromkeys(graph.nodes, 1)
    upper = {}
    nxt = {}          # node -> its next phase-3 color
    own = dict.fromkeys(graph.nodes, 0)   # v holds the first own[v] colors of its private palette
    lent = dict.fromkeys(graph.nodes, 0)  # and the top lent[v] of its lender's first `size`
    adjacency, class_of, read_bit = graph.adjacency, graph.class_of, tape.read_bit
    out = []

    for r in requests:
        v = r.node
        if phase[v] == 1:
            if frozen and own[v] == size:
                phase[v] = 2
            elif read_bit() == 0:
                color = PALETTE_START[class_of[v]] + 3 * own[v]
                own[v] += 1
                if own[v] > size:
                    size = own[v]
            else:
                phase[v] = 2
                frozen = True
        if phase[v] == 2:
            if read_bit() == 0:
                # size is frozen and >= each own[u]; of the lender's first size colors, lender-class
                # neighbours u hold the first own[u], v the top lent[v], and no other node any
                lender, i = BORROW_FROM[class_of[v]], size - 1 - lent[v]
                if i < max([own[u] for u in adjacency[v] if class_of[u] == lender], default=0):
                    raise CapacityExceededError(f"no borrowable color left at {v!r}")
                color = PALETTE_START[lender] + 3 * i
                lent[v] += 1
            else:
                upper[v] = read_bit()
                if upper[v] and top is None:
                    d = tape.read_fixed(2)
                    if d == 3:
                        raise AdviceError("hex43 header d must be 0, 1 or 2, got 3")
                    top = 4 * size - 1 + d
                nxt[v] = top if upper[v] else 3 * size + 1
                phase[v] = 3
        if phase[v] == 3:
            color = nxt[v]
            if color <= 3 * size:
                raise CapacityExceededError(f"phase-3 window exhausted at {v!r}")
            nxt[v] += -1 if upper[v] else 1
        out.append(_color(color))
    return out


class Algorithm(Value):
    """An online player and its advice: play(graph, tape, requests, b) runs the
    player, advise(optimum, b) writes its tape from the run's shared
    oracle.Optimum, bound(optimum, b) is the declared worst-case tape length
    and color_bound(optimum, b) the guaranteed largest color, each None if
    unknown.  b is greedy_truncated's width."""

    __slots__ = __match_args__ = ("play", "advise", "bound", "color_bound")

    def __init__(self, play, advise, bound, color_bound):
        self._init(play, advise, bound, color_bound)


def _trivial_bound(optimum):
    if optimum.value is None:
        return None
    w = optimum.value.bit_length()
    return enc_len(w) + optimum.instance.n * w


class _Registry(dict):
    def __missing__(self, algo):
        raise DomainError(f"unknown algorithm {algo!r}")


# The lambdas look the players and oracles up when called, so whatever
# rebinds a module-level name (a tracer, a monkeypatch) sees every call.  The
# color bounds are the guarantees of the README player table; greedy_truncated's
# is floor((1 + 2^(1-b)) * Opt), computed in integers.
ALGORITHMS: dict[str, Algorithm] = _Registry({
    "greedy_opt": Algorithm(
        lambda g, tape, reqs, b: greedy_opt(g, tape, reqs),
        lambda optimum, b: oracle.advice_greedyopt(optimum),
        lambda optimum, b: enc_len(optimum.peak_load),
        lambda optimum, b: optimum.peak_load),
    "greedy_truncated": Algorithm(
        lambda g, tape, reqs, b: greedy_truncated(g, tape, reqs, b),
        lambda optimum, b: oracle.advice_truncated(optimum, b),
        lambda optimum, b: _width(b) + enc_len(max(0, optimum.peak_load.bit_length() - b)),
        lambda optimum, b: ((1 << _width(b) - 1) + 1) * optimum.peak_load >> b - 1),
    "greedy_cancel": Algorithm(
        lambda g, tape, reqs, b: greedy_cancel(g, tape, reqs),
        lambda optimum, b: oracle.advice_cancel(optimum),
        lambda optimum, b: enc_len(optimum.peak_load),
        lambda optimum, b: optimum.peak_load),
    "trivial": Algorithm(
        lambda g, tape, reqs, b: trivial(g, tape, reqs),
        lambda optimum, b: oracle.advice_trivial(optimum),
        lambda optimum, b: _trivial_bound(optimum),
        lambda optimum, b: optimum.value),
    "fpa": Algorithm(
        lambda g, tape, reqs, b: fpa(g, tape, reqs),
        lambda optimum, b: oracle.advice_fpa(optimum),
        lambda optimum, b: enc_len((optimum.omega + 1) // 2),
        lambda optimum, b: 3 * ((optimum.omega + 1) // 2)),
    "hex43": Algorithm(
        lambda g, tape, reqs, b: hex43(g, tape, reqs),
        lambda optimum, b: oracle.advice_43(optimum),
        lambda optimum, b: optimum.instance.n + 2 * len(optimum.instance.graph.nodes),
        lambda optimum, b: (4 * optimum.omega + 1) // 3),
})


def run_player(algo: str, graph: Graph, tape: AdviceTape, requests, b: int | None = None):
    """Run the player of an algorithm id; returns the action list."""
    return ALGORITHMS[algo].play(graph, tape, requests, b)
