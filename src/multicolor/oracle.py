"""Offline side: exact optimum search, the run's Optimum, and the
advice-tape generators for every online player.

An Optimum holds the offline facts of one instance, each computed once:
whether it cancels, its demand, omega, the peak clique load (Opt on a path or
bipartite graph; omega when nothing is cancelled) and an optimal witness.
Every tape writer takes the run's Optimum and reads the instance from it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice, permutations

from .advice import AdviceTape, _bits, _width, enc, fixed
from .errors import BudgetExceededError, DomainError, InternalConsistencyError
from .graph import BORROW_FROM, CLASS_NAMES, Graph, clique_weight, maximal_cliques
from .instance import Instance, demand, peak_clique_load, refuse_outside
from .value import Value

DEFAULT_MAX_NODES = 14
DEFAULT_MAX_REQUESTS = 40


class OptWitness(Value):
    """An optimal coloring: coloring maps node -> frozenset of colors."""

    __slots__ = __match_args__ = ("opt_value", "coloring")

    def __init__(self, opt_value: int, coloring: dict):
        self._init(opt_value, coloring)


def _check_searchable(optimum: Optimum):
    """Raise what opt_exact raises instead of searching the optimum's instance:
    DomainError on a cancellation, BudgetExceededError (lower bound omega) beyond
    the optimum's budget."""
    if optimum.cancelling:
        raise DomainError("opt_exact handles cancellation-free instances only")
    active, total = sum(k > 0 for k in optimum.demand.values()), sum(optimum.demand.values())
    if active > optimum.max_nodes or total > optimum.max_requests:
        raise BudgetExceededError(f"instance too large for exact search ({active} demanded nodes, "
                                  f"{total} requests); best lower bound is {optimum.omega}",
                                  lower_bound=optimum.omega)


def opt_exact(instance: Instance, max_nodes: int = DEFAULT_MAX_NODES,
              max_requests: int = DEFAULT_MAX_REQUESTS) -> OptWitness:
    """Exact minimum palette size with a witness coloring: _opt_search on
    an Optimum of the instance with this budget, once _check_searchable
    lets it through.  Intended for small instances only."""
    optimum = Optimum(instance, max_nodes, max_requests)
    _check_searchable(optimum)
    return _opt_search(optimum)


def _opt_search(optimum: Optimum) -> OptWitness:
    """opt_exact's search, past its gate, from the optimum's demand and omega:
    iterative deepening on the palette size from omega, the clique lower
    bound, over the nodes in order of decreasing demand, each node's color
    sets in lexicographic order, so the witness is deterministic."""
    g, dem = optimum.instance.graph, optimum.demand
    order = sorted((v for v in g.nodes if dem[v]), key=lambda v: (-dem[v], v))
    position = {v: i for i, v in enumerate(order)}
    need = [dem[v] for v in order]
    neighbors = [[position[u] for u in g.adjacency[v] if u in position] for v in order]
    cliques = [[position[v] for v in c if v in position] for c in maximal_cliques(g)]
    palette_size, masks = _search(need, neighbors, cliques, optimum.omega)
    coloring = {v: frozenset() for v in g.nodes}
    coloring.update((v, frozenset(_colors(m))) for v, m in zip(order, masks))
    return OptWitness(opt_value=palette_size, coloring=coloring)


def _colors(mask):
    """The colors of a color mask (color c is bit c), in increasing order."""
    out = []
    while mask:
        low = mask & -mask  # the lowest color left
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _candidate_sets(avail, k, used):
    """The feasible k-color sets (masks) for one node, lazily, in the
    lexicographic order of their sorted colors, with value symmetry broken:
    never-used colors are interchangeable, so the fresh colors of a set must
    be the smallest fresh colors of avail."""
    colors = _colors(avail)

    def extend(start, k, fresh, chosen):
        # fresh: the fresh colors not passed over yet; only its lowest may be taken
        if k == 0:
            yield chosen
            return
        for idx in range(start, len(colors) - k + 1):
            bit = 1 << colors[idx]
            if bit & used:
                yield from extend(idx + 1, k - 1, fresh, chosen | bit)
            elif bit == fresh & -fresh:
                yield from extend(idx + 1, k - 1, fresh ^ bit, chosen | bit)

    return extend(0, k, avail & ~used, 0)


def _search(need, neighbors, cliques, palette_size):
    """The smallest palette size, from palette_size up, that admits a coloring,
    and the coloring: node i gets need[i] colors, disjoint from those of its
    neighbors (lists of node indices), by backtracking over the nodes in
    index order.  A color set is an int mask, color c being bit c."""
    n = len(need)
    assigned = [0] * n  # 0 until a node is assigned
    # nothing later is constrained by a node without a later neighbor
    constrains = [any(j > i for j in nbrs) for i, nbrs in enumerate(neighbors)]
    # per start index: (open nodes, their total demand) of each clique with
    # at least two nodes at or after start
    open_cliques = []
    for start in range(n + 1):
        parts = [[j for j in c if j >= start] for c in cliques]
        open_cliques.append([(p, sum(need[j] for j in p)) for p in parts if len(p) >= 2])

    def avail_for(i):
        blocked = 0
        for j in neighbors[i]:
            blocked |= assigned[j]
        return full & ~blocked

    def forward_ok(start):
        avail = [0] * n
        for i in range(start, n):
            avail[i] = a = avail_for(i)
            if a.bit_count() < need[i]:
                return False
        # Hall-style necessary condition per clique: within a clique the
        # color sets are pairwise disjoint, so the open demands must fit in
        # the union of the open availabilities
        for nodes, total in open_cliques[start]:
            union = 0
            for j in nodes:
                union |= avail[j]
            if total > union.bit_count():
                return False
        return True

    def backtrack(i, used):
        if i == n:
            return True
        candidates = _candidate_sets(avail_for(i), need[i], used)
        if not constrains[i]:  # the smallest feasible set suffices
            candidates = islice(candidates, 1)
        for cand in candidates:
            assigned[i] = cand
            if forward_ok(i + 1) and backtrack(i + 1, used | cand):
                return True
        assigned[i] = 0
        return False

    while True:
        full = (1 << palette_size + 1) - 2  # the colors 1..palette_size
        if backtrack(0, 0):
            return palette_size, assigned
        palette_size += 1


class Optimum:
    """The offline facts about one instance's optimum: whether it cancels, its
    demand, omega, the peak clique load and an optimal witness.  Each is
    computed at most once, on first use, so a run's tape, advice bound and
    report share them."""

    def __init__(self, instance: Instance, max_nodes: int = DEFAULT_MAX_NODES,
                 max_requests: int = DEFAULT_MAX_REQUESTS):
        self.instance = instance
        self.max_nodes, self.max_requests = max_nodes, max_requests

    @cached_property
    def cancelling(self) -> bool:
        """Whether any request is a cancellation."""
        return self.instance.has_cancellations()

    @cached_property
    def demand(self) -> dict:
        return demand(self.instance)

    @cached_property
    def peak_load(self) -> int:
        """The peak clique load: Opt on a path or bipartite graph.  With no
        cancellation the load only grows, so it is omega."""
        if self.cancelling:
            return peak_clique_load(self.instance)
        return self.omega

    @cached_property
    def omega(self) -> int:
        return clique_weight(self.instance.graph, self.demand)

    @cached_property
    def witness(self) -> OptWitness:
        """An optimal coloring.  On a cancellation-free path or bipartite
        instance it is built in closed form, without search, at any size: with
        m = Opt, an L node gets 1..n_v and a U node m-n_v+1..m, disjoint on
        every edge since each joins L to U and n_L + n_U <= m.  Otherwise, on a
        cancellation or beyond the budget, it raises opt_exact's error without
        running opt_exact; else it is an omega-coloring from omega_coloring,
        which proves Opt = omega, or failing that opt_exact's witness, searched
        from this Optimum's demand and omega."""
        g, dem = self.instance.graph, self.demand
        if g.kind != "hexagonal" and not self.cancelling:
            m, side = self.peak_load, g.partition
            return OptWitness(opt_value=m, coloring={
                v: frozenset(range(1, k + 1) if side[v] == "L" else range(m - k + 1, m + 1))
                for v, k in dem.items()})
        _check_searchable(self)
        masks = omega_coloring(g, dem, self.omega)  # hexagonal: the gate refuses the rest
        if masks is not None:
            return OptWitness(opt_value=self.omega, coloring={
                v: frozenset(_colors(m)) for v, m in masks.items()})
        return _opt_search(self)

    @cached_property
    def value(self) -> int | None:
        """Best available exact optimum: the peak load on a path or bipartite
        graph, and otherwise the opt_value of the witness: omega when an
        omega-coloring certifies it, else the exact search's.  None when the
        instance exceeds the search budget; on a hexagonal instance with a
        cancellation, opt_exact's DomainError."""
        if self.instance.graph.kind != "hexagonal":
            return self.peak_load
        try:
            return self.witness.opt_value
        except BudgetExceededError:
            return None


def omega_coloring(g: Graph, dem: dict, omega: int) -> dict | None:
    """node -> color mask of an omega-coloring of a hexagonal graph, or None;
    every node of g is a key, and a node without demand has mask 0.

    Each R/G/B class is an independent set, so the classes are colored one
    at a time: each node takes the dem[v] lowest colors in 1..omega that its
    neighbours do not hold.  The six class orders are tried in turn; the
    first that serves every node is checked and returned.  omega is a lower
    bound on Opt, so such a coloring is optimal.
    """
    full, adj = (1 << omega + 1) - 2, g.adjacency  # full: the colors 1..omega
    members = {cls: [] for cls in CLASS_NAMES}
    for v in g.nodes:
        if dem[v] and g.class_of[v] in members:
            members[g.class_of[v]].append(v)
    for first, second, third in permutations(CLASS_NAMES):
        masks = dict.fromkeys(g.nodes, 0)
        for v in members[first] + members[second] + members[third]:
            free = full
            for u in adj[v]:
                free &= ~masks[u]
            if free.bit_count() < dem[v]:
                break
            take = 0
            for _ in range(dem[v]):
                take |= free & -free  # the lowest free color
                free &= free - 1
            masks[v] = take
        else:
            for v, k in dem.items():
                m, taken = masks.get(v, 0), ~full  # taken: the colors v may not hold
                for u in adj[v]:
                    taken |= masks[u]
                if m.bit_count() != k or m & taken:
                    raise InternalConsistencyError(f"omega-coloring fails at {v!r}")
            return masks
    return None


# ---------------------------------------------------------------------------
# advice generators; each reads the instance and the facts it needs from the
# run's Optimum

def advice_greedyopt(optimum: Optimum) -> AdviceTape:
    """enc(Opt) for the strictly 1-competitive bipartite player."""
    return AdviceTape(bits=enc(optimum.peak_load))


def advice_truncated(optimum: Optimum, b: int) -> AdviceTape:
    """b raw high-order bits of Opt followed by enc(a), a = bits(Opt) - b.

    If Opt fits in b bits the raw field is Opt left-padded with zeros and
    a = 0, which the reader uses to detect the exact case.  A b that is None,
    below 1 or above 64 is refused (DomainError) before Opt is computed."""
    b = _width(b)
    opt = optimum.peak_load
    a = max(0, opt.bit_length() - b)
    return AdviceTape(bits=fixed(opt >> a, b) + enc(a))


def advice_cancel(optimum: Optimum) -> AdviceTape:
    """enc(peak clique load); peak load <= Opt, and the reader's interval
    invariants only need m to dominate every instantaneous edge load."""
    return AdviceTape(bits=enc(optimum.peak_load))


def advice_trivial(optimum: Optimum) -> AdviceTape:
    """enc(w) plus one w-bit field per request, w = ceil(log2(Opt+1)).

    Each field is (color - 1) of the request under the optimal witness,
    replayed per node in increasing color order.  Each color's field is a
    tuple from advice's field cache, which `bits +=` copies.
    """
    instance = optimum.instance
    refuse_outside("trivial", instance.graph, instance.requests)
    witness = optimum.witness
    w = witness.opt_value.bit_length()
    field = [_bits(c, w) for c in range(witness.opt_value)]
    bits = enc(w)
    pending = {v: iter(sorted(witness.coloring[v])) for v in instance.graph.nodes}
    for r in instance.requests:
        bits += field[next(pending[r.node]) - 1]
    return AdviceTape(bits=bits)


def advice_fpa(optimum: Optimum) -> AdviceTape:
    """enc(ceil(omega/2)) for the fixed-preference-allocation player."""
    return AdviceTape(bits=enc((optimum.omega + 1) // 2))


# ---------------------------------------------------------------------------
# the 4/3 plan and its bit stream

def plan_43(optimum: Optimum) -> tuple:
    """The offline 4/3-approximation as (omega, q, private, borrow, upper):
    q = floor((omega+1)/3) is the final private-palette size; per node,
    private[v] = min(n_v, q) phase-1 colors, borrow[v] phase-2 colors, and
    upper[v] (0/1) its side in the 2-coloring of the leftover graph G2 in
    which the smallest node of each component is lower.  Fails loudly
    (InternalConsistencyError) if G2 contains a triangle or an odd cycle,
    which the theory rules out."""
    instance = optimum.instance
    refuse_outside("hex43", instance.graph, instance.requests, ("hexagonal",))
    g, adj, class_of = instance.graph, instance.graph.adjacency, instance.graph.class_of
    dem, omega = optimum.demand, optimum.omega
    q = (omega + 1) // 3

    private, borrow, pending = {}, {}, {}   # pending: G2 node -> its leftover demand
    for v in g.nodes:
        n_v = dem[v]
        if n_v <= q:  # served from the private palette alone
            private[v], borrow[v] = n_v, 0
            continue
        lender = BORROW_FROM[class_of[v]]
        n_prime = max([dem[u] for u in adj[v] if class_of[u] == lender], default=0)
        private[v], borrow[v] = q, min(n_v - q, max(0, q - n_prime))
        if n_v > q + borrow[v]:
            pending[v] = n_v - q - borrow[v]

    g2_nodes = sorted(pending)
    for u in g2_nodes:
        for w in adj[u]:
            if w <= u or w not in pending:
                continue
            if any(x in pending for x in adj[u].keys() & adj[w].keys()):
                raise InternalConsistencyError("triangle in G2")
            if pending[u] + pending[w] > omega - 2 * q:
                raise InternalConsistencyError("G2 edge exceeds the pending-pair bound")

    upper = {}
    for root in g2_nodes:
        if root in upper:
            continue
        upper[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in pending:
                    continue
                if u not in upper:
                    upper[u] = 1 - upper[v]
                    stack.append(u)
                elif upper[u] == upper[v]:
                    raise InternalConsistencyError("G2 is not bipartite")
    return omega, q, private, borrow, upper


def advice_43(optimum: Optimum) -> AdviceTape:
    """Bit stream for the phase automaton of algorithms.hex43, written from
    plan_43: a 0 per private (phase-1) and per borrowed (phase-2) color, a 1
    where a node leaves phase 2, then its partition bit (1 = upper).

    A 1 also ends phase 1 of the first node to leave it, which freezes the
    palette at q; after that a node moves on silently once it holds q
    private colors.  The first upper partition bit is followed by 2 bits
    giving d = omega - 3q + 1, so upper nodes can color down from
    omega + q = floor((4*omega+1)/3).  Total length is at most n + 2|V|.
    """
    omega, q, private, borrow, upper = plan_43(optimum)
    bits = []
    frozen = header = False   # a stop bit has ended some phase 1; d is written
    seen = {v: 0 for v in optimum.instance.graph.nodes}   # requests to each node so far
    for r in optimum.instance.requests:
        v, i = r.node, seen[r.node]
        end = private[v] + borrow[v]   # the request that ends phase 2
        seen[v] += 1
        if i == private[v] and not frozen:
            bits.append(1)
            frozen = True
        if i < end:
            bits.append(0)
        elif i == end:
            bits += [1, upper[v]]
            if upper[v] and not header:
                bits += fixed(omega - 3 * q + 1, 2)
                header = True
        # phase 3 requests consume no bits
    return AdviceTape(bits=bits)
