"""Offline side: exact optimum search, the bipartite closed form, and the
advice-tape generators for every online player.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice, permutations

from .advice import AdviceTape, enc
from .errors import BudgetExceededError, DomainError, InternalConsistencyError
from .graph import BORROW_FROM, CLASS_NAMES, Graph, clique_weight, maximal_cliques
from .instance import Instance, demand, demand_clique_weight, peak_clique_load
from .value import Value

DEFAULT_MAX_NODES = 14
DEFAULT_MAX_REQUESTS = 40


class OptWitness(Value):
    """An optimal coloring: coloring maps node -> frozenset of colors."""

    __slots__ = __match_args__ = ("opt_value", "coloring")

    def __init__(self, opt_value: int, coloring: dict):
        self._init(opt_value, coloring)


def opt_exact(instance: Instance, max_nodes: int = DEFAULT_MAX_NODES,
              max_requests: int = DEFAULT_MAX_REQUESTS) -> OptWitness:
    """Exact minimum palette size with a witness coloring.

    Iterative deepening on the palette size C, starting from the clique
    lower bound.  Nodes are assigned in order of decreasing demand; within
    a node, candidate color sets are tried in lexicographic order, so the
    witness is deterministic.  Intended for small instances only.
    """
    if instance.has_cancellations():
        raise DomainError("opt_exact handles cancellation-free instances only")
    g = instance.graph
    dem = demand(instance)
    all_cliques = maximal_cliques(g)
    omega = max((sum(dem[v] for v in c) for c in all_cliques), default=0)
    active = [v for v in g.nodes if dem[v] > 0]
    total = sum(dem.values())
    if len(active) > max_nodes or total > max_requests:
        raise BudgetExceededError(
            f"instance too large for exact search ({len(active)} demanded nodes, "
            f"{total} requests); best lower bound is {omega}",
            lower_bound=omega,
        )
    if not active:
        return OptWitness(opt_value=0, coloring={v: frozenset() for v in g.nodes})

    order = sorted(active, key=lambda v: (-dem[v], v))
    position = {v: i for i, v in enumerate(order)}
    need = [dem[v] for v in order]
    neighbors = [[position[u] for u in g.adjacency[v] if u in position] for v in order]
    cliques = [[position[v] for v in c if v in position] for c in all_cliques]
    palette_size, masks = _search(need, neighbors, cliques, omega)
    coloring = {v: frozenset() for v in g.nodes}
    coloring.update((v, frozenset(_colors(m))) for v, m in zip(order, masks))
    return OptWitness(opt_value=palette_size, coloring=coloring)


def _colors(mask):
    """The colors of a color mask (color c is bit c), in increasing order."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


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
        avail = avail_for(i)
        if avail.bit_count() < need[i]:
            return False
        candidates = _candidate_sets(avail, need[i], used)
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


def opt_bipartite(instance: Instance) -> int:
    """Closed-form optimum for path/bipartite graphs: the clique weight
    (max node demand, max summed demand over an edge)."""
    if instance.graph.kind not in ("path", "bipartite"):
        raise DomainError(f"opt_bipartite needs a path or bipartite graph, got {instance.graph.kind}")
    if instance.has_cancellations():
        raise DomainError("opt_bipartite handles cancellation-free instances only")
    return demand_clique_weight(instance)


class Optimum:
    """The offline facts about one instance's optimum: the bipartite closed
    form, the peak clique load, omega and an optimal witness.  Each is computed
    at most once, on first use, so a run's tape, advice bound and report
    share them."""

    def __init__(self, instance: Instance, max_nodes: int = DEFAULT_MAX_NODES,
                 max_requests: int = DEFAULT_MAX_REQUESTS):
        self.instance = instance
        self.budget = {"max_nodes": max_nodes, "max_requests": max_requests}

    @cached_property
    def closed_form(self) -> int:
        return opt_bipartite(self.instance)

    @cached_property
    def peak_load(self) -> int:
        return peak_clique_load(self.instance)

    @cached_property
    def omega(self) -> int:
        return demand_clique_weight(self.instance)

    @cached_property
    def witness(self) -> OptWitness:
        """An optimal coloring.  On a cancellation-free path or bipartite
        instance it is built in closed form, without search, at any size: with
        m = Opt, an L node gets 1..n_v and a U node m-n_v+1..m, disjoint on
        every edge since each joins L to U and n_L + n_U <= m.  On a
        cancellation-free hexagonal instance within the budget it is an
        omega-coloring from omega_coloring when one of the six class orders
        gives one, which proves Opt = omega.  Otherwise opt_exact finds it,
        within the budget."""
        inst, g = self.instance, self.instance.graph
        if inst.has_cancellations():
            return opt_exact(inst, **self.budget)
        dem = demand(inst)
        if g.kind != "hexagonal":
            m, side = self.closed_form, g.partition
            return OptWitness(opt_value=m, coloring={
                v: frozenset(range(1, k + 1) if side[v] == "L" else range(m - k + 1, m + 1))
                for v, k in dem.items()})
        active = [k for k in dem.values() if k]
        if len(active) <= self.budget["max_nodes"] and sum(active) <= self.budget["max_requests"]:
            masks = omega_coloring(g, dem, self.omega)
            if masks is not None:
                return OptWitness(opt_value=self.omega, coloring={
                    v: frozenset(_colors(masks.get(v, 0))) for v in g.nodes})
        return opt_exact(inst, **self.budget)

    @cached_property
    def value(self) -> int | None:
        """Best available exact optimum: closed form for path/bipartite, the
        peak load for cancellation sequences, and otherwise the opt_value of
        the witness: omega when an omega-coloring certifies it, else the
        exact search's.  None when the instance exceeds the search budget."""
        bipartite = self.instance.graph.kind in ("path", "bipartite")
        if self.instance.has_cancellations():
            return self.peak_load if bipartite else None
        if bipartite:
            return self.closed_form
        try:
            return self.witness.opt_value
        except BudgetExceededError:
            return None


def omega_coloring(g: Graph, dem: dict, omega: int) -> dict | None:
    """node -> color mask of an omega-coloring of a hexagonal graph, or None.

    Each R/G/B class is an independent set, so the classes are colored one
    at a time: each node takes the dem[v] lowest colors in 1..omega that its
    neighbours do not hold.  The six class orders are tried in turn; the
    first that serves every node is checked and returned.  omega is a lower
    bound on Opt, so such a coloring is optimal.
    """
    full, adj = (1 << omega + 1) - 2, g.adjacency  # full: the colors 1..omega
    members = {cls: [v for v in g.nodes if dem[v] and g.class_of[v] == cls] for cls in CLASS_NAMES}
    for order in permutations(CLASS_NAMES):
        masks = {}
        for v in (v for cls in order for v in members[cls]):
            free = full
            for u in adj[v]:
                free &= ~masks.get(u, 0)
            if free.bit_count() < dem[v]:
                break
            take = 0
            for _ in range(dem[v]):
                take |= free & -free  # the lowest free color
                free &= free - 1
            masks[v] = take
        else:
            for v, k in dem.items():
                m = masks.get(v, 0)
                if m.bit_count() != k or m & ~full or any(m & masks.get(u, 0) for u in adj[v]):
                    raise InternalConsistencyError(f"omega-coloring fails at {v!r}")
            return masks
    return None


# ---------------------------------------------------------------------------
# advice generators; each reads the facts it needs from optimum, a fresh
# Optimum of the instance when none is given

def advice_greedyopt(instance: Instance, optimum: Optimum | None = None) -> AdviceTape:
    """enc(Opt) for the strictly 1-competitive bipartite player."""
    return AdviceTape(bits=enc((optimum or Optimum(instance)).closed_form))


def advice_truncated(instance: Instance, b: int, optimum: Optimum | None = None) -> AdviceTape:
    """b raw high-order bits of Opt followed by enc(a), a = bits(Opt) - b.

    If Opt fits in b bits the raw field is Opt left-padded with zeros and
    a = 0, which the reader uses to detect the exact case.
    """
    if b < 1:
        raise DomainError(f"b must be >= 1, got {b}")
    opt = (optimum or Optimum(instance)).closed_form
    a = max(0, opt.bit_length() - b)
    raw = opt >> a
    tape = AdviceTape()
    tape.write((raw >> (b - 1 - i)) & 1 for i in range(b))
    tape.write_int(a)
    return tape


def advice_cancel(instance: Instance, optimum: Optimum | None = None) -> AdviceTape:
    """enc(peak clique load); peak load <= Opt, and the reader's interval
    invariants only need m to dominate every instantaneous edge load."""
    if instance.graph.kind not in ("path", "bipartite"):
        raise DomainError(f"advice_cancel needs a path or bipartite graph, got {instance.graph.kind}")
    return AdviceTape(bits=enc((optimum or Optimum(instance)).peak_load))


def advice_trivial(instance: Instance, optimum: Optimum | None = None) -> AdviceTape:
    """enc(w) plus one w-bit field per request, w = ceil(log2(Opt+1)).

    Each field is (color - 1) of the request under the optimal witness,
    replayed per node in increasing color order.  Each color's field is
    rendered once.
    """
    witness = (optimum or Optimum(instance)).witness
    w = witness.opt_value.bit_length()
    field = [[c >> i & 1 for i in reversed(range(w))] for c in range(witness.opt_value)]
    bits = enc(w)
    pending = {v: iter(sorted(witness.coloring[v])) for v in instance.graph.nodes}
    for r in instance.requests:
        bits += field[next(pending[r.node]) - 1]
    return AdviceTape(bits=bits)


def advice_fpa(instance: Instance, optimum: Optimum | None = None) -> AdviceTape:
    """enc(ceil(omega/2)) for the fixed-preference-allocation player."""
    if instance.graph.kind != "hexagonal":
        raise DomainError("advice_fpa needs a hexagonal graph")
    return AdviceTape(bits=enc(((optimum or Optimum(instance)).omega + 1) // 2))


# ---------------------------------------------------------------------------
# the 4/3 plan and its bit stream

class Plan43(Value):
    """q = floor((omega+1)/3) is the final private-palette size; per node:
    phase1_count = min(n_v, q), borrow_count the colors borrowed in phase 2,
    b_v, n_prime, in_g2 (a bool), and upper (0/1, defined for G2 nodes)."""

    __slots__ = __match_args__ = ("omega", "q", "phase1_count", "borrow_count", "b_v",
                                  "n_prime", "in_g2", "upper")

    def __init__(self, omega: int, q: int, phase1_count: dict, borrow_count: dict, b_v: dict,
                 n_prime: dict, in_g2: dict, upper: dict):
        self._init(omega, q, phase1_count, borrow_count, b_v, n_prime, in_g2, upper)


def plan_43(instance: Instance) -> Plan43:
    """Per-node phase counts of the offline 4/3-approximation, plus a
    2-coloring of the bipartite leftover graph G2.

    Fails loudly (InternalConsistencyError) if G2 contains a triangle or an
    odd cycle, which the theory rules out.
    """
    if instance.graph.kind != "hexagonal":
        raise DomainError("plan_43 needs a hexagonal graph")
    if instance.has_cancellations():
        raise DomainError("plan_43 handles cancellation-free instances only")
    g, adj = instance.graph, instance.graph.adjacency
    dem = demand(instance)
    omega = clique_weight(g, dem)
    q = (omega + 1) // 3

    n_prime, b_v, phase1, borrow, in_g2 = {}, {}, {}, {}, {}
    for v in g.nodes:
        lender = BORROW_FROM[g.class_of[v]]
        lender_demands = [dem[u] for u in adj[v] if g.class_of[u] == lender]
        n_prime[v] = max(lender_demands, default=0)
        b_v[v] = max(0, q - n_prime[v])
        phase1[v] = min(dem[v], q)
        borrow[v] = min(dem[v] - q, b_v[v]) if dem[v] > q else 0
        in_g2[v] = dem[v] - phase1[v] - borrow[v] > 0

    g2_nodes = sorted(v for v in g.nodes if in_g2[v])
    pending = {v: dem[v] - phase1[v] - borrow[v] for v in g2_nodes}
    for u in g2_nodes:
        for w in adj[u]:
            if w <= u or w not in pending:
                continue
            if any(x in pending for x in adj[u].keys() & adj[w].keys()):
                raise InternalConsistencyError("triangle in G2")
            if pending[u] + pending[w] > omega - 2 * q:
                raise InternalConsistencyError("G2 edge exceeds the pending-pair bound")

    upper = _two_color(g, g2_nodes)
    return Plan43(omega=omega, q=q, phase1_count=phase1, borrow_count=borrow,
                  b_v=b_v, n_prime=n_prime, in_g2=in_g2, upper=upper)


def _two_color(g: Graph, g2_nodes):
    """BFS 2-coloring of the subgraph induced by g2_nodes; the smallest node
    of each component is lower (upper = 0)."""
    g2 = set(g2_nodes)
    upper = {}
    for root in g2_nodes:
        if root in upper:
            continue
        upper[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.adjacency[v]:
                    if u not in g2:
                        continue
                    if u not in upper:
                        upper[u] = 1 - upper[v]
                        nxt.append(u)
                    elif upper[u] == upper[v]:
                        raise InternalConsistencyError("G2 is not bipartite")
            frontier = nxt
    return upper


def advice_43(instance: Instance) -> AdviceTape:
    """Bit stream for the phase automaton of algorithms.hex43, written from
    plan_43: a 0 per private (phase-1) and per borrowed (phase-2) color, a 1
    where a node leaves phase 2, then its partition bit (1 = upper).

    A 1 also ends phase 1 of the first node to leave it, which freezes the
    palette at q; after that a node moves on silently once it holds q
    private colors.  The first upper partition bit is followed by 2 bits
    giving d = omega - 3q + 1, so upper nodes can color down from
    omega + q = floor((4*omega+1)/3).  Total length is at most n + 2|V|.
    """
    plan = plan_43(instance)
    tape = AdviceTape()
    frozen = header = False   # a stop bit has ended some phase 1; d is written
    seen = {v: 0 for v in instance.graph.nodes}   # requests to each node so far
    for r in instance.requests:
        v = r.node
        i, private = seen[v], plan.phase1_count[v]
        end = private + plan.borrow_count[v]   # the request that ends phase 2
        seen[v] += 1
        if i == private and not frozen:
            tape.write([1])
            frozen = True
        if i < end:
            tape.write([0])
        elif i == end:
            tape.write([1, plan.upper[v]])
            if plan.upper[v] and not header:
                d = plan.omega - 3 * plan.q + 1
                tape.write([d >> 1, d & 1])
                header = True
        # phase 3 requests consume no bits
    return tape
