import hashlib
import os
from itertools import product

import pytest

from multicolor.adversary import (
    hex_54,
    hex_chain,
    path_family,
    path_instance,
    random_cancel_instance,
    random_instance,
)
from multicolor.errors import DomainError
from multicolor.instance import demand
from multicolor.oracle import opt_exact
from conftest import all_two_colorings


class TestPathFamily:
    def test_lengths_and_count(self):
        fam = path_family(40)
        assert len(fam) == 11
        assert all(inst.n == 40 for inst in fam)

    def test_i2_demands(self):
        dem = demand(path_family(40)[2])
        assert {v: c for v, c in dem.items() if c} == {
            "v1": 10, "v4": 10, "v2": 2, "v3": 2, "v6": 6, "v8": 5, "v10": 5,
        }

    def test_i0_opt(self):
        assert opt_exact(path_family(40)[0]).opt_value == 10

    def test_shared_prefix(self):
        fam = path_family(40)
        m = 10
        assert fam[3].requests[: 2 * m] == fam[7].requests[: 2 * m]

    def test_all_opts(self):
        for i, inst in enumerate(path_family(40)):
            assert opt_exact(inst).opt_value == 10 + i

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            path_family(39)

    def test_path_instance_is_the_family_member(self):
        for n in (40, 41, 57):
            assert [path_instance(n, i) for i in range(n // 4 + 1)] == path_family(n)

    @pytest.mark.parametrize("n, i", [(39, 0), (40, 11), (40, -1)])
    def test_path_instance_refuses(self, n, i):
        with pytest.raises(DomainError):
            path_instance(n, i)


class TestHexChain:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_opt_two_all_branches(self, k):
        for branch in product((0, 1), repeat=k):
            inst = hex_chain(k, branch)
            assert opt_exact(inst).opt_value == 2, branch

    def test_request_count_k3(self):
        inst = hex_chain(3, (1, 0, 1))
        assert inst.n == 10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_o_node_relation_in_every_two_coloring(self, k):
        # O_{j-1} and O_j share a color iff branch bit j is 0
        for branch in product((0, 1), repeat=k):
            inst = hex_chain(k, branch)
            colorings = all_two_colorings(inst)
            assert colorings, branch
            for coloring in colorings:
                for j in range(1, k + 1):
                    same = coloring[f"O{j - 1}"] == coloring[f"O{j}"]
                    assert same == (branch[j - 1] == 0), (branch, j, coloring)

    def test_padding_requests(self):
        inst = hex_chain(1, (1,), pad_requests=4)
        assert inst.n == 8
        assert opt_exact(inst).opt_value == 4  # R alone needs 4 colors

    def test_negative_padding_rejected(self):
        with pytest.raises(DomainError, match="pad_requests >= 0, got -3"):
            hex_chain(1, (1,), pad_requests=-3)

    def test_bad_branch_rejected(self):
        with pytest.raises(DomainError):
            hex_chain(2, (0, 2))
        with pytest.raises(DomainError):
            hex_chain(0, ())


class TestHex54:
    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_opt_is_half_p(self, p, branch):
        assert opt_exact(hex_54(p, branch)).opt_value == p // 2

    def test_p_not_multiple_of_four(self):
        with pytest.raises(DomainError):
            hex_54(6, 0)

    def test_branch_not_0_or_1(self):
        with pytest.raises(DomainError, match="branch must be 0 or 1"):
            hex_54(8, 2)

    @pytest.mark.parametrize("branch, pair", [(0, ("S1", "S2")), (1, ("D1", "D2"))])
    def test_p_over_4_requests_per_node_in_chain_order(self, branch, pair):
        inst = hex_54(8, branch)
        assert inst.name == f"hex_54_p8_b{branch}"
        assert inst.graph == hex_chain(1, (branch,)).graph
        assert [(r.node, r.op) for r in inst.requests] == [
            (v, "color") for v in ("O0", "O1", *pair) for _ in range(2)]


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instance("bipartite", seed=7)
        b = random_instance("bipartite", seed=7)
        assert a.requests == b.requests and a.graph.edge_list() == b.graph.edge_list()

    def test_hex_deterministic(self):
        a = random_instance("hexagonal", seed=7)
        b = random_instance("hexagonal", seed=7)
        assert a.graph.cell_of == b.graph.cell_of and a.requests == b.requests

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            random_instance("path", seed=0)

    @pytest.mark.parametrize("n_nodes, grid_extent", [(17, 4), (1, 0)])
    def test_hexagonal_needs_a_cell_per_node(self, n_nodes, grid_extent):
        with pytest.raises(DomainError, match=f"fewer than {n_nodes} cells"):
            random_instance("hexagonal", seed=0, n_nodes=n_nodes, grid_extent=grid_extent)
        assert len(random_instance("hexagonal", seed=0, n_nodes=16).graph.nodes) == 16

    @pytest.mark.parametrize("n_nodes, side", [(1, 4), (16, 4), (17, 5), (25, 5), (26, 6),
                                               (200, 15)])
    def test_hexagonal_default_grid_is_the_smallest_from_4_that_holds_the_nodes(self, n_nodes,
                                                                                 side):
        inst = random_instance("hexagonal", seed=n_nodes, n_nodes=n_nodes, n_requests=30)
        assert len(inst.graph.nodes) == n_nodes
        assert inst == random_instance("hexagonal", seed=n_nodes, n_nodes=n_nodes, n_requests=30,
                                       grid_extent=side)
        if side > 4:
            with pytest.raises(DomainError, match=f"grid_extent {side - 1} has fewer than"):
                random_instance("hexagonal", seed=0, n_nodes=n_nodes, grid_extent=side - 1)

    def test_cancel_instances_servable_and_deterministic(self):
        a = random_cancel_instance(seed=11)
        b = random_cancel_instance(seed=11)
        assert a.requests == b.requests
        assert a.has_cancellations() or all(r.op == "color" for r in a.requests)
        from multicolor.instance import peak_clique_load

        assert peak_clique_load(a) >= 1

    def test_bipartite_generators_are_pinned(self):
        """sha256 over harness.instance_text of random_instance("bipartite")
        and then random_cancel_instance, per node count, edge density and
        seed, equals the digest in tests/data/random_bipartite_text.sha256,
        which the all-pairs scan of the nodes wrote: scanning only the
        cross-side pairs draws the same numbers."""
        from multicolor.harness import instance_text

        h = hashlib.sha256()
        for n_nodes, density, seed in product((1, 2, 3, 8, 30), (0, 0.06, 0.5, 1), range(5)):
            h.update(instance_text(random_instance("bipartite", seed=seed, n_nodes=n_nodes,
                                                   edge_density=density)).encode())
            h.update(instance_text(random_cancel_instance(seed=seed, n_nodes=n_nodes,
                                                          edge_density=density)).encode())
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "random_bipartite_text.sha256")) as fh:
            assert h.hexdigest() == fh.read().split()[0]
