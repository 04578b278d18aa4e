"""Tests for core decomposition: BZ reference, PKC, ParK, vertex rank."""

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition, k_core_members, shell_sizes
from repro.core.pkc import park_core_decomposition, pkc_core_decomposition
from repro.core.vertex_rank import compute_vertex_rank
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    star_graph,
)
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool


class TestBatageljZaversnik:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed, coreness_oracle):
        g = erdos_renyi(100, 0.05, seed=seed)
        assert np.array_equal(core_decomposition(g), coreness_oracle(g))

    def test_heavy_tailed(self, coreness_oracle):
        g = barabasi_albert(150, 4, seed=1)
        assert np.array_equal(core_decomposition(g), coreness_oracle(g))

    def test_complete(self):
        assert np.array_equal(core_decomposition(complete_graph(5)), [4] * 5)

    def test_cycle(self):
        assert np.array_equal(core_decomposition(cycle_graph(6)), [2] * 6)

    def test_star(self):
        assert np.array_equal(core_decomposition(star_graph(4)), [1] * 5)

    def test_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        assert np.array_equal(core_decomposition(g), [1, 1, 0, 0])

    def test_empty_graph(self):
        assert core_decomposition(Graph.empty(0)).size == 0

    def test_charges_pool(self):
        pool = SimulatedPool()
        core_decomposition(cycle_graph(5), pool)
        assert pool.clock > 0

    def test_mixed_components(self, coreness_oracle):
        edges = list(complete_graph(4).edges())
        edges += [(u + 4, v + 4) for u, v in cycle_graph(5).edges()]
        g = Graph.from_edges(edges, num_vertices=10)
        assert np.array_equal(core_decomposition(g), coreness_oracle(g))


class TestHelpers:
    def test_k_core_members(self):
        coreness = np.array([0, 1, 2, 2, 3])
        assert np.array_equal(k_core_members(coreness, 2), [2, 3, 4])
        assert k_core_members(coreness, 9).size == 0

    def test_shell_sizes(self):
        coreness = np.array([0, 1, 1, 2])
        assert np.array_equal(shell_sizes(coreness), [1, 2, 1])

    def test_shell_sizes_empty(self):
        assert np.array_equal(shell_sizes(np.array([], dtype=np.int64)), [0])


class TestParallelDecomposition:
    @pytest.mark.parametrize("threads", [1, 2, 4, 9])
    def test_pkc_matches_bz(self, threads, random_graph):
        expected = core_decomposition(random_graph)
        got = pkc_core_decomposition(random_graph, SimulatedPool(threads=threads))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_park_matches_bz(self, threads, random_graph):
        expected = core_decomposition(random_graph)
        got = park_core_decomposition(random_graph, SimulatedPool(threads=threads))
        assert np.array_equal(got, expected)

    def test_pkc_isolated(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        got = pkc_core_decomposition(g, SimulatedPool(threads=2))
        assert np.array_equal(got, [1, 1, 0])

    def test_park_scans_cost_more_than_pkc(self):
        g = barabasi_albert(200, 3, seed=0)
        pool_pkc = SimulatedPool(threads=4)
        pool_park = SimulatedPool(threads=4)
        pkc_core_decomposition(g, pool_pkc)
        park_core_decomposition(g, pool_park)
        assert pool_park.clock > pool_pkc.clock


class TestVertexRank:
    def test_rank_is_coreness_then_id(self, random_graph):
        coreness = core_decomposition(random_graph)
        res = compute_vertex_rank(random_graph, coreness, SimulatedPool(threads=3))
        n = random_graph.num_vertices
        expected_order = np.lexsort((np.arange(n), coreness))
        expected_rank = np.empty(n, dtype=np.int64)
        expected_rank[expected_order] = np.arange(n)
        assert np.array_equal(res.rank, expected_rank)
        assert np.array_equal(res.vsort, expected_order)

    def test_shells_partition(self, random_graph):
        coreness = core_decomposition(random_graph)
        res = compute_vertex_rank(random_graph, coreness, SimulatedPool(threads=2))
        seen = np.concatenate([s for s in res.shells if s.size])
        assert sorted(seen.tolist()) == list(range(random_graph.num_vertices))
        for k, shell in enumerate(res.shells):
            assert np.all(coreness[shell] == k)
            # ascending id inside each shell (Algorithm 1's concat order)
            assert np.all(np.diff(shell) > 0) or shell.size <= 1

    @pytest.mark.parametrize("threads", [1, 2, 4, 16])
    def test_thread_count_invariance(self, threads):
        g = erdos_renyi(60, 0.1, seed=0)
        coreness = core_decomposition(g)
        res = compute_vertex_rank(g, coreness, SimulatedPool(threads=threads))
        base = compute_vertex_rank(g, coreness, SimulatedPool(threads=1))
        assert np.array_equal(res.rank, base.rank)

    def test_kmax_property(self):
        g = complete_graph(4)
        res = compute_vertex_rank(g, core_decomposition(g), SimulatedPool())
        assert res.kmax == 3
