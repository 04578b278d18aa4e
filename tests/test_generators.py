"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.errors import GraphBuildError
from repro.graph.generators import (
    RMAT_MAX_SAMPLES,
    CoreChainResult,
    barabasi_albert,
    complete_graph,
    core_chain,
    cycle_graph,
    erdos_renyi,
    planted_partition,
    powerlaw_cluster,
    rmat,
    star_graph,
)


class TestErdosRenyi:
    def test_deterministic(self):
        assert erdos_renyi(50, 0.1, seed=3) == erdos_renyi(50, 0.1, seed=3)

    def test_seed_changes_graph(self):
        assert erdos_renyi(50, 0.1, seed=1) != erdos_renyi(50, 0.1, seed=2)

    def test_p_zero(self):
        assert erdos_renyi(10, 0.0).num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi(8, 1.0)
        assert g.num_edges == 28

    def test_edge_count_near_expectation(self):
        g = erdos_renyi(200, 0.05, seed=0)
        expected = 0.05 * 200 * 199 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_invalid_p(self):
        with pytest.raises(GraphBuildError):
            erdos_renyi(10, 1.5)

    def test_tiny_n(self):
        assert erdos_renyi(0, 0.5).num_vertices == 0
        assert erdos_renyi(1, 0.5).num_edges == 0


class TestBarabasiAlbert:
    def test_deterministic(self):
        assert barabasi_albert(60, 3, seed=5) == barabasi_albert(60, 3, seed=5)

    def test_edge_count(self):
        g = barabasi_albert(60, 3, seed=0)
        # m0 star (3 edges) + 56 vertices * 3 links, minus dedup losses
        assert g.num_edges == 3 + 56 * 3

    def test_connected(self):
        g = barabasi_albert(80, 2, seed=1)
        assert len(np.unique(g.connected_components())) == 1

    def test_min_degree(self):
        g = barabasi_albert(80, 4, seed=2)
        assert int(g.degrees().min()) >= 4 - 1  # hub star leaves have m'=1... relaxed

    def test_invalid_params(self):
        with pytest.raises(GraphBuildError):
            barabasi_albert(3, 5)
        with pytest.raises(GraphBuildError):
            barabasi_albert(10, 0)


class TestPowerlawCluster:
    def test_deterministic(self):
        a = powerlaw_cluster(70, 3, 0.4, seed=9)
        b = powerlaw_cluster(70, 3, 0.4, seed=9)
        assert a == b

    def test_triangle_prob_raises_clustering(self):
        from repro.graph.properties import triangle_count

        low = powerlaw_cluster(150, 3, 0.0, seed=4)
        high = powerlaw_cluster(150, 3, 0.9, seed=4)
        assert triangle_count(high) > triangle_count(low)

    def test_invalid_triangle_prob(self):
        with pytest.raises(GraphBuildError):
            powerlaw_cluster(10, 2, 1.5)


class TestRmat:
    def test_deterministic(self):
        assert rmat(8, 4, seed=7) == rmat(8, 4, seed=7)

    def test_vertex_count(self):
        assert rmat(8, 4, seed=0).num_vertices == 256

    def test_skewed_degrees(self):
        g = rmat(10, 8, seed=1)
        deg = g.degrees()
        assert deg.max() > 10 * max(1.0, float(np.median(deg[deg > 0])))

    def test_invalid_scale(self):
        with pytest.raises(GraphBuildError):
            rmat(0, 4)

    def test_invalid_probabilities(self):
        with pytest.raises(GraphBuildError):
            rmat(5, 4, a=0.9, b=0.2, c=0.2)

    def test_negative_edge_factor(self):
        with pytest.raises(GraphBuildError, match="edge_factor must be >= 1"):
            rmat(10, -1)

    def test_fractional_edge_factor(self):
        with pytest.raises(GraphBuildError, match="must be an integer"):
            rmat(10, 2.5)

    def test_oversized_sample_count(self):
        # 2**31 samples would need ~200 GiB; rejected before allocating
        with pytest.raises(GraphBuildError, match="RMAT_MAX_SAMPLES"):
            rmat(14, 131072)

    def test_edge_factor_edge_cases(self):
        for bad in (0, True, "8", None):
            with pytest.raises(GraphBuildError):
                rmat(6, bad)
        assert rmat(6, np.int64(4), seed=3) == rmat(6, 4, seed=3)

    def test_sample_cap_boundary(self):
        # scale 1 has two vertices: one factor past half the cap is over
        with pytest.raises(GraphBuildError, match="RMAT_MAX_SAMPLES"):
            rmat(1, RMAT_MAX_SAMPLES // 2 + 1)


class TestPlantedPartition:
    def test_deterministic(self):
        a = planted_partition(4, 20, 0.4, 0.01, seed=2)
        b = planted_partition(4, 20, 0.4, 0.01, seed=2)
        assert a == b

    def test_size(self):
        g = planted_partition(3, 15, 0.5, 0.02, seed=0)
        assert g.num_vertices == 45

    def test_blocks_denser_than_cross(self):
        g = planted_partition(3, 30, 0.5, 0.01, seed=1)
        inside = cross = 0
        for u, v in g.edges():
            if u // 30 == v // 30:
                inside += 1
            else:
                cross += 1
        assert inside > 3 * cross

    def test_invalid(self):
        with pytest.raises(GraphBuildError):
            planted_partition(0, 10, 0.5, 0.1)


class TestFixedShapes:
    def test_complete_graph_coreness(self):
        g = complete_graph(6)
        assert np.array_equal(core_decomposition(g), [5] * 6)

    def test_cycle_coreness(self):
        g = cycle_graph(7)
        assert np.array_equal(core_decomposition(g), [2] * 7)

    def test_cycle_too_small(self):
        with pytest.raises(GraphBuildError):
            cycle_graph(2)

    def test_star_coreness(self):
        g = star_graph(5)
        assert np.array_equal(core_decomposition(g), [1] * 6)


class TestCoreChain:
    def test_returns_ground_truth(self, chain_result):
        assert isinstance(chain_result, CoreChainResult)
        assert chain_result.tree_nodes  # non-empty
        assert len(chain_result.parents) == len(chain_result.tree_nodes)

    def test_tree_nodes_partition_vertices(self, chain_result):
        seen = set()
        for _, verts in chain_result.tree_nodes:
            assert not (seen & verts)
            seen |= verts
        assert seen == set(range(chain_result.graph.num_vertices))

    def test_node_coreness_matches_members(self, chain_result):
        for k, verts in chain_result.tree_nodes:
            for v in verts:
                assert chain_result.coreness[v] == k

    def test_parent_coreness_lower(self, chain_result):
        nodes = chain_result.tree_nodes
        for idx, pa in enumerate(chain_result.parents):
            if pa >= 0:
                assert nodes[pa][0] < nodes[idx][0]

    def test_designed_corenesses_present(self):
        res = core_chain([[6, 4, 2]])
        present = set(int(k) for k in np.unique(res.coreness))
        assert {6, 4, 2} <= present

    def test_invalid_branches(self):
        with pytest.raises(GraphBuildError):
            core_chain([[2, 3]])  # not decreasing
        with pytest.raises(GraphBuildError):
            core_chain([[]])
        with pytest.raises(GraphBuildError):
            core_chain([[0]])

    def test_default_branches(self):
        res = core_chain()
        assert res.graph.num_vertices > 0
