"""Tests for the k-truss extension (decomposition + hierarchy)."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    powerlaw_cluster,
)
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.truss.decomposition import EdgeIndex, edge_supports, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy
from tests.test_element_hierarchy import definitional_hierarchy, hierarchy_nodes


def nx_truss_edges(graph: Graph, k: int) -> set[tuple[int, int]]:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    return {tuple(sorted(e)) for e in nx.k_truss(g, k).edges()}


class TestEdgeIndex:
    def test_ids_cover_edges(self, triangle):
        index = EdgeIndex(triangle)
        assert len(index) == 3
        assert index.id_of(1, 0) == index.id_of(0, 1)

    def test_get_missing(self, triangle):
        assert EdgeIndex(triangle).get(0, 0) is None


class TestSupports:
    def test_triangle(self, triangle):
        assert np.array_equal(edge_supports(triangle), [1, 1, 1])

    def test_k5(self):
        supports = edge_supports(complete_graph(5))
        assert np.all(supports == 3)

    def test_path(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert np.array_equal(edge_supports(g), [0, 0])


class TestTrussDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx_all_k(self, seed):
        g = powerlaw_cluster(50, 3, 0.5, seed=seed)
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        for k in range(2, int(trussness.max()) + 1):
            mine = {
                tuple(int(x) for x in index.edges[e])
                for e in np.flatnonzero(trussness >= k)
            }
            assert mine == nx_truss_edges(g, k), (seed, k)

    def test_complete_graph(self):
        assert set(truss_decomposition(complete_graph(6)).tolist()) == {6}

    def test_triangle_free(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert set(truss_decomposition(g).tolist()) == {2}

    def test_empty(self):
        assert truss_decomposition(Graph.empty(3)).size == 0

    def test_charges_pool(self, triangle):
        pool = SimulatedPool()
        truss_decomposition(triangle, pool=pool)
        assert pool.clock > 0


class TestTrussHierarchy:
    @pytest.mark.parametrize("threads", [1, 3, 6])
    def test_nodes_match_definitional_oracle(self, threads):
        g = powerlaw_cluster(45, 3, 0.6, seed=2)
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        th = truss_hierarchy(g, trussness, SimulatedPool(threads=threads), index=index)
        th.validate(trussness)
        assert hierarchy_nodes(th) == definitional_hierarchy(index, trussness, 2)

    def test_thread_invariance(self):
        g = erdos_renyi(40, 0.15, seed=3)
        trussness = truss_decomposition(g)
        forms = [
            truss_hierarchy(g, trussness, SimulatedPool(threads=p)).canonical_form()
            for p in (1, 4)
        ]
        assert forms[0] == forms[1]

    def test_reconstruct_truss_is_k_truss_component(self):
        g = powerlaw_cluster(45, 3, 0.6, seed=5)
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        th = truss_hierarchy(g, trussness, SimulatedPool(threads=2), index=index)
        for node in range(th.num_nodes):
            k = int(th.node_level[node])
            edges = th.reconstruct(node)
            assert np.all(trussness[edges] >= k)
            own = th.members_of(node)
            assert np.all(trussness[own] == k)

    def test_two_cliques_give_two_deep_nodes(self):
        edges = list(complete_graph(5).edges())
        edges += [(u + 5, v + 5) for u, v in complete_graph(5).edges()]
        edges += [(0, 5)]  # bridge, trussness 2
        g = Graph.from_edges(edges)
        trussness = truss_decomposition(g)
        th = truss_hierarchy(g, trussness, SimulatedPool())
        ks = sorted(int(k) for k in th.node_level)
        assert ks == [2, 5, 5]
        # both K5 nodes hang under the level-2 root
        root = [i for i in range(3) if th.node_level[i] == 2][0]
        assert sorted(th.children[root]) == [
            i for i in range(3) if i != root
        ]

    def test_nested_trusses(self):
        # K6 with a pendant triangle fan: inner 6-truss under outer levels
        edges = list(complete_graph(6).edges())
        edges += [(0, 6), (1, 6)]  # vertex 6 closes one triangle (truss 3)
        g = Graph.from_edges(edges)
        trussness = truss_decomposition(g)
        th = truss_hierarchy(g, trussness, SimulatedPool(threads=2))
        th.validate(trussness)
        ks = sorted(int(k) for k in th.node_level)
        assert ks[-1] == 6
        assert 3 in ks

    def test_empty_graph(self):
        th = truss_hierarchy(Graph.empty(2), pool=SimulatedPool())
        assert th.num_nodes == 0
