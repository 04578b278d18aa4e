"""Tests for best-truss search (the PBKS paradigm on edges)."""

import numpy as np
import pytest

from repro.graph.generators import complete_graph, powerlaw_cluster
from repro.graph.graph import Graph
from repro.graph.properties import triangle_count
from repro.parallel.scheduler import SimulatedPool
from repro.truss.decomposition import EdgeIndex, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy
from repro.truss.search import TRUSS_METRICS, best_truss


@pytest.fixture
def setting():
    g = powerlaw_cluster(70, 3, 0.6, seed=4)
    index = EdgeIndex(g)
    trussness = truss_decomposition(g, index)
    hierarchy = truss_hierarchy(g, trussness, SimulatedPool(threads=2), index=index)
    return g, index, trussness, hierarchy


def community_subgraph(index, hierarchy, node):
    eids = hierarchy.reconstruct(node)
    pairs = [tuple(int(x) for x in index.edges[e]) for e in eids]
    vs = sorted({x for pair in pairs for x in pair})
    remap = {v: i for i, v in enumerate(vs)}
    return Graph.from_edges(
        [(remap[a], remap[b]) for a, b in pairs], num_vertices=len(vs)
    )


class TestValuesOracle:
    def test_every_node_matches_direct_recount(self, setting):
        g, index, trussness, hierarchy = setting
        res = best_truss(g, hierarchy, trussness, SimulatedPool(threads=3))
        for node in range(hierarchy.num_nodes):
            sub = community_subgraph(index, hierarchy, node)
            m_, tri = res.values[node]
            assert m_ == sub.num_edges
            assert tri == triangle_count(sub)

    @pytest.mark.parametrize("threads", [1, 4, 8])
    def test_thread_invariance(self, setting, threads):
        g, _, trussness, hierarchy = setting
        base = best_truss(g, hierarchy, trussness, SimulatedPool(threads=1))
        other = best_truss(
            g, hierarchy, trussness, SimulatedPool(threads=threads)
        )
        assert np.allclose(base.scores, other.scores)
        assert base.best_node == other.best_node


class TestBestTruss:
    def test_best_is_argmax(self, setting):
        g, _, trussness, hierarchy = setting
        for metric in TRUSS_METRICS:
            res = best_truss(
                g, hierarchy, trussness, SimulatedPool(), metric=metric
            )
            assert res.best_score == pytest.approx(float(res.scores.max()))
            assert res.metric_name == metric

    def test_clique_wins_average_support(self):
        # sparse chain + K6: the K6's community has max average support
        edges = [(i, i + 1) for i in range(10)]
        k6 = [(u + 11, v + 11) for u, v in complete_graph(6).edges()]
        g = Graph.from_edges(edges + k6 + [(10, 11)])
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        hierarchy = truss_hierarchy(g, trussness, SimulatedPool(), index=index)
        res = best_truss(g, hierarchy, trussness, SimulatedPool())
        assert res.best_k == 6
        assert set(res.best_vertices().tolist()) == set(range(11, 17))
        # K6 average support: each edge in 4 triangles
        assert res.best_score == pytest.approx(4.0)

    def test_unknown_metric(self, setting):
        g, _, trussness, hierarchy = setting
        with pytest.raises(KeyError):
            best_truss(g, hierarchy, trussness, SimulatedPool(), metric="nope")

    def test_empty_graph(self):
        g = Graph.empty(2)
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        hierarchy = truss_hierarchy(g, trussness, SimulatedPool(), index=index)
        res = best_truss(g, hierarchy, trussness, SimulatedPool())
        assert res.best_node == -1
        assert res.best_edges().size == 0

    def test_triangle_density_metric(self):
        # a single triangle has density 1 over its 3 edges: C(3,2)=3 pairs
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        index = EdgeIndex(g)
        trussness = truss_decomposition(g, index)
        hierarchy = truss_hierarchy(g, trussness, SimulatedPool(), index=index)
        res = best_truss(
            g, hierarchy, trussness, SimulatedPool(), metric="triangle_density"
        )
        assert res.best_k == 3
        assert res.best_score == pytest.approx(1.0 / 3.0)
