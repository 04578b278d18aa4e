"""Tests for the (3,4)-nucleus extension (the paper's named open gap)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import complete_graph, erdos_renyi, powerlaw_cluster
from repro.graph.graph import Graph
from repro.graph.properties import triangle_count
from repro.nucleus import (
    TriangleIndex,
    nucleus_decomposition,
    nucleus_hierarchy,
    triangle_supports,
    vertices_of_nucleus,
)
from repro.parallel.scheduler import SimulatedPool


class TestTriangleIndex:
    @pytest.mark.parametrize("seed", range(4))
    def test_enumerates_all_triangles(self, seed):
        g = erdos_renyi(30, 0.25, seed=seed)
        index = TriangleIndex(g)
        assert len(index) == triangle_count(g)

    def test_lookup(self, triangle):
        index = TriangleIndex(triangle)
        assert index.id_of(2, 0, 1) == 0
        assert index.get(0, 1, 1) is None

    def test_k4_companions_in_k4(self):
        g = complete_graph(4)
        index = TriangleIndex(g)
        assert len(index) == 4
        for tid in range(4):
            companions = index.companions(tid)
            assert len(companions) == 1
            assert sorted(companions[0]) == sorted(
                x for x in range(4) if x != tid
            )

    def test_triangle_free(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert len(TriangleIndex(g)) == 0


class TestSupports:
    def test_k5_supports(self):
        g = complete_graph(5)
        assert np.all(triangle_supports(g) == 2)

    def test_no_k4_zero_support(self, triangle):
        assert np.array_equal(triangle_supports(triangle), [0])


class TestNucleusDecomposition:
    @pytest.mark.parametrize("n,expected", [(4, 1), (5, 2), (6, 3), (7, 4)])
    def test_complete_graphs(self, n, expected):
        # in K_n every triangle lies in n-3 K4s, all symmetric
        theta = nucleus_decomposition(complete_graph(n))
        assert set(theta.tolist()) == {expected}

    def test_k4_free_graph(self):
        g = powerlaw_cluster(40, 2, 0.9, seed=0)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        supports = triangle_supports(g, index)
        assert np.all(theta[supports == 0] == 0)

    def test_soundness_every_level(self):
        """theta >= k members each keep >= k intact K4s at level k."""
        g = erdos_renyi(22, 0.45, seed=3)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        for k in range(1, int(theta.max()) + 1):
            members = set(int(x) for x in np.flatnonzero(theta >= k))
            for tid in members:
                intact = sum(
                    1
                    for comp in index.companions(tid)
                    if all(x in members for x in comp)
                )
                assert intact >= k

    def test_maximality_against_support_bound(self):
        # theta can never exceed the raw K4 support
        g = erdos_renyi(20, 0.5, seed=5)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        assert np.all(theta <= triangle_supports(g, index))

    def test_empty(self):
        assert nucleus_decomposition(Graph.empty(3)).size == 0

    def test_charges_pool(self):
        pool = SimulatedPool()
        nucleus_decomposition(complete_graph(5), pool=pool)
        assert pool.clock > 0

    @settings(max_examples=20, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=40,
        )
    )
    def test_property_soundness(self, edges):
        g = Graph.from_edges(edges, num_vertices=12)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        for k in range(1, int(theta.max()) + 1 if theta.size else 1):
            members = set(int(x) for x in np.flatnonzero(theta >= k))
            for tid in members:
                intact = sum(
                    1
                    for comp in index.companions(tid)
                    if all(x in members for x in comp)
                )
                assert intact >= k


class TestNucleusHierarchy:
    def test_two_k5s_two_deep_nodes(self):
        edges = list(complete_graph(5).edges())
        edges += [(u + 5, v + 5) for u, v in complete_graph(5).edges()]
        edges += [(0, 5), (1, 5)]  # a bridge triangle-free-ish junction
        g = Graph.from_edges(edges)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        h = nucleus_hierarchy(g, theta, SimulatedPool(), index=index)
        h.validate_levels(theta)
        deep = [i for i in range(h.num_nodes) if h.node_coreness[i] == 2]
        assert len(deep) == 2
        sides = {frozenset(vertices_of_nucleus(index, h, i).tolist()) for i in deep}
        assert sides == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_nested_levels(self):
        # K6 with a K4 pendant sharing one triangle's worth of structure
        edges = list(complete_graph(6).edges())
        edges += [(0, 6), (1, 6), (2, 6)]  # vertex 6 forms K4 {0,1,2,6}
        g = Graph.from_edges(edges)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        h = nucleus_hierarchy(g, theta, SimulatedPool(threads=2), index=index)
        h.validate_levels(theta)
        assert int(h.node_coreness.max()) >= 3

    @pytest.mark.parametrize("threads", [1, 3, 6])
    def test_thread_invariance(self, threads):
        g = powerlaw_cluster(40, 3, 0.8, seed=2)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        base = nucleus_hierarchy(g, theta, SimulatedPool(threads=1), index=index)
        other = nucleus_hierarchy(
            g, theta, SimulatedPool(threads=threads), index=index
        )
        assert base.canonical_form() == other.canonical_form()

    def test_reconstruct_nucleus_theta_floor(self):
        g = erdos_renyi(22, 0.45, seed=7)
        index = TriangleIndex(g)
        theta = nucleus_decomposition(g, index)
        h = nucleus_hierarchy(g, theta, SimulatedPool(), index=index)
        for node in range(h.num_nodes):
            k = int(h.node_coreness[node])
            tris = h.reconstruct_core(node)
            assert np.all(theta[tris] >= k)
            own = h.vertices_of(node)
            assert np.all(theta[own] == k)

    def test_empty_graph(self):
        h = nucleus_hierarchy(Graph.empty(2), pool=SimulatedPool())
        assert h.num_nodes == 0
