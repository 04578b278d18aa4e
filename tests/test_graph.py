"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.graph import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = Graph.from_edges([(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert g.degree(2) == 0

    def test_symmetry(self):
        g = Graph.from_edges([(0, 1), (2, 1)])
        assert g.has_edge(1, 0)
        assert g.has_edge(1, 2)

    def test_num_vertices_extends_universe(self):
        g = Graph.from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(-1, 2)])

    def test_empty(self):
        g = Graph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_empty_edge_list(self):
        g = Graph.from_edges([], num_vertices=2)
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_bad_edge_shape(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 1, 2)])


class TestInvariants:
    def test_constructor_validates_sorted_rows(self):
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        indices = np.array([2, 1, 0], dtype=np.int64)  # row 0 unsorted? 2,1
        with pytest.raises(GraphFormatError):
            Graph(indptr, indices)

    def test_constructor_validates_symmetry(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)  # 0->1 but no 1->0
        with pytest.raises(GraphFormatError):
            Graph(indptr, indices)

    def test_constructor_rejects_self_loop(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        with pytest.raises(GraphFormatError):
            Graph(indptr, indices)

    def test_constructor_rejects_out_of_range(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([7], dtype=np.int64)
        with pytest.raises(GraphFormatError):
            Graph(indptr, indices)

    def test_arrays_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.indptr[0] = 5
        with pytest.raises(ValueError):
            triangle.indices[0] = 5


class TestAccessors:
    def test_degrees(self, triangle):
        assert triangle.degree(0) == 2
        assert np.array_equal(triangle.degrees(), [2, 2, 2])

    def test_neighbors_sorted(self):
        g = Graph.from_edges([(3, 0), (3, 2), (3, 1)])
        assert np.array_equal(g.neighbors(3), [0, 1, 2])

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(0, 0)

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == pytest.approx(2.0)
        assert Graph.empty(0).average_degree() == 0.0

    def test_edges_each_once(self, triangle):
        edges = list(triangle.edges())
        assert sorted(edges) == [(0, 1), (0, 2), (1, 2)]
        assert all(u < v for u, v in edges)

    def test_edge_array_matches_edges(self, paper_like_graph):
        arr = paper_like_graph.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(
            paper_like_graph.edges()
        )

    def test_len(self, triangle):
        assert len(triangle) == 3


class TestSubgraphs:
    def test_induced_subgraph(self, paper_like_graph):
        sub, ids = paper_like_graph.induced_subgraph([0, 1, 2, 3, 4])
        assert sub.num_vertices == 5
        assert sub.num_edges == 10  # K5
        assert np.array_equal(ids, [0, 1, 2, 3, 4])

    def test_induced_subgraph_relabel(self):
        g = Graph.from_edges([(0, 5), (5, 9)])
        sub, ids = g.induced_subgraph([5, 9])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert np.array_equal(ids, [5, 9])

    def test_induced_subgraph_out_of_range(self, triangle):
        with pytest.raises(GraphFormatError):
            triangle.induced_subgraph([0, 99])

    def test_connected_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], num_vertices=5)
        labels = g.connected_components()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert labels[4] not in (labels[0], labels[2])

    def test_components_deterministic(self, random_graph):
        a = random_graph.connected_components()
        b = random_graph.connected_components()
        assert np.array_equal(a, b)


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self, triangle):
        other = Graph.from_edges([(0, 1), (1, 2)])
        assert triangle != other

    def test_eq_non_graph(self, triangle):
        assert triangle != "graph"

    def test_repr(self, triangle):
        assert repr(triangle) == "Graph(n=3, m=3)"
