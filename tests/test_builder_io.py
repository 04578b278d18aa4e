"""Tests for GraphBuilder and graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphBuildError, GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.checked import MAX_VERTICES
from repro.graph.graph import Graph
from repro.graph.io import (
    load_npz,
    parse_edge_lines,
    read_edge_list,
    read_metis,
    save_npz,
    write_edge_list,
    write_metis,
)


class TestBuilder:
    def test_basic_build(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_add_edges_bulk(self):
        g = GraphBuilder().add_edges([(0, 1), (1, 2), (2, 0)]).build()
        assert g.num_edges == 3

    def test_isolated_vertex(self):
        g = GraphBuilder().add_edge(0, 1).add_vertex(5).build()
        assert g.num_vertices == 6
        assert g.degree(5) == 0

    def test_num_recorded_edges(self):
        b = GraphBuilder().add_edge(0, 1).add_edge(0, 1)
        assert b.num_recorded_edges == 2  # pre-dedup count

    def test_relabel_strings(self):
        b = GraphBuilder(relabel=True)
        b.add_edge("alice", "bob").add_edge("bob", "carol")
        g = b.build()
        assert g.num_vertices == 3
        assert b.labels == ["alice", "bob", "carol"]
        assert b.label_to_id["carol"] == 2

    def test_relabel_sparse_ints(self):
        b = GraphBuilder(relabel=True)
        b.add_edge(1000, 2000)
        g = b.build()
        assert g.num_vertices == 2

    def test_build_consumes(self):
        b = GraphBuilder().add_edge(0, 1)
        b.build()
        with pytest.raises(GraphBuildError):
            b.build()
        with pytest.raises(GraphBuildError):
            b.add_edge(1, 2)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphBuildError):
            GraphBuilder().add_edge(-1, 0)

    def test_build_with_explicit_n(self):
        g = GraphBuilder().add_edge(0, 1).build(num_vertices=10)
        assert g.num_vertices == 10


class TestVertexRange:
    """A vertex count outside ``[0, MAX_VERTICES]`` or an id beyond int64
    is a typed input error, raised before anything of that size is
    allocated."""

    def test_edge_list_id_beyond_vertex_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 99999999999999\n")
        with pytest.raises(GraphFormatError, match="vertex count"):
            read_edge_list(path)

    def test_edge_list_id_beyond_int64(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 99999999999999999999999999\n")
        with pytest.raises(GraphFormatError, match="int64"):
            read_edge_list(path)

    def test_from_edges_vertex_count(self):
        with pytest.raises(GraphFormatError, match="vertex count"):
            Graph.from_edges([(0, 1)], num_vertices=10**14)
        with pytest.raises(GraphFormatError, match="vertex count"):
            Graph.from_edges([], num_vertices=-1)

    @pytest.mark.parametrize("n", [-1, MAX_VERTICES + 1])
    def test_empty_vertex_count(self, n):
        with pytest.raises(GraphFormatError, match="vertex count"):
            Graph.empty(n)

    def test_builder_vertex_count(self):
        with pytest.raises(GraphFormatError, match="vertex count"):
            GraphBuilder().add_vertex(10**14).build()
        with pytest.raises(GraphFormatError, match="vertex count"):
            GraphBuilder().add_edge(0, 1).build(num_vertices=10**14)


class TestEdgeList:
    def test_round_trip(self, tmp_path, paper_like_graph):
        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        loaded = read_edge_list(path)
        assert loaded == paper_like_graph

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% other comment\n0 1\n1 2\n// c\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 3.5\n1 2 1.0\n")
        assert read_edge_list(path).num_edges == 2

    def test_relabel_mode(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 300\n")
        g = read_edge_list(path, relabel=True)
        assert g.num_vertices == 3

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            list(parse_edge_lines(["0"]))

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            list(parse_edge_lines(["a b"]))


class TestMetis:
    def test_round_trip(self, tmp_path, paper_like_graph):
        path = tmp_path / "g.metis"
        write_metis(paper_like_graph, path)
        assert read_metis(path) == paper_like_graph

    def test_header_vertex_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")  # declares 3 vertices, lists 2
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_header_edge_mismatch(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_neighbor_out_of_range(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n9\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            read_metis(path)


class TestNpz:
    def test_round_trip(self, tmp_path, random_graph):
        path = tmp_path / "g.npz"
        save_npz(random_graph, path)
        assert load_npz(path) == random_graph

    def test_missing_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, foo=np.zeros(3))
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_isolated_vertices_preserved(self, tmp_path):
        g = Graph.from_edges([(0, 1)], num_vertices=7)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert load_npz(path).num_vertices == 7
