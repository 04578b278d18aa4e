"""Round-trip properties of the three IO formats + NaN-score guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.graph.io import (
    load_npz,
    read_edge_list,
    read_metis,
    save_npz,
    write_edge_list,
    write_metis,
)
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import decompose
from repro.search.bks import bks_search
from repro.search.best_k import find_best_k
from repro.search import metrics
from repro.search.influential import InfluentialCommunityIndex
from repro.search.metrics import register_metric
from repro.search.pbks import pbks_search
from repro.search.result import best_finite_index
from repro.truss.decomposition import EdgeIndex, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy
from repro.truss.search import TRUSS_METRICS, best_truss


def _graph_with_isolated() -> Graph:
    """5 vertices; 0 and 3 isolated, a path 1-2-4."""
    builder = GraphBuilder()
    for v in range(5):
        builder.add_vertex(v)
    builder.add_edge(1, 2)
    builder.add_edge(2, 4)
    return builder.build(num_vertices=5)


def _same(a: Graph, b: Graph) -> bool:
    return (
        a.num_vertices == b.num_vertices
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )


class TestMetisRoundTrip:
    def test_isolated_vertices_survive(self, tmp_path):
        g = _graph_with_isolated()
        path = tmp_path / "g.metis"
        write_metis(g, path)
        assert _same(g, read_metis(path))

    def test_all_isolated(self, tmp_path):
        builder = GraphBuilder()
        for v in range(3):
            builder.add_vertex(v)
        g = builder.build(num_vertices=3)
        path = tmp_path / "g.metis"
        write_metis(g, path)
        g2 = read_metis(path)
        assert g2.num_vertices == 3 and g2.num_edges == 0

    def test_comments_skipped_blanks_kept(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text(
            "% leading comment\n"
            "4 1\n"
            "\n"  # vertex 0: isolated
            "# interleaved comment\n"
            "3\n"  # vertex 1: neighbor 2 (1-indexed 3)
            "2\n"  # vertex 2: neighbor 1
            "\n",  # vertex 3: isolated
            encoding="utf-8",
        )
        g = read_metis(path)
        assert g.num_vertices == 4 and g.num_edges == 1
        assert list(g.neighbors(1)) == [2]
        assert g.degrees()[0] == 0 and g.degrees()[3] == 0

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n2\n1\n\n\n", encoding="utf-8")
        g = read_metis(path)
        assert g.num_vertices == 2 and g.num_edges == 1

    def test_wrong_line_count_still_rejected(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n", encoding="utf-8")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_dense_roundtrip(self, paper_like_graph, tmp_path):
        path = tmp_path / "g.metis"
        write_metis(paper_like_graph, path)
        assert _same(paper_like_graph, read_metis(path))


class TestEdgeListRoundTrip:
    def test_roundtrip(self, paper_like_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        assert _same(paper_like_graph, read_edge_list(path))

    def test_weighted_extra_fields(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "# weighted\n0 1 3.5\n1 2 0.25 extra\n", encoding="utf-8"
        )
        g = read_edge_list(path)
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_comment_styles(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "# hash\n% percent\n// slashes\n\n0 1\n", encoding="utf-8"
        )
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_relabel_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1000000 42\n42 7\n", encoding="utf-8")
        g = read_edge_list(path, relabel=True)
        # first-seen compaction: 1000000->0, 42->1, 7->2
        assert g.num_vertices == 3 and g.num_edges == 2
        assert sorted(int(v) for v in g.neighbors(1)) == [0, 2]


class TestNpzRoundTrip:
    def test_roundtrip_with_isolated(self, tmp_path):
        g = _graph_with_isolated()
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert _same(g, load_npz(path))

    def test_roundtrip_dense(self, paper_like_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(paper_like_graph, path)
        assert _same(paper_like_graph, load_npz(path))


# ----------------------------------------------------------------------
# NaN-score regressions: argmax must never be poisoned
# ----------------------------------------------------------------------


class TestBestFiniteIndex:
    def test_all_nan(self):
        assert best_finite_index(np.array([np.nan, np.nan])) == -1

    def test_empty(self):
        assert best_finite_index(np.array([])) == -1

    def test_nan_skipped(self):
        assert best_finite_index(np.array([np.nan, 2.0, 3.0, np.nan])) == 2

    def test_neg_inf_not_a_winner(self):
        assert best_finite_index(np.array([-np.inf, 1.0])) == 1
        assert best_finite_index(np.array([-np.inf, -np.inf])) == -1

    def test_pos_inf_is_a_legitimate_winner(self):
        # e.g. separability of a boundary-free component
        assert best_finite_index(np.array([1.0, np.inf, np.nan])) == 1


class TestNanMetricGuards:
    @pytest.fixture(autouse=True)
    def _scratch_registry(self, monkeypatch):
        # the metrics registered here must not leak into later tests
        # (the synthetic serving trace draws from metric_names())
        monkeypatch.setattr(metrics, "_REGISTRY", dict(metrics._REGISTRY))

    @pytest.fixture()
    def deco(self, paper_like_graph):
        return decompose(paper_like_graph, threads=4, parallel=True)

    def test_pbks_all_nan_reports_no_winner(self, paper_like_graph, deco):
        metric = register_metric(
            "_test_nan_all", "A", lambda values, totals: float("nan")
        )
        pool = SimulatedPool(threads=4)
        result = pbks_search(
            paper_like_graph, deco.coreness, deco.hcd, metric, pool
        )
        assert result.best_node == -1
        assert result.best_k == -1
        assert result.best_score == float("-inf")

    def test_pbks_partial_nan_picks_best_finite(
        self, paper_like_graph, deco
    ):
        def score(values, totals):
            return values.n if values.n >= 6 else float("nan")

        metric = register_metric("_test_nan_some", "A", score)
        pool = SimulatedPool(threads=4)
        result = pbks_search(
            paper_like_graph, deco.coreness, deco.hcd, metric, pool
        )
        assert np.isfinite(result.best_score)
        finite = result.scores[np.isfinite(result.scores)]
        assert result.best_score == finite.max()

    def test_bks_all_nan(self, paper_like_graph, deco):
        metric = register_metric(
            "_test_nan_bks", "A", lambda values, totals: float("nan")
        )
        pool = SimulatedPool(threads=1)
        result = bks_search(
            paper_like_graph, deco.coreness, deco.hcd, metric, pool
        )
        assert result.best_node == -1

    def test_find_best_k_all_nan(self, paper_like_graph, deco):
        metric = register_metric(
            "_test_nan_bestk", "A", lambda values, totals: float("nan")
        )
        pool = SimulatedPool(threads=1)
        result = find_best_k(paper_like_graph, deco.coreness, metric, pool)
        assert result.best_k == -1
        assert result.best_score == float("-inf")

    def test_truss_all_nan(self, paper_like_graph):
        pool = SimulatedPool(threads=2)
        index = EdgeIndex(paper_like_graph)
        trussness = truss_decomposition(paper_like_graph, index, pool)
        hierarchy = truss_hierarchy(
            paper_like_graph, trussness, pool=pool, index=index
        )
        TRUSS_METRICS["_test_nan"] = lambda m, tri: float("nan")
        try:
            result = best_truss(
                index,
                hierarchy,
                trussness,
                pool,
                metric="_test_nan",
            )
        finally:
            del TRUSS_METRICS["_test_nan"]
        assert result.best_node == -1
        assert result.best_edges().size == 0

    def test_influential_nan_weights_rank_last(self):
        # two disjoint triangles -> two maximal 2-cores
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Graph.from_edges(edges)
        deco = decompose(g, threads=2, parallel=True)
        weights = np.array([1.0, 2.0, 3.0, np.nan, 5.0, 6.0])
        index = InfluentialCommunityIndex(deco.hcd, weights)
        top = index.top_r(2, 2)
        assert len(top) == 2
        # the NaN-weighted community must not outrank the finite one
        assert np.isfinite(top[0].influence)
