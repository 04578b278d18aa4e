"""Tests for HCD persistence, sparklines, and example smoke runs."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import ascii_series
from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD
from repro.core.lcps import lcps_build_hcd
from repro.errors import HierarchyError

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestHcdPersistence:
    def test_round_trip(self, tmp_path, paper_like_graph):
        coreness = core_decomposition(paper_like_graph)
        hcd = lcps_build_hcd(paper_like_graph, coreness)
        path = tmp_path / "index.npz"
        hcd.save(path)
        loaded = HCD.load(path)
        assert loaded.equivalent_to(hcd)
        assert np.array_equal(loaded.tid, hcd.tid)
        loaded.validate(paper_like_graph, coreness)

    def test_queries_survive_round_trip(self, tmp_path, random_graph):
        coreness = core_decomposition(random_graph)
        hcd = lcps_build_hcd(random_graph, coreness)
        path = tmp_path / "index.npz"
        hcd.save(path)
        loaded = HCD.load(path)
        for v in range(0, random_graph.num_vertices, 7):
            k = int(coreness[v])
            assert np.array_equal(
                loaded.k_core_containing(v, k), hcd.k_core_containing(v, k)
            )

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, node_coreness=np.zeros(1))
        with pytest.raises(HierarchyError):
            HCD.load(path)

    def test_empty_hierarchy(self, tmp_path):
        from repro.core.hcd import HCDBuilder

        empty = HCDBuilder(0).build()
        path = tmp_path / "empty.npz"
        empty.save(path)
        assert HCD.load(path).num_nodes == 0


class TestAsciiSeries:
    def test_monotone_ramp(self):
        art = ascii_series([1, 2, 4, 8, 16])
        assert len(art) == 5
        assert art[-1] == "@"
        assert art[0] != "@"

    def test_empty(self):
        assert ascii_series([]) == ""

    def test_all_zero(self):
        assert ascii_series([0, 0, 0]) == "   "

    def test_width(self):
        assert len(ascii_series([1, 2], width=3)) == 6


def _run_example(name: str, argv: list[str] | None = None) -> None:
    """Execute an example script in-process (asserts it completes)."""
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamplesSmoke:
    def test_quickstart(self, capsys):
        _run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "best k-core by average degree" in out

    def test_hierarchy_visualization(self, capsys):
        _run_example("hierarchy_visualization.py")
        out = capsys.readouterr().out
        assert "Graphviz DOT written" in out

    def test_scaling_study_small_dataset(self, capsys):
        _run_example("scaling_study.py", ["AS"])
        out = capsys.readouterr().out
        assert "PHCD's speedup over serial LCPS" in out

    def test_truss_communities(self, capsys):
        _run_example("truss_communities.py")
        out = capsys.readouterr().out
        assert "truss hierarchy:" in out
        assert "deepest community: a 5-truss" in out

    def test_nucleus_communities(self, capsys):
        _run_example("nucleus_communities.py")
        out = capsys.readouterr().out
        assert "nucleus hierarchy:" in out
        assert "deepest community: a 4-(3,4)-nucleus" in out
