"""Tests for batched parallel maintenance, DynamicCSR, and delta publishing.

Covers the batched repair path (``DynamicGraph.apply_batch`` /
``batch_repair``), the slack-capacity adjacency structure backing it,
the dynamic-update bugfix regressions (endpoint validation, batch
atomicity), and delta snapshot publishing.  The load-bearing property:
``apply_batch`` is **bit-identical** to per-edge maintenance and to a
from-scratch ``core_decomposition`` at every thread count.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.datasets import load
from repro.core.decomposition import core_decomposition
from repro.dynamic import DynamicCSR, DynamicGraph, batch_repair, normalize_batch
from repro.errors import GraphBuildError
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

THREADS = [1, 2, 4, 8]


def recompute(dyn: DynamicGraph) -> np.ndarray:
    return core_decomposition(dyn.to_graph())


def edge_set(graph: Graph) -> set:
    return {tuple(e) for e in graph.edge_array().tolist()}


# ----------------------------------------------------------------------
# DynamicCSR
# ----------------------------------------------------------------------


class TestDynamicCSR:
    def test_round_trip(self, paper_like_graph):
        acsr = DynamicCSR.from_graph(paper_like_graph)
        back = acsr.to_csr()
        assert np.array_equal(back.indptr, paper_like_graph.indptr)
        assert np.array_equal(back.indices, paper_like_graph.indices)

    def test_empty_graph(self):
        acsr = DynamicCSR.from_graph(Graph.from_edges([], num_vertices=0))
        assert acsr.num_vertices == 0
        assert acsr.to_csr().num_edges == 0

    def test_insert_remove_membership(self, triangle):
        acsr = DynamicCSR.from_graph(triangle)
        assert acsr.has(0, 1)
        acsr.remove(0, 1)
        assert not acsr.has(0, 1)
        acsr.insert(0, 1)
        assert acsr.has(0, 1) and acsr.has(1, 0)

    def test_insert_present_raises(self, triangle):
        acsr = DynamicCSR.from_graph(triangle)
        with pytest.raises(GraphBuildError):
            acsr.insert(0, 1)

    def test_remove_absent_raises(self, triangle):
        acsr = DynamicCSR.from_graph(triangle)
        acsr.remove(0, 1)
        with pytest.raises(GraphBuildError):
            acsr.remove(0, 1)

    def test_rows_stay_sorted_through_relocation(self):
        # vertex 0 starts with degree 1; repeated insertions overflow its
        # slack capacity and force tail relocations
        graph = Graph.from_edges([(0, 1)], num_vertices=40)
        acsr = DynamicCSR.from_graph(graph)
        for v in range(2, 40):
            acsr.insert(0, v)
        row = acsr.neighbors(0)
        assert list(row) == sorted(row)
        assert acsr.degree(0) == 39

    def test_compact_preserves_contents(self):
        graph = erdos_renyi(60, 0.15, seed=3)
        acsr = DynamicCSR.from_graph(graph)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = sorted(rng.integers(0, 60, 2).tolist())
            if u == v:
                continue
            if acsr.has(u, v):
                acsr.remove(u, v)
            else:
                acsr.insert(u, v)
        before = edge_set(acsr.to_csr())
        acsr.compact()
        assert edge_set(acsr.to_csr()) == before
        assert acsr.dead_space == 0

    def test_random_mutations_match_reference(self):
        graph = erdos_renyi(50, 0.1, seed=7)
        acsr = DynamicCSR.from_graph(graph)
        reference = edge_set(graph)
        rng = np.random.default_rng(7)
        for step in range(400):
            u, v = sorted(rng.integers(0, 50, 2).tolist())
            if u == v:
                continue
            if (u, v) in reference:
                acsr.remove(u, v)
                reference.discard((u, v))
            else:
                acsr.insert(u, v)
                reference.add((u, v))
            if step % 100 == 99:
                assert edge_set(acsr.to_csr()) == reference
        assert edge_set(acsr.to_csr()) == reference


# ----------------------------------------------------------------------
# normalize_batch
# ----------------------------------------------------------------------


class TestNormalizeBatch:
    def test_canonicalizes_and_dedups(self):
        edges, skipped = normalize_batch(
            [(3, 1), (1, 3), (2, 2), (0, 4)], 5, where="insertions"
        )
        assert edges == [(1, 3), (0, 4)]
        assert (1, 3, "duplicate") in skipped
        assert (2, 2, "self-loop") in skipped

    def test_out_of_range_names_position(self):
        with pytest.raises(GraphBuildError, match="insertions\\[1\\]"):
            normalize_batch([(0, 1), (0, 9)], 5, where="insertions")
        with pytest.raises(GraphBuildError, match="deletions\\[0\\]"):
            normalize_batch([(-1, 2)], 5, where="deletions")


# ----------------------------------------------------------------------
# apply_batch correctness
# ----------------------------------------------------------------------


class TestApplyBatch:
    def test_k4_from_empty_jumps_levels(self):
        # inserting all of K4 at once lifts every vertex 0 -> 3 in one
        # batch: the promote sweep must ratchet through the intermediate
        # levels
        dyn = DynamicGraph(Graph.from_edges([], num_vertices=4))
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        report = dyn.apply_batch(insertions=edges)
        assert report.applied == 6
        assert np.array_equal(dyn.coreness, [3, 3, 3, 3])
        assert np.array_equal(dyn.coreness, recompute(dyn))

    def test_clique_teardown_cascades(self):
        # deleting one K5 vertex's edges demotes the rest 4 -> 3
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        dyn = DynamicGraph(Graph.from_edges(edges, num_vertices=5))
        report = dyn.apply_batch(deletions=[(0, v) for v in range(1, 5)])
        assert report.applied == 4
        assert np.array_equal(dyn.coreness, [0, 3, 3, 3, 3])
        assert np.array_equal(dyn.coreness, recompute(dyn))

    def test_mixed_batch_matches_per_edge(self):
        graph = powerlaw_cluster(120, 3, 0.3, seed=11)
        batched = DynamicGraph(graph)
        per_edge = DynamicGraph(graph)
        present = sorted(edge_set(graph))
        deletions = present[:: len(present) // 10][:10]
        insertions = [(0, 100), (1, 101), (2, 102), (3, 103)]

        batched.apply_batch(insertions=insertions, deletions=deletions)
        for u, v in insertions:
            per_edge.insert_edge(u, v)
        for u, v in deletions:
            per_edge.delete_edge(u, v)

        assert np.array_equal(batched.coreness, per_edge.coreness)
        assert np.array_equal(batched.coreness, recompute(batched))
        assert edge_set(batched.to_graph()) == edge_set(per_edge.to_graph())

    def test_skip_policy_matches_per_edge_batches(self, triangle):
        dyn = DynamicGraph(triangle)
        report = dyn.apply_batch(
            insertions=[(0, 1), (1, 1)], deletions=[(0, 2), (0, 2)]
        )
        assert report.applied == 1
        assert (0, 1, "present") in report.skipped
        assert (1, 1, "self-loop") in report.skipped
        assert (0, 2, "duplicate") in report.skipped

    def test_empty_batch_is_noop(self, triangle):
        dyn = DynamicGraph(triangle)
        report = dyn.apply_batch()
        assert report.applied == 0 and report.changed == 0
        assert dyn.mutation_count == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_property_random_batches(self, seed):
        """Random mixed batches with duplicate/reversed/self-loop noise
        stay bit-identical to per-edge maintenance and to recompute."""
        rng = np.random.default_rng(seed)
        n = 60
        graph = erdos_renyi(n, 0.08, seed=seed)
        batched = DynamicGraph(graph)
        per_edge = DynamicGraph(graph)

        for _ in range(4):
            present = sorted(edge_set(batched.to_graph()))
            k = min(len(present), int(rng.integers(2, 8)))
            idx = rng.choice(len(present), size=k, replace=False)
            deletions = [present[i] for i in sorted(idx.tolist())]
            insertions = []
            absent = set(present)
            while len(insertions) < 6:
                u, v = sorted(rng.integers(0, n, 2).tolist())
                if u != v and (u, v) not in absent:
                    absent.add((u, v))
                    insertions.append((u, v))
            # noise: reversed duplicate, exact duplicate, self-loop
            noisy_ins = insertions + [insertions[0][::-1], (5, 5)]
            noisy_dels = deletions + [deletions[0]]

            report = batched.apply_batch(
                insertions=noisy_ins, deletions=noisy_dels
            )
            assert report.applied == len(insertions) + len(deletions)
            for u, v in insertions:
                per_edge.insert_edge(u, v)
            for u, v in deletions:
                per_edge.delete_edge(u, v)

            assert np.array_equal(batched.coreness, per_edge.coreness)
            assert np.array_equal(batched.coreness, recompute(batched))

    @pytest.mark.parametrize("threads", THREADS)
    def test_thread_count_invariance(self, threads):
        graph = powerlaw_cluster(100, 3, 0.25, seed=23)
        present = sorted(edge_set(graph))
        deletions = present[:: len(present) // 8][:8]
        insertions = [(0, 90), (1, 91), (2, 92), (4, 93), (5, 94)]

        dyn = DynamicGraph(graph)
        pool = SimulatedPool(threads=threads)
        report = dyn.apply_batch(
            insertions=insertions, deletions=deletions, pool=pool
        )
        # canonical result: identical at every width
        assert np.array_equal(dyn.coreness, recompute(dyn))
        serial = DynamicGraph(graph)
        serial_report = serial.apply_batch(
            insertions=insertions, deletions=deletions, threads=1
        )
        assert np.array_equal(dyn.coreness, serial.coreness)
        assert report.changed == serial_report.changed
        assert report.rounds == serial_report.rounds

    def test_batch_repair_direct(self):
        # the kernel-level entry point used by the sanitizer harness
        graph = powerlaw_cluster(80, 3, 0.3, seed=31)
        coreness = core_decomposition(graph).astype(np.int64)
        acsr = DynamicCSR.from_graph(graph)
        acsr.insert(0, 70)
        acsr.insert(1, 71)
        changed, rounds = batch_repair(
            acsr,
            coreness,
            inserted=[(0, 70), (1, 71)],
            deleted=[],
            pool=SimulatedPool(threads=4),
        )
        assert rounds >= 1
        assert np.array_equal(coreness, core_decomposition(acsr.to_csr()))
        for v in changed:
            assert 0 <= v < 80


# ----------------------------------------------------------------------
# bugfix regressions
# ----------------------------------------------------------------------


class TestEndpointValidationRegression:
    """has_edge used to wrap negative indices and leak IndexError."""

    def test_negative_index_rejected(self, triangle):
        dyn = DynamicGraph(triangle)
        with pytest.raises(GraphBuildError):
            dyn.has_edge(-1, 0)

    def test_past_end_rejected(self, triangle):
        dyn = DynamicGraph(triangle)
        with pytest.raises(GraphBuildError):
            dyn.has_edge(0, dyn.num_vertices)

    def test_self_query_is_false_not_error(self, triangle):
        assert DynamicGraph(triangle).has_edge(0, 0) is False


class TestBatchAtomicityRegression:
    """A bad endpoint mid-batch used to leave earlier edges applied."""

    def test_insert_batch_validates_up_front(self, triangle):
        dyn = DynamicGraph(triangle)
        before = dyn.coreness.copy()
        with pytest.raises(GraphBuildError):
            dyn.insert_edges([(0, 1), (0, 99)])
        assert edge_set(dyn.to_graph()) == edge_set(triangle)
        assert np.array_equal(dyn.coreness, before)
        assert dyn.mutation_count == 0

    def test_delete_batch_validates_up_front(self, triangle):
        dyn = DynamicGraph(triangle)
        with pytest.raises(GraphBuildError):
            dyn.delete_edges([(0, 1), (-2, 1)])
        assert edge_set(dyn.to_graph()) == edge_set(triangle)
        assert dyn.mutation_count == 0

    def test_apply_batch_validates_both_lists_up_front(self, triangle):
        dyn = DynamicGraph(triangle)
        with pytest.raises(GraphBuildError):
            dyn.apply_batch(insertions=[(0, 1)], deletions=[(99, 0)])
        assert edge_set(dyn.to_graph()) == edge_set(triangle)
        assert dyn.mutation_count == 0


# ----------------------------------------------------------------------
# delta publishing
# ----------------------------------------------------------------------


class TestDeltaSnapshots:
    def _mutated(self, seed=13):
        graph = powerlaw_cluster(110, 3, 0.3, seed=seed)
        dyn = DynamicGraph(graph)
        present = sorted(edge_set(graph))
        dyn.apply_batch(
            insertions=[(0, 100), (2, 101)],
            deletions=present[:: len(present) // 6][:6],
        )
        return dyn

    def test_delta_equals_full_rebuild(self):
        from repro.serve.snapshot import snapshot_from_dynamic

        base_dyn = DynamicGraph(powerlaw_cluster(110, 3, 0.3, seed=13))
        base = snapshot_from_dynamic(base_dyn, threads=2, name="s")
        dyn = self._mutated()
        delta = snapshot_from_dynamic(
            dyn, threads=2, name="s", previous=base
        )
        full = snapshot_from_dynamic(dyn, threads=2, name="s")
        for key, value in full.arrays().items():
            assert np.array_equal(delta.arrays()[key], value), key
        assert "delta" in delta.build_info

    def test_rank_reused_when_coreness_unchanged(self):
        from repro.serve.snapshot import snapshot_from_dynamic

        # an edge between two vertices of strictly higher coreness
        # leaves the coreness array untouched
        dyn = self._mutated()
        base = snapshot_from_dynamic(dyn, threads=2, name="s")
        inserted = False
        for u in range(dyn.num_vertices):
            for v in range(u + 1, dyn.num_vertices):
                if dyn.has_edge(u, v):
                    continue
                dyn.insert_edge(u, v)
                if np.array_equal(dyn.coreness, base.coreness):
                    inserted = True
                    break
                dyn.delete_edge(u, v)  # promoted someone; undo and keep looking
            if inserted:
                break
        assert inserted, "no coreness-neutral edge found in the stand-in"
        delta = snapshot_from_dynamic(
            dyn, threads=2, name="s", previous=base
        )
        assert "rank" in delta.build_info.get("delta", "")

    def test_feed_debounce_and_flush(self, tmp_path):
        from repro.serve import DynamicServingFeed, SnapshotCatalog

        dyn = DynamicGraph(powerlaw_cluster(60, 3, 0.3, seed=17))
        cat = SnapshotCatalog(tmp_path)
        feed = DynamicServingFeed(
            dyn, cat, name="live", threads=2, publish_every=3
        )
        assert feed.publish() == 1
        assert feed.insert_edge(0, 50) is None
        assert feed.insert_edge(1, 51) is None
        assert feed.pending_mutations == 2
        assert feed.insert_edge(2, 52) == 2  # window filled
        assert feed.pending_mutations == 0
        assert feed.flush() is None  # nothing buffered
        assert feed.delete_edge(0, 50) is None
        assert feed.flush() == 3
        assert cat.latest_version("live") == 3

    def test_feed_batch_counts_applied_mutations(self, tmp_path):
        from repro.serve import DynamicServingFeed, SnapshotCatalog

        dyn = DynamicGraph(powerlaw_cluster(60, 3, 0.3, seed=19))
        cat = SnapshotCatalog(tmp_path)
        feed = DynamicServingFeed(
            dyn, cat, name="live", threads=2, publish_every=4
        )
        feed.publish()
        # three applied mutations (the self-loop is skipped) < window
        assert (
            feed.apply_batch(insertions=[(0, 50), (1, 51), (2, 2), (3, 52)])
            is None
        )
        assert feed.pending_mutations == 3
        assert feed.apply_batch(deletions=[(0, 50)]) == 2  # fills window
        assert feed.pending_mutations == 0

    def test_publish_every_validated(self, tmp_path):
        from repro.serve import DynamicServingFeed, SnapshotCatalog

        dyn = DynamicGraph(powerlaw_cluster(30, 2, 0.2, seed=1))
        with pytest.raises(ValueError):
            DynamicServingFeed(
                dyn, SnapshotCatalog(tmp_path), name="x", publish_every=0
            )


def test_committed_bench_dynamic_repair_is_reproduced():
    # the maintenance, threads and recompute sections of
    # BENCH_dynamic.json hold only work units, sim clocks and counts, so
    # the bench must rebuild them exactly; re-record the file (make
    # bench-dynamic) whenever repair accounting legitimately moves
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_dynamic", root / "benchmarks" / "bench_dynamic.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    committed = json.loads(
        (root / "benchmarks" / "results" / "BENCH_dynamic.json").read_text()
    )
    graph = load(bench.DATASET).graph
    insertions, deletions = bench._mutation_batch(graph)
    rebuilt = {
        "maintenance": bench._maintenance(graph, insertions, deletions),
        "threads": bench._determinism(graph, insertions, deletions),
        "recompute": bench._recompute(graph, insertions, deletions),
    }
    assert json.loads(json.dumps(rebuilt)) == {
        "maintenance": committed["maintenance"],
        "threads": committed["threads"],
        "recompute": committed["recompute"],
    }


def test_committed_bench_dynamic_publishing_is_reproduced():
    # the publishing section holds only publish counts, sim clocks and
    # work units (serve_work_units covers the serving layer's shared
    # passes and score folds), so the bench must rebuild it exactly
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_dynamic", root / "benchmarks" / "bench_dynamic.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    committed = json.loads(
        (root / "benchmarks" / "results" / "BENCH_dynamic.json").read_text()
    )
    graph = load(bench.DATASET).graph
    insertions, deletions = bench._mutation_batch(graph)
    rebuilt = bench._publishing(graph, insertions, deletions)
    assert json.loads(json.dumps(rebuilt)) == committed["publishing"]
