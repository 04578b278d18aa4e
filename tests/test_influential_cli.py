"""Tests for the influential-community index, local core queries, CLI."""

import math

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.core.lcps import lcps_build_hcd
from repro.core.local_search import local_core_search
from repro.graph.generators import complete_graph, rmat, star_graph
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray
from repro.parallel.context import ThreadContext, native
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.observers import ObserverFanout
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.detector import RaceDetector
from repro.search import influential
from repro.search.influential import InfluentialCommunityIndex
from tests.test_fast_path import _CountingChecker, _region_rows


@pytest.fixture
def setting(paper_like_graph):
    coreness = core_decomposition(paper_like_graph)
    hcd = lcps_build_hcd(paper_like_graph, coreness)
    return paper_like_graph, coreness, hcd


class TestLocalCoreQuery:
    def test_matches_local_search(self, setting):
        graph, coreness, hcd = setting
        for v in range(graph.num_vertices):
            for k in range(0, int(coreness[v]) + 1):
                expected = local_core_search(graph, coreness, v, level=k)
                got = hcd.k_core_containing(v, k)
                assert np.array_equal(got, expected), (v, k)

    def test_above_coreness_empty(self, setting):
        graph, coreness, hcd = setting
        v = int(np.argmin(coreness))
        assert hcd.k_core_containing(v, int(coreness[v]) + 1).size == 0
        assert hcd.core_node_containing(v, int(coreness[v]) + 1) == -1

    def test_random_graphs(self, random_graph):
        coreness = core_decomposition(random_graph)
        hcd = lcps_build_hcd(random_graph, coreness)
        rng = np.random.default_rng(0)
        for v in rng.integers(0, random_graph.num_vertices, size=10):
            v = int(v)
            k = int(rng.integers(0, coreness[v] + 1))
            expected = local_core_search(random_graph, coreness, v, level=k)
            assert np.array_equal(hcd.k_core_containing(v, k), expected)

    def test_maximal_core_nodes_partition_core_set(self, setting):
        graph, coreness, hcd = setting
        for k in range(0, int(coreness.max()) + 1):
            nodes = hcd.maximal_core_nodes(k)
            union = (
                np.sort(np.concatenate([hcd.reconstruct_core(t) for t in nodes]))
                if nodes
                else np.empty(0, dtype=np.int64)
            )
            expected = np.flatnonzero(coreness >= k)
            assert np.array_equal(union, expected)


class TestInfluentialIndex:
    def test_influence_is_min_member_weight(self, setting):
        graph, coreness, hcd = setting
        rng = np.random.default_rng(1)
        weights = rng.random(graph.num_vertices)
        index = InfluentialCommunityIndex(hcd, weights)
        for node in range(hcd.num_nodes):
            members = hcd.reconstruct_core(node)
            assert index.influence_of(node) == pytest.approx(
                float(weights[members].min())
            )
            assert index.core_size(node) == members.size

    def test_top_r_sorted_and_maximal(self, setting):
        graph, coreness, hcd = setting
        rng = np.random.default_rng(2)
        weights = rng.random(graph.num_vertices)
        index = InfluentialCommunityIndex(hcd, weights)
        for k in range(0, int(coreness.max()) + 1):
            answers = index.top_r(k, 3)
            influences = [a.influence for a in answers]
            assert influences == sorted(influences, reverse=True)
            for a in answers:
                members = index.members(a)
                assert np.all(coreness[members] >= k)

    def test_top_r_limits(self, setting):
        graph, coreness, hcd = setting
        weights = np.ones(graph.num_vertices)
        index = InfluentialCommunityIndex(hcd, weights)
        assert index.top_r(2, 0) == []
        assert len(index.top_r(2, 100)) == len(hcd.maximal_core_nodes(2))

    def test_weight_size_mismatch(self, setting):
        _, _, hcd = setting
        with pytest.raises(ValueError):
            InfluentialCommunityIndex(hcd, np.ones(3))

    def test_high_weight_clique_wins(self):
        # two K4s; the one with heavier members must rank first at k=3
        index = _two_k4_index([1.0] * 4 + [5.0] * 4)
        top = index.top_r(3, 2)
        assert len(top) == 2
        assert top[0].influence == 5.0
        assert set(index.members(top[0]).tolist()) == {4, 5, 6, 7}

    def test_infinite_weight_clique_ranks_by_value(self):
        # an all-+inf community is the most influential, not the least
        index = _two_k4_index([math.inf] * 4 + [5.0] * 4)
        top = index.top_r(3, 2)
        assert [a.influence for a in top] == [math.inf, 5.0]
        assert set(index.members(top[0]).tolist()) == {0, 1, 2, 3}

    def test_all_nan_clique_ranks_last_and_reports_nan(self):
        index = _two_k4_index([math.nan] * 4 + [5.0] * 4)
        top = index.top_r(3, 2)
        assert top[0].influence == 5.0
        assert set(index.members(top[0]).tolist()) == {4, 5, 6, 7}
        assert math.isnan(top[1].influence)
        assert math.isnan(index.influence_of(top[1].node))

    def test_charges_pool(self, setting):
        graph, _, hcd = setting
        pool = SimulatedPool(threads=2)
        InfluentialCommunityIndex(hcd, np.ones(graph.num_vertices), pool)
        assert pool.clock > 0


def _two_k4_index(weights):
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    g = Graph.from_edges(edges, num_vertices=8)
    hcd = lcps_build_hcd(g, core_decomposition(g))
    return InfluentialCommunityIndex(hcd, np.array(weights))


def _cliques(*sizes):
    edges, base = [], 0
    for n in sizes:
        edges += [
            (base + u, base + v) for u in range(n) for v in range(u + 1, n)
        ]
        base += n
    return Graph.from_edges(edges, num_vertices=base)


INDEX_GRAPHS = {
    "empty": lambda: Graph.from_edges([], num_vertices=0),
    "isolated": lambda: Graph.from_edges([], num_vertices=6),
    "star": lambda: star_graph(12),
    "clique": lambda: complete_graph(7),
    "cliques": lambda: _cliques(3, 4, 4, 6),
    "rmat8": lambda: rmat(8, 4, seed=7),
    "rmat9": lambda: rmat(9, 4, seed=8),
    "rmat10": lambda: rmat(10, 4, seed=9),
}


def _index_hcd(name):
    graph = INDEX_GRAPHS[name]()
    return lcps_build_hcd(graph, core_decomposition(graph))


AWKWARD = (1.0, 2.0, 2.0, 3.5, 0.0, -0.0, math.nan, math.inf, -math.inf)
#: minima that are signed zeros, so the fold's tie handling shows
SIGNED_ZEROS = (0.0, -0.0, 1.0, math.nan)


def _awkward_weights(hcd, seed, palette=AWKWARD):
    """Weights with ties, NaN, +-inf, signed zeros and all-NaN cores."""
    rng = np.random.default_rng(seed)
    palette = np.array(palette)
    weights = palette[rng.integers(0, palette.size, hcd.num_vertices)]
    for node in range(hcd.num_nodes):
        if not hcd.children[node] and rng.random() < 0.3:
            weights[hcd.vertices_of(node)] = math.nan
    return weights


def _loop_maximal_core_nodes(hcd, k):
    """The per-node loop formulation of the maximal k-core lookup."""
    out = []
    for node in range(hcd.num_nodes):
        if int(hcd.node_coreness[node]) < k:
            continue
        pa = int(hcd.parent[node])
        if pa < 0 or int(hcd.node_coreness[pa]) < k:
            out.append(node)
    return out


def _loop_top_r(hcd, weights, k, r):
    """Loop over the candidates and sort them one key at a time.

    Influence is the min non-NaN member weight; a core with none sorts
    last and reports NaN.
    """
    ranked = []
    for node in _loop_maximal_core_nodes(hcd, k):
        members = hcd.reconstruct_core(node)
        real = weights[members][~np.isnan(weights[members])]
        influence = float(real.min()) if real.size else math.nan
        key = (0, -influence) if real.size else (1, 0.0)
        ranked.append((key, members.size, node, influence))
    ranked.sort(key=lambda entry: entry[:3])
    return [(node, k, influence, size) for _, size, node, influence in ranked[:r]]


def _same_answers(got, want):
    assert len(got) == len(want)
    for answer, (node, k, influence, size) in zip(got, want):
        assert type(answer.node) is int and type(answer.size) is int
        assert type(answer.influence) is float
        assert (answer.node, answer.k, answer.size) == (node, k, size)
        if math.isnan(influence):
            assert math.isnan(answer.influence)
        else:
            assert answer.influence == influence


@pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
class TestVectorizedQueries:
    def test_maximal_core_nodes_matches_loop(self, name):
        hcd = _index_hcd(name)
        for k in range(-1, hcd.kmax + 3):
            got = hcd.maximal_core_nodes(k)
            assert got == _loop_maximal_core_nodes(hcd, k), k
            assert all(type(node) is int for node in got)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_top_r_matches_loop_and_sort(self, name, seed):
        hcd = _index_hcd(name)
        weights = _awkward_weights(hcd, seed)
        index = InfluentialCommunityIndex(hcd, weights)
        for k in range(-1, hcd.kmax + 3):
            count = len(hcd.maximal_core_nodes(k))
            for r in (0, 1, 3, count + 1):
                _same_answers(
                    index.top_r(k, r), _loop_top_r(hcd, weights, k, r)
                )


# ----------------------------------------------------------------------
# the index fold against the per-vertex (numpy scalar) formulation
# ----------------------------------------------------------------------

OBSERVERS = ("none", "races", "memcheck_units", "both")


def _logging_atomics(log):
    """An ``AtomicArray`` that logs every ``fetch_min``/``add`` in order,
    the per-element calls a slice's ``fetch_min_many``/``add_many``
    stands for included."""

    class Logged(AtomicArray):
        def fetch_min(self, ctx, index, value):
            bits = np.float64(value).tobytes()
            log.append((ctx.thread_id, "min", self._name, int(index), bits))
            return super().fetch_min(ctx, index, value)

        def add(self, ctx, index, delta):
            log.append((ctx.thread_id, "add", self._name, int(index), delta))
            return super().add(ctx, index, delta)

        def fetch_min_many(self, ctx, indices, values):
            if not ctx.observed:  # observed, fetch_min_many calls fetch_min
                log.extend(
                    (ctx.thread_id, "min", self._name, i,
                     np.float64(v).tobytes())
                    for i, v in zip(native(indices), native(values))
                )
            return super().fetch_min_many(ctx, indices, values)

        def add_many(self, ctx, indices, values):
            if not ctx.observed:  # observed, add_many calls add
                log.extend(
                    (ctx.thread_id, "add", self._name, i, v)
                    for i, v in zip(native(indices), native(values))
                )
            return super().add_many(ctx, indices, values)

    return Logged


def _per_thread_array(log):
    """The log split per (thread, array), each part in call order: a
    slice kernel issues a thread's ``inf_min`` folds before its
    ``inf_size`` counts, the per-vertex kernel interleaves them."""
    parts: dict = {}
    for entry in log:
        thread, _, name, *_ = entry
        parts.setdefault((thread, name), []).append(entry)
    return parts


def _ref_index_fold(hcd, weights, pool, atomics):
    """Per-vertex numpy-scalar fold and numpy bottom-up accumulation."""
    t = hcd.num_nodes
    node_min = atomics(t, dtype=np.float64, name="inf_min")
    node_min.data[:] = np.inf
    sizes = atomics(t, dtype=np.int64, name="inf_size")

    def fold_vertex(v, ctx):
        ctx.charge(1)
        node = int(hcd.tid[v])
        node_min.fetch_min(ctx, node, weights[v])
        sizes.add(ctx, node, 1)

    if hcd.num_vertices:
        pool.parallel_for(
            range(hcd.num_vertices), fold_vertex, label="influence:fold"
        )
    node_min = node_min.data
    sizes = sizes.data
    for node in hcd.nodes_bottom_up():
        pa = int(hcd.parent[node])
        if pa >= 0:
            if node_min[node] < node_min[pa]:
                node_min[pa] = node_min[node]
            sizes[pa] += sizes[node]
    with pool.serial_region("influence:accumulate") as ctx:
        ctx.charge(t)
    return node_min, sizes


def _run_fold(fold, hcd, weights, threads, observer):
    pool = SimulatedPool(threads=threads)
    detector = RaceDetector() if observer in ("races", "both") else None
    checker = (
        _CountingChecker()
        if observer in ("memcheck_units", "both")
        else None
    )
    if checker is not None:
        checker.activate()
    pool.set_observer(ObserverFanout([detector, checker]))
    log: list = []
    try:
        influence, sizes = fold(hcd, weights, pool, _logging_atomics(log))
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
    if checker is not None:
        assert checker.findings == []
    regions = _region_rows(pool, checker)
    events = detector.events_seen if detector is not None else None
    return (pool.clock, regions, influence.tobytes(), sizes.tobytes(),
            _per_thread_array(log), events)


@pytest.mark.parametrize(
    "palette", [AWKWARD, SIGNED_ZEROS], ids=["awkward", "signed_zeros"]
)
@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
def test_index_fold_matches_per_vertex_reference(
    name, threads, palette, monkeypatch
):
    hcd = _index_hcd(name)
    weights = _awkward_weights(hcd, threads, palette)

    def native(hcd, weights, pool, atomics):
        monkeypatch.setattr(influential, "AtomicArray", atomics)
        index = InfluentialCommunityIndex(hcd, weights, pool)
        return index._influence, index._core_sizes

    for observer in OBSERVERS:
        got = _run_fold(native, hcd, weights, threads, observer)
        want = _run_fold(_ref_index_fold, hcd, weights, threads, observer)
        assert got == want, observer


def _fetch_min_contexts(palette, bulk, observed):
    """Two threads folding palette values into a shared array with
    repeated indices, by ``fetch_min_many`` or per-element ``fetch_min``."""
    rng = np.random.default_rng(5)
    contexts = [ThreadContext(t, DEFAULT_COST_MODEL) for t in range(2)]
    arr = AtomicArray(20, dtype=np.float64, name="mins")
    arr.data[:] = np.inf
    arr.data[:4] = (0.0, -0.0, math.nan, 1.0)  # ties and a NaN start
    values = np.array(palette)
    for ctx in contexts:
        if observed:
            ctx.begin_recording()
        for size in (40, 3, 0):
            idx = rng.integers(0, 20, size)
            vals = values[rng.integers(0, values.size, size)]
            if bulk:
                arr.fetch_min_many(ctx, idx, vals)
            else:
                for i, v in zip(idx.tolist(), vals.tolist()):
                    arr.fetch_min(ctx, i, v)
    events = [ctx.end_recording() if observed else None for ctx in contexts]
    stats = [
        (ctx.work, ctx.atomic_ops, list(ctx.atomic_locations.items()))
        for ctx in contexts
    ]
    return arr.data.tobytes(), stats, events


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize(
    "palette", [AWKWARD, SIGNED_ZEROS], ids=["awkward", "signed_zeros"]
)
def test_fetch_min_many_matches_per_element_fetch_min(palette, observed):
    got = _fetch_min_contexts(palette, bulk=True, observed=observed)
    want = _fetch_min_contexts(palette, bulk=False, observed=observed)
    # data bits (signed zeros, NaN), work, atomic ops and the contention
    # tally in order
    assert got == want
    stats = got[1]
    assert all(atomic_ops > 0 for _, atomic_ops, _ in stats)


class TestCli:
    def run(self, capsys, *argv) -> str:
        from repro.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_datasets(self, capsys):
        out = self.run(capsys, "datasets")
        assert "as_skitter" in out
        assert "UK" in out

    def test_stats_on_file(self, capsys, tmp_path, paper_like_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        out = self.run(capsys, "stats", "--input", str(path))
        assert "kmax     : 4" in out

    def test_decompose_tree(self, capsys, tmp_path, triangle):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(triangle, path)
        out = self.run(capsys, "decompose", "--input", str(path), "--tree")
        assert "k=2" in out

    def test_search(self, capsys, tmp_path, paper_like_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        out = self.run(
            capsys, "search", "--input", str(path), "--metric", "average_degree"
        )
        assert "best k" in out

    def test_bestk(self, capsys, tmp_path, paper_like_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        out = self.run(capsys, "bestk", "--input", str(path))
        assert "<== best" in out

    def test_unknown_metric_rejected(self, tmp_path, triangle):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(triangle, path)
        with pytest.raises(SystemExit):
            main(["search", "--input", str(path), "--metric", "nope"])

    def test_report_subcommand(self, capsys, tmp_path, paper_like_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, path)
        out = self.run(capsys, "report", "--input", str(path))
        assert "== best community per metric ==" in out
        assert "densest core" in out
