"""Unobserved fast path vs observed path: same outputs, same sim clock.

Without an observer, the shared structures (atomics, both union-find
engines) skip building the word and location keys that only the race
detector and memcheck read.  The charges they apply must not depend on
that: every kernel below runs once per observer setting, and the pool
clock, every region's accounting and the outputs must match the
unobserved run bit for bit.

The search kernels (PBKS, best-k, BKS) close wedges by hash-set
membership and fold the unit charges of a directed edge's wedges into
one integer charge.  They are checked against the per-wedge
formulation (one binary search and one unit charge per wedge), kept
here as the reference.

Batched dynamic repair charges each scanned row's reads, its
``visited``/``touched`` loads and CAS attempts and its ``supp``
decrements in bulk (``ThreadContext.read_row``, ``AtomicArray.claim``,
``AtomicArray.add_row``).  Its two kernels
are checked against the per-access formulation, also kept here, and the
two bulk operations against the per-element calls they replace.

The construction kernels (PKC, vertex rank, PHCD on both union-find
engines, preprocessing) are slice kernels: each virtual thread hands its
whole slice to slice operations of the shared structures, which replay
the per-element charges on a local (``union_rows``,
``AtomicSet.add_pivots``) or fold integer ones
(``AtomicArray.load_le``/``add_row``/``add_many``,
``ThreadContext.write_row``) in numpy; PKC's peel does so from
``SLICE_VECTOR_MIN`` elements up.  The pipeline is checked against the
per-element formulation kept here, on graphs below and above that
crossover, and the union-find slice operations against the per-element
calls they stand for.

Serving's shared passes (the influential-index fold, best-k type A) and
its score folds are slice kernels too, checked through one whole
``SnapshotExecutor.execute`` against the per-vertex and per-row kernels
kept here.  PBKS's and best-k's score folds (the metric once per
distinct row, then one store region) are checked through
``pbks_search``/``find_best_k`` against the per-node and per-level
kernels with the metric call inside the worker.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cluster import decomposition as cluster_decomposition
from repro.cluster.cluster import SimCluster
from repro.cluster.decomposition import distributed_core_decomposition
from repro.cluster.shard import shard_graph
from repro.core import distributed, partition
from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCDBuilder
from repro.core.phcd import SCAN_CHARGE, phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.dynamic import DynamicCSR, batch
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    powerlaw_cluster,
    rmat,
    star_graph,
)
from repro.graph.graph import Graph
from repro.nucleus import nucleus_decomposition, nucleus_hierarchy
from repro.parallel import atomics
from repro.parallel.atomics import AtomicArray, AtomicSet
from repro.parallel.context import SLICE_VECTOR_MIN, ThreadContext, native
from repro.parallel.cost_model import CONTENDED_ATOMIC_COST
from repro.parallel.observers import ObserverFanout
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.detector import RaceDetector
from repro.sanitizer.memcheck import MemChecker, san_empty
from repro.search import bks
from repro.search import best_k
from repro.search import pbks
from repro.search.best_k import (
    bestk_type_a_contributions,
    bestk_type_b_contributions,
)
from repro.search.metrics import Metric, get_metric
from repro.search.pbks import (
    pbks_type_a_contributions,
    pbks_type_b_contributions,
)
from repro.search.preprocessing import (
    NeighborCorenessCounts,
    preprocess_neighbor_counts,
)
from repro.search.primary_values import PrimaryValues
from repro.search.result import best_finite_index
from repro.serve.executor import SnapshotExecutor
from repro.serve.planner import normalize_request, plan_batch
from repro.serve.snapshot import build_snapshot
from repro.truss import truss_decomposition, truss_hierarchy
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

GRAPHS = {
    "rmat": lambda: rmat(8, 4, seed=7),
    "holme_kim": lambda: powerlaw_cluster(150, 3, 0.3, seed=21),
    "gnp": lambda: erdos_renyi(120, 0.06, seed=3),
}
OBSERVERS = ("none", "races", "memcheck", "both")


def _pipeline(graph, pool):
    """PKC -> vertex rank -> PHCD (both engines) -> preprocessing."""
    coreness = pkc_core_decomposition(graph, pool)
    rank = compute_vertex_rank(graph, coreness, pool)
    outputs = [coreness, rank.rank, rank.vsort]
    for use_waitfree in (True, False):
        hcd = phcd_build_hcd(
            graph, coreness, pool, rank_result=rank,
            use_waitfree=use_waitfree, cas_failure_rate=0.1, seed=3,
        )
        outputs.extend(hcd.to_arrays().values())
    counts = preprocess_neighbor_counts(graph, coreness, pool)
    outputs.extend([counts.gt, counts.eq, counts.lt])
    return outputs


def _element_pipeline(graph, pool):
    """Truss and nucleus: decomposition -> hierarchy (shared framework)."""
    outputs = []
    for decompose, build in (
        (truss_decomposition, truss_hierarchy),
        (nucleus_decomposition, nucleus_hierarchy),
    ):
        levels = decompose(graph, pool=pool)
        h = build(graph, levels, pool)
        outputs.append(levels)
        outputs.extend(h.to_arrays().values())
    return outputs


def _run(graph, threads: int, observer: str, pipeline=_pipeline):
    pool = SimulatedPool(threads=threads)
    detector = RaceDetector() if observer in ("races", "both") else None
    checker = MemChecker() if observer in ("memcheck", "both") else None
    if checker is not None:
        checker.activate()
    pool.set_observer(ObserverFanout([detector, checker]))
    try:
        outputs = pipeline(graph, pool)
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
        assert detector.events_seen > 0
    if checker is not None:
        assert checker.findings == []
    regions = _region_rows(pool)
    return pool.clock, regions, outputs


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_observers_leave_clock_and_outputs_bit_identical(name, threads):
    _check_observers(GRAPHS[name](), threads, _pipeline)


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_observers_leave_element_hierarchies_bit_identical(name, threads):
    _check_observers(GRAPHS[name](), threads, _element_pipeline)


def _check_observers(graph, threads: int, pipeline) -> None:
    clock, regions, outputs = _run(graph, threads, "none", pipeline)
    assert clock > 0
    for observer in OBSERVERS[1:]:
        o_clock, o_regions, o_outputs = _run(graph, threads, observer, pipeline)
        assert o_clock == clock, observer
        assert o_regions == regions, observer
        assert len(o_outputs) == len(outputs)
        for got, want in zip(o_outputs, outputs):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), observer


def test_contention_still_charged_when_unobserved():
    # contention is part of the sim clock, so the fast path must keep
    # feeding contended locations (the union-find link CAS) to it; this
    # graph is also one the comparison above runs, so it compares a
    # nonzero penalty
    graph = GRAPHS["rmat"]()
    pool = SimulatedPool(threads=8)
    coreness = pkc_core_decomposition(graph, pool)
    phcd_build_hcd(graph, coreness, pool, use_waitfree=True)
    assert sum(r.contention_penalty for r in pool.regions) > 0


class TestObservedFlag:
    def _ctx(self):
        return ThreadContext(0)

    def test_default_unobserved(self):
        assert self._ctx().observed is False

    def test_recording_lifecycle(self):
        ctx = self._ctx()
        ctx.begin_recording()
        assert ctx.observed
        ctx.end_recording()
        assert not ctx.observed

    def test_memcheck_lifecycle(self):
        ctx = self._ctx()
        checker = MemChecker()
        ctx.set_memcheck(checker)
        assert ctx.observed
        ctx.set_memcheck(None)
        assert not ctx.observed

    def test_detaching_one_of_two_observers_keeps_it_true(self):
        ctx = self._ctx()
        ctx.begin_recording()
        ctx.set_memcheck(MemChecker())
        ctx.end_recording()
        assert ctx.observed  # memcheck still attached
        ctx.set_memcheck(None)
        assert not ctx.observed

        ctx.set_memcheck(MemChecker())
        ctx.begin_recording()
        ctx.set_memcheck(None)
        assert ctx.observed  # recording still active
        ctx.end_recording()
        assert not ctx.observed

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_region_sets_and_clears_the_flag(self, observer):
        pool = SimulatedPool(threads=2)
        observers = {
            "none": [],
            "races": [RaceDetector()],
            "memcheck": [MemChecker()],
            "both": [RaceDetector(), MemChecker()],
        }[observer]
        pool.set_observer(ObserverFanout(observers))
        inside = []
        contexts = []

        def probe(v, ctx):
            inside.append(ctx.observed)
            contexts.append(ctx)

        pool.parallel_for([0, 1], probe, label="probe")
        pool.set_observer(None)
        assert inside == [observer != "none"] * 2
        assert not any(ctx.observed for ctx in contexts)

    def test_observed_is_not_a_parameter(self):
        # derived, never configured: no constructor argument sets it
        with pytest.raises(TypeError):
            ThreadContext(0, observed=True)


# ---------------------------------------------------------------------------
# search kernels: hash-set wedge closing and folded integer charges
# ---------------------------------------------------------------------------

_N, _M, _B, _TRI, _TRIP = range(5)


def _with_isolated():
    # 12 isolated vertices after a random graph's last id
    edges = erdos_renyi(60, 0.12, seed=4).edge_array().tolist()
    return Graph.from_edges(edges, num_vertices=72)


SEARCH_GRAPHS = {
    "star": lambda: star_graph(24),
    "clique": lambda: complete_graph(9),
    "isolated": _with_isolated,
    "rmat": lambda: rmat(8, 4, seed=7),
}
#: "memcheck_units" attaches a :class:`_CountingChecker`, so every
#: region's barrier crossings are compared with the reference's too
SEARCH_OBSERVERS = ("none", "races", "memcheck_units", "both")
#: regions whose folded charge relies on integer-only work
FOLDED_REGIONS = ("pbks:typeB_triangles", "pbks:typeB_triplets", "bestk:typeB")


class _CountingChecker(MemChecker):
    """A ``MemChecker`` that counts its barrier crossings, reads and
    writes, per region in region order."""

    def __init__(self) -> None:
        super().__init__()
        self.crossings: list[list[int]] = []

    def on_region_begin(self, label, contexts) -> None:
        super().on_region_begin(label, contexts)
        self.crossings.append([0, 0])

    def on_read_event(self, location, thread) -> None:
        self.crossings[-1][0] += 1
        super().on_read_event(location, thread)

    def on_write_event(self, location, value, thread) -> None:
        self.crossings[-1][1] += 1
        super().on_write_event(location, value, thread)


def _region_rows(pool, checker=None) -> list[tuple]:
    """Every region's stats, plus its barrier crossings when a
    :class:`_CountingChecker` watched the pool."""
    counts = checker.crossings if checker is not None else [[]] * len(pool.regions)
    return [
        (r.label, r.items, r.work_total, r.work_max, r.atomic_ops,
         r.contention_penalty, r.elapsed, *c)
        for r, c in zip(pool.regions, counts, strict=True)
    ]


class _LoggedArray(AtomicArray):
    """An ``AtomicArray`` that logs every ``add`` in call order, the
    per-element adds a slice's ``add_many`` stands for included."""

    def __init__(self, size: int, name: str) -> None:
        super().__init__(size, dtype=np.float64, name=name)
        self.log: list[tuple[int, int, float]] = []

    def add(self, ctx, index, delta):
        self.log.append((ctx.thread_id, index, delta))
        return super().add(ctx, index, delta)

    def add_many(self, ctx, indices, values):
        if not ctx.observed:  # observed, add_many calls add
            self.log.extend(
                (ctx.thread_id, i, v)
                for i, v in zip(native(indices), native(values))
            )
        return super().add_many(ctx, indices, values)


def _ref_pbks_type_a(graph, coreness, hcd, counts, pool, out, num_nodes):
    tid = hcd.tid

    def contribute(v, ctx):
        ctx.charge(3)
        node = int(tid[v])
        gt, eq, lt = int(counts.gt[v]), int(counts.eq[v]), int(counts.lt[v])
        out.add(ctx, node * 5 + _N, 1.0)
        out.add(ctx, node * 5 + _M, gt + 0.5 * eq)
        out.add(ctx, node * 5 + _B, lt - gt)

    pool.parallel_for(
        range(graph.num_vertices), contribute, label="pbks:typeA",
        chunking="dynamic", grain=32,
    )


def _ref_pbks_type_b(graph, coreness, hcd, counts, ranks, pool, out, num_nodes):
    tid = hcd.tid
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    directed_edges = []
    for v in range(graph.num_vertices):
        dv = int(degrees[v])
        for u in indices[indptr[v] : indptr[v + 1]]:
            u = int(u)
            if (int(degrees[u]), u) < (dv, v):
                directed_edges.append((v, u))

    def close_wedges(edge, ctx):
        v, u = edge
        ctx.charge(1)
        row_v = indices[indptr[v] : indptr[v + 1]]
        for w in indices[indptr[u] : indptr[u + 1]]:
            w = int(w)
            ctx.charge(1)
            if w == v:
                continue
            pos = int(np.searchsorted(row_v, w))
            ctx.charge(1)
            if pos >= row_v.size or row_v[pos] != w:
                continue
            if ranks[w] < ranks[u] and ranks[w] < ranks[v]:
                out.add(ctx, int(tid[w]) * 5 + _TRI, 1.0)

    pool.parallel_for(
        directed_edges, close_wedges, label="pbks:typeB_triangles",
        chunking="dynamic", grain=16,
    )

    def contribute(v, ctx):
        row_v = indices[indptr[v] : indptr[v + 1]]
        ge = int(counts.gt[v] + counts.eq[v])
        ctx.charge(1)
        out.add(ctx, int(tid[v]) * 5 + _TRIP, ge * (ge - 1) / 2.0)
        lower = {}
        cv = int(coreness[v])
        for u in row_v:
            u = int(u)
            ctx.charge(1)
            cu = int(coreness[u])
            if cu < cv:
                cnt, _ = lower.get(cu, (0, u))
                lower[cu] = (cnt + 1, u)
        gt_running = ge
        for k in sorted(lower, reverse=True):
            cnt_k, witness = lower[k]
            ctx.charge(1)
            out.add(
                ctx, int(tid[witness]) * 5 + _TRIP,
                cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k,
            )
            gt_running += cnt_k

    pool.parallel_for(
        range(graph.num_vertices), contribute, label="pbks:typeB_triplets",
        chunking="dynamic", grain=16,
    )


def _ref_contribute_a(coreness, counts, pool, levels):
    """Best-k type A, one worker call and three ``add`` calls per vertex."""
    core = coreness.tolist()
    gt, eq, lt = counts.gt.tolist(), counts.eq.tolist(), counts.lt.tolist()

    def contribute_a(v: int, ctx) -> None:
        ctx.charge(3)
        k = core[v]
        levels.add(ctx, k * 5 + _N, 1.0)
        levels.add(ctx, k * 5 + _M, gt[v] + 0.5 * eq[v])
        levels.add(ctx, k * 5 + _B, lt[v] - gt[v])

    pool.parallel_for(
        range(len(core)), contribute_a, label="bestk:typeA",
        chunking="dynamic", grain=32,
    )


def _ref_bestk_type_b(graph, coreness, counts, ranks, pool, levels):
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()

    def contribute_b(v, ctx):
        dv = int(degrees[v])
        cv = int(coreness[v])
        row_v = indices[indptr[v] : indptr[v + 1]]
        for u in row_v:
            u = int(u)
            ctx.charge(1)
            if (int(degrees[u]), u) >= (dv, v):
                continue
            for w in indices[indptr[u] : indptr[u + 1]]:
                w = int(w)
                ctx.charge(2)
                if w == v:
                    continue
                pos = int(np.searchsorted(row_v, w))
                if pos >= row_v.size or row_v[pos] != w:
                    continue
                if ranks[w] < ranks[u] and ranks[w] < ranks[v]:
                    levels.add(ctx, int(coreness[w]) * 5 + _TRI, 1.0)
        ge = int(counts.gt[v] + counts.eq[v])
        ctx.charge(1)
        levels.add(ctx, cv * 5 + _TRIP, ge * (ge - 1) / 2.0)
        lower = {}
        for u in row_v:
            ctx.charge(1)
            cu = int(coreness[int(u)])
            if cu < cv:
                lower[cu] = lower.get(cu, 0) + 1
        gt_running = ge
        for k in sorted(lower, reverse=True):
            cnt_k = lower[k]
            ctx.charge(1)
            levels.add(
                ctx, k * 5 + _TRIP,
                cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k,
            )
            gt_running += cnt_k

    pool.parallel_for(
        range(graph.num_vertices), contribute_b, label="bestk:typeB",
        chunking="dynamic", grain=4,
    )


def _ref_bks_motifs(graph, coreness, hcd, sorted_adj, v, values):
    tid = hcd.tid
    degrees = graph.degrees()
    indptr, indices = graph.indptr, graph.indices
    cv, dv = int(coreness[v]), int(degrees[v])
    charged = 0
    row_v = graph.neighbors(v)

    def rank_lt(a, b):
        return (int(coreness[a]), a) < (int(coreness[b]), b)

    for u in row_v:
        u = int(u)
        charged += 1
        if (int(degrees[u]), u) >= (dv, v):
            continue
        for w in indices[indptr[u] : indptr[u + 1]]:
            w = int(w)
            charged += 2
            if w == v:
                continue
            pos = int(np.searchsorted(row_v, w))
            if pos >= row_v.size or row_v[pos] != w:
                continue
            if rank_lt(w, u) and rank_lt(w, v):
                values[int(tid[w]), _TRI] += 1.0
    row = sorted_adj[v]
    ge = int(np.searchsorted(-coreness[row], -cv, side="right"))
    values[int(tid[v]), _TRIP] += ge * (ge - 1) / 2.0
    charged += 2
    idx = gt_running = ge
    while idx < row.size:
        k = int(coreness[row[idx]])
        end = int(np.searchsorted(-coreness[row], -k, side="right"))
        cnt_k = end - idx
        values[int(tid[row[idx]]), _TRIP] += (
            cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k
        )
        gt_running += cnt_k
        idx = end
        charged += 2
    return charged


def _prepared(graph):
    """Coreness, ranks, HCD and counts, built on a pool of their own."""
    pool = SimulatedPool(threads=2)
    coreness = pkc_core_decomposition(graph, pool)
    rank = compute_vertex_rank(graph, coreness, pool)
    hcd = phcd_build_hcd(graph, coreness, pool, rank_result=rank)
    counts = preprocess_neighbor_counts(graph, coreness, pool)
    return coreness, rank.rank, hcd, counts


# kernel name -> (kernel, reference, call(fn, prep, pool, out), out size)
SEARCH_KERNELS = {
    "pbks_typeA": (
        pbks_type_a_contributions,
        _ref_pbks_type_a,
        lambda fn, g, c, r, h, k, pool, out: fn(
            g, c, h, k, pool, out, h.num_nodes
        ),
        lambda c, h: h.num_nodes * 5,
    ),
    "pbks_typeB": (
        pbks_type_b_contributions,
        _ref_pbks_type_b,
        lambda fn, g, c, r, h, k, pool, out: fn(
            g, c, h, k, r, pool, out, h.num_nodes
        ),
        lambda c, h: h.num_nodes * 5,
    ),
    "bestk_typeA": (
        bestk_type_a_contributions,
        _ref_contribute_a,
        lambda fn, g, c, r, h, k, pool, out: fn(c, k, pool, out),
        lambda c, h: (int(c.max()) + 1) * 5,
    ),
    "bestk_typeB": (
        bestk_type_b_contributions,
        _ref_bestk_type_b,
        lambda fn, g, c, r, h, k, pool, out: fn(g, c, k, r, pool, out),
        lambda c, h: (int(c.max()) + 1) * 5,
    ),
}


def _run_search_kernel(fn, call, size, graph, threads, observer):
    coreness, ranks, hcd, counts = _prepared(graph)
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
    out = _LoggedArray(size(coreness, hcd), name="search_vals")
    try:
        call(fn, graph, coreness, ranks, hcd, counts, pool, out)
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
    if checker is not None:
        assert checker.findings == []
    regions = _region_rows(pool, checker)
    return pool.clock, regions, out.data.tobytes(), out.log


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
@pytest.mark.parametrize("kernel", sorted(SEARCH_KERNELS))
def test_search_kernels_match_per_wedge_reference(kernel, graph_name, threads):
    fn, ref, call, size = SEARCH_KERNELS[kernel]
    graph = SEARCH_GRAPHS[graph_name]()
    unobserved = None
    for observer in SEARCH_OBSERVERS:
        got = _run_search_kernel(fn, call, size, graph, threads, observer)
        want = _run_search_kernel(ref, call, size, graph, threads, observer)
        clock, regions, values, log = got
        assert clock == want[0], observer
        assert regions == want[1], observer
        assert values == want[2], observer
        assert log == want[3], observer  # same out.add order
        for label, _, work_total, work_max, *_ in regions:
            if label in FOLDED_REGIONS:
                assert float(work_total).is_integer(), (label, observer)
                assert float(work_max).is_integer(), (label, observer)
        if observer == "none":
            unobserved = got
        elif observer == "races":
            # recording adds no charge
            assert got == unobserved


@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
def test_bks_motif_walk_matches_per_wedge_reference(graph_name):
    graph = SEARCH_GRAPHS[graph_name]()
    coreness, _, hcd, _ = _prepared(graph)
    coreness = np.asarray(coreness, dtype=np.int64)
    sorted_adj = bks.build_coreness_sorted_adjacency(graph, coreness)
    native = bks._NativeGraph(graph, coreness, hcd)
    got = np.zeros((hcd.num_nodes, 5))
    want = np.zeros((hcd.num_nodes, 5))
    for v in range(graph.num_vertices):
        charged = bks._count_motifs_at(native, sorted_adj, v, got)
        assert charged == _ref_bks_motifs(
            graph, coreness, hcd, sorted_adj, v, want
        )
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
def test_bks_type_b_regions_unchanged_by_observers(graph_name):
    graph = SEARCH_GRAPHS[graph_name]()
    coreness, _, hcd, _ = _prepared(graph)
    runs = []
    for observer in SEARCH_OBSERVERS:
        pool = SimulatedPool(threads=1)
        detector = RaceDetector() if observer in ("races", "both") else None
        checker = (
            _CountingChecker()
            if observer in ("memcheck_units", "both")
            else None
        )
        if checker is not None:
            checker.activate()
        pool.set_observer(ObserverFanout([detector, checker]))
        try:
            result = bks.bks_search(
                graph, coreness, hcd, "clustering_coefficient", pool
            )
        finally:
            pool.set_observer(None)
            if checker is not None:
                checker.deactivate()
        if checker is not None:
            # BKS's regions record no access through the barrier
            assert all(c == [0, 0] for c in checker.crossings)
        regions = [(r.label, r.work_total, r.elapsed) for r in pool.regions]
        runs.append(
            (pool.clock, regions, result.scores.tobytes(),
             result.values.tobytes())
        )
    assert all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------------------
# batched dynamic repair: bulk row reads and bulk visited claims
# ---------------------------------------------------------------------------


def _ref_collect_subcore(pool, state, roots, k, tag):
    coreness, indices = state.coreness, state.indices
    visited = AtomicArray(coreness.size, name="visited")
    seed_parts = [[] for _ in range(pool.threads)]

    def claim_root(x, ctx):
        xi = int(x)
        ctx.read(("coreness", xi))
        if visited.compare_and_swap(ctx, xi, 0, 1):
            seed_parts[ctx.thread_id].append(xi)

    pool.parallel_for(list(roots), claim_root, label=f"dyn_seed:{tag}")
    frontier = batch._merge_parts(seed_parts)
    members = []
    while frontier:
        member_parts = [[] for _ in range(pool.threads)]
        next_parts = [[] for _ in range(pool.threads)]

        def expand(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            row = [int(indices[base + j]) for j in range(state.lens[xi])]
            for y in row:
                ctx.read(("coreness", y))
            if sum(1 for y in row if int(coreness[y]) >= k) <= k:
                return
            member_parts[ctx.thread_id].append(xi)
            for y in row:
                if int(coreness[y]) == k and visited.load(ctx, y) == 0:
                    if visited.compare_and_swap(ctx, y, 0, 1):
                        next_parts[ctx.thread_id].append(y)

        pool.parallel_for(frontier, expand, label=f"dyn_expand:{tag}")
        members.extend(batch._merge_parts(member_parts))
        frontier = batch._merge_parts(next_parts)
    return sorted(members)


def _ref_peel(pool, state, active, k, tag, cand=None):
    coreness, indices = state.coreness, state.indices
    live = np.zeros(coreness.size, dtype=np.int64)
    live[list(cand) if cand is not None else coreness == k] = 1
    need = k if cand is None else k + 1
    status = np.zeros(coreness.size, dtype=np.int64)  # 1 counted, 2 evicted
    supp = AtomicArray(coreness.size, name="supp")
    out = []
    fresh, short = sorted(active), []
    while fresh or short:

        def count_support(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            s = 0
            for j in range(state.lens[xi]):
                y = int(indices[base + j])
                ctx.read(("coreness", y))
                ctx.read(("status", y))
                cy = int(coreness[y])
                if cy > k or (cy == k and live[y] and status[y] != 2):
                    s += 1
            supp.add(ctx, xi, s)

        pool.parallel_for(fresh, count_support, label=f"dyn_support:{tag}")
        status[fresh] = 1
        parts = [[] for _ in range(pool.threads)]

        def evict(x, ctx):
            xi = int(x)
            if supp.load(ctx, xi) < need:
                ctx.write(("status", xi))
                status[xi] = 2
                parts[ctx.thread_id].append(xi)

        pool.parallel_for(
            sorted(set(fresh) | set(short)), evict, label=f"dyn_evict:{tag}"
        )
        gone = batch._merge_parts(parts)
        if not gone:
            break
        out.extend(gone)
        touched = AtomicArray(coreness.size, name="touched")
        fresh_parts = [[] for _ in range(pool.threads)]
        short_parts = [[] for _ in range(pool.threads)]

        def touch(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            for j in range(state.lens[xi]):
                y = int(indices[base + j])
                ctx.read(("coreness", y))
                ctx.read(("status", y))
                if int(coreness[y]) != k or not live[y] or status[y] == 2:
                    continue
                if status[y] == 1:
                    if supp.add(ctx, y, -1) - 1 == need - 1:
                        short_parts[ctx.thread_id].append(y)
                elif touched.load(ctx, y) == 0:
                    if touched.compare_and_swap(ctx, y, 0, 1):
                        fresh_parts[ctx.thread_id].append(y)

        pool.parallel_for(gone, touch, label=f"dyn_touch:{tag}")
        fresh = batch._merge_parts(fresh_parts)
        short = batch._merge_parts(short_parts)
    return sorted(out)


#: the per-access formulation of the two repair kernels
REF_REPAIR_KERNELS = {
    "_collect_subcore": _ref_collect_subcore,
    "_peel": _ref_peel,
}


class _RegionCapture:
    """Observer keeping each thread's contention histogram and events.

    Listed before the race detector in a fanout, so it reads the event
    streams before the detector drains them.
    """

    def __init__(self) -> None:
        self.records = []

    def on_region_begin(self, label, contexts) -> None:
        pass

    def on_region_end(self, label, contexts) -> None:
        for ctx in contexts:
            self.records.append(
                (label, ctx.thread_id, dict(ctx.atomic_locations),
                 Counter(ctx.events))
            )


def _repair_batches(graph, seed=5):
    """Two mixed batches; the second re-inserts edges the first deleted,
    so even a clique gets insertions."""
    present = {tuple(e) for e in graph.edge_array().tolist()}
    deleted = sorted(present)[:: max(1, len(present) // 5)][:5]
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    inserted = []
    for _ in range(200):
        u, v = sorted(rng.integers(0, n, 2).tolist())
        if u != v and (u, v) not in present and (u, v) not in inserted:
            inserted.append((u, v))
        if len(inserted) == 5:
            break
    later = sorted(present - set(deleted))[1::7][:3]
    return [(inserted, deleted), (deleted[::2], later)]


def _captured_run(threads, observer, body):
    """``body(pool)`` under ``observer`` with a :class:`_RegionCapture`.

    Returns the clock, the region records, the per-(region, thread)
    capture records and ``body``'s outputs.
    """
    pool = SimulatedPool(threads=threads)
    capture = _RegionCapture()
    detector = RaceDetector() if observer in ("races", "both") else None
    checker = (
        _CountingChecker()
        if observer in ("memcheck_units", "both")
        else None
    )
    if checker is not None:
        checker.activate()
    pool.set_observer(ObserverFanout([capture, detector, checker]))
    try:
        outputs = body(pool)
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
    if checker is not None:
        assert checker.findings == []
    regions = _region_rows(pool, checker)
    return pool.clock, regions, capture.records, outputs


def _run_repair(graph, threads, observer, kernels):
    coreness = core_decomposition(graph).astype(np.int64)
    acsr = DynamicCSR.from_graph(graph)

    def body(pool):
        outputs = []
        with pytest.MonkeyPatch.context() as mp:
            for name, fn in kernels.items():
                mp.setattr(batch, name, fn)
            for inserted, deleted in _repair_batches(graph):
                for u, v in inserted:
                    acsr.insert(u, v)
                for u, v in deleted:
                    acsr.remove(u, v)
                changed, rounds = batch.batch_repair(
                    acsr, coreness, inserted, deleted, pool
                )
                outputs.append((coreness.tobytes(), sorted(changed), rounds))
        return outputs

    return _captured_run(threads, observer, body)


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
def test_batch_repair_matches_per_access_reference(graph_name, threads):
    graph = SEARCH_GRAPHS[graph_name]()
    for observer in SEARCH_OBSERVERS:
        got = _run_repair(graph, threads, observer, {})
        want = _run_repair(graph, threads, observer, REF_REPAIR_KERNELS)
        clock, regions, records, outputs = got
        assert clock == want[0], observer
        assert regions == want[1], observer
        # per (region, thread): same histogram, same events as a multiset
        assert records == want[2], observer
        assert outputs == want[3], observer
        assert any(o[1] for o in outputs)  # the batches move coreness
        for label, _, work_total, work_max, *_ in regions:
            if label.startswith("dyn_"):
                assert float(work_total).is_integer(), (label, observer)
                assert float(work_max).is_integer(), (label, observer)


def test_batch_repair_contention_is_tallied():
    graph = SEARCH_GRAPHS["rmat"]()
    _, regions, records, _ = _run_repair(graph, 8, "none", {})
    expand = [r for r in regions if r[0].startswith("dyn_expand")]
    assert sum(r[5] for r in expand) > 0
    assert any(hist for label, _, hist, _ in records if "expand" in label)


# ---------------------------------------------------------------------------
# the two bulk operations against the per-element calls they replace
# ---------------------------------------------------------------------------

#: per thread, the script of one region: ("cas", i) | ("claim", [i...])
#: | ("read", i) | ("row", [i...]).  Index 5 is claimed by both threads,
#: 3 and 5 share a cache line, both threads claim an empty row, and
#: each mixes per-element and bulk calls.
BULK_SCRIPT = (
    [("cas", 1), ("claim", [3, 5, 17]), ("claim", []), ("read", 2),
     ("row", [4, 9, 9]), ("cas", 17)],
    [("row", []), ("claim", [5, 9, 40, 41]), ("cas", 6), ("claim", []),
     ("row", [0, 1]), ("claim", [6, 7])],
)


def _bulk_region(observer: str, bulk: bool):
    pool = SimulatedPool(threads=2)
    capture = _RegionCapture()
    detector = RaceDetector() if observer == "races" else None
    checker = _CountingChecker() if observer == "memcheck_units" else None
    pool.set_observer(ObserverFanout([capture, detector, checker]))
    arr = AtomicArray(48, name="flags")
    claimed = [[], []]

    def run(t, ctx):
        for op, arg in BULK_SCRIPT[t]:
            if op == "cas":
                if arr.compare_and_swap(ctx, arg, 0, 1):
                    claimed[t].append(arg)
            elif op == "claim" and bulk:
                claimed[t].extend(arr.claim(ctx, arg))
            elif op == "claim":
                claimed[t].extend(
                    i for i in arg
                    if arr.load(ctx, i) == 0
                    and arr.compare_and_swap(ctx, i, 0, 1)
                )
            elif op == "read":
                ctx.read(("flags", arg))
            elif bulk:
                ctx.read_row("flags", arg)
            else:
                for i in arg:
                    ctx.read(("flags", i))

    pool.parallel_for([0, 1], run, label="bulk")
    pool.set_observer(None)
    (stats,) = _region_rows(pool, checker)
    return stats, capture.records, claimed, arr.data.tolist()


@pytest.mark.parametrize("observer", ("none", "races", "memcheck_units"))
def test_bulk_operations_match_per_element_calls(observer):
    got = _bulk_region(observer, bulk=True)
    want = _bulk_region(observer, bulk=False)
    assert got == want
    stats, records, claimed, _ = got
    assert stats[5] > 0  # the shared cache lines contend
    assert claimed == [[1, 3, 5, 17], [9, 40, 41, 6, 7]]
    hist = records[0][2]
    assert hist[("flags", 0)] == 3 and hist[("flags", 2)] == 2


def _claimed_contexts(bulk: bool) -> list[ThreadContext]:
    contexts = [ThreadContext(t) for t in range(2)]
    arr = AtomicArray(64, name="v")
    for ctx, row in zip(contexts, ([0, 1, 8, 9, 10, 63], [1, 2, 3, 9, 62])):
        if bulk:
            arr.claim(ctx, row)
        else:
            for i in row:
                if arr.load(ctx, i) == 0:
                    arr.compare_and_swap(ctx, i, 0, 1)
    return contexts


def test_bulk_contention_matches_per_element_penalty():
    pool = SimulatedPool(threads=2)
    bulk, per_element = _claimed_contexts(True), _claimed_contexts(False)
    # thread 1 reads 1 and 9 as claimed and CASes 2, 3 and 62 only:
    # lines 0 and 7 queue 2 and 1 ops behind the busiest thread
    penalty = 3 * CONTENDED_ATOMIC_COST
    assert pool._contention_penalty(bulk) == penalty
    assert pool._contention_penalty(per_element) == penalty
    for got, want in zip(bulk, per_element):
        assert (got.work, got.atomic_ops) == (want.work, want.atomic_ops)
        assert got.atomic_locations == want.atomic_locations


# ---------------------------------------------------------------------------
# construction kernels: row operations against the per-element formulation
# ---------------------------------------------------------------------------


def _ref_pkc(graph, pool):
    """PKC with one ``load`` per scan and one charge or ``add`` per neighbor."""
    n = graph.num_vertices
    coreness = np.zeros(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    degree = AtomicArray(n, dtype=np.int64, name="peel_deg")
    degree.data[:] = graph.degrees()
    settled = np.zeros(n, dtype=bool)
    remaining, k = n, 0
    while remaining > 0:
        with pool.phase(f"pkc:level-{k}"):

            def scan(v, ctx):
                ctx.atomic_load(degree._observed_word(ctx, v))
                return v if degree.data[v] <= k else -1

            undecided = np.flatnonzero(~settled).tolist()
            hits = pool.parallel_for(undecided, scan, label=f"pkc:scan_k{k}")
            frontier = [v for v in hits if v >= 0]
            while frontier:
                for v in frontier:
                    settled[v] = True
                next_parts = [[] for _ in range(pool.threads)]

                def process(v, ctx):
                    ctx.write(("peel_core", int(v)))
                    coreness[v] = k
                    for u in indices[indptr[v] : indptr[v + 1]].tolist():
                        ctx.charge(1)
                        if settled[u]:
                            continue
                        if degree.add(ctx, u, -1) - 1 == k:
                            ctx.charge(1)
                            next_parts[ctx.thread_id].append(u)

                pool.parallel_for(frontier, process, label=f"pkc:peel_k{k}")
                remaining -= len(frontier)
                merged, seen = [], set()
                for part in next_parts:
                    for u in part:
                        if not settled[u] and u not in seen:
                            seen.add(u)
                            merged.append(u)
                frontier = merged
        k += 1
    return coreness


def _ref_vertex_rank(graph, coreness, pool):
    """Algorithm 1 reading numpy scalars, as before the native-int lists."""
    n = graph.num_vertices
    coreness = np.asarray(coreness, dtype=np.int64)
    kmax = int(coreness.max()) if n else 0
    p = pool.threads
    bins = [[[] for _ in range(kmax + 1)] for _ in range(p)]

    def bin_vertex(v, ctx):
        ctx.charge(1)
        ctx.atomic(("HL", ctx.thread_id, int(coreness[v])), contended=False)
        bins[ctx.thread_id][int(coreness[v])].append(v)

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), bin_vertex, label="vertex_rank:bin")

    def concat_shell(k, ctx):
        parts = [bins[t][k] for t in range(p)]
        total = sum(len(part) for part in parts)
        ctx.charge(total + 1)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(q, dtype=np.int64) for q in parts if q])

    with pool.phase("vertex-rank"):
        shells = pool.parallel_for(
            range(kmax + 1), concat_shell, label="vertex_rank:shells"
        )
    vsort = np.concatenate([s for s in shells if s.size])
    rank = san_empty(n, np.int64, name="rank")

    def assign_rank(i, ctx):
        ctx.write(("rank", int(vsort[i])))
        rank[vsort[i]] = i

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), assign_rank, label="vertex_rank:rank")
    return VertexRankResult(rank=rank, shells=shells, vsort=vsort)


def _ref_phcd(graph, coreness, pool, rank_result, use_waitfree,
              cas_failure_rate, seed):
    """PHCD with one scan charge, find, probe or union per neighbor."""
    coreness = np.asarray(coreness, dtype=np.int64)
    builder = HCDBuilder(graph.num_vertices)
    ranks, shells = rank_result.rank, rank_result.shells
    uf = (
        SimulatedWaitFreeUnionFind(ranks, failure_rate=cas_failure_rate, seed=seed)
        if use_waitfree
        else PivotUnionFind(ranks)
    )
    tid = builder.tid
    tid_arr = AtomicArray.from_array(builder.tid, name="tid")
    core = coreness.tolist()
    indptr, indices = graph.indptr, graph.indices
    for k in range(rank_result.kmax, -1, -1):
        shell = shells[k].tolist()
        if not shell:
            continue
        kpc_pivot = AtomicSet(name=f"kpc_pivot_k{k}")
        with pool.phase(f"phcd:level-{k}"):

            def collect_child_pivots(v, ctx):
                ctx.charge(1)
                for u in indices[indptr[v] : indptr[v + 1]].tolist():
                    ctx.charge(SCAN_CHARGE)
                    if core[u] > k:
                        kpc_pivot.add_if_absent(ctx, uf.get_pivot(u, ctx))

            pool.parallel_for(shell, collect_child_pivots, label=f"phcd:step1_k{k}")

            def connect(v, ctx):
                ctx.charge(1)
                for u in indices[indptr[v] : indptr[v + 1]].tolist():
                    ctx.charge(SCAN_CHARGE)
                    if core[u] >= k:
                        uf.union(v, u, ctx)

            pool.parallel_for(shell, connect, label=f"phcd:step2_k{k}")

            def group_by_pivot(v, ctx):
                pvt = uf.get_pivot(v, ctx)
                node = int(tid_arr.load(ctx, pvt))
                if node < 0:
                    fresh = builder.new_node(k)
                    ctx.atomic(("hcd_nodes",), contended=False)
                    if tid_arr.compare_and_swap(ctx, pvt, -1, fresh):
                        node = fresh
                    else:
                        node = int(tid_arr.load(ctx, pvt))
                if v != pvt:
                    ctx.write(("tid", int(v)), 0.0)
                    tid[v] = node
                ctx.atomic(("node_members", node), contended=False)
                builder.add_member(node, v)

            pool.parallel_for(shell, group_by_pivot, label=f"phcd:step3_k{k}")

            def attach_parent(old_pivot, ctx):
                pvt = uf.get_pivot(old_pivot, ctx)
                child = int(tid_arr.load(ctx, old_pivot))
                parent = int(tid_arr.load(ctx, pvt))
                ctx.write(("hcd_parent", child), 0.0)
                builder.set_parent(child, parent)

            pool.parallel_for(list(kpc_pivot), attach_parent, label=f"phcd:step4_k{k}")
    return builder.build()


def _ref_preprocess(graph, coreness, pool):
    """Preprocessing with one unit charge per scanned neighbor."""
    core = np.asarray(coreness, dtype=np.int64).tolist()
    n = graph.num_vertices
    gt = np.zeros(n, dtype=np.int64)
    eq = np.zeros(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices

    def count(v, ctx):
        ctx.write(("pre_counts", int(v)))
        g = e = 0
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            ctx.charge(1)
            if core[u] > core[v]:
                g += 1
            elif core[u] == core[v]:
                e += 1
        gt[v], eq[v] = g, e

    with pool.phase("pbks:preprocess"):
        pool.parallel_for(
            range(n), count, label="pbks:preprocess", chunking="dynamic", grain=32
        )
    lt = graph.degrees().astype(np.int64) - gt - eq
    return NeighborCorenessCounts(gt=gt, eq=eq, lt=lt)


CONSTRUCT_ROW_OPS = (
    pkc_core_decomposition, compute_vertex_rank, phcd_build_hcd,
    preprocess_neighbor_counts,
)
CONSTRUCT_PER_ELEMENT = (_ref_pkc, _ref_vertex_rank, _ref_phcd, _ref_preprocess)
#: regions whose folded charges rely on integer-only work
INTEGER_PREFIXES = ("pkc:", "vertex_rank:", "pbks:preprocess")


def _construct(kernels, graph, pool):
    pkc, rank_fn, phcd, preprocess = kernels
    coreness = pkc(graph, pool)
    rank = rank_fn(graph, coreness, pool)
    outputs = [coreness, rank.rank, rank.vsort]
    # the wait-free engine with and without injected CAS failures, then
    # the sequential pivot engine
    for use_waitfree, rate in ((True, 0.0), (True, 0.1), (False, 0.0)):
        hcd = phcd(
            graph, coreness, pool, rank_result=rank,
            use_waitfree=use_waitfree, cas_failure_rate=rate, seed=3,
        )
        outputs.extend(hcd.to_arrays().values())
    counts = preprocess(graph, coreness, pool)
    outputs.extend([counts.gt, counts.eq, counts.lt])
    return outputs


def _run_construct(graph, threads, observer, kernels):
    return _captured_run(
        threads, observer, lambda pool: _construct(kernels, graph, pool)
    )


#: the search graphs, whose slices stay below ``SLICE_VECTOR_MIN`` at 8
#: threads, and one whose slices cross it, so the vectorized and the
#: Python paths of PKC's slice operations both meet the reference
CONSTRUCT_GRAPHS = dict(SEARCH_GRAPHS, rmat_sliced=lambda: rmat(10, 8, seed=2))


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(CONSTRUCT_GRAPHS))
def test_construction_row_ops_match_per_element_reference(graph_name, threads):
    graph = CONSTRUCT_GRAPHS[graph_name]()
    for observer in SEARCH_OBSERVERS:
        clock, regions, records, outputs = _run_construct(
            graph, threads, observer, CONSTRUCT_ROW_OPS
        )
        want = _run_construct(graph, threads, observer, CONSTRUCT_PER_ELEMENT)
        assert clock == want[0], observer
        assert regions == want[1], observer
        # per (region, thread): same histogram, same events as a multiset
        assert records == want[2], observer
        assert len(outputs) == len(want[3])
        for got, ref in zip(outputs, want[3]):
            assert np.array_equal(got, ref), observer
        for label, _, work_total, work_max, *_ in regions:
            if label.startswith(INTEGER_PREFIXES):
                assert float(work_total).is_integer(), (label, observer)
                assert float(work_max).is_integer(), (label, observer)


#: slice kernels that loop in Python below ``SLICE_VECTOR_MIN``, by
#: region label family
GATED_FAMILIES = ("pkc:scan", "pkc:peel")


def test_construction_slices_take_both_paths(monkeypatch):
    """Fails if the sliced graph stops reaching PKC's vectorized
    branches (or stops leaving some peel slices below the crossover)."""
    lengths: dict[str, list[int]] = {}
    vectorized = Counter()
    slices = SimulatedPool.parallel_slices

    def spy_slices(self, items, fn, label="parallel_slices", *args, **kwargs):
        family = label.split("_k")[0]

        def watched(part, ctx):
            if not ctx.observed:
                lengths.setdefault(family, []).append(len(part))
            return fn(part, ctx)

        return slices(self, items, watched, label, *args, **kwargs)

    def counted(name, real):
        def call(*args, **kwargs):
            vectorized[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(SimulatedPool, "parallel_slices", spy_slices)
    monkeypatch.setattr(Graph, "gather_rows", counted("rows", Graph.gather_rows))
    monkeypatch.setattr(
        atomics, "_ordered_add", counted("add_row", atomics._ordered_add)
    )
    graph = CONSTRUCT_GRAPHS["rmat_sliced"]()
    # the thread counts the reference comparison runs: one thread's
    # slice is a whole peel frontier
    for threads in (1, 8):
        pool = SimulatedPool(threads=threads)
        # the spy counts unobserved slices only: detach the race
        # detector that ``pytest --sanitize`` gives every new pool
        pool.set_observer(None)
        pkc_core_decomposition(graph, pool)
    for family in GATED_FAMILIES:
        assert max(lengths[family]) >= SLICE_VECTOR_MIN, family
    peel = [n for n in lengths["pkc:peel"] if n]
    assert min(peel) < SLICE_VECTOR_MIN  # small frontiers stay in Python
    assert vectorized["rows"] and vectorized["add_row"]


#: per thread, the slices of one region: (level floor, [(x, row)...]).
#: Rows share vertices across threads, repeat a union, and hold entries
#: below the floor, so finds, failed CAS retries and set hits all occur;
#: slices hold several rows, one row, an empty row and no row.
UF_SLICES = (
    [(1, [(0, [1, 2, 3, 9]), (8, [7, 9, 4])]), (2, [(4, [5, 6, 0])]),
     (0, [(7, [])]), (1, [])],
    [(1, [(10, [11, 0, 1]), (1, [2, 0])]), (0, [(12, [13, 10, 3])]),
     (3, [(14, [15])])],
)
UF_LEVELS = [1, 2, 2, 0, 3, 1, 2, 1, 2, 3, 1, 2, 0, 2, 3, 3]


def _uf_rows_region(engine, rate, observer, bulk):
    pool = SimulatedPool(threads=2)
    capture = _RegionCapture()
    detector = RaceDetector() if observer == "races" else None
    checker = _CountingChecker() if observer == "memcheck_units" else None
    pool.set_observer(ObserverFanout([capture, detector, checker]))
    ranks = np.arange(16, dtype=np.int64)[::-1].copy()
    uf = (
        SimulatedWaitFreeUnionFind(ranks, failure_rate=rate, seed=4)
        if engine == "waitfree"
        else PivotUnionFind(ranks)
    )
    pivots = AtomicSet(name="pivots", buckets=4)

    def run(t, ctx):
        ctx.charge(0.1)  # replay from a fractional running total
        for floor, pairs in UF_SLICES[t]:
            xs = [x for x, _ in pairs]
            rows = [row for _, row in pairs]
            if bulk:
                pivots.add_pivots(ctx, uf, rows, UF_LEVELS, floor + 1, SCAN_CHARGE)
                uf.union_rows(xs, rows, UF_LEVELS, floor, ctx, SCAN_CHARGE)
                continue
            for row in rows:
                ctx.charge(1)
                for y in row:
                    ctx.charge(SCAN_CHARGE)
                    if UF_LEVELS[y] > floor:
                        pivots.add_if_absent(ctx, uf.get_pivot(y, ctx))
            for x, row in zip(xs, rows):
                ctx.charge(1)
                for y in row:
                    ctx.charge(SCAN_CHARGE)
                    if UF_LEVELS[y] >= floor:
                        uf.union(x, y, ctx)

    pool.parallel_for([0, 1], run, label="uf_rows")
    pool.set_observer(None)
    (stats,) = _region_rows(pool, checker)
    # the histogram in tally order, not only as a mapping
    order = [list(hist) for _, _, hist, _ in capture.records]
    state = (list(uf.parent), list(uf.pivot), getattr(uf, "cas_failures", 0))
    return stats, capture.records, order, state, list(pivots)


@pytest.mark.parametrize("observer", ("none", "races", "memcheck_units"))
@pytest.mark.parametrize(
    "engine, rate", [("waitfree", 0.0), ("waitfree", 0.3), ("pivot", 0.0)]
)
def test_union_find_row_ops_match_per_element_calls(engine, rate, observer):
    got = _uf_rows_region(engine, rate, observer, bulk=True)
    want = _uf_rows_region(engine, rate, observer, bulk=False)
    assert got == want
    stats, _, _, state, pivots = got
    assert not float(stats[2]).is_integer()  # fractional addends replayed
    assert pivots
    if rate:
        assert state[2] > 0  # injected CAS failures were retried


def _add_row_contexts(bulk):
    contexts = [ThreadContext(t) for t in range(2)]
    arr = AtomicArray(16, name="deg")
    arr.data[:] = 3
    reached = []
    for ctx, row in zip(contexts, ([0, 1, 2, 9], [1, 2, 15, 1])):
        if bulk:
            reached.append(arr.add_row(ctx, row, -1, 1))
        else:
            reached.append([i for i in row if arr.add(ctx, i, -1) - 1 == 1])
    return contexts, reached, arr.data.tolist()


def test_add_row_matches_per_element_adds():
    bulk, per_element = _add_row_contexts(True), _add_row_contexts(False)
    assert bulk[1:] == per_element[1:]
    assert bulk[1] == [[], [1, 2]]  # index 1 is decremented twice: 3, 2, 1
    for got, want in zip(bulk[0], per_element[0]):
        assert (got.work, got.atomic_ops) == (want.work, want.atomic_ops)
        assert got.atomic_locations == want.atomic_locations == {}


def _vectorized_contexts(bulk):
    """Each thread: add_row, load_le and add_many on a long index list
    with repeats (their numpy paths), a short one and an empty one, or
    the per-element calls."""
    rng = np.random.default_rng(11)
    contexts = [ThreadContext(t) for t in range(2)]
    deg = AtomicArray(40, name="deg")
    deg.data[:] = rng.integers(0, 12, 40)
    vals = AtomicArray(40, dtype=np.float64, name="vals")
    got = []
    for ctx, size in zip(contexts * 3, (3 * SLICE_VECTOR_MIN, 7, 0) * 2):
        row = rng.integers(0, 40, size)
        weights = rng.integers(-4, 5, row.size) * 0.5
        if bulk:
            got.append(deg.add_row(ctx, row, -1, 2))
            got.append(deg.load_le(ctx, row, 3))
            vals.add_many(ctx, row, weights)
            continue
        got.append([i for i in row.tolist() if deg.add(ctx, i, -1) - 1 == 2])
        got.append([i for i in row.tolist() if deg.load(ctx, i) <= 3])
        for i, w in zip(row.tolist(), weights.tolist()):
            vals.add(ctx, i, w)
    counters = [(c.work, c.atomic_ops, dict(c.atomic_locations)) for c in contexts]
    return got, counters, deg.data.tolist(), vals.data.tobytes()


def test_vectorized_slice_ops_match_per_element_calls():
    bulk, per_element = _vectorized_contexts(True), _vectorized_contexts(False)
    assert bulk == per_element
    assert any(bulk[0][0::2])  # some fetch-adds hit the handoff value


# ---------------------------------------------------------------------------
# cluster kernels: slice kernels against the per-vertex formulation
# ---------------------------------------------------------------------------


def _ref_relabel(graph, num_parts, pool, iterations=10, balance_slack=1.10):
    """Label propagation with one ``relabel`` call, one unit charge per
    neighbor and a dict of votes per vertex."""
    n = graph.num_vertices
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    labels = (np.arange(n, dtype=np.int64) * num_parts) // max(n, 1)
    if n == 0 or num_parts == 1:
        return labels
    capacity = int(balance_slack * n / num_parts) + 1
    indptr, indices = graph.indptr, graph.indices
    sizes = np.bincount(labels, minlength=num_parts)

    for it in range(iterations):
        new_labels = labels.copy()

        def relabel(v, ctx):
            ctx.charge(1)
            votes = {}
            for u in indices[indptr[v] : indptr[v + 1]]:
                ctx.charge(1)
                lab = int(labels[u])
                votes[lab] = votes.get(lab, 0) + 1
            if not votes:
                return
            best = min(votes, key=lambda lab: (-votes[lab], lab))
            if best != labels[v] and sizes[best] < capacity:
                ctx.atomic(("part_sizes", best))
                ctx.write(("part_newlab", int(v)), 0.0)
                new_labels[v] = best

        pool.parallel_for(range(n), relabel, label=f"partition:iter{it}")
        moved = new_labels != labels
        with pool.serial_region("partition:apply") as ctx:
            ctx.charge(int(np.count_nonzero(moved)) + num_parts)
        labels = new_labels
        sizes = np.bincount(labels, minlength=num_parts)
        if not bool(moved.any()):
            break
    return labels


def _ref_local_refine(node, graph, shard_id, owner, frontier, committed, step):
    """One shard's local rounds with one ``update`` call and a bincount
    h-index per frontier vertex."""
    indptr, indices = graph.indptr, graph.indices
    local = committed.copy()
    front = sorted(int(v) for v in frontier)
    rounds = 0
    with node.pool.phase("cluster.local"):
        while front:
            rounds += 1
            new_vals = local.copy()

            def update(v, ctx):
                v = int(v)
                start = int(indptr[v])
                end = int(indptr[v + 1])
                ctx.write(("cl_new", v))
                ctx.charge(end - start + 1)
                cap = int(local[v])
                row = indices[start:end]
                vals = np.minimum(local[row], cap)
                counts = np.bincount(vals, minlength=cap + 1)
                suffix = np.cumsum(counts[::-1])[::-1]
                ok = np.flatnonzero(suffix >= np.arange(cap + 1))
                new_vals[v] = int(ok[-1]) if ok.size else 0

            node.pool.parallel_for(
                front,
                update,
                label=f"cluster:s{shard_id}:step{step}:r{rounds}",
            )
            changed = [v for v in front if new_vals[v] < local[v]]
            local = new_vals
            if not changed:
                break
            woken = set()
            for v in changed:
                woken.add(v)
                row = indices[indptr[v] : indptr[v + 1]]
                woken.update(int(u) for u in row[owner[row] == shard_id])
            front = sorted(woken)
    changed_ids = np.flatnonzero(local != committed).astype(np.int64)
    return changed_ids, local[changed_ids], rounds


def _ref_h_index(values, cap):
    counts = [0] * (cap + 1)
    for value in values:
        counts[min(value, cap)] += 1
    total = 0
    for h in range(cap, -1, -1):
        total += counts[h]
        if total >= h:
            return h
    return 0


def _ref_mpm(graph, pool):
    """MPM with one ``update`` call and one unit charge per neighbor."""
    n = graph.num_vertices
    estimate = graph.degrees().astype(np.int64).copy()
    if n == 0:
        return estimate, 0
    indptr, indices = graph.indptr, graph.indices
    active = np.ones(n, dtype=bool)
    rounds = 0
    while bool(active.any()):
        rounds += 1
        frontier = [int(v) for v in np.flatnonzero(active)]
        new_vals = estimate.copy()

        def update(v, ctx):
            ctx.write(("mpm_new", int(v)))
            neigh_vals = []
            for u in indices[indptr[v] : indptr[v + 1]]:
                ctx.charge(1)
                neigh_vals.append(int(estimate[u]))
            new_vals[v] = _ref_h_index(neigh_vals, int(estimate[v]))

        pool.parallel_for(frontier, update, label=f"mpm:round{rounds}")
        changed = np.flatnonzero(new_vals != estimate)
        estimate = new_vals
        active[:] = False
        for v in changed:
            active[indices[indptr[v] : indptr[v + 1]]] = True
            active[v] = True
    return estimate, rounds


#: (module, function name, per-vertex reference)
CLUSTER_REFS = (
    (partition, "label_propagation_partition", _ref_relabel),
    (cluster_decomposition, "_local_refine", _ref_local_refine),
    (distributed, "mpm_core_decomposition", _ref_mpm),
)
#: regions whose folded charges rely on integer-only work
CLUSTER_PREFIXES = ("partition:", "cluster:", "mpm:")
CLUSTER_SHARDS = 3


def _cluster_run(graph, pool):
    # shared-pool mode: the shards' local rounds land on the observed pool
    sharded = shard_graph(graph, CLUSTER_SHARDS, strategy="lp", pool=pool)
    cluster = SimCluster(CLUSTER_SHARDS, pool=pool)
    report = distributed_core_decomposition(graph, cluster, sharded)
    coreness, rounds = distributed.mpm_core_decomposition(graph, pool)
    return (
        sharded.owner.tolist(), report.coreness.tolist(), report.as_dict(),
        coreness.tolist(), rounds,
    )


def _run_cluster(graph, threads, observer, reference):
    def body(pool):
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                for module, name, fn in CLUSTER_REFS:
                    mp.setattr(module, name, fn)
            return _cluster_run(graph, pool)

    return _captured_run(threads, observer, body)


CLUSTER_GRAPHS = dict(SEARCH_GRAPHS, rmat_sliced=lambda: rmat(10, 8, seed=2))


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(CLUSTER_GRAPHS))
def test_cluster_slice_kernels_match_per_vertex_reference(graph_name, threads):
    graph = CLUSTER_GRAPHS[graph_name]()
    for observer in SEARCH_OBSERVERS:
        got = _run_cluster(graph, threads, observer, reference=False)
        want = _run_cluster(graph, threads, observer, reference=True)
        clock, regions, records, outputs = got
        assert clock == want[0], observer
        assert regions == want[1], observer
        # per (region, thread): same histogram, same events as a multiset
        assert records == want[2], observer
        assert outputs == want[3], observer
        assert outputs[1] == outputs[3] == core_decomposition(graph).tolist()
        families = {label.split(":")[0] for label, *_ in regions}
        assert {"partition", "cluster", "mpm"} <= families
        for label, _, work_total, work_max, *_ in regions:
            if label.startswith(CLUSTER_PREFIXES):
                assert float(work_total).is_integer(), (label, observer)
                assert float(work_max).is_integer(), (label, observer)


def test_h_index_rows_matches_per_row_h_index():
    rng = np.random.default_rng(17)
    lens = rng.integers(0, 9, 300)
    values = rng.integers(0, 12, int(lens.sum()))
    caps = rng.integers(0, 10, lens.size)
    want, start = [], 0
    for size, cap in zip(lens.tolist(), caps.tolist()):
        want.append(_ref_h_index(values[start : start + size].tolist(), cap))
        start += size
    assert distributed.h_index_rows(values, lens, caps).tolist() == want
    empty = distributed.h_index_rows(np.empty(0, np.int64), np.zeros(3, np.int64), caps[:3])
    assert empty.tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# serving's shared passes and score folds: slice kernels vs per element
# ---------------------------------------------------------------------------


def _ref_score_fold(self, values, metric_name, label):
    """``SnapshotExecutor._score_fold`` with one worker call per row."""
    metric = get_metric(metric_name)
    totals = self._totals
    rows = values.shape[0]
    scores = san_empty(rows, np.float64, name="serve_scores")

    def score_row(i: int, ctx) -> None:
        n_, m_, b_, tri, trip = values[i]
        value = metric(
            PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
            totals,
        )
        ctx.write(("serve_scores", int(i)), value=value)
        scores[i] = value

    if rows:
        self.pool.parallel_for(range(rows), score_row, label=label)
    return scores, best_finite_index(scores)


#: type-A and type-B metrics over both values matrices, separability's
#: infinite scores, and the influential index the executor memoizes
SERVE_REQUESTS = (
    {"kind": "pbks", "metric": "average_degree"},
    {"kind": "pbks", "metric": "separability"},
    {"kind": "pbks", "metric": "clustering_coefficient"},
    {"kind": "best_k", "metric": "conductance"},
    {"kind": "best_k", "metric": "triangle_participation"},
    {"kind": "influential", "k": 2, "r": 3, "weights": "degree"},
)


def _run_serve(graph, threads, observer, reference):
    plan = plan_batch(
        [(rid, normalize_request(dict(r))) for rid, r in enumerate(SERVE_REQUESTS)]
    )

    def body(pool):
        snapshot = build_snapshot(graph, pool=pool, name="fast-path")
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                mp.setattr(best_k, "bestk_type_a_contributions", _ref_contribute_a)
                mp.setattr(SnapshotExecutor, "_score_fold", _ref_score_fold)
            executor = SnapshotExecutor(snapshot, pool)
            results = executor.execute(plan.queries)
        answers = repr(sorted((fp, r.as_dict()) for fp, r in results.items()))
        levels = [
            v.tobytes()
            for (kind, _), v in executor._passes.items()
            if kind == "best_k"
        ]
        return answers, levels

    return _captured_run(threads, observer, body)


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
def test_serve_slice_kernels_match_per_element_reference(graph_name, threads):
    graph = SEARCH_GRAPHS[graph_name]()
    for observer in SEARCH_OBSERVERS:
        got = _run_serve(graph, threads, observer, reference=False)
        want = _run_serve(graph, threads, observer, reference=True)
        clock, regions, records, outputs = got
        assert clock == want[0], observer
        assert regions == want[1], observer
        # per (region, thread): same histogram, same events as a multiset
        assert records == want[2], observer
        assert outputs == want[3], observer
        labels = {label for label, *_ in regions}
        assert {"bestk:typeA", "influence:fold"} <= labels
        assert any(label.startswith("serve:score:") for label in labels)


def test_score_fold_hands_metrics_float64_fields(monkeypatch):
    from repro.search import metrics

    seen = set()

    def probe(v, totals):
        seen.update(type(x) for x in v.as_tuple())
        return float(v.n)

    monkeypatch.setitem(
        metrics._REGISTRY, "probe", metrics.Metric("probe", "A", probe)
    )
    snapshot = build_snapshot(rmat(8, 4, seed=7), pool=SimulatedPool(2))
    executor = SnapshotExecutor(snapshot, SimulatedPool(threads=4))
    values = executor._shared_pass(("pbks", False))
    scores, best = executor._score_fold(values, "probe", "serve:score:probe")
    assert seen == {np.float64}
    assert scores.tolist() == values[:, _N].tolist()
    assert best == int(np.argmax(values[:, _N]))


# ---------------------------------------------------------------------------
# PBKS and best-k score folds: slice kernels vs per element
# ---------------------------------------------------------------------------


def _ref_pbks_node_scores(accumulated, metric, totals, pool):
    """``pbks.pbks_node_scores`` with one worker and metric call per node."""
    scores = san_empty(accumulated.shape[0], np.float64, name="pbks_scores")

    def score_node(i: int, ctx) -> None:
        n_, m_, b_, tri, trip = accumulated[i]
        value = metric(
            PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
            totals,
        )
        ctx.write(("pbks_scores", int(i)), value=value)
        scores[i] = value

    with pool.phase("pbks:score"):
        pool.parallel_for(
            range(accumulated.shape[0]), score_node, label="pbks:score"
        )
    return scores


def _ref_bestk_level_scores(values, metric, totals, pool):
    """``best_k.bestk_level_scores`` with one worker and metric call per
    level."""
    scores = san_empty(values.shape[0], np.float64, name="bks_scores")

    def score_level(k: int, ctx) -> None:
        n_, m_, b_, tri, trip = values[k]
        value = metric(
            PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
            totals,
        )
        ctx.write(("bks_scores", int(k)), value=value)
        scores[k] = value

    pool.parallel_for(range(values.shape[0]), score_level, label="bestk:score")
    return scores


#: type A and B, separability's infinite scores, and a metric that is
#: NaN everywhere, so memcheck names each fold as a NaN origin
SEARCH_FOLD_METRICS = (
    "average_degree",
    "separability",
    "clustering_coefficient",
    "triangle_participation",
    Metric("all_nan", "A", lambda values, totals: values.n * np.nan),
)


def _run_search_folds(graph, threads, observer, reference):
    coreness, _, hcd, counts = _prepared(graph)
    rank_result = compute_vertex_rank(graph, coreness, SimulatedPool(2))

    def body(pool):
        outputs = []
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                mp.setattr(pbks, "pbks_node_scores", _ref_pbks_node_scores)
                mp.setattr(best_k, "bestk_level_scores", _ref_bestk_level_scores)
            for metric in SEARCH_FOLD_METRICS:
                found = pbks.pbks_search(
                    graph, coreness, hcd, metric, pool,
                    counts=counts, rank_result=rank_result,
                )
                levels = best_k.find_best_k(
                    graph, coreness, metric, pool,
                    counts=counts, rank_result=rank_result,
                )
                outputs.append((
                    found.scores.tobytes(), found.best_node,
                    repr(found.best_score), levels.scores.tobytes(),
                    levels.best_k, repr(levels.best_score),
                ))
        checker = MemChecker.current()
        origins = [] if checker is None else [
            (o.name, o.index, o.region, o.phase, o.thread, repr(o.value))
            for o in checker.nan_origins
        ]
        return outputs, origins

    return _captured_run(threads, observer, body)


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph_name", sorted(SEARCH_GRAPHS))
def test_search_score_folds_match_per_element_reference(graph_name, threads):
    graph = SEARCH_GRAPHS[graph_name]()
    for observer in SEARCH_OBSERVERS:
        got = _run_search_folds(graph, threads, observer, reference=False)
        want = _run_search_folds(graph, threads, observer, reference=True)
        clock, regions, records, outputs = got
        assert clock == want[0], observer
        assert regions == want[1], observer
        # per (region, thread): same histogram, same events as a multiset
        assert records == want[2], observer
        assert outputs == want[3], observer
        labels = {label for label, *_ in regions}
        assert {"pbks:score", "bestk:score"} <= labels
        if observer in ("memcheck_units", "both"):
            regions_named = {region for _, _, region, *_ in outputs[1]}
            assert {"pbks:score", "bestk:score"} <= regions_named, observer


def _value_writes(bulk, observer):
    """Two threads store a slice of values each, with one
    ``write_row(..., values=...)`` or with per-element ``write`` calls."""
    values = np.array([1.0, np.nan, 2.0, np.inf, -0.0, 3.0])

    def body(pool):
        def store(rows: range, ctx) -> None:
            if bulk:
                ctx.write_row(
                    "row_vals", rows, values=values[rows.start : rows.stop]
                )
            else:
                for i in rows:
                    ctx.write(("row_vals", i), value=values[i])

        pool.parallel_slices(range(values.size), store, label="row_vals")
        checker = MemChecker.current()
        return [] if checker is None else [
            (o.name, o.index, o.region, o.thread, repr(o.value))
            for o in checker.nan_origins
        ]

    return _captured_run(2, observer, body)


@pytest.mark.parametrize("observer", SEARCH_OBSERVERS)
def test_write_row_values_match_per_element_writes(observer):
    got = _value_writes(True, observer)
    assert got == _value_writes(False, observer)
    if observer in ("memcheck_units", "both"):
        # the first non-finite value names the region and the thread
        assert got[3] == [("row_vals", 1, "row_vals", 0, "nan")]
