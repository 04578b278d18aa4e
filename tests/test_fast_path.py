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

Batched dynamic repair charges each scanned row's reads and ``visited``
CAS attempts in bulk (``ThreadContext.read_row``, ``AtomicArray.claim``).
Its three kernels are checked against the per-access formulation, also
kept here, and the two bulk operations against the per-element calls
they replace.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import compute_vertex_rank
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
from repro.parallel.atomics import AtomicArray
from repro.parallel.context import ThreadContext
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.observers import ObserverFanout
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.detector import RaceDetector
from repro.sanitizer.memcheck import MemChecker
from repro.search import bks
from repro.search.best_k import bestk_type_b_contributions
from repro.search.pbks import (
    pbks_type_a_contributions,
    pbks_type_b_contributions,
)
from repro.search.preprocessing import preprocess_neighbor_counts
from repro.truss import truss_decomposition, truss_hierarchy

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
        members = [e for i in range(h.num_nodes) for e in h.members_of(i)]
        outputs.extend([
            levels, h.node_level, h.parent, h.elem_node,
            np.asarray(members, dtype=np.int64),
        ])
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
    regions = [
        (r.label, r.items, r.work_total, r.work_max, r.atomic_ops,
         r.contention_penalty, r.elapsed)
        for r in pool.regions
    ]
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
        return ThreadContext(0, DEFAULT_COST_MODEL)

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
            ThreadContext(0, DEFAULT_COST_MODEL, observed=True)


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
#: barrier_units=1.0 adds one integer unit per memcheck barrier, so the
#: folded charges are checked with extra addends interleaved
SEARCH_OBSERVERS = ("none", "races", "memcheck_units", "both")
#: regions whose folded charge relies on integer-only work
FOLDED_REGIONS = ("pbks:typeB_triangles", "pbks:typeB_triplets", "bestk:typeB")


class _LoggedArray(AtomicArray):
    """An ``AtomicArray`` that logs every ``add`` in call order."""

    def __init__(self, size: int, name: str) -> None:
        super().__init__(size, dtype=np.float64, name=name)
        self.log: list[tuple[int, int, float]] = []

    def add(self, ctx, index, delta):
        self.log.append((ctx.thread_id, index, delta))
        return super().add(ctx, index, delta)


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
        MemChecker(barrier_units=1.0)
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
    regions = [
        (r.label, r.items, r.work_total, r.work_max, r.atomic_ops,
         r.contention_penalty, r.elapsed)
        for r in pool.regions
    ]
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
            MemChecker(barrier_units=1.0)
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
        members.extend(x for x in frontier if int(coreness[x]) == k)
        next_parts = [[] for _ in range(pool.threads)]

        def expand(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            for j in range(state.lens[xi]):
                y = int(indices[base + j])
                ctx.read(("coreness", y))
                if int(coreness[y]) >= k:
                    if visited.compare_and_swap(ctx, y, 0, 1):
                        next_parts[ctx.thread_id].append(y)

        pool.parallel_for(frontier, expand, label=f"dyn_expand:{tag}")
        frontier = batch._merge_parts(next_parts)
    return sorted(members)


def _ref_peel_promote(pool, state, cand, k, tag):
    coreness, indices = state.coreness, state.indices
    alive = np.zeros(coreness.size, dtype=np.int64)
    supp = np.zeros(coreness.size, dtype=np.int64)
    alive_list = sorted(cand)
    for x in alive_list:
        alive[x] = 1
    while alive_list:

        def count_support(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            s = 0
            for j in range(state.lens[xi]):
                y = int(indices[base + j])
                ctx.read(("coreness", y))
                ctx.read(("alive", y))
                if int(coreness[y]) > k or alive[y]:
                    s += 1
            ctx.write(("supp", xi))
            supp[xi] = s

        pool.parallel_for(alive_list, count_support, label=f"dyn_support:{tag}")
        parts = [[] for _ in range(pool.threads)]

        def evict(x, ctx):
            xi = int(x)
            ctx.read(("supp", xi))
            if int(supp[xi]) <= k:
                ctx.write(("alive", xi))
                alive[xi] = 0
                parts[ctx.thread_id].append(xi)

        pool.parallel_for(alive_list, evict, label=f"dyn_evict:{tag}")
        if not any(parts):
            break
        alive_list = [x for x in alive_list if alive[x]]
    return alive_list


def _ref_peel_demote(pool, state, cand, k, tag):
    coreness, indices = state.coreness, state.indices
    dropped = np.zeros(coreness.size, dtype=np.int64)
    supp = np.zeros(coreness.size, dtype=np.int64)
    active = sorted(cand)
    all_dropped = []
    while active:

        def count_support(x, ctx):
            xi = int(x)
            ctx.read(("row_len", xi))
            base = state.starts[xi]
            s = 0
            for j in range(state.lens[xi]):
                y = int(indices[base + j])
                ctx.read(("coreness", y))
                ctx.read(("dropped", y))
                cy = int(coreness[y])
                if cy > k or (cy == k and not dropped[y]):
                    s += 1
            ctx.write(("supp", xi))
            supp[xi] = s

        pool.parallel_for(active, count_support, label=f"dyn_support:{tag}")
        parts = [[] for _ in range(pool.threads)]

        def evict(x, ctx):
            xi = int(x)
            ctx.read(("supp", xi))
            if int(supp[xi]) < k:
                ctx.write(("dropped", xi))
                dropped[xi] = 1
                parts[ctx.thread_id].append(xi)

        pool.parallel_for(active, evict, label=f"dyn_evict:{tag}")
        evicted = batch._merge_parts(parts)
        if not evicted:
            break
        all_dropped.extend(evicted)
        active = [x for x in active if not dropped[x]]
    return sorted(all_dropped)


#: the per-access formulation of the three repair kernels
REF_REPAIR_KERNELS = {
    "_collect_subcore": _ref_collect_subcore,
    "_peel_promote": _ref_peel_promote,
    "_peel_demote": _ref_peel_demote,
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


def _run_repair(graph, threads, observer, kernels):
    coreness = core_decomposition(graph).astype(np.int64)
    acsr = DynamicCSR.from_graph(graph)
    pool = SimulatedPool(threads=threads)
    capture = _RegionCapture()
    detector = RaceDetector() if observer in ("races", "both") else None
    checker = (
        MemChecker(barrier_units=1.0)
        if observer in ("memcheck_units", "both")
        else None
    )
    if checker is not None:
        checker.activate()
    pool.set_observer(ObserverFanout([capture, detector, checker]))
    outputs = []
    try:
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
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
    if checker is not None:
        assert checker.findings == []
    regions = [
        (r.label, r.items, r.work_total, r.work_max, r.atomic_ops,
         r.contention_penalty, r.elapsed)
        for r in pool.regions
    ]
    return pool.clock, regions, capture.records, outputs


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
    checker = MemChecker(barrier_units=1.0) if observer == "memcheck_units" else None
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
                    i for i in arg if arr.compare_and_swap(ctx, i, 0, 1)
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
    (region,) = pool.regions
    stats = (region.work_total, region.work_max, region.atomic_ops,
             region.contention_penalty, region.elapsed)
    return stats, capture.records, claimed, arr.data.tolist()


@pytest.mark.parametrize("observer", ("none", "races", "memcheck_units"))
def test_bulk_operations_match_per_element_calls(observer):
    got = _bulk_region(observer, bulk=True)
    want = _bulk_region(observer, bulk=False)
    assert got == want
    stats, records, claimed, _ = got
    assert stats[3] > 0  # the shared cache lines contend
    assert claimed == [[1, 3, 5, 17], [9, 40, 41, 6, 7]]
    hist = records[0][2]
    assert hist[("flags", 0)] == 3 and hist[("flags", 2)] == 2


def _claimed_contexts(bulk: bool) -> list[ThreadContext]:
    contexts = [ThreadContext(t, DEFAULT_COST_MODEL) for t in range(2)]
    arr = AtomicArray(64, name="v")
    for ctx, row in zip(contexts, ([0, 1, 8, 9, 10, 63], [1, 2, 3, 9, 62])):
        if bulk:
            arr.claim(ctx, row)
        else:
            for i in row:
                arr.compare_and_swap(ctx, i, 0, 1)
    return contexts


def test_bulk_contention_matches_per_element_penalty():
    pool = SimulatedPool(threads=2)
    bulk, per_element = _claimed_contexts(True), _claimed_contexts(False)
    # lines 0, 1 and 7 queue 2, 1 and 1 ops behind the busiest thread
    penalty = 4 * DEFAULT_COST_MODEL.contended_atomic_cost
    assert pool._contention_penalty(bulk) == penalty
    assert pool._contention_penalty(per_element) == penalty
    for got, want in zip(bulk, per_element):
        assert (got.work, got.atomic_ops) == (want.work, want.atomic_ops)
        assert got.atomic_locations == want.atomic_locations
