"""PBKS — parallel subgraph search on the HCD (paper Section IV).

PBKS finds the k-core with the highest community score in three
vertex-centric stages (Algorithm 3):

1. every vertex computes, in parallel, its *contribution* to the
   primary values of its tree node — each motif (vertex, edge,
   boundary edge, triangle, triplet) is counted exactly once, at the
   motif member with the lowest vertex rank;
2. a parallel bottom-up tree accumulation turns per-node contributions
   into the primary values of each node's original k-core;
3. every node's score is evaluated in parallel and the argmax returned
   (the metric itself once per distinct row of primary values).

Type-A metrics (Algorithm 4) need only the O(n) vertex/edge/boundary
contributions, answered from the shared O(m) preprocessing
(:mod:`repro.search.preprocessing`).  Type-B metrics (Algorithm 5)
additionally count triangles in O(m^1.5) via degree-ordered edge
direction and triplets in O(m) via the paper's two-case center count.
Both are work-efficient: the step counts asymptotically match the best
sequential complexity.
"""

from __future__ import annotations

import numpy as np

from repro.core.hcd import HCD
from repro.core.vertex_rank import VertexRankResult
from repro.graph.graph import Graph
from repro.parallel.accumulate import tree_accumulate
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool
from repro.search.metrics import Metric, get_metric, score_matrix
from repro.search.preprocessing import (
    NeighborCorenessCounts,
    preprocess_neighbor_counts,
)
from repro.search.primary_values import GraphTotals
from repro.search.result import SearchResult, best_finite_index
from repro.sanitizer.memcheck import san_empty

__all__ = [
    "pbks_search",
    "pbks_node_values",
    "pbks_node_scores",
    "pbks_type_a_contributions",
    "pbks_type_b_contributions",
]

# column order of the values matrix
_N, _M, _B, _TRI, _TRIP = range(5)


def pbks_type_a_contributions(
    graph: Graph,
    coreness: np.ndarray,
    hcd: HCD,
    counts: NeighborCorenessCounts,
    pool: SimulatedPool,
    out: AtomicArray,
    num_nodes: int,
) -> None:
    """Algorithm 4 lines 2-9: per-vertex (n, m, b) contributions.

    Each vertex adds, to its tree node: one vertex; ``gt + eq/2`` new
    edges (equal-coreness edges are shared between both endpoints);
    and ``lt - gt`` boundary edges (``lt`` edges leave the new core,
    ``gt`` former boundary edges become internal).
    """
    tid, gt, eq, lt = hcd.tid, counts.gt, counts.eq, counts.lt

    def contribute(vs: list[int], ctx) -> None:
        # per vertex: three units, then one relaxed fetch-add on each of
        # the n, m and b slots of its node, in that order.  Every value
        # is a multiple of 0.5, so each float slot sums exactly.
        ctx.charge(3 * len(vs))
        base = tid[vs] * 5
        g = gt[vs]
        slots = np.column_stack((base + _N, base + _M, base + _B))
        values = np.column_stack(
            (np.ones(len(vs)), g + 0.5 * eq[vs], lt[vs] - g)
        )
        out.add_many(ctx, slots.ravel(), values.ravel())

    # slices of vertex ids  # prove: slice of [0, n)
    pool.parallel_slices(
        range(graph.num_vertices),
        contribute,
        label="pbks:typeA",
        chunking="dynamic",
        grain=32,
    )


def pbks_type_b_contributions(
    graph: Graph,
    coreness: np.ndarray,
    hcd: HCD,
    counts: NeighborCorenessCounts,
    ranks: np.ndarray,
    pool: SimulatedPool,
    out: AtomicArray,
    num_nodes: int,
) -> None:
    """Algorithm 5 lines 2-15: triangle and triplet contributions.

    Triangles: each edge is directed from its lower-(degree, id)
    endpoint; wedges closed through the directed edge are tested for
    the third edge by membership in a hash set of the source's
    neighbors, and the triangle is credited to the tree node of its
    lowest-rank corner — O(m^1.5) work.

    Triplets: all triplets centered at ``v`` are credited by the level
    at which they appear; the level-``c(v)`` count is ``C(ge, 2)`` and
    each lower level ``k`` adds ``C(cnt_k, 2) + ge * cnt_k`` triplets
    to the node of any coreness-``k`` neighbor (all such neighbors
    share a tree node, because they are connected through ``v``).
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    # the kernels read native values: one conversion per call
    tid = hcd.tid.tolist()
    ranks = np.asarray(ranks).tolist()
    coreness = np.asarray(coreness).tolist()
    gt, eq = counts.gt.tolist(), counts.eq.tolist()

    # --- triangles (lines 3-7) ---
    # The paper parallelizes the edge loop itself ("for each u in N(v)
    # do in parallel"), which is what balances hub vertices: iterate
    # the m directed edges (v, u) with u the lower-(degree, id)
    # endpoint, in CSR order, and close wedges through u.
    src = np.repeat(np.arange(n), degrees)
    d_src, d_dst = degrees[src], degrees[indices]
    downhill = (d_dst < d_src) | ((d_dst == d_src) & (indices < src))
    directed_edges = list(
        zip(src[downhill].tolist(), indices[downhill].tolist())
    )
    # the third edge of a wedge is one lookup in a set of N(v)
    flat, offsets = indices.tolist(), indptr.tolist()
    nbr_sets = [set(flat[offsets[v] : offsets[v + 1]]) for v in range(n)]

    def close_wedges(edge: tuple[int, int], ctx) -> None:
        v, u = edge
        row_u = indices[indptr[u] : indptr[u + 1]].tolist()
        # the edge, each scanned w, and a membership test for each w
        # but v, in one charge: exact because every addend of ``work``
        # in this region is an integer (docs/cost_model.md, "When a
        # bulk charge is exact")
        ctx.charge(1 + len(row_u) + (len(row_u) - 1))
        nbrs_v = nbr_sets[v]
        lowest = min(ranks[u], ranks[v])
        for w in row_u:
            # w == v never passes: the graph has no self-loops
            if w in nbrs_v and ranks[w] < lowest:
                out.add(ctx, tid[w] * 5 + _TRI, 1.0)

    pool.parallel_for(
        directed_edges,
        close_wedges,
        label="pbks:typeB_triangles",
        chunking="dynamic",
        grain=16,
    )

    def contribute(v: int, ctx) -> None:
        # --- triplets (lines 8-15) ---
        ge = gt[v] + eq[v]
        ctx.charge(1)
        out.add(ctx, tid[v] * 5 + _TRIP, ge * (ge - 1) / 2.0)
        # bucket v's lower-coreness neighbors by their coreness
        lower: dict[int, tuple[int, int]] = {}  # k -> (count, witness)
        cv = coreness[v]
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            ctx.charge(1)
            cu = coreness[u]
            if cu < cv:
                cnt, _ = lower.get(cu, (0, u))
                lower[cu] = (cnt + 1, u)
        gt_running = ge
        for k in sorted(lower, reverse=True):
            cnt_k, witness = lower[k]
            ctx.charge(1)
            out.add(
                ctx,
                tid[witness] * 5 + _TRIP,
                cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k,
            )
            gt_running += cnt_k

    pool.parallel_for(
        range(n),
        contribute,
        label="pbks:typeB_triplets",
        chunking="dynamic",
        grain=16,
    )


def pbks_node_values(
    graph: Graph,
    coreness: np.ndarray,
    hcd: HCD,
    pool: SimulatedPool,
    counts: NeighborCorenessCounts | None = None,
    rank_result: VertexRankResult | None = None,
    need_type_b: bool = False,
) -> np.ndarray:
    """Accumulated primary values of every tree node's original k-core.

    The shared hierarchy traversal of Algorithm 3: per-vertex
    contributions (type A, plus the type-B motifs when
    ``need_type_b``) followed by the bottom-up tree accumulation.
    Returns a ``(|T|, 5)`` array in ``(n, m, b, tri, trip)`` column
    order.  This is the pass the serving layer's batched executor runs
    *once* per snapshot and shares across every metric fold — the
    type-A columns are bit-identical whether or not the type-B pass
    runs, since the motif families write disjoint columns.
    """
    coreness = np.asarray(coreness, dtype=np.int64)
    t = hcd.num_nodes
    if t == 0:
        return np.empty((0, 5))
    if counts is None:
        counts = preprocess_neighbor_counts(graph, coreness, pool)
    contributions = AtomicArray(t * 5, dtype=np.float64, name="pbks_vals")
    with pool.phase("pbks:typeA"):
        pbks_type_a_contributions(
            graph, coreness, hcd, counts, pool, contributions, t
        )
    if need_type_b:
        if rank_result is None:
            from repro.core.vertex_rank import compute_vertex_rank

            rank_result = compute_vertex_rank(graph, coreness, pool)
        with pool.phase("pbks:typeB"):
            pbks_type_b_contributions(
                graph,
                coreness,
                hcd,
                counts,
                rank_result.rank,
                pool,
                contributions,
                t,
            )
    per_node = contributions.data.reshape(t, 5)
    with pool.phase("pbks:accumulate"):
        return tree_accumulate(
            pool, hcd.parent, per_node, label="pbks:accum"
        )


def pbks_node_scores(
    accumulated: np.ndarray,
    metric: Metric,
    totals: GraphTotals,
    pool: SimulatedPool,
) -> np.ndarray:
    """Algorithm 3 line 3: every tree node's score, in parallel.

    The metric is evaluated once per distinct row of ``accumulated``
    (:func:`~repro.search.metrics.score_matrix`; numpy float64 fields on
    purpose: a metric dividing by a zero primary value gets inf/NaN,
    "no winner" in :func:`pbks_search`, where Python floats would raise
    ``ZeroDivisionError``).  The region then stores each node's score
    in its own slot.
    """
    t = accumulated.shape[0]
    scored = score_matrix(metric, accumulated, totals)
    scores = san_empty(t, np.float64, name="pbks_scores")

    def store_nodes(nodes: range, ctx) -> None:
        # each tree node owns its score slot; the values ride along so
        # memcheck can name this kernel as a NaN origin
        ctx.write_row(
            "pbks_scores", nodes, values=scored[nodes.start : nodes.stop]
        )
        scores[nodes.start : nodes.stop] = scored[nodes.start : nodes.stop]

    with pool.phase("pbks:score"):
        pool.parallel_slices(range(t), store_nodes, label="pbks:score")
    return scores


def pbks_search(
    graph: Graph,
    coreness: np.ndarray,
    hcd: HCD,
    metric: Metric | str,
    pool: SimulatedPool,
    counts: NeighborCorenessCounts | None = None,
    rank_result: VertexRankResult | None = None,
) -> SearchResult:
    """Find the best-scoring k-core on ``pool`` (Algorithm 3 framework).

    ``counts`` is the shared preprocessing — pass a precomputed value
    to amortize it across metrics, as the paper does.  ``rank_result``
    supplies vertex ranks for motif attribution (recomputed if absent;
    PBKS normally reuses PHCD's).
    """
    if isinstance(metric, str):
        metric = get_metric(metric)
    coreness = np.asarray(coreness, dtype=np.int64)
    t = hcd.num_nodes
    totals = GraphTotals.of(graph)
    if t == 0:
        return SearchResult(
            metric_name=metric.name,
            best_node=-1,
            best_score=float("-inf"),
            best_k=-1,
            scores=np.empty(0),
            values=np.empty((0, 5)),
            hcd=hcd,
        )
    accumulated = pbks_node_values(
        graph,
        coreness,
        hcd,
        pool,
        counts=counts,
        rank_result=rank_result,
        need_type_b=metric.kind == "B",
    )

    scores = pbks_node_scores(accumulated, metric, totals, pool)
    best = best_finite_index(scores)
    if best < 0:
        # every score was NaN/-inf (e.g. a metric with zero denominators
        # everywhere): report "no winner" instead of letting NaN poison
        # argmax into an arbitrary node
        return SearchResult(
            metric_name=metric.name,
            best_node=-1,
            best_score=float("-inf"),
            best_k=-1,
            scores=scores,
            values=accumulated,
            hcd=hcd,
        )
    return SearchResult(
        metric_name=metric.name,
        best_node=best,
        best_score=float(scores[best]),
        best_k=int(hcd.node_coreness[best]),
        scores=scores,
        values=accumulated,
        hcd=hcd,
    )
