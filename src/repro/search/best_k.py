"""Finding the best k (paper Section VI, "Finding the Best k").

Instead of scoring individual k-cores, this extension scores every
*k-core set* ``K_k`` (the union of all k-cores for a given k) and
returns the ``k`` whose set scores highest — the parameter-selection
problem of Chu et al. (ICDE 2020).  It reuses the PBKS paradigm:
per-vertex contributions are indexed by coreness level instead of tree
node, and the level totals are suffix-accumulated from ``kmax`` down
(``K_k`` contains every shell with coreness >= k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool
from repro.search.metrics import Metric, get_metric, score_matrix
from repro.search.preprocessing import (
    NeighborCorenessCounts,
    preprocess_neighbor_counts,
)
from repro.search.primary_values import GraphTotals
from repro.search.result import best_finite_index
from repro.sanitizer.memcheck import san_empty

__all__ = [
    "BestKResult",
    "bestk_type_a_contributions",
    "bestk_type_b_contributions",
    "bestk_level_scores",
    "compute_level_values",
    "find_best_k",
]

_N, _M, _B, _TRI, _TRIP = range(5)


@dataclass
class BestKResult:
    """Scores of every k-core set and the winning k."""

    metric_name: str
    best_k: int
    best_score: float
    scores: np.ndarray  # score of K_k for every k in 0..kmax
    values: np.ndarray  # (kmax+1, 5) primary values of every K_k


def compute_level_values(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
    counts: NeighborCorenessCounts | None = None,
    rank_result: VertexRankResult | None = None,
    need_type_b: bool = False,
) -> np.ndarray:
    """Primary values of every k-core set ``K_k``, as a ``(kmax+1, 5)`` array.

    The shared per-level pass of the best-k extension: per-vertex
    contributions credited to coreness levels (type A always, type-B
    motifs when ``need_type_b``) followed by the suffix accumulation
    from ``kmax`` down.  Like :func:`~repro.search.pbks.pbks_node_values`
    this is the pass the serving layer computes once per snapshot and
    shares across metric folds; the type-A columns are bit-identical
    with or without the type-B pass (disjoint columns).
    """
    coreness = np.asarray(coreness, dtype=np.int64)
    n = graph.num_vertices
    kmax = int(coreness.max()) if n else 0
    if counts is None:
        counts = preprocess_neighbor_counts(graph, coreness, pool)
    levels = AtomicArray((kmax + 1) * 5, dtype=np.float64, name="bestk_vals")
    bestk_type_a_contributions(coreness, counts, pool, levels)

    if need_type_b:
        if rank_result is None:
            rank_result = compute_vertex_rank(graph, coreness, pool)
        bestk_type_b_contributions(
            graph, coreness, counts, rank_result.rank, pool, levels
        )

    per_level = levels.data.reshape(kmax + 1, 5)
    # Suffix accumulation: K_k = union of shells >= k.
    values = np.cumsum(per_level[::-1], axis=0)[::-1].copy()
    with pool.serial_region("bestk:suffix") as ctx:
        ctx.charge(kmax + 1)
    return values


def bestk_type_a_contributions(
    coreness: np.ndarray,
    counts: NeighborCorenessCounts,
    pool: SimulatedPool,
    levels: AtomicArray,
) -> None:
    """Per-vertex (n, m, b) contributions credited to coreness levels.

    PBKS's type-A contributions (Algorithm 4) indexed by the vertex's
    coreness instead of its tree node: one vertex, ``gt + eq/2`` new
    edges and ``lt - gt`` boundary edges.
    """
    gt, eq, lt = counts.gt, counts.eq, counts.lt

    def contribute_a(vs: list[int], ctx) -> None:
        # per vertex: three units, then one relaxed fetch-add on each of
        # the n, m and b slots of its level, in that order; np.add.at
        # adds in that order too, so the float slots are bit-identical
        ctx.charge(3 * len(vs))
        base = coreness[vs] * 5
        g = gt[vs]
        slots = np.column_stack((base + _N, base + _M, base + _B))
        values = np.column_stack(
            (np.ones(len(vs)), g + 0.5 * eq[vs], lt[vs] - g)
        )
        levels.add_many(ctx, slots.ravel(), values.ravel())

    pool.parallel_slices(
        range(len(coreness)),
        contribute_a,
        label="bestk:typeA",
        chunking="dynamic",
        grain=32,
    )


def bestk_type_b_contributions(
    graph: Graph,
    coreness: np.ndarray,
    counts: NeighborCorenessCounts,
    ranks: np.ndarray,
    pool: SimulatedPool,
    levels: AtomicArray,
) -> None:
    """Triangle and triplet contributions credited to coreness levels.

    PBKS's Algorithm 5 motifs, vertex-centric: every edge is directed
    from its higher-(degree, id) endpoint ``v``, and the wedges through
    each directed ``u`` are closed by membership in a hash set of
    ``N(v)``.  A triangle is credited to the level of its lowest-rank
    corner; the triplets centered at ``v`` to the level at which they
    appear, as in PBKS.
    """
    indptr, indices = graph.indptr, graph.indices
    # the kernel reads native values: one conversion per call
    degrees = graph.degrees().tolist()
    coreness = np.asarray(coreness).tolist()
    ranks = np.asarray(ranks).tolist()
    gt, eq = counts.gt.tolist(), counts.eq.tolist()

    def contribute_b(v: int, ctx) -> None:
        row_v = indices[indptr[v] : indptr[v + 1]].tolist()
        dv = degrees[v]
        cv = coreness[v]
        nbrs_v = set(row_v)
        # one unit per scanned u and two per wedge through a directed
        # u, in one charge: exact because every addend of ``work`` in
        # this region is an integer (docs/cost_model.md, "When a bulk
        # charge is exact")
        units = len(row_v)
        for u in row_v:
            if (degrees[u], u) >= (dv, v):
                continue
            row_u = indices[indptr[u] : indptr[u + 1]].tolist()
            units += 2 * len(row_u)
            lowest = min(ranks[u], ranks[v])
            for w in row_u:
                # w == v never passes: the graph has no self-loops
                if w in nbrs_v and ranks[w] < lowest:
                    levels.add(ctx, coreness[w] * 5 + _TRI, 1.0)
        ctx.charge(units)
        ge = gt[v] + eq[v]
        ctx.charge(1)
        levels.add(ctx, cv * 5 + _TRIP, ge * (ge - 1) / 2.0)
        lower: dict[int, int] = {}
        for u in row_v:
            ctx.charge(1)
            cu = coreness[u]
            if cu < cv:
                lower[cu] = lower.get(cu, 0) + 1
        gt_running = ge
        for k in sorted(lower, reverse=True):
            cnt_k = lower[k]
            ctx.charge(1)
            levels.add(
                ctx,
                k * 5 + _TRIP,
                cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k,
            )
            gt_running += cnt_k

    pool.parallel_for(
        range(graph.num_vertices),
        contribute_b,
        label="bestk:typeB",
        chunking="dynamic",
        grain=4,
    )


def bestk_level_scores(
    values: np.ndarray,
    metric: Metric,
    totals: GraphTotals,
    pool: SimulatedPool,
) -> np.ndarray:
    """Every k-core set's score: the metric once per distinct row of
    ``values`` (:func:`~repro.search.metrics.score_matrix`), then one
    region storing each level's score in its own slot."""
    levels = values.shape[0]
    scored = score_matrix(metric, values, totals)
    scores = san_empty(levels, np.float64, name="bks_scores")

    def store_levels(ks: range, ctx) -> None:
        # each level owns its score slot; the values ride along so
        # memcheck can name this kernel as a NaN origin
        ctx.write_row("bks_scores", ks, values=scored[ks.start : ks.stop])
        scores[ks.start : ks.stop] = scored[ks.start : ks.stop]

    pool.parallel_slices(range(levels), store_levels, label="bestk:score")
    return scores


def find_best_k(
    graph: Graph,
    coreness: np.ndarray,
    metric: Metric | str,
    pool: SimulatedPool,
    counts: NeighborCorenessCounts | None = None,
    rank_result: VertexRankResult | None = None,
) -> BestKResult:
    """Score every k-core set and return the best ``k``.

    Contributions are exactly PBKS's, but credited to the coreness
    level at which the motif appears; a suffix sum over levels then
    yields every ``K_k``'s primary values in one pass.
    """
    if isinstance(metric, str):
        metric = get_metric(metric)
    coreness = np.asarray(coreness, dtype=np.int64)
    totals = GraphTotals.of(graph)
    values = compute_level_values(
        graph,
        coreness,
        pool,
        counts=counts,
        rank_result=rank_result,
        need_type_b=metric.kind == "B",
    )

    scores = bestk_level_scores(values, metric, totals, pool)
    best = best_finite_index(scores)
    if best < 0:
        return BestKResult(
            metric_name=metric.name,
            best_k=-1,
            best_score=float("-inf"),
            scores=scores,
            values=values,
        )
    return BestKResult(
        metric_name=metric.name,
        best_k=best,
        best_score=float(scores[best]),
        scores=scores,
        values=values,
    )
