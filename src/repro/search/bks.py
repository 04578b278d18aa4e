"""BKS — the serial subgraph-search baseline (Chu et al., ICDE 2020).

BKS computes the score of every k-core incrementally from
``k = kmax`` *descending* to 0, consuming the results of larger
coreness at every level (the data dependence that makes it hard to
parallelize) and relying on a bin-sort **vertex ordering**: every
adjacency list is re-ordered by neighbor coreness, descending, so that
the neighbors inside the current core form a prefix.

This implementation keeps both structural signatures:

* an O(m) ordering pass builds the coreness-sorted adjacency lists
  (charged at bin-sort rates);
* the level loop walks coreness values downward with a barrier per
  level, adding each level's tree-node contributions and folding
  finished nodes into their parents before the next level starts.

Scores are bit-identical to PBKS (asserted by the test suite); only
the cost profile differs — which is exactly what Table V and Figures
6-9 measure.
"""

from __future__ import annotations

import numpy as np

from repro.core.hcd import HCD
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.search.metrics import Metric, get_metric
from repro.search.primary_values import GraphTotals, PrimaryValues
from repro.search.result import SearchResult, best_finite_index

__all__ = ["bks_search", "build_coreness_sorted_adjacency"]

_N, _M, _B, _TRI, _TRIP = range(5)


def build_coreness_sorted_adjacency(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool | None = None,
) -> list[np.ndarray]:
    """Adjacency lists re-ordered by neighbor coreness, descending.

    The bin-sort-like ordering pass of BKS; charged at ~2 ops per edge
    endpoint plus a per-vertex bin setup, reflecting the dynamic-bin
    traffic the paper calls out as parallel-unfriendly.
    """
    coreness = np.asarray(coreness, dtype=np.int64)
    n = graph.num_vertices
    sorted_adj: list[np.ndarray] = []
    charged = 0.0
    for v in range(n):
        row = graph.neighbors(v)
        # stable bin sort: descending coreness, ascending id inside a bin
        order = np.lexsort((row, -coreness[row]))
        sorted_adj.append(row[order])
        charged += 1.2 * int(row.size) + 1
    if pool is not None:
        with pool.serial_region("bks:ordering") as ctx:
            ctx.charge(charged)
    return sorted_adj


def bks_search(
    graph: Graph,
    coreness: np.ndarray,
    hcd: HCD,
    metric: Metric | str,
    pool: SimulatedPool | None = None,
    sorted_adj: list[np.ndarray] | None = None,
) -> SearchResult:
    """Serial best-k-core search over the HCD.

    When ``pool`` is given, every operation is charged in serial
    regions (one per coreness level, mirroring BKS's barriers).
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
    if sorted_adj is None:
        sorted_adj = build_coreness_sorted_adjacency(graph, coreness, pool)

    degrees = graph.degrees()
    if metric.kind == "B":
        # the motif walk reads native values: one conversion per search
        native = _NativeGraph(graph, coreness, hcd)
    values = np.zeros((t, 5), dtype=np.float64)
    scores = np.full(t, float("-inf"), dtype=np.float64)

    # group tree nodes and vertices by coreness level
    kmax = hcd.kmax
    nodes_at: list[list[int]] = [[] for _ in range(kmax + 1)]
    for node in range(t):
        nodes_at[int(hcd.node_coreness[node])].append(node)

    for k in range(kmax, -1, -1):  # barrier per level
        level_nodes = nodes_at[k]
        if not level_nodes:
            continue
        charged = 0
        for node in level_nodes:
            for v in hcd.vertices_of(node):
                v = int(v)
                row = sorted_adj[v]
                # prefix of the sorted list = neighbors inside the k-core
                ge = int(np.searchsorted(-coreness[row], -k, side="right"))
                gt = int(np.searchsorted(-coreness[row], -(k + 1), side="right"))
                eq = ge - gt
                lt = int(degrees[v]) - ge
                # two binary searches on the sorted list + bookkeeping
                charged += 2 * max(1, int(degrees[v]).bit_length()) + 4
                values[node, _N] += 1.0
                values[node, _M] += gt + 0.5 * eq
                values[node, _B] += lt - gt
                if metric.kind == "B":
                    charged += _count_motifs_at(native, sorted_adj, v, values)
        for node in level_nodes:
            # children (all at higher levels) are already folded in
            n_, m_, b_, tri, trip = values[node]
            scores[node] = metric(
                PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
                totals,
            )
            pa = int(hcd.parent[node])
            if pa >= 0:
                values[pa] += values[node]
            charged += 6
        if pool is not None:
            with pool.serial_region(f"bks:level_{k}") as ctx:
                ctx.charge(charged)

    best = best_finite_index(scores)
    if best < 0:
        return SearchResult(
            metric_name=metric.name,
            best_node=-1,
            best_score=float("-inf"),
            best_k=-1,
            scores=scores,
            values=values,
            hcd=hcd,
        )
    # rebuild the accumulated per-core values for reporting (the folding
    # above reused the rows; recompute totals per node bottom-up)
    return SearchResult(
        metric_name=metric.name,
        best_node=best,
        best_score=float(scores[best]),
        best_k=int(hcd.node_coreness[best]),
        scores=scores,
        values=values,
        hcd=hcd,
    )


class _NativeGraph:
    """Python-list copies of the arrays the per-vertex motif walk reads.

    Made once per search, so the walk indexes native ints instead of
    numpy scalars.
    """

    __slots__ = ("tid", "coreness", "degrees", "indptr", "indices")

    def __init__(self, graph: Graph, coreness: np.ndarray, hcd: HCD) -> None:
        self.tid = hcd.tid.tolist()
        self.coreness = coreness.tolist()
        self.degrees = graph.degrees().tolist()
        self.indptr = graph.indptr.tolist()
        self.indices = graph.indices.tolist()


def _count_motifs_at(
    native: _NativeGraph,
    sorted_adj: list[np.ndarray],
    v: int,
    values: np.ndarray,
) -> int:
    """Triangle / triplet contributions of vertex ``v`` (serial BKS).

    Counts the same motifs as PBKS with the same lowest-rank
    attribution, but walks the coreness-sorted adjacency lists and
    returns the number of charged operations: one per neighbor ``u``
    of ``v``, two per wedge through a ``u`` the edge is directed to,
    and two per coreness level of the triplet walk.
    """
    tid, coreness, degrees = native.tid, native.coreness, native.degrees
    indptr, indices = native.indptr, native.indices
    row_v = indices[indptr[v] : indptr[v + 1]]
    cv = coreness[v]
    dv = degrees[v]
    nbrs_v = set(row_v)
    charged = len(row_v)

    # triangles: direct the edge to the lower-(degree, id) endpoint;
    # rank = (coreness, id)
    rank_v = (cv, v)
    for u in row_v:
        if (degrees[u], u) >= (dv, v):
            continue
        row_u = indices[indptr[u] : indptr[u + 1]]
        charged += 2 * len(row_u)
        lowest = min((coreness[u], u), rank_v)
        for w in row_u:
            # w == v never passes: the graph has no self-loops
            if w in nbrs_v and (coreness[w], w) < lowest:
                values[tid[w], _TRI] += 1.0
    # triplets centered at v, by descending neighbor coreness level
    row = sorted_adj[v].tolist()
    ge = 0
    while ge < len(row) and coreness[row[ge]] >= cv:
        ge += 1
    values[tid[v], _TRIP] += ge * (ge - 1) / 2.0
    charged += 2
    idx = ge
    gt_running = ge
    while idx < len(row):
        witness = row[idx]
        k = coreness[witness]
        end = idx + 1
        while end < len(row) and coreness[row[end]] == k:
            end += 1
        cnt_k = end - idx
        values[tid[witness], _TRIP] += (
            cnt_k * (cnt_k - 1) / 2.0 + gt_running * cnt_k
        )
        gt_running += cnt_k
        idx = end
        charged += 2
    return charged
