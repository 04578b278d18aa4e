"""Batched query execution against one snapshot.

The executor is where build-once/query-many pays off.  It holds a
single shared :class:`~repro.pipeline.DecompositionResult` per snapshot
(never re-deriving coreness or the HCD per query) and memoizes the
three *shared passes* the planner groups queries by:

* the PBKS node-values traversal
  (:func:`~repro.search.pbks.pbks_node_values`),
* the best-k level-values pass
  (:func:`~repro.search.best_k.compute_level_values`),
* the influential-community index per weight specification
  (:class:`~repro.search.influential.InfluentialCommunityIndex`).

Each individual query then costs only a per-node (or per-level) metric
fold over the memoized matrix — the batching win the serving benchmark
measures.  Because the type-A and type-B motif passes write disjoint
columns, a matrix computed with the type-B pass serves type-A-only
queries with bit-identical answers, so at most one node-values variant
is ever materialized per snapshot in steady state.

``share_passes=False`` disables all memoization — every query repays
its shared pass.  That is the per-query baseline the serving benchmark
compares against; answers are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty
from repro.search.best_k import compute_level_values
from repro.search.influential import InfluentialCommunityIndex
from repro.search.metrics import get_metric
from repro.search.pbks import pbks_node_values
from repro.search.primary_values import GraphTotals, PrimaryValues
from repro.search.result import best_finite_index
from repro.serve.planner import BatchPlan, Query
from repro.serve.snapshot import Snapshot

__all__ = ["QueryResult", "SnapshotExecutor"]

# column order of the values matrices (matches pbks/best_k)
_N = 0


@dataclass(frozen=True)
class QueryResult:
    """Answer to one distinct query, ready for the result cache.

    ``detail`` depends on the kind: for ``pbks`` the winning tree node
    id (``(node,)``); for ``best_k`` empty; for ``influential`` the
    ranked ``(node, influence, size)`` triples.
    """

    fingerprint: str
    kind: str
    best_k: int
    best_score: float
    size: int
    detail: tuple = ()

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "best_k": self.best_k,
            "best_score": self.best_score,
            "size": self.size,
            "detail": [list(entry) if isinstance(entry, tuple) else entry
                       for entry in self.detail],
        }


class SnapshotExecutor:
    """Execute batch plans against one snapshot on one pool."""

    def __init__(
        self,
        snapshot: Snapshot,
        pool: SimulatedPool,
        share_passes: bool = True,
    ) -> None:
        self.snapshot = snapshot
        self.pool = pool
        self.share_passes = bool(share_passes)
        # the snapshot's one decomposition, reused by every query
        self.deco = snapshot.decomposition(pool)
        self._totals = GraphTotals.of(snapshot.graph)
        self._node_values: dict[bool, np.ndarray] = {}
        self._level_values: dict[bool, np.ndarray] = {}
        self._influence: dict[str, InfluentialCommunityIndex] = {}

    # ------------------------------------------------------------------
    # shared passes (memoized)
    # ------------------------------------------------------------------

    def _ensure_node_values(self, need_b: bool) -> np.ndarray:
        if need_b in self._node_values:
            return self._node_values[need_b]
        if not need_b and True in self._node_values:
            # type-A columns are bit-identical in the type-B variant
            return self._node_values[True]
        values = pbks_node_values(
            self.deco.graph,
            self.deco.coreness,
            self.deco.hcd,
            self.pool,
            counts=self.snapshot.counts,
            rank_result=self.deco.rank_result,
            need_type_b=need_b,
        )
        if self.share_passes:
            self._node_values[need_b] = values
        return values

    def _ensure_level_values(self, need_b: bool) -> np.ndarray:
        if need_b in self._level_values:
            return self._level_values[need_b]
        if not need_b and True in self._level_values:
            return self._level_values[True]
        values = compute_level_values(
            self.deco.graph,
            self.deco.coreness,
            self.pool,
            counts=self.snapshot.counts,
            rank_result=self.deco.rank_result,
            need_type_b=need_b,
        )
        if self.share_passes:
            self._level_values[need_b] = values
        return values

    def _influence_weights(self, spec: str) -> np.ndarray:
        graph = self.deco.graph
        if spec == "degree":
            return np.asarray(graph.degrees(), dtype=np.float64)
        if spec == "coreness":
            return np.asarray(self.deco.coreness, dtype=np.float64)
        if spec == "uniform":
            return np.ones(graph.num_vertices, dtype=np.float64)
        raise ValueError(f"unknown weight spec {spec!r}")

    def _influence_index(self, spec: str) -> InfluentialCommunityIndex:
        if spec in self._influence:
            return self._influence[spec]
        index = InfluentialCommunityIndex(
            self.deco.hcd, self._influence_weights(spec), self.pool
        )
        if self.share_passes:
            self._influence[spec] = index
        return index

    # ------------------------------------------------------------------
    # per-query folds
    # ------------------------------------------------------------------

    def _score_fold(
        self, values: np.ndarray, metric_name: str, label: str
    ) -> tuple[np.ndarray, int]:
        """Score every row of a values matrix; return (scores, argmax)."""
        metric = get_metric(metric_name)
        totals = self._totals
        count = values.shape[0]
        scores = san_empty(count, np.float64, name="serve_scores")

        def score_rows(rows: range, ctx) -> None:
            # the slice's rows read once, column by column, so every
            # field is still the np.float64 scalar a registered metric
            # has always been given
            block = values[rows.start : rows.stop]
            out = []
            for i, n_, m_, b_, tri, trip in zip(rows, *block.T):
                value = metric(
                    PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
                    totals,
                )
                # each row owns its score slot; the value rides along so
                # memcheck can name this kernel as a NaN origin
                ctx.write(("serve_scores", i), value=value)
                out.append(value)
            scores[rows.start : rows.stop] = out

        if count:
            self.pool.parallel_slices(range(count), score_rows, label=label)
        return scores, best_finite_index(scores)

    def _run_pbks(self, query: Query) -> QueryResult:
        values = self._ensure_node_values(query.needs_type_b)
        scores, best = self._score_fold(
            values, query.metric, label=f"serve:score:{query.metric}"
        )
        if best < 0:
            return QueryResult(
                fingerprint=query.fingerprint,
                kind="pbks",
                best_k=-1,
                best_score=float("-inf"),
                size=0,
            )
        hcd = self.deco.hcd
        return QueryResult(
            fingerprint=query.fingerprint,
            kind="pbks",
            best_k=int(hcd.node_coreness[best]),
            best_score=float(scores[best]),
            size=int(values[best][_N]),
            detail=(int(best),),
        )

    def _run_best_k(self, query: Query) -> QueryResult:
        values = self._ensure_level_values(query.needs_type_b)
        scores, best = self._score_fold(
            values, query.metric, label=f"serve:score:{query.metric}"
        )
        if best < 0:
            return QueryResult(
                fingerprint=query.fingerprint,
                kind="best_k",
                best_k=-1,
                best_score=float("-inf"),
                size=0,
            )
        return QueryResult(
            fingerprint=query.fingerprint,
            kind="best_k",
            best_k=int(best),
            best_score=float(scores[best]),
            size=int(values[best][_N]),
        )

    def _run_influential(self, query: Query) -> QueryResult:
        index = self._influence_index(query.weights)
        communities = index.top_r(query.k, query.r)
        with self.pool.serial_region("serve:topr") as ctx:
            ctx.charge(max(1, len(communities)))
        if not communities:
            return QueryResult(
                fingerprint=query.fingerprint,
                kind="influential",
                best_k=query.k,
                best_score=float("-inf"),
                size=0,
            )
        top = communities[0]
        return QueryResult(
            fingerprint=query.fingerprint,
            kind="influential",
            best_k=query.k,
            best_score=float(top.influence),
            size=int(top.size),
            detail=tuple(
                (c.node, float(c.influence), int(c.size)) for c in communities
            ),
        )

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------

    def run_query(self, query: Query) -> QueryResult:
        """Answer one query (shared passes still memoized)."""
        if query.kind == "pbks":
            return self._run_pbks(query)
        if query.kind == "best_k":
            return self._run_best_k(query)
        return self._run_influential(query)

    def execute(self, plan: BatchPlan) -> dict[str, QueryResult]:
        """Answer every distinct query of a plan, keyed by fingerprint.

        Shared passes run (at most) once up front — triggering them for
        the whole plan before folding keeps the per-metric folds cheap
        and the work sequence deterministic regardless of which query
        happened to arrive first.
        """
        if self.share_passes:
            if plan.node_metrics:
                self._ensure_node_values(plan.node_need_b)
            if plan.level_metrics:
                self._ensure_level_values(plan.level_need_b)
            for spec in plan.influential:
                self._influence_index(spec)
        results: dict[str, QueryResult] = {}
        for fingerprint, query in plan.queries.items():
            results[fingerprint] = self.run_query(query)
        return results
