"""PBKS preprocessing (paper Section IV-A).

Score computation repeatedly asks, for a vertex ``v``, how many of its
neighbors have greater / equal / lesser coreness.  The preprocessing
answers these in O(1) after one O(m) parallel pass: for every vertex we
store the counts of neighbors with strictly greater and with equal
coreness (the "lesser" count is the degree minus both).  It replaces
BKS's coreness-sorted adjacency lists — the bin-sort ordering the paper
identifies as unfriendly to parallel execution — and is run once,
shared by every subsequent metric computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["NeighborCorenessCounts", "preprocess_neighbor_counts"]


@dataclass
class NeighborCorenessCounts:
    """Per-vertex neighbor counts by coreness comparison.

    ``gt[v]`` / ``eq[v]`` / ``lt[v]`` are the numbers of ``v``'s
    neighbors with coreness greater than / equal to / less than
    ``c(v)``; ``gt[v] + eq[v] + lt[v] == d(v)``.
    """

    gt: np.ndarray
    eq: np.ndarray
    lt: np.ndarray

    def ge(self) -> np.ndarray:
        """Neighbors with coreness >= c(v), per vertex."""
        return self.gt + self.eq


def preprocess_neighbor_counts(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
) -> NeighborCorenessCounts:
    """One O(m) parallel pass computing the comparison counts."""
    # the kernel reads native ints: one conversion per call
    coreness = np.asarray(coreness, dtype=np.int64).tolist()
    n = graph.num_vertices
    gt = np.zeros(n, dtype=np.int64)
    eq = np.zeros(n, dtype=np.int64)
    # row bounds as native ints: slicing with them skips two numpy
    # scalar reads per row
    indptr, indices = graph.indptr.tolist(), graph.indices

    def count(v: int, ctx) -> None:
        # one recorded write covers the vertex's gt/eq output pair; it
        # carries the row's unit scan charges too (integers only)
        ctx.write(("pre_counts", int(v)), 1 + indptr[v + 1] - indptr[v])
        cv = coreness[v]
        g = 0
        e = 0
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            cu = coreness[u]
            if cu > cv:
                g += 1
            elif cu == cv:
                e += 1
        gt[v] = g
        eq[v] = e

    with pool.phase("pbks:preprocess"):
        pool.parallel_for(
            range(n),
            count,
            label="pbks:preprocess",
            chunking="dynamic",
            grain=32,
        )
    lt = graph.degrees().astype(np.int64) - gt - eq
    return NeighborCorenessCounts(gt=gt, eq=eq, lt=lt)
