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
    """One O(m) parallel pass computing the comparison counts.

    Each virtual thread counts its slice of vertices in one call,
    comparing its gathered rows with numpy.
    """
    coreness = np.asarray(coreness, dtype=np.int64)
    n = graph.num_vertices
    gt = np.zeros(n, dtype=np.int64)
    eq = np.zeros(n, dtype=np.int64)

    def count(vs: list[int], ctx) -> None:
        # one recorded write per vertex covers its gt/eq output pair
        ctx.write_row("pre_counts", vs)
        nbrs, lens = graph.gather_rows(vs)
        # one unit per scanned neighbor, folded: integers only
        ctx.charge(len(nbrs))
        cv = np.repeat(coreness[vs], lens)
        cu = coreness[nbrs]
        gt[vs] = _row_sums(cu > cv, lens)
        eq[vs] = _row_sums(cu == cv, lens)

    with pool.phase("pbks:preprocess"):
        # slices of vertex ids  # prove: slice of [0, n)
        pool.parallel_slices(
            range(n),
            count,
            label="pbks:preprocess",
            chunking="dynamic",
            grain=32,
        )
    lt = graph.degrees().astype(np.int64) - gt - eq
    return NeighborCorenessCounts(gt=gt, eq=eq, lt=lt)


def _row_sums(flags: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """How many ``flags`` are set in each row, for rows of lengths
    ``lens`` concatenated in order (an empty row counts zero)."""
    totals = np.concatenate(([0], np.cumsum(flags)))
    ends = np.cumsum(lens)
    return totals[ends] - totals[ends - lens]
