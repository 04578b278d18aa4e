"""Parallel vertex-rank computation (paper Algorithm 1).

The *vertex rank* (Definition 4) orders vertices by ``(coreness, id)``.
Algorithm 1 computes it in O(n) work: each thread bins its slice of
vertices by coreness into per-thread bins ``HL[p][k]``; concatenating
``HL[1..p][k]`` yields the k-shell ``H_k`` in ascending-id order, and
concatenating the shells yields ``Vsort``, whose positions are the
ranks.  The same pass therefore also materializes every k-shell, which
PHCD consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty

__all__ = ["VertexRankResult", "compute_vertex_rank"]


@dataclass
class VertexRankResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    rank:
        ``rank[v]`` is the position of ``v`` in the ``(coreness, id)``
        order; lower rank = lower coreness (Definition 4).
    shells:
        ``shells[k]`` is the k-shell ``H_k`` as an ascending-id array.
    vsort:
        All vertices sorted by vertex rank (the concatenated shells).
    """

    rank: np.ndarray
    shells: list[np.ndarray]
    vsort: np.ndarray

    @property
    def kmax(self) -> int:
        """Largest coreness present (index of the last shell)."""
        return len(self.shells) - 1


def compute_vertex_rank(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
) -> VertexRankResult:
    """Run Algorithm 1 on ``pool``; O(n) total work.

    The per-thread bin layout ``HL[p][k]`` of the paper is reproduced:
    static chunking assigns each virtual thread a contiguous ascending-id
    slice (line 2), each thread bins its vertices by coreness (lines
    3-6), shells are the cross-thread concatenations (lines 7-8), and
    ranks are positions in the shell concatenation (lines 9-11).
    """
    n = graph.num_vertices
    coreness = np.asarray(coreness, dtype=np.int64)
    kmax = int(coreness.max()) if n else 0
    p = pool.threads
    # HL[t][k]: vertices of thread t's slice with coreness k, ascending
    # id (an array, or an empty list while the bin is empty).
    bins: list[list] = [[[] for _ in range(kmax + 1)] for _ in range(p)]

    def bin_vertices(vs: range, ctx) -> None:
        ctx.charge(len(vs))
        # The appends target the thread's own bin array; the paper
        # marks them atomic because the bins are shared storage, but no
        # other thread touches HL[p], so they never contend.
        levels = coreness[vs.start : vs.stop]
        ctx.relaxed_row(("HL", ctx.thread_id), levels)
        # a stable sort by coreness keeps each bin in ascending id
        order = np.argsort(levels, kind="stable")
        cuts = np.searchsorted(levels[order], np.arange(kmax + 2))
        ids = order + vs.start
        for c in np.flatnonzero(np.diff(cuts)).tolist():
            bins[ctx.thread_id][c] = ids[cuts[c] : cuts[c + 1]]

    with pool.phase("vertex-rank"):
        pool.parallel_slices(range(n), bin_vertices, label="vertex_rank:bin")

    # Lines 7-8: H_k is the concatenation HL[1][k] + ... + HL[p][k].
    def concat_shell(k: int, ctx) -> np.ndarray:
        parts = [bins[t][k] for t in range(p)]
        total = sum(len(part) for part in parts)
        ctx.charge(total + 1)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(part, dtype=np.int64) for part in parts if len(part)]
        )

    with pool.phase("vertex-rank"):
        shells = pool.parallel_for(
            range(kmax + 1), concat_shell, label="vertex_rank:shells"
        )

    # Line 9: Vsort = H_0 + H_1 + ... + H_kmax.
    vsort = (
        np.concatenate([s for s in shells if s.size])
        if any(s.size for s in shells)
        else np.empty(0, dtype=np.int64)
    )

    # Lines 10-11: r(v) = position of v in Vsort.
    rank = san_empty(n, np.int64, name="rank")

    def assign_ranks(positions: range, ctx) -> None:
        # vsort is a permutation, so rank slots are written exactly
        # once; the detector proves word-disjointness at runtime, the
        # lint cannot prove the bijection statically
        owned = vsort[positions.start : positions.stop]
        ctx.write_row("rank", owned)
        rank[owned] = np.arange(positions.start, positions.stop)  # sani: ok - permutation scatter, recorded above

    with pool.phase("vertex-rank"):
        pool.parallel_slices(range(n), assign_ranks, label="vertex_rank:rank")
    return VertexRankResult(rank=rank, shells=shells, vsort=vsort)
