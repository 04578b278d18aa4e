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
    # the kernels read native ints: one conversion per call, not per read
    coreness = coreness.tolist()
    p = pool.threads
    # HL[t][k]: vertices of thread t's slice with coreness k, ascending id.
    bins: list[list[list[int]]] = [
        [[] for _ in range(kmax + 1)] for _ in range(p)
    ]

    def bin_vertex(v: int, ctx) -> None:
        ctx.charge(1)
        # The append targets the thread's own bin array; the paper
        # marks it atomic because the bins are shared storage, but no
        # other thread touches HL[p], so it never contends.
        ctx.atomic(("HL", ctx.thread_id, coreness[v]), contended=False)
        bins[ctx.thread_id][coreness[v]].append(v)

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), bin_vertex, label="vertex_rank:bin")

    # Lines 7-8: H_k is the concatenation HL[1][k] + ... + HL[p][k].
    def concat_shell(k: int, ctx) -> np.ndarray:
        parts = [bins[t][k] for t in range(p)]
        total = sum(len(part) for part in parts)
        ctx.charge(total + 1)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(part, dtype=np.int64) for part in parts if part])

    with pool.phase("vertex-rank"):
        shells = pool.parallel_for(
            range(kmax + 1), concat_shell, label="vertex_rank:shells"
        )

    # Line 9: Vsort = H_0 + H_1 + ... + H_kmax.
    vsort_arr = (
        np.concatenate([s for s in shells if s.size])
        if any(s.size for s in shells)
        else np.empty(0, dtype=np.int64)
    )
    vsort = vsort_arr.tolist()

    # Lines 10-11: r(v) = position of v in Vsort.
    rank = san_empty(n, np.int64, name="rank")

    def assign_rank(i: int, ctx) -> None:
        # vsort is a permutation, so rank slots are written exactly
        # once; the detector proves word-disjointness at runtime, the
        # lint cannot prove the bijection statically
        ctx.write(("rank", vsort[i]))
        rank[vsort[i]] = i  # sani: ok - permutation scatter, recorded above

    with pool.phase("vertex-rank"):
        pool.parallel_for(range(n), assign_rank, label="vertex_rank:rank")
    return VertexRankResult(rank=rank, shells=shells, vsort=vsort_arr)
