"""PKC — parallel k-core decomposition (Kabir & Madduri, IPDPSW'17).

PKC peels vertices level-synchronously: at level ``k`` every remaining
vertex whose current degree is ``<= k`` gets coreness ``k`` and is
removed; removals decrement neighbor degrees atomically, and any
neighbor dropping to ``<= k`` joins the next sub-round's frontier.  Each
thread keeps a *local* frontier buffer to cut synchronization — PKC's
headline optimization over ParK — which here is modelled by charging
the buffer appends as ordinary work rather than shared atomics.

Total work is ``O(n * kmax + m)`` (each level rescans undecided
vertices once; every edge is relaxed once), matching the paper's stated
bound.  Output is bit-identical to Batagelj–Zaversnik, which the test
suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool

__all__ = ["pkc_core_decomposition"]


def pkc_core_decomposition(graph: Graph, pool: SimulatedPool) -> np.ndarray:
    """Coreness of every vertex, computed level-synchronously on ``pool``."""
    n = graph.num_vertices
    coreness = np.zeros(n, dtype=np.int64)
    if n == 0:
        return coreness
    # row bounds as native ints: slicing with them skips two numpy
    # scalar reads per row
    indptr, indices = graph.indptr.tolist(), graph.indices
    degree = AtomicArray(n, dtype=np.int64, name="pkc_deg")
    degree.data[:] = graph.degrees()
    # native bytes for the per-neighbor reads, a numpy view for the scan
    settled = bytearray(n)
    settled_mask = np.frombuffer(settled, dtype=bool)
    remaining = n
    k = 0
    while remaining > 0:
        # SimProf attribution: one phase per peeled level (free).
        with pool.phase(f"pkc:level-{k}"):
            # Scan for the level-k seed frontier among undecided vertices.
            def scan(v: int, ctx) -> int:
                # charged atomic load (earlier peel rounds decremented it)
                if degree.load(ctx, v) <= k:
                    return v
                return -1

            undecided = np.flatnonzero(~settled_mask)
            # items are positions into an n-sized mask  # prove: item in [0, n)
            hits = pool.parallel_for(
                undecided.tolist(), scan, label=f"pkc:scan_k{k}"
            )
            frontier = [v for v in hits if v >= 0]
            while frontier:
                for v in frontier:
                    settled[v] = 1
                next_parts: list[list[int]] = [[] for _ in range(pool.threads)]

                def process(v: int, ctx) -> None:
                    # each frontier vertex owns its coreness slot
                    ctx.write(("pkc_core", int(v)))
                    coreness[v] = k
                    # decrement every unsettled neighbor; the handoffs
                    # are decided on the fetch-add results, never on a
                    # raw re-read of the slots: concurrent decrements
                    # would make the re-read miss (or duplicate) them
                    handoff = degree.add_row(
                        ctx,
                        [
                            u
                            for u in indices[indptr[v] : indptr[v + 1]].tolist()
                            if not settled[u]
                        ],
                        -1,
                        k,
                    )
                    # one unit per scanned neighbor and per local buffer
                    # append (PKC's low-sync design), folded: integers only
                    ctx.charge(indptr[v + 1] - indptr[v] + len(handoff))
                    next_parts[ctx.thread_id].extend(handoff)

                # frontier holds vertex ids  # prove: item in [0, n)
                pool.parallel_for(frontier, process, label=f"pkc:peel_k{k}")
                remaining -= len(frontier)
                merged: list[int] = []
                seen: set[int] = set()
                for part in next_parts:
                    for u in part:
                        if not settled[u] and u not in seen:
                            seen.add(u)
                            merged.append(u)
                frontier = merged
        k += 1
    return coreness
