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

from itertools import chain

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray
from repro.parallel.context import SLICE_VECTOR_MIN
from repro.parallel.scheduler import SimulatedPool

__all__ = ["pkc_core_decomposition"]


def pkc_core_decomposition(graph: Graph, pool: SimulatedPool) -> np.ndarray:
    """Coreness of every vertex, computed level-synchronously on ``pool``.

    Each region runs one slice kernel per virtual thread.  A slice of at
    least :data:`~repro.parallel.context.SLICE_VECTOR_MIN` frontier
    vertices gathers its rows with numpy; shorter ones cut each row out
    of the CSR in Python.  Every charge here is an integer, so the folded
    charges of the slice operations are exact.
    """
    n = graph.num_vertices
    coreness = np.zeros(n, dtype=np.int64)
    if n == 0:
        return coreness
    # the CSR as native ints, listed once: the Python path cuts each
    # row out of the list without a numpy scalar read
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
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
            def scan(vs, ctx) -> list[int]:
                # charged atomic loads (earlier peel rounds decremented them)
                return degree.load_le(ctx, vs, k)

            # slices of an n-sized mask's positions  # prove: slice of [0, n)
            hits = pool.parallel_slices(
                np.flatnonzero(~settled_mask), scan, label=f"pkc:scan_k{k}"
            )
            frontier = list(chain.from_iterable(hits))
            while frontier:
                for v in frontier:
                    settled[v] = 1
                next_parts: list[list[int]] = [[] for _ in range(pool.threads)]

                def process(vs: list[int], ctx) -> None:
                    # each frontier vertex owns its coreness slot
                    ctx.write_row("pkc_core", vs)
                    coreness[vs] = k
                    # every unsettled neighbor of the slice, row by row
                    if len(vs) >= SLICE_VECTOR_MIN:
                        nbrs, _ = graph.gather_rows(vs)
                        scanned = len(nbrs)
                        nbrs = nbrs[~np.frombuffer(settled, dtype=bool)[nbrs]]
                    else:
                        nbrs = []
                        scanned = 0
                        for v in vs:
                            scanned += indptr[v + 1] - indptr[v]
                            nbrs += [
                                u
                                for u in indices[indptr[v] : indptr[v + 1]]
                                if not settled[u]
                            ]
                    # decrement them; the handoffs are decided on the
                    # fetch-add results, never on a raw re-read of the
                    # slots: concurrent decrements would make the re-read
                    # miss (or duplicate) them
                    handoff = degree.add_row(ctx, nbrs, -1, k)
                    # one unit per scanned neighbor and per local buffer
                    # append (PKC's low-sync design), folded: integers only
                    ctx.charge(scanned + len(handoff))
                    next_parts[ctx.thread_id].extend(handoff)

                # slices of vertex ids  # prove: slice of [0, n)
                pool.parallel_slices(frontier, process, label=f"pkc:peel_k{k}")
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
