"""MPM — distributed core decomposition (Montresor, Pellegrini, Miorandi).

The related-work baseline [21]: every vertex repeatedly recomputes its
coreness estimate as the *h-index* of its neighbors' current estimates
(the largest ``h`` such that at least ``h`` neighbors estimate >= h),
starting from its degree.  Estimates only decrease and converge to the
true coreness in ``it_MPM < kmax << n`` rounds; total work is
``O(it_MPM * m)``.

Each round is one parallel region over the active vertices (those with
a changed neighbor), simulating the message-passing execution; the
number of rounds is reported for the convergence claim.  Each virtual
thread computes its slice's h-indices in one segmented pass
(:func:`h_index_rows`), which the shard-local rounds of
:mod:`repro.cluster.decomposition` share.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, row_offsets
from repro.parallel.scheduler import SimulatedPool

__all__ = ["h_index_rows", "mpm_core_decomposition"]


def h_index_rows(
    values: np.ndarray, lens: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """The capped h-index of every row of a segmented array.

    Row ``i`` is the next ``lens[i]`` entries of ``values`` (all >= 0);
    its result is the largest ``h <= caps[i]`` with at least ``h``
    entries >= ``h``, and 0 for an empty row.  One pass for all rows:
    cap each entry at its row's cap, sort every row descending with one
    single-key sort, and count the 1-based ranks ``j`` whose entry is
    >= ``j`` (they form a prefix of the row, of length ``h``).
    """
    rows = len(lens)
    if not len(values):
        return np.zeros(rows, dtype=np.int64)
    seg = np.repeat(np.arange(rows, dtype=np.int64), lens)
    capped = np.minimum(values, np.repeat(caps, lens))
    top = int(capped.max()) + 1
    # row ascending, then value descending; rows keep their positions
    keys = np.sort(seg * top + (top - 1 - capped))
    desc = top - 1 - keys % top
    return np.bincount(seg[desc > row_offsets(lens)], minlength=rows)


def mpm_core_decomposition(
    graph: Graph,
    pool: SimulatedPool,
) -> tuple[np.ndarray, int]:
    """Coreness via h-index fixpoint iteration; returns (coreness, rounds)."""
    n = graph.num_vertices
    estimate = graph.degrees().astype(np.int64).copy()
    if n == 0:
        return estimate, 0
    active = np.ones(n, dtype=bool)
    rounds = 0
    while bool(active.any()):
        rounds += 1
        frontier = np.flatnonzero(active)
        new_vals = estimate.copy()

        def update(vs, ctx) -> None:
            # each frontier vertex owns its new_vals slot; estimate is
            # read-only inside the round (double-buffered)
            nbrs, lens = graph.gather_rows(vs)
            ctx.write_row("mpm_new", vs)
            ctx.charge(len(nbrs))
            new_vals[vs] = h_index_rows(estimate[nbrs], lens, estimate[vs])

        pool.parallel_slices(frontier, update, label=f"mpm:round{rounds}")
        changed = np.flatnonzero(new_vals != estimate)
        estimate = new_vals
        # a changed estimate wakes the vertex and its neighborhood
        active[:] = False
        active[graph.gather_rows(changed)[0]] = True
        active[changed] = True
    return estimate, rounds
