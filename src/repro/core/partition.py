"""Parallel label-propagation graph partitioner (Spinner-style).

The divide-and-conquer feasibility study (paper Section V-B) needs a
parallel partitioner to contrast with PHCD: the paper cites Spinner
taking ~100s on 40 cores where PHCD takes ~2.6s.  This module provides
a simple Spinner-like partitioner — balanced seed assignment followed
by iterative majority-label adoption with capacity penalties — whose
simulated cost is reported by ``benchmarks/bench_feasibility_dnc.py``.
It is deliberately iteration-heavy (like the real systems) and is not
used by any correctness-critical path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["label_propagation_partition"]

#: A vertex may not move into a part already holding this many times
#: the ideal ``n / num_parts`` vertices.
BALANCE_SLACK = 1.10


def label_propagation_partition(
    graph: Graph,
    num_parts: int,
    pool: SimulatedPool,
    iterations: int = 10,
) -> np.ndarray:
    """Partition vertices into ``num_parts`` labels via label propagation.

    Each iteration every vertex adopts the label most common among its
    neighbors, unless the target part is over :data:`BALANCE_SLACK`
    times the ideal size.  Returns the final label array.
    """
    n = graph.num_vertices
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    labels = (np.arange(n, dtype=np.int64) * num_parts) // max(n, 1)
    if n == 0 or num_parts == 1:
        return labels
    capacity = int(BALANCE_SLACK * n / num_parts) + 1
    indptr, indices = graph.indptr, graph.indices
    sizes = np.bincount(labels, minlength=num_parts)

    for it in range(iterations):
        new_labels = labels.copy()

        def relabel(vs: range, ctx) -> None:
            lens = np.diff(indptr[vs.start : vs.stop + 1])
            nbrs = indices[indptr[vs.start] : indptr[vs.stop]]
            ctx.charge(len(vs) + len(nbrs))
            # votes[i, lab]: neighbors of vertex vs[i] labelled lab
            seg = np.repeat(np.arange(len(vs)), lens)
            votes = np.bincount(
                seg * num_parts + labels[nbrs], minlength=len(vs) * num_parts
            ).reshape(-1, num_parts)
            # deterministic argmax: highest count, then lowest label
            best = votes.argmax(axis=1)
            own = labels[vs.start : vs.stop]
            moves = (lens > 0) & (best != own) & (sizes[best] < capacity)
            for i in np.flatnonzero(moves).tolist():
                ctx.atomic(("part_sizes", int(best[i])))
                ctx.write(("part_newlab", vs[i]), 0.0)
            new_labels[vs.start : vs.stop] = np.where(moves, best, own)

        pool.parallel_slices(range(n), relabel, label=f"partition:iter{it}")
        moved = new_labels != labels
        # apply moves and rebalance bookkeeping (serial bookkeeping pass)
        with pool.serial_region("partition:apply") as ctx:
            ctx.charge(int(np.count_nonzero(moved)) + num_parts)
        labels = new_labels
        sizes = np.bincount(labels, minlength=num_parts)
        if not bool(moved.any()):
            break
    return labels
