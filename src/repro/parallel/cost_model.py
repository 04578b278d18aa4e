"""Cost model for the simulated multicore scheduler.

The paper benchmarks C++/OpenMP code on a 40-core Xeon.  This machine
has one core and CPython's GIL, so wall-clock speedups are not
observable; instead every algorithm *charges* its abstract operations
(array reads/writes, union-find ops, atomic updates) to a
:class:`~repro.parallel.context.ThreadContext`, and
:class:`~repro.parallel.scheduler.SimulatedPool` converts per-thread
charges into a simulated elapsed time:

``region_time = max(per-thread work * OP_COST + atomics * ATOMIC_COST)
              + contention penalty on shared atomic locations
              + SPAWN_COST * threads + BARRIER_COST``

The constants below are fixed once for the whole repository (they are
*not* fitted per dataset or per experiment, and no caller can set
them); DESIGN.md Section 5 describes the calibration.  The per-dataset
and per-algorithm variation in every reproduced table comes from real
operation counts of real algorithm executions.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "OP_COST",
    "ATOMIC_COST",
    "CONTENDED_ATOMIC_COST",
    "SPAWN_COST",
    "BARRIER_COST",
    "FIND_CHARGE",
    "ordered_sum",
]


def ordered_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right, one float64 addition at a time.

    Every recorded sim-clock figure is a float64 running sum.  The
    builtin ``sum`` adds left to right only up to Python 3.11: from
    3.12 it compensates float addition (Neumaier), which moves the last
    digits of sums such as a region's ``work_total``.  Accounting code
    uses this loop so a figure is the same on every Python version.
    """
    total = 0
    for value in values:
        total += value
    return total


#: Simulated time per charged unit of ordinary work (one array access,
#: comparison or pointer chase).
OP_COST = 1.0

#: Surcharge per atomic operation (uncontended CAS / fetch-add), on top
#: of its ``OP_COST`` charge.
ATOMIC_COST = 2.0

#: Serialized cost per atomic operation that loses the cache line to
#: another thread; added to the region's critical path.
CONTENDED_ATOMIC_COST = 8.0

#: Per-thread cost of launching work in a parallel region (OpenMP fork
#: overhead).
SPAWN_COST = 0.5

#: Cost of the implicit barrier closing each parallel region.
BARRIER_COST = 25.0

#: Work units of one union-find ``find``: path compression keeps the
#: hop count near-constant, so every find charges this flat amortized
#: rate (:mod:`repro.unionfind`, and :meth:`AtomicSet.add_pivots
#: <repro.parallel.atomics.AtomicSet.add_pivots>`, which calls
#: ``get_pivot`` once per scanned neighbor).
FIND_CHARGE = 0.3
