"""Cost model for the simulated multicore scheduler.

The paper benchmarks C++/OpenMP code on a 40-core Xeon.  This machine
has one core and CPython's GIL, so wall-clock speedups are not
observable; instead every algorithm *charges* its abstract operations
(array reads/writes, union-find ops, atomic updates) to a
:class:`CostModel`, and :class:`~repro.parallel.scheduler.SimulatedPool`
converts per-thread charges into a simulated elapsed time:

``region_time = max(per-thread work) * op_cost
              + contention penalty on shared atomic locations
              + spawn_cost * threads + barrier_cost``

The constants below are fixed once for the whole repository (they are
*not* fitted per dataset or per experiment); DESIGN.md Section 5
describes the calibration.  The per-dataset and per-algorithm variation
in every reproduced table comes from real operation counts of real
algorithm executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "ordered_sum"]


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


@dataclass(frozen=True)
class CostModel:
    """Constants converting operation charges to simulated nanoseconds.

    Attributes
    ----------
    op_cost:
        Simulated time per charged unit of ordinary work (one array
        access / comparison / pointer chase).
    atomic_cost:
        Surcharge per atomic operation (uncontended CAS / fetch-add),
        on top of its ``op_cost`` charge.
    contended_atomic_cost:
        Serialized cost per atomic operation that loses the cache line
        to another thread; added to the region's critical path.
    spawn_cost:
        Per-thread cost of launching work in a parallel region (OpenMP
        fork overhead).
    barrier_cost:
        Cost of the implicit barrier closing each parallel region.
    """

    op_cost: float = 1.0
    atomic_cost: float = 2.0
    contended_atomic_cost: float = 8.0
    spawn_cost: float = 0.5
    barrier_cost: float = 25.0

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every constant multiplied by ``factor``."""
        return CostModel(
            op_cost=self.op_cost * factor,
            atomic_cost=self.atomic_cost * factor,
            contended_atomic_cost=self.contended_atomic_cost * factor,
            spawn_cost=self.spawn_cost * factor,
            barrier_cost=self.barrier_cost * factor,
        )


#: The calibration used by every benchmark in this repository.
DEFAULT_COST_MODEL = CostModel()
