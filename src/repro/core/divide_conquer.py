"""Divide-and-conquer HCD construction (paper Section III-E).

The five-step paradigm the paper evaluates — and finds infeasible:

1. core decomposition (given, as for LCPS/PHCD);
2. partition G into ``pmax`` disjoint parts;
3. run LCPS on each partition's induced subgraph with *global*
   coreness values, producing partial tree nodes;
4. merge partial tree nodes across partitions via local k-core search;
5. confirm parent-child relations, again via local k-core search.

Steps 4-5 reduce to the RC construction of
:mod:`repro.core.local_search`, so this builder's cost is
``partition + sum(per-part LCPS) + RC`` — dominated by RC exactly as
the paper argues.  The output HCD is correct (it is the RC-merged
hierarchy), so the test suite can verify it against LCPS/PHCD, while
the benchmark exposes its cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hcd import HCD
from repro.core.lcps import lcps_build_hcd
from repro.core.local_search import rc_build_hcd
from repro.core.partition import label_propagation_partition
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["DncResult", "dnc_build_hcd"]

#: Label-propagation rounds of the partitioning step.
PARTITION_ITERATIONS = 5


@dataclass
class DncResult:
    """Output of the divide-and-conquer builder with per-phase clocks."""

    hcd: HCD
    partition_time: float
    local_lcps_time: float
    merge_time: float

    @property
    def total_time(self) -> float:
        """Total simulated construction time."""
        return self.partition_time + self.local_lcps_time + self.merge_time


def dnc_build_hcd(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
    num_parts: int | None = None,
) -> DncResult:
    """Run the divide-and-conquer paradigm end to end on ``pool``.

    ``num_parts`` defaults to the pool's thread count.  Partial LCPS
    runs execute per partition inside one parallel region (each virtual
    thread builds one partition's partial hierarchy); the merge phase
    is the RC construction over the whole graph.
    """
    coreness = np.asarray(coreness, dtype=np.int64)
    parts = num_parts or pool.threads

    # Step 2: partition.
    mark = pool.mark()
    labels = label_propagation_partition(
        graph, parts, pool, iterations=PARTITION_ITERATIONS
    )
    partition_time = pool.elapsed_since(mark)

    # Step 3: LCPS per partition on induced subgraphs (global coreness).
    mark = pool.mark()
    part_vertices = [np.flatnonzero(labels == p) for p in range(parts)]

    def run_partial(p: int, ctx) -> int:
        verts = part_vertices[p]
        if verts.size == 0:
            return 0
        sub, originals = graph.induced_subgraph(verts)
        # Build the partial hierarchy with the *global* coreness values
        # restricted to the partition (capped by local degrees so the
        # bucket queue stays well-formed).
        local_coreness = np.minimum(
            coreness[originals], sub.degrees().astype(np.int64)
        )
        partial = lcps_build_hcd(sub, local_coreness)  # sani: ok - pool=None, so its serial_region never runs
        ctx.charge(2 * (sub.num_vertices + sub.num_edges))
        return partial.num_nodes

    partial_sizes = pool.parallel_for(
        list(range(parts)), run_partial, label="dnc:partial_lcps"
    )
    local_lcps_time = pool.elapsed_since(mark)

    # Steps 4-5: merge + parent confirmation via local k-core searches.
    mark = pool.mark()
    merged = rc_build_hcd(graph, coreness, pool)
    merge_time = pool.elapsed_since(mark)

    del partial_sizes  # partial node counts only matter for their cost
    return DncResult(
        hcd=merged,
        partition_time=partition_time,
        local_lcps_time=local_lcps_time,
        merge_time=merge_time,
    )
