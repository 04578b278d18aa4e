"""One PHCD framework for hierarchies over motif-supported elements.

Paper Section VI: "Inspired by the framework of PHCD ... we can propose
parallel hierarchy construction algorithms ... for other cohesive
subgraph models with a hierarchical decomposition, such as k-truss";
Section VII names the nucleus hierarchy as the open gap.  Both are
(r, s)-nucleus hierarchies (Shi, Dhulipala & Shun): *elements* (edges,
triangles) supported by *motifs* (triangles, K4s).  This module holds
the part they share; :mod:`repro.truss` and :mod:`repro.nucleus` only
supply an element index.

An element index provides

* ``len(index)`` — the number of elements, with dense ids;
* ``companions(i)`` — one tuple per motif through element ``i``, of the
  motif's other elements;
* ``outer_neighbors(i)`` — the elements glued to ``i`` at the
  outermost level (shared endpoint / shared edge), so the forest roots
  follow plain connectivity.

:func:`peel_levels` is the bin-bucket peel that assigns every element
its motif support at removal; :func:`build_element_hierarchy` reruns
Algorithm 2 with elements in the role of vertices:

* shells are level classes, added in descending ``k``;
* a motif carries connectivity at level ``k`` iff all its elements have
  level >= k; at the ``floor`` level ``outer_neighbors`` glue too;
* a pivot union-find over element ids groups shell elements into tree
  nodes and finds parents.

Only steps 1-2, which walk motif companions, live here.  The rounds
and steps 3-4 are core PHCD's own :func:`~repro.core.phcd.link_levels`,
so the three hierarchies share one link loop, one forest type
(:class:`~repro.core.hcd.HCD` over element ids: ``node_coreness`` is
the element level, ``tid`` maps element to node) and one structural
check (:meth:`~repro.core.hcd.HCD.validate_levels`).  Region labels
and sanitizer names derive from ``prefix``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hcd import HCD, HCDBuilder
from repro.core.phcd import check_levels, link_levels
from repro.parallel.atomics import AtomicSet
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty
from repro.unionfind.pivot import PivotUnionFind

__all__ = [
    "motif_supports",
    "peel_levels",
    "build_element_hierarchy",
]


def motif_supports(index) -> np.ndarray:
    """Number of motifs through every element (by element id)."""
    return np.array(
        [len(index.companions(i)) for i in range(len(index))], dtype=np.int64
    )


def peel_levels(index, pool: SimulatedPool | None, prefix: str) -> np.ndarray:
    """Every element's motif support at its removal, by bin-bucket peeling.

    Repeatedly remove a minimum-support element and decrement the
    support of the other elements of every still-intact motif through
    it (Wang & Cheng for truss, Sariyüce & Pinar for nuclei).  The
    work — one unit per element, per initial motif incidence, and per
    companion scanned at removal — is charged to ``pool`` as one serial
    region when given.
    """
    n = len(index)
    levels = np.zeros(n, dtype=np.int64)
    if n == 0:
        return levels
    support = motif_supports(index)
    charged = int(support.sum()) + n

    alive = np.ones(n, dtype=bool)
    # bucket queue over supports with lazy entries
    buckets: list[list[int]] = [[] for _ in range(int(support.max()) + 1)]
    for i in range(n):
        buckets[int(support[i])].append(i)
    cursor = 0
    removed = 0
    while removed < n:
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        i = buckets[cursor].pop()
        if not alive[i] or support[i] != cursor:
            continue  # stale entry
        alive[i] = False
        removed += 1
        levels[i] = cursor
        for motif in index.companions(i):
            charged += len(motif)
            if not all(alive[x] for x in motif):
                continue  # this motif is already broken
            for other in motif:
                if support[other] > cursor:
                    support[other] -= 1
                    buckets[int(support[other])].append(other)
    if pool is not None:
        with pool.phase(f"{prefix}:peel"):
            with pool.serial_region(f"{prefix}_decomposition") as ctx:
                ctx.charge(charged)
    return levels


def build_element_hierarchy(
    index,
    levels: np.ndarray,
    pool: SimulatedPool,
    *,
    floor: int,
    prefix: str,
) -> HCD:
    """Build the element hierarchy with PHCD's four steps.

    ``levels`` holds one integer level >= ``floor`` per element of
    ``index``; anything else raises :class:`HierarchyError`.  Steps 1-2
    run here as regions ``{prefix}:step{1,1b,2,2b}_k{k}``, steps 3-4 in
    :func:`~repro.core.phcd.link_levels`.  The forest is an
    :class:`~repro.core.hcd.HCD` over element ids: ``node_coreness``
    holds the levels, ``tid`` maps element to node.
    """
    n = len(index)
    levels = check_levels(levels, n, floor, f"{prefix} levels")

    kmax = int(levels.max(initial=floor))
    # element rank: (level, id) — Definition 4 transplanted to elements
    order = np.lexsort((np.arange(n), levels))
    rank = san_empty(n, np.int64, name=f"{prefix}_rank")
    rank[order] = np.arange(n)
    shells: list[list[int]] = [[] for _ in range(kmax + 1)]
    for i in range(n):
        shells[int(levels[i])].append(i)
    uf = PivotUnionFind(rank, name=f"{prefix}_uf")

    def live_motifs(i: int, k: int, ctx):
        """Motifs through ``i`` whose elements all have level >= k."""
        ctx.charge(1)
        for motif in index.companions(i):
            ctx.charge(1)
            if all(levels[x] >= k for x in motif):
                yield motif

    def link_rows(k: int, shell: list[int], kpc_pivot: AtomicSet) -> None:
        # Step 1: capture pivots of higher components this shell will
        # absorb.  A motif only carries k-level connectivity when all
        # its elements have level >= k; any companion strictly above k
        # then belongs to an existing component.
        def collect(i: int, ctx) -> None:
            for motif in live_motifs(i, k, ctx):
                for other in motif:
                    if levels[other] > k:
                        kpc_pivot.add_if_absent(ctx, uf.get_pivot(other, ctx))

        pool.parallel_for(shell, collect, label=f"{prefix}:step1_k{k}")

        # At the outermost level the forest switches to outer
        # connectivity, so higher components reachable only through an
        # outer neighbour must be captured too.
        if k == floor:
            def collect_outer(i: int, ctx) -> None:
                for other in index.outer_neighbors(i):
                    ctx.charge(1)
                    if levels[other] > floor:
                        kpc_pivot.add_if_absent(ctx, uf.get_pivot(other, ctx))

            pool.parallel_for(
                shell, collect_outer, label=f"{prefix}:step1b_k{k}"
            )

        # Step 2: union along motifs wholly inside the k-level.
        def connect(i: int, ctx) -> None:
            for motif in live_motifs(i, k, ctx):
                for other in motif:
                    uf.union(i, other, ctx)

        pool.parallel_for(shell, connect, label=f"{prefix}:step2_k{k}")

        if k == floor:
            def connect_outer(i: int, ctx) -> None:
                for other in index.outer_neighbors(i):
                    ctx.charge(1)
                    uf.union(i, other, ctx)

            pool.parallel_for(
                shell, connect_outer, label=f"{prefix}:step2b_k{k}"
            )

    return link_levels(
        pool, shells, floor, uf, HCDBuilder(n), prefix, link_rows
    )
