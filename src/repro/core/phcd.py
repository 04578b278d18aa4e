"""PHCD — parallel HCD construction (paper Algorithm 2).

PHCD sidesteps the P-completeness of hierarchy construction (Theorem 1)
with a union-find-based bottom-up paradigm: starting from an empty
graph, the k-shells are added in *descending* k; a pivot-augmented
union-find maintains, for every connected component of the growing
graph, its minimum-vertex-rank member (the *pivot*, Definition 5),
which uniquely identifies the component's top tree node.  Each round
runs four parallel steps over the k-shell (Section III-D):

1. **find k'-core tree nodes** — collect the pivots of components that
   the shell will merge with (their nodes become children this round);
2. **connectivity** — union every shell vertex with its neighbors of
   coreness >= k;
3. **create tree nodes** — group shell vertices by their component's
   (new) pivot; one tree node per distinct pivot;
4. **find parents** — each captured old pivot's node gets the new
   pivot's node as parent.

:func:`link_levels` runs the rounds once for every hierarchy: it owns
the descending-``k`` loop, the per-round ``kpc_pivot`` set, the ``tid``
array and steps 3-4.  A hierarchy supplies only steps 1-2, the part
that depends on where its rows come from: :func:`phcd_build_hcd` scans
CSR slices on the wait-free union-find, and the truss and nucleus
hierarchies (:mod:`repro.core.element_hierarchy`) walk motif
companions on the pivot DSU.  :func:`check_levels` is the one level
check all three entries make before any work.

Total work is O(m) union-find operations — near-linear, matching the
paper's O(n sqrt(p) + m alpha(n) + F) bound on the wait-free structure.

The shell loops use static chunking: shells are contiguous id ranges,
and interleaving them round-robin across threads (dynamic scheduling)
was measured to *increase* simulated time via union-find cache-line
contention — see ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.hcd import HCD, HCDBuilder
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.errors import HierarchyError
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray, AtomicSet
from repro.parallel.scheduler import SimulatedPool
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

__all__ = ["phcd_build_hcd", "link_levels", "check_levels", "SCAN_CHARGE"]

#: Work units per sequentially-scanned adjacency entry.  PHCD streams
#: each shell's CSR rows in order, so the hardware prefetcher hides most
#: of the latency — the contrast with LCPS's random-access priority
#: updates that Table III's serial comparison rests on.
SCAN_CHARGE = 0.2


def check_levels(levels, n: int, floor: int, what: str) -> np.ndarray:
    """``levels`` as int64, checked to hold one integer >= ``floor`` per id.

    The one entry check of every hierarchy build, made before any work:
    a non-integer dtype (the rule of :meth:`HCD.from_arrays`), a shape
    other than ``(n,)`` or a level below ``floor`` raises
    :class:`HierarchyError`.
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iu":
        raise HierarchyError(
            f"{what} must be an integer array, got dtype {levels.dtype}"
        )
    levels = levels.astype(np.int64, copy=False)
    if levels.shape != (n,) or int(levels.min(initial=floor)) < floor:
        raise HierarchyError(
            f"{what} must be {n} entries >= {floor}, got shape "
            f"{levels.shape}, min {levels.min(initial=floor)}"
        )
    return levels


def phcd_build_hcd(
    graph: Graph,
    coreness: np.ndarray,
    pool: SimulatedPool,
    rank_result: VertexRankResult | None = None,
    use_waitfree: bool | None = None,
    cas_failure_rate: float = 0.0,
    seed: int = 0,
) -> HCD:
    """Build the HCD of ``graph`` in parallel on ``pool``.

    Parameters
    ----------
    graph, coreness:
        The input graph and its (precomputed) core decomposition: one
        non-negative integer per vertex, else :class:`HierarchyError`.
    pool:
        Simulated thread pool; all four steps of every round run as
        parallel regions on it.
    rank_result:
        Optionally a precomputed Algorithm 1 result (otherwise it is
        computed here, charged to the same pool).
    use_waitfree:
        Select the union-find engine: the simulated wait-free structure
        (default whenever ``pool.threads > 1``, as the paper prescribes)
        or the sequential pivot DSU.
    cas_failure_rate, seed:
        Failure-injection controls for the wait-free engine (the
        ``F`` term of the work bound); ignored by the sequential DSU.
        The wait-free engine rejects a rate outside ``[0, 1)`` with
        :class:`~repro.errors.UnionFindError`.
    """
    n = graph.num_vertices
    coreness = check_levels(coreness, n, 0, "coreness")
    if n == 0:
        return HCDBuilder(0).build()
    if rank_result is None:
        rank_result = compute_vertex_rank(graph, coreness, pool)
    ranks = rank_result.rank
    # the CSR as native ints, listed once: the slice kernels cut each
    # row out of the list without a numpy scalar read
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()

    if use_waitfree is None:
        use_waitfree = pool.threads > 1
    if use_waitfree:
        uf: PivotUnionFind | SimulatedWaitFreeUnionFind = (
            SimulatedWaitFreeUnionFind(
                ranks, failure_rate=cas_failure_rate, seed=seed
            )
        )
    else:
        uf = PivotUnionFind(ranks)

    # the kernels scan native ints: one conversion per call, not per read
    coreness_list = coreness.tolist()

    def link_rows(k: int, shell: list[int], kpc_pivot: AtomicSet) -> None:
        # --- Step 1: pivots of components the shell will absorb ---
        def collect_child_pivots(vs: list[int], ctx) -> None:
            rows = [indices[indptr[v] : indptr[v + 1]] for v in vs]
            # the pivot of every neighbor above k
            kpc_pivot.add_pivots(
                ctx, uf, rows, coreness_list, k + 1, SCAN_CHARGE
            )

        # slices of the shell's vertex ids  # prove: slice of [0, n)
        pool.parallel_slices(
            shell, collect_child_pivots, label=f"phcd:step1_k{k}"
        )

        # --- Step 2: union shell into the growing graph -----------
        def connect(vs: list[int], ctx) -> None:
            rows = [indices[indptr[v] : indptr[v + 1]] for v in vs]
            # union with every neighbor of coreness >= k
            uf.union_rows(vs, rows, coreness_list, k, ctx, SCAN_CHARGE)

        # slices of the shell's vertex ids  # prove: slice of [0, n)
        pool.parallel_slices(shell, connect, label=f"phcd:step2_k{k}")

    # native-int shells: the slice kernels read list items, not numpy
    # scalars
    shells = [shell.tolist() for shell in rank_result.shells]
    return link_levels(
        pool, shells, 0, uf, HCDBuilder(n), "phcd", link_rows
    )


def link_levels(
    pool: SimulatedPool,
    shells: list[list[int]],
    floor: int,
    uf: PivotUnionFind | SimulatedWaitFreeUnionFind,
    builder: HCDBuilder,
    prefix: str,
    link_rows: Callable[[int, list[int], AtomicSet], None],
) -> HCD:
    """Algorithm 2's rounds over ``shells``, ``k`` descending to ``floor``.

    ``shells[k]`` lists the ids of level ``k``; ``uf`` is a pivot
    union-find over the same ids.  Each non-empty round runs under a
    SimProf ``{prefix}:level-{k}`` phase (attribution only — the phase
    never charges the clock): ``link_rows(k, shell, kpc_pivot)`` runs
    the hierarchy's steps 1-2, capturing the pivots of the components
    the shell absorbs into ``kpc_pivot`` and uniting the shell into
    ``uf``; steps 3-4 (regions ``{prefix}:step3_k{k}`` and
    ``{prefix}:step4_k{k}``) then create the round's tree nodes and
    attach the captured children.  Returns ``builder``'s forest.
    """
    # tid(v) = -1 marks "no tree node yet" (the paper's infinity).
    # All cross-thread tid traffic goes through the atomic wrapper so
    # it is charged and visible to the race detector; per-item stores
    # use recorded plain writes (each shell vertex owns its own slot).
    tid = builder.tid  # shared alias; builder maintains it
    tid_arr = AtomicArray.from_array(builder.tid, name="tid")

    for k in range(len(shells) - 1, floor - 1, -1):
        shell = shells[k]
        if not shell:
            continue
        with pool.phase(f"{prefix}:level-{k}"):
            kpc_pivot = AtomicSet(name=f"kpc_pivot_k{k}")
            link_rows(k, shell, kpc_pivot)

            # --- Step 3: one tree node per distinct pivot ----------
            def group_by_pivot(vs: list[int], ctx) -> None:
                for v in vs:
                    pvt = uf.get_pivot(v, ctx)
                    node = tid_arr.load(ctx, pvt)
                    if node < 0:
                        # Two threads holding vertices of one component
                        # race to create its node: allocate, then
                        # publish via CAS — the loser re-reads the
                        # winner's node.  (On the sequential substrate
                        # the CAS never loses; a real backend would
                        # also retire the orphaned allocation.)
                        fresh = builder.new_node(k)
                        ctx.atomic(("hcd_nodes",), contended=False)
                        if tid_arr.compare_and_swap(ctx, pvt, -1, fresh):
                            node = fresh
                        else:
                            node = tid_arr.load(ctx, pvt)
                    if v != pvt:
                        # each shell vertex owns its own tid slot
                        ctx.write(("tid", v), 0.0)
                        tid[v] = node
                    # member append: relaxed fetch-add on the node's tail
                    ctx.atomic(("node_members", node), contended=False)
                    builder.add_member(node, v)

            # slices of the shell's vertex ids
            pool.parallel_slices(
                shell, group_by_pivot, label=f"{prefix}:step3_k{k}"
            )

            # --- Step 4: attach child tree nodes under the new nodes
            def attach_parent(old_pivot: int, ctx) -> None:
                pvt = uf.get_pivot(old_pivot, ctx)
                child = int(tid_arr.load(ctx, old_pivot))
                parent = int(tid_arr.load(ctx, pvt))
                # distinct old pivots map to distinct child nodes
                ctx.write(("hcd_parent", child), 0.0)
                builder.set_parent(child, parent)

            pool.parallel_for(
                list(kpc_pivot), attach_parent, label=f"{prefix}:step4_k{k}"
            )

    return builder.build()
