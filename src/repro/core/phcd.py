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

Total work is O(m) union-find operations — near-linear, matching the
paper's O(n sqrt(p) + m alpha(n) + F) bound on the wait-free structure.

The shell loops use static chunking: shells are contiguous id ranges,
and interleaving them round-robin across threads (dynamic scheduling)
was measured to *increase* simulated time via union-find cache-line
contention — see ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hcd import HCD, HCDBuilder
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray, AtomicSet
from repro.parallel.scheduler import SimulatedPool
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

__all__ = ["phcd_build_hcd", "SCAN_CHARGE"]

#: Work units per sequentially-scanned adjacency entry.  PHCD streams
#: each shell's CSR rows in order, so the hardware prefetcher hides most
#: of the latency — the contrast with LCPS's random-access priority
#: updates that Table III's serial comparison rests on.
SCAN_CHARGE = 0.2


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
        The input graph and its (precomputed) core decomposition.
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
    coreness = np.asarray(coreness, dtype=np.int64)
    n = graph.num_vertices
    builder = HCDBuilder(n)
    if n == 0:
        return builder.build()
    if rank_result is None:
        rank_result = compute_vertex_rank(graph, coreness, pool)
    ranks = rank_result.rank
    shells = rank_result.shells
    kmax = rank_result.kmax
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

    # tid(v) = -1 marks "no tree node yet" (the paper's infinity).
    # All cross-thread tid traffic goes through the atomic wrapper so
    # it is charged and visible to the race detector; per-item stores
    # use recorded plain writes (each shell vertex owns its own slot).
    tid = builder.tid  # shared alias; builder maintains it
    tid_arr = AtomicArray.from_array(builder.tid, name="tid")
    # the kernels scan native ints: one conversion per call, not per read
    coreness_list = coreness.tolist()

    for k in range(kmax, -1, -1):
        shell = shells[k]
        if shell.size == 0:
            continue
        with pool.phase(f"phcd:level-{k}"):
            _phcd_level(
                pool, k, shell, builder, uf, tid, tid_arr,
                kpc_pivot=AtomicSet(name=f"kpc_pivot_k{k}"),
                coreness=coreness_list, indptr=indptr, indices=indices,
            )

    return builder.build()


def _phcd_level(
    pool, k, shell, builder, uf, tid, tid_arr, kpc_pivot,
    coreness, indptr, indices,
) -> None:
    """One round of Algorithm 2: the four parallel steps over a shell.

    Factored out of :func:`phcd_build_hcd` so each round runs under a
    SimProf ``phcd:level-k`` phase annotation (attribution only — the
    phase context manager never charges the clock).
    """
    shell_list = shell.tolist()

    # --- Step 1: pivots of components the shell will absorb -------
    def collect_child_pivots(vs: list[int], ctx) -> None:
        rows = [indices[indptr[v] : indptr[v + 1]] for v in vs]
        # the pivot of every neighbor above k
        kpc_pivot.add_pivots(ctx, uf, rows, coreness, k + 1, SCAN_CHARGE)

    # slices of the shell's vertex ids  # prove: slice of [0, n)
    pool.parallel_slices(
        shell_list,
        collect_child_pivots,
        label=f"phcd:step1_k{k}",
    )

    # --- Step 2: union shell into the growing graph ---------------
    def connect(vs: list[int], ctx) -> None:
        rows = [indices[indptr[v] : indptr[v + 1]] for v in vs]
        # union with every neighbor of coreness >= k
        uf.union_rows(vs, rows, coreness, k, ctx, SCAN_CHARGE)

    # slices of the shell's vertex ids  # prove: slice of [0, n)
    pool.parallel_slices(
        shell_list,
        connect,
        label=f"phcd:step2_k{k}",
    )

    # --- Step 3: one tree node per distinct pivot ------------------
    def group_by_pivot(vs: list[int], ctx) -> None:
        for v in vs:
            pvt = uf.get_pivot(v, ctx)
            node = tid_arr.load(ctx, pvt)
            if node < 0:
                # Two threads holding vertices of one component race
                # to create its node: allocate, then publish via CAS —
                # the loser re-reads the winner's node.  (On the
                # sequential substrate the CAS never loses; a real
                # backend would also retire the orphaned allocation.)
                fresh = builder.new_node(k)
                ctx.atomic(("hcd_nodes",), contended=False)
                if tid_arr.compare_and_swap(ctx, pvt, -1, fresh):
                    node = fresh
                else:
                    node = tid_arr.load(ctx, pvt)
            if v != pvt:
                # each shell vertex owns its own tid slot this round
                ctx.write(("tid", v), 0.0)
                tid[v] = node
            # member append: relaxed fetch-add on the node's tail
            ctx.atomic(("node_members", node), contended=False)
            builder.add_member(node, v)

    # slices of the shell's vertex ids
    pool.parallel_slices(
        shell_list,
        group_by_pivot,
        label=f"phcd:step3_k{k}",
    )

    # --- Step 4: attach child tree nodes under the new nodes -------
    def attach_parent(old_pivot: int, ctx) -> None:
        pvt = uf.get_pivot(old_pivot, ctx)
        child = int(tid_arr.load(ctx, old_pivot))
        parent = int(tid_arr.load(ctx, pvt))
        # distinct old pivots map to distinct child nodes
        ctx.write(("hcd_parent", child), 0.0)
        builder.set_parent(child, parent)

    pool.parallel_for(
        list(kpc_pivot), attach_parent, label=f"phcd:step4_k{k}"
    )

