"""Influential community search on the HCD (paper Section VI).

Li et al. (PVLDB'15) define the *influence* of a community as the
minimum weight of its members, and ask for the top-r most influential
k-cores.  The paper's "Efficient Subgraph Index" extension notes that
the HCD is exactly the O(n)-space structure such indexes build on: the
candidate communities for any ``k`` are the maximal k-cores, i.e. the
original cores of the HCD nodes whose parent falls below ``k``.

:class:`InfluentialCommunityIndex` materializes, in one bottom-up pass
(a *min* tree accumulation — the same primitive PBKS uses with sums),
the influence of every tree node's original core, and ranks every
node once by (influence, core size, node id).  Afterwards any
``(k, r)`` query is answered from the index alone, with no graph
access.  The first query of a ``k`` selects the candidate cores with
one vectorized pass over the |T| tree nodes
(:meth:`~repro.core.hcd.HCD.maximal_core_nodes`) and sorts them by
their precomputed rank; the ranked list is kept, so every later query
of that ``k`` (any ``r``) is a slice of it.  An index holds at most
kmax + 3 such lists (every ``k > kmax`` shares one), each as long as
the number of maximal k-cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hcd import HCD
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool

__all__ = ["InfluentialCommunity", "InfluentialCommunityIndex"]


@dataclass(frozen=True)
class InfluentialCommunity:
    """One answer: a k-core and its influence (minimum member weight)."""

    node: int
    k: int
    influence: float
    size: int


class InfluentialCommunityIndex:
    """Index answering top-r influential k-core queries from the HCD.

    Parameters
    ----------
    hcd:
        The hierarchy of the graph.
    weights:
        Per-vertex influence weights (e.g. PageRank, activity counts).
    pool:
        Simulated pool charging the one-off index construction; the
        construction is one parallel pass over vertices plus one
        bottom-up accumulation over tree nodes.
    """

    def __init__(
        self,
        hcd: HCD,
        weights: np.ndarray,
        pool: SimulatedPool | None = None,
    ) -> None:
        self._hcd = hcd
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size != hcd.num_vertices:
            raise ValueError(
                f"{weights.size} weights for {hcd.num_vertices} vertices"
            )
        pool = pool or SimulatedPool(threads=1)
        t = hcd.num_nodes
        # Vertices of one tree node are spread across threads, so the
        # per-node fold must be atomic: a plain `if w < min: min = w`
        # loses updates under concurrent writers (a real race the
        # sanitizer flags).  fetch_min / fetch_add are the lock-free
        # equivalents.
        node_min = AtomicArray(t, dtype=np.float64, name="inf_min")
        node_min.data[:] = np.inf
        sizes = AtomicArray(t, dtype=np.int64, name="inf_size")
        tid = hcd.tid

        # per-node minima over the node's own vertices
        def fold(vs: range, ctx) -> None:
            # per vertex: one unit, a min-fold of its weight and a
            # relaxed count into its node.  Every charge is an integer,
            # so the slice's charges fold exactly.
            ctx.charge(len(vs))
            nodes = tid[vs.start : vs.stop]
            node_min.fetch_min_many(ctx, nodes, weights[vs.start : vs.stop])
            sizes.add_many(ctx, nodes, np.ones(len(vs), dtype=np.int64))

        if hcd.num_vertices:
            pool.parallel_slices(
                range(hcd.num_vertices), fold, label="influence:fold"
            )
        node_min = node_min.data.tolist()
        sizes = sizes.data.tolist()

        # bottom-up min accumulation: influence of a core is the min
        # over its subtree (children processed before parents).  NaN
        # weights never win a fetch_min, so a core whose members all
        # weigh NaN keeps the +inf start value; `weighted` tells it
        # apart from a real +inf minimum (uncharged bookkeeping).
        weighted = np.zeros(t, dtype=bool)
        weighted[hcd.tid[~np.isnan(weights)]] = True
        weighted = weighted.tolist()
        parent = hcd.parent.tolist()
        for node in hcd.nodes_bottom_up():
            pa = parent[node]
            if pa >= 0:
                if node_min[node] < node_min[pa]:
                    node_min[pa] = node_min[node]
                sizes[pa] += sizes[node]
                if weighted[node]:
                    weighted[pa] = True
        with pool.serial_region("influence:accumulate") as ctx:
            ctx.charge(t)

        self._influence = np.array(node_min, dtype=np.float64)
        self._core_sizes = np.array(sizes, dtype=np.int64)
        # what answers report: NaN for a core with no non-NaN member
        weighted = np.array(weighted, dtype=bool)
        self._reported = np.where(weighted, self._influence, np.nan)
        # rank position of every node (the inverse of the sort order):
        # influence descending with cores that have no non-NaN member
        # last, then smaller cores, then node id
        order = np.lexsort(
            (np.arange(t), self._core_sizes, -self._influence, ~weighted)
        )
        self._rank = np.argsort(order)
        self._kmax = hcd.kmax
        #: k (clamped, see _ranked_cores) -> every maximal k-core, best first,
        #: as (node, reported influence, core size)
        self._ranked: dict[int, list[tuple[int, float, int]]] = {}

    # ------------------------------------------------------------------

    def influence_of(self, node: int) -> float:
        """Influence (min member weight) of the node's original core.

        NaN when no member of the core has a non-NaN weight.
        """
        return float(self._reported[node])

    def core_size(self, node: int) -> int:
        """Number of vertices in the node's original core."""
        return int(self._core_sizes[node])

    def top_r(self, k: int, r: int) -> list[InfluentialCommunity]:
        """The ``r`` most influential maximal k-cores, best first.

        Ties break toward smaller communities (more cohesive), then by
        node id for determinism.  A core whose members all weigh NaN
        ranks last and reports influence NaN.
        """
        if r < 1:
            return []
        return [
            InfluentialCommunity(node=node, k=k, influence=influence, size=size)
            for node, influence, size in self._ranked_cores(k)[:r]
        ]

    def _ranked_cores(self, k: int) -> list[tuple[int, float, int]]:
        """Every maximal k-core as ``(node, influence, size)``, best first.

        Memoized per ``k``.  ``k`` is clamped first so that no query,
        however large or small its ``k``, grows the memo past kmax + 3
        lists: every ``k > kmax`` selects nothing, every ``k`` in
        ``(ROOT_PARENT_CORENESS, 0]`` selects the roots and every
        smaller ``k`` selects nothing again.  ``_rank`` is a
        permutation, so a slice of the full sort equals a sort cut to
        ``r``.
        """
        key = min(k, self._kmax + 1)
        if key < 0:
            root = HCD.ROOT_PARENT_CORENESS
            key = 0 if key > root else root
        ranked = self._ranked.get(key)
        if ranked is None:
            best = np.asarray(self._hcd.maximal_core_nodes(key), dtype=np.int64)
            if best.size > 1:  # a lone candidate (most k) needs no sort
                best = best[np.argsort(self._rank[best])]
            ranked = list(
                zip(
                    best.tolist(),
                    self._reported[best].tolist(),
                    self._core_sizes[best].tolist(),
                )
            )
            self._ranked[key] = ranked
        return ranked

    def members(self, community: InfluentialCommunity) -> np.ndarray:
        """Vertex set of a returned community."""
        return self._hcd.reconstruct_core(community.node)
