"""Union-find with pivot maintenance (paper Section III-B).

The *pivot* of a connected component is its minimum-vertex-rank member
(Definition 5).  :class:`PivotUnionFind` stores the pivot at each set's
cardinal element and updates it during :meth:`union` so that
``get_pivot(x)`` answers in find-time.  PHCD uses pivots both to group
k-shell vertices into tree nodes and to identify parent tree nodes.

All operations optionally charge a
:class:`~repro.parallel.context.ThreadContext` so PHCD's simulated cost
reflects real union-find traffic.

Sanitizer model
---------------
Slot accesses are reported to the race detector as *atomic* events on
word keys ``("ufp", name, slot)`` (parent links) and ``("ufpv", name,
root)`` (pivots): in a concurrent union-find every one of these is a
CAS or an atomic load, so cross-thread overlap is synchronized by
construction.  The events ride on the existing flat charges
(:data:`~repro.parallel.cost_model.FIND_CHARGE`, the per-union atomic) via
:meth:`~repro.parallel.context.ThreadContext.record`, so simulated
timings are unchanged by recording.  The event keys are built only
while ``ctx.observed`` is true; the charges never depend on it.

``parent``, ``rank`` and ``pivot`` are Python lists of native ints:
every operation touches single slots, where numpy scalar access would
box a fresh object per read.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.context import (
    EV_ATOMIC_READ,
    EV_ATOMIC_WRITE,
    ThreadContext,
)
from repro.parallel.cost_model import FIND_CHARGE

__all__ = ["PivotUnionFind"]


class PivotUnionFind:
    """Disjoint sets with per-set minimum-rank pivots.

    Parameters
    ----------
    ranks:
        ``ranks[v]`` is the vertex rank of ``v`` (Definition 4); lower
        rank wins the pivot.  Pivot comparisons use these values, so
        the array must assign distinct ranks to distinct vertices.
    """

    __slots__ = ("parent", "rank", "pivot", "_ranks", "_components", "_name")

    def __init__(self, ranks: np.ndarray, name: str = "puf") -> None:
        size = int(np.asarray(ranks).size)
        self.parent = list(range(size))
        self.rank = [0] * size  # union-by-rank heights
        self.pivot = list(range(size))  # pivot at cardinal elem
        self._ranks = np.asarray(ranks, dtype=np.int64).tolist()
        self._components = size
        self._name = name

    # ------------------------------------------------------------------

    def find(self, x: int, ctx: ThreadContext | None = None) -> int:
        """Cardinal element of ``x``'s set, with path compression.

        Charged at a flat unit: with compression the amortized hop
        count is O(alpha(n)) — the "scales stably" constant the paper
        contrasts with LCPS's dynamic arrays.
        """
        x = int(x)
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        compressed = parent[x] != root
        while parent[x] != root:
            parent[x], x = root, parent[x]
        if ctx is not None:
            ctx.charge(FIND_CHARGE)
            if ctx.observed:
                # concurrent finds use atomic loads / CAS repointing
                ctx.record(EV_ATOMIC_READ, ("ufp", self._name, root))
                if compressed:
                    ctx.record(EV_ATOMIC_WRITE, ("ufp", self._name, root))
        return root

    def get_pivot(self, x: int, ctx: ThreadContext | None = None) -> int:
        """Pivot (lowest-rank member) of ``x``'s component."""
        root = self.find(x, ctx)
        if ctx is not None and ctx.observed:
            ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, root))
        return self.pivot[root]

    def union(self, x: int, y: int, ctx: ThreadContext | None = None) -> int:
        """Merge ``x``'s and ``y``'s sets, keeping the lower-rank pivot.

        Returns the new cardinal element.  The pivot write is charged
        as an atomic on the winning root's slot, mirroring the CAS a
        concurrent implementation would issue.
        """
        rx = self.find(x, ctx)
        ry = self.find(y, ctx)
        if rx == ry:
            return rx
        rank = self.rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        observed = ctx is not None and ctx.observed
        if ctx is not None:
            # the link itself is the CAS on the loser root's parent slot,
            # keyed per exact slot: links target distinct roots (see
            # waitfree)
            word = ("ufp", self._name, ry) if observed else None
            ctx.atomic(("uf", rx), word=word)
        # pivot of the merged set = lower-vertex-rank of the two pivots;
        # concurrently this is an atomic-min (load both, CAS the winner) —
        # cost is folded into the link charge, events recorded raw.
        px, py = self.pivot[rx], self.pivot[ry]
        if observed:
            ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, rx))
            ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, ry))
        if self._ranks[py] < self._ranks[px]:
            self.pivot[rx] = py
            if observed:
                ctx.record(EV_ATOMIC_WRITE, ("ufpv", self._name, rx))
        self._components -= 1
        return rx

    def pivots(self, row: list[int], level: list[int], floor: int) -> list[int]:
        """Uncharged ``get_pivot`` of every ``y`` in ``row`` with
        ``level[y] >= floor``, in order, finds included."""
        find, pivot = self.find, self.pivot
        return [pivot[find(y)] for y in row if level[y] >= floor]

    def union_rows(
        self, xs: list[int], rows: list[list[int]], level: list[int],
        floor: int, ctx: ThreadContext, scan: float,
    ) -> None:
        """PHCD step 2 over one thread's slice: ``rows[j]`` is the
        adjacency row of ``xs[j]``.

        For every row: charge 1 (the row's own vertex), then for every
        ``y`` in it charge ``scan`` and, when ``level[y] >= floor``,
        ``union(x, y, ctx)``.  With an observer attached these are the
        calls made.  Unobserved, the same finds and links run uncharged
        while the addends (1, then per ``y`` ``scan``,
        :data:`FIND_CHARGE` twice and the link atomic) are replayed on
        one local in that order and stored back once
        (:meth:`ThreadContext.commit_row`).
        """
        if ctx.observed:
            for x, row in zip(xs, rows):
                ctx.charge(1)
                for y in row:
                    ctx.charge(scan)
                    if level[y] >= floor:
                        self.union(x, y, ctx)
            return
        find, parent, rank, pivot, ranks = (
            self.find, self.parent, self.rank, self.pivot, self._ranks
        )
        contended = []
        work = ctx.work
        for x, row in zip(xs, rows):
            work += 1
            for y in row:
                work += scan
                if level[y] < floor:
                    continue
                rx = find(x)
                work += FIND_CHARGE
                ry = find(y)
                work += FIND_CHARGE
                if rx == ry:
                    continue
                if rank[rx] < rank[ry]:
                    rx, ry = ry, rx
                parent[ry] = rx
                if rank[rx] == rank[ry]:
                    rank[rx] += 1
                work += 1
                contended.append(("uf", rx))
                px, py = pivot[rx], pivot[ry]
                if ranks[py] < ranks[px]:
                    pivot[rx] = py
                self._components -= 1
        ctx.commit_row(work, contended)

    def same_set(self, x: int, y: int, ctx: ThreadContext | None = None) -> bool:
        """Whether ``x`` and ``y`` are connected."""
        return self.find(x, ctx) == self.find(y, ctx)

    @property
    def num_components(self) -> int:
        """Number of disjoint sets remaining."""
        return self._components

    def __len__(self) -> int:
        return len(self.parent)
