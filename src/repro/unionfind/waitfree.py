"""Simulated wait-free union-find (Anderson & Woll, STOC'91).

The paper runs PHCD's connectivity maintenance on a wait-free DSU whose
total work is ``O(n sqrt(p) + m alpha(n) + F)`` for ``p`` threads and at
most ``F`` CAS failures.  On this substrate the *logic* of the
wait-free structure is executed sequentially (linking by index-rank via
CAS, path splitting on find) while:

* every CAS is charged to the active thread context as an atomic on the
  touched parent slot, and
* a deterministic failure process makes a configurable fraction of CAS
  attempts spuriously fail and retry — exercising and accounting the
  ``F`` term of the bound.

Pivot maintenance follows Section III-B: the winning root's pivot is
re-minimized after every successful link.  Because a failed CAS only
retries (never corrupts state), results are identical to the sequential
:class:`~repro.unionfind.pivot.PivotUnionFind` — which the test suite
asserts.

State lives in Python lists (``parent``, ``pivot`` and the rank table):
the simulated CAS loop touches one slot at a time, and list slots are
native ints, where a numpy scalar access would box a new object.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnionFindError
from repro.parallel.context import (
    EV_ATOMIC_READ,
    EV_ATOMIC_WRITE,
    ThreadContext,
)
from repro.parallel.cost_model import FIND_CHARGE

__all__ = ["SimulatedWaitFreeUnionFind"]


class _DeterministicFailures:
    """Counter-based PRNG deciding which CAS attempts fail."""

    __slots__ = ("_rate_num", "_rate_den", "_state", "fails")

    def __init__(self, failure_rate: float, seed: int) -> None:
        rate = float(failure_rate)
        # at rate 1 every CAS fails and a union retries forever; a NaN
        # rate fails every comparison, so it is rejected here too
        if not 0.0 <= rate < 1.0:
            raise UnionFindError(
                f"CAS failure rate must be finite and in [0, 1), got {failure_rate!r}"
            )
        # store the rate as a fraction of 2**32 for branch-free compare
        self._rate_num = int(rate * (1 << 32))
        self._rate_den = 1 << 32
        self._state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        #: :meth:`next_fails`, or ``None`` when no draw can fail (rate
        #: zero): CAS attempts then skip the draw, while at rates above
        #: zero every attempt draws, in the same sequence as always
        self.fails = self.next_fails if self._rate_num else None

    def next_fails(self) -> bool:
        # xorshift32 step
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x < self._rate_num


class SimulatedWaitFreeUnionFind:
    """Wait-free DSU with pivots, charged CAS traffic, and failure injection.

    Parameters
    ----------
    ranks:
        Vertex-rank array defining pivot order (Definition 4).
    failure_rate:
        Probability that any single CAS attempt spuriously fails and is
        retried; the retries are counted in :attr:`cas_failures` (the
        paper's ``F``).  Must be finite and in ``[0, 1)``, else
        :class:`~repro.errors.UnionFindError`.
    seed:
        Seed of the deterministic failure process.
    """

    __slots__ = (
        "parent",
        "pivot",
        "_ranks",
        "_failures",
        "cas_failures",
        "cas_attempts",
        "_name",
    )

    def __init__(
        self,
        ranks: np.ndarray,
        failure_rate: float = 0.0,
        seed: int = 0,
        name: str = "wfuf",
    ) -> None:
        size = int(np.asarray(ranks).size)
        self.parent = list(range(size))
        self.pivot = list(range(size))
        self._ranks = np.asarray(ranks, dtype=np.int64).tolist()
        self._failures = _DeterministicFailures(failure_rate, seed)
        self.cas_failures = 0
        self.cas_attempts = 0
        self._name = name

    # ------------------------------------------------------------------

    def _cas_parent(
        self, slot: int, expected: int, value: int, ctx: ThreadContext | None
    ) -> bool:
        """One CAS attempt on ``parent[slot]`` with failure injection."""
        self.cas_attempts += 1
        if ctx is not None:
            # Contention is keyed per exact slot: every successful link
            # targets a distinct loser-root, so two threads only queue
            # when they genuinely race for the same root.
            word = ("ufp", self._name, slot) if ctx.observed else None
            ctx.atomic(("wfuf", slot), word=word)
        fails = self._failures.fails
        if fails is not None and fails():
            self.cas_failures += 1
            return False
        if self.parent[slot] != expected:
            return False
        self.parent[slot] = value
        return True

    def find(self, x: int, ctx: ThreadContext | None = None) -> int:
        """Root of ``x`` with path splitting (wait-free compression).

        Charged at a flat unit — amortized O(alpha(n)) hops.
        """
        x = int(x)
        parent = self.parent
        split = False
        while parent[x] != x:
            grand = parent[parent[x]]
            # path splitting: point x at its grandparent (an atomic
            # store in Anderson-Woll; lost updates only delay
            # compression, never break the structure)
            parent[x] = grand
            x = grand
            split = True
        if ctx is not None:
            ctx.charge(FIND_CHARGE)
            if ctx.observed:
                ctx.record(EV_ATOMIC_READ, ("ufp", self._name, x))
                if split:
                    ctx.record(EV_ATOMIC_WRITE, ("ufp", self._name, x))
        return x

    def union(self, x: int, y: int, ctx: ThreadContext | None = None) -> int:
        """Merge by index-rank with CAS retry loop; returns the new root."""
        while True:
            rx = self.find(x, ctx)
            ry = self.find(y, ctx)
            if rx == ry:
                return rx
            # Link the higher id under the lower id (deterministic
            # index-rank linking keeps trees shallow in expectation and,
            # combined with splitting, gives the Anderson-Woll bound).
            if rx > ry:
                rx, ry = ry, rx
            if self._cas_parent(ry, ry, rx, ctx):
                # Pivot re-minimization on the winning root: a CAS-min
                # loop concurrently (load both pivots, CAS the better
                # one in).  Cost rides on the link CAS already charged;
                # the accesses are recorded as atomic events.
                px, py = self.pivot[rx], self.pivot[ry]
                observed = ctx is not None and ctx.observed
                if observed:
                    ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, rx))
                    ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, ry))
                if self._ranks[py] < self._ranks[px]:
                    self.pivot[rx] = py
                    if observed:
                        ctx.record(EV_ATOMIC_WRITE, ("ufpv", self._name, rx))
                return rx
            # CAS failed (injected or raced) -> retry from fresh roots

    def union_rows(
        self, xs: list[int], rows: list[list[int]], level: list[int],
        floor: int, ctx: ThreadContext, scan: float,
    ) -> None:
        """PHCD step 2 over one thread's slice: ``rows[j]`` is the
        adjacency row of ``xs[j]``.

        For every row: charge 1 (the row's own vertex), then for every
        ``y`` in it charge ``scan`` and, when ``level[y] >= floor``,
        ``union(x, y, ctx)``.  With an observer attached these are the
        calls made.  Unobserved, the same finds, CAS attempts (injected
        failures and retries included) and links run with the addends
        replayed on one local in per-element order: 1, then per ``y``
        ``scan`` and per attempt :data:`FIND_CHARGE` twice and the CAS
        atomic on ``("wfuf", slot)``, stored back once
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
        parent, pivot, ranks = self.parent, self.pivot, self._ranks
        fails = self._failures.fails
        contended = []
        work = ctx.work
        for x, row in zip(xs, rows):
            work += 1
            for y in row:
                work += scan
                if level[y] < floor:
                    continue
                while True:
                    # the two path-splitting finds of union(), inlined
                    rx = x
                    while parent[rx] != rx:
                        grand = parent[parent[rx]]
                        parent[rx] = grand
                        rx = grand
                    work += FIND_CHARGE
                    ry = y
                    while parent[ry] != ry:
                        grand = parent[parent[ry]]
                        parent[ry] = grand
                        ry = grand
                    work += FIND_CHARGE
                    if rx == ry:
                        break
                    if rx > ry:
                        rx, ry = ry, rx
                    # _cas_parent(ry, ry, rx)
                    self.cas_attempts += 1
                    work += 1
                    contended.append(("wfuf", ry))
                    if fails is not None and fails():
                        self.cas_failures += 1
                        continue
                    if parent[ry] != ry:
                        continue
                    parent[ry] = rx
                    px, py = pivot[rx], pivot[ry]
                    if ranks[py] < ranks[px]:
                        pivot[rx] = py
                    break
        ctx.commit_row(work, contended)

    def get_pivot(self, x: int, ctx: ThreadContext | None = None) -> int:
        """Pivot (lowest-rank member) of ``x``'s component."""
        root = self.find(x, ctx)
        if ctx is not None and ctx.observed:
            ctx.record(EV_ATOMIC_READ, ("ufpv", self._name, root))
        return self.pivot[root]

    def pivots(self, row: list[int], level: list[int], floor: int) -> list[int]:
        """Uncharged ``get_pivot`` of every ``y`` in ``row`` with
        ``level[y] >= floor``, in order, finds included."""
        parent, pivot = self.parent, self.pivot
        out = []
        for x in row:
            if level[x] < floor:
                continue
            while parent[x] != x:
                grand = parent[parent[x]]
                parent[x] = grand
                x = grand
            out.append(pivot[x])
        return out

    def same_set(self, x: int, y: int, ctx: ThreadContext | None = None) -> bool:
        """Whether ``x`` and ``y`` are connected."""
        return self.find(x, ctx) == self.find(y, ctx)

    @property
    def num_components(self) -> int:
        """Number of disjoint sets (O(n) scan; intended for tests)."""
        roots = {self.find(i) for i in range(len(self.parent))}
        return len(roots)

    def __len__(self) -> int:
        return len(self.parent)
