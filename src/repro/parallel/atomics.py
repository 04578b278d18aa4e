"""Atomic data structures on the simulated cost model.

These wrappers execute ordinary Python/numpy updates while charging
atomic operations to the active :class:`ThreadContext`, so the
scheduler can model contention.  Because virtual threads run one after
another, the updates themselves need no real synchronization — the
charge is the point.

Location keys coalesce array indices to cache-line granularity
(:data:`~repro.parallel.context.CACHELINE_WORDS`) so nearby slots
contend, modelling false sharing.  Race-detection events use the
*word*-granular key instead: two atomics on different words of one
cache line contend but do not race.

Sanitizer contract
------------------
Every access that goes through a method taking a ``ctx`` is recorded
as a *synchronized* (atomic) access and can never be flagged by the
race detector.  The bare ``.data`` / ``.value`` escape hatches exist
for **post-region inspection only**: inside a parallel region they are
uncharged, invisible to the detector, and — on a real machine — racy.
The static lint pass (:mod:`repro.sanitizer.lint`) flags them inside
worker bodies; kernels use :meth:`AtomicArray.load` /
:meth:`AtomicCounter.load` instead.

Word keys and uncontended location keys feed only the observers, so
they are built only while ``ctx.observed`` is true.  Contended location
keys are always built: cross-thread overlap on them is part of the
sim clock (the contention penalty).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.context import (
    CACHELINE_WORDS,
    SLICE_VECTOR_MIN,
    ThreadContext,
    native,
)
from repro.parallel.cost_model import FIND_CHARGE

__all__ = [
    "AtomicCounter",
    "AtomicArray",
    "AtomicSet",
    "AtomicList",
    "PROBE_CHARGE",
    "reached",
]

#: Work units of :meth:`AtomicSet.add_if_absent`'s membership probe.
PROBE_CHARGE = 0.3


class AtomicCounter:
    """A shared integer supporting ``fetch_add`` (one contended location)."""

    __slots__ = ("_value", "_key")

    def __init__(self, initial: int = 0, name: str = "counter") -> None:
        self._value = int(initial)
        self._key = ("ctr", name)

    def fetch_add(self, ctx: ThreadContext, delta: int = 1) -> int:
        """Atomically add ``delta``; return the previous value.

        Modelled as a hardware fetch-add (no CAS retry serialization).
        """
        ctx.atomic(self._key, contended=False)
        old = self._value
        self._value += delta
        return old

    def load(self, ctx: ThreadContext) -> int:
        """Charged atomic load of the current value.

        The in-region read API: one work unit, recorded as a
        synchronized read so the detector can pair it against
        concurrent ``fetch_add`` traffic without flagging a race.
        """
        ctx.atomic_load(self._key)
        return self._value

    @property
    def value(self) -> int:
        """Current value — uncharged, for *post-region inspection only*."""
        return self._value


class AtomicArray:
    """A numpy array with atomically-charged element updates."""

    __slots__ = ("_data", "_slots", "_name")

    def __init__(self, size: int, dtype: type = np.int64, name: str = "arr") -> None:
        self.data = np.zeros(size, dtype=dtype)
        self._name = name

    @property
    def data(self) -> np.ndarray:
        """The backing array — uncharged, for *post-region inspection only*."""
        return self._data

    @data.setter
    def data(self, array: np.ndarray) -> None:
        self._data = array
        # native-value element access for load and the row operations
        self._slots = memoryview(array)

    @classmethod
    def from_array(cls, data: np.ndarray, name: str = "arr") -> "AtomicArray":
        """Wrap an existing 1-D array *without copying*.

        The wrapper and the caller share the buffer: kernels use this
        to give charged, detector-visible atomic access to state that
        another component owns (e.g. PHCD publishing tree-node ids
        into the builder's ``tid`` array).
        """
        arr = cls.__new__(cls)
        arr.data = data
        arr._name = name
        return arr

    def _key(self, index: int) -> tuple[str, int]:
        """Cache-line-coalesced contention key (false sharing)."""
        return (self._name, index // CACHELINE_WORDS)

    def _word(self, index: int) -> tuple[str, int]:
        """Exact-word key used for race detection."""
        return (self._name, int(index))

    def _observed_word(self, ctx: ThreadContext, index: int):
        """:meth:`_word` when an observer is attached, else ``None``."""
        return (self._name, int(index)) if ctx.observed else None

    def add(self, ctx: ThreadContext, index: int, delta):
        """Atomic ``data[index] += delta`` (relaxed fetch-add).

        Returns the *previous* value — real parallel peeling code must
        branch on the fetch-add result, never on a later raw re-read
        of the slot (which would race with other decrements).
        """
        if ctx.observed:
            ctx.atomic(self._key(index), contended=False, word=self._word(index))
        else:
            ctx.atomic(None, contended=False)
        data = self._data
        old = data[index]
        data[index] = old + delta
        return old

    def store(self, ctx: ThreadContext, index: int, value) -> None:
        """Atomic ``data[index] = value`` (publication, contends)."""
        ctx.atomic(self._key(index), word=self._observed_word(ctx, index))
        self._data[index] = value

    def compare_and_swap(
        self, ctx: ThreadContext, index: int, expected, value
    ) -> bool:
        """CAS: write ``value`` iff the slot holds ``expected``."""
        ctx.atomic(self._key(index), word=self._observed_word(ctx, index))
        if self._data[index] == expected:
            self._data[index] = value
            return True
        return False

    def claim(self, ctx: ThreadContext, indices: list[int]) -> list[int]:
        """Bulk test-and-test-and-set ``0 -> 1``: per index in order, a
        :meth:`load`, then ``compare_and_swap(ctx, i, 0, 1)`` only if it
        read 0.

        Returns the indices this call flipped, in order.  Every index
        pays one load (one ``len(indices)`` work charge, or one atomic
        load event each while an observer is attached); only the
        indices that read 0 pay the contended atomic, on the keys
        :meth:`compare_and_swap` uses, through one
        :meth:`ThreadContext.atomic_row` call.  A slot another thread
        already claimed costs a read, never a contended CAS.
        """
        slots = self._slots
        claimed = []
        for i in indices:
            if slots[i] == 0:
                slots[i] = 1
                claimed.append(i)
        if ctx.observed:
            for i in indices:
                ctx.atomic_load((self._name, i))
        else:
            ctx.work += len(indices)  # all that the loads do unobserved
        ctx.atomic_row(self._name, claimed)
        return claimed

    def fetch_min(self, ctx: ThreadContext, index: int, value):
        """Atomic ``data[index] = min(data[index], value)``; returns old.

        Modelled as the usual load + CAS-min loop: an improving value
        pays one contended CAS, a non-improving one only the load.  On
        the sequential substrate the CAS succeeds on the first try.
        """
        old = self._data[index]
        if value < old:
            ctx.atomic(self._key(index), word=self._observed_word(ctx, index))
            self._data[index] = value
        else:
            ctx.atomic_load(self._observed_word(ctx, index))
        return old

    def fetch_min_many(self, ctx: ThreadContext, indices, values) -> None:
        """:meth:`fetch_min` of ``values[j]`` at ``indices[j]`` for every
        ``j``, in order; the old values are not returned.

        A slice's min-folds whose results nobody reads.  Unobserved, the
        loads are one ``len(indices)`` charge, exact while every addend
        of the region's ``work`` is an integer, and each improving value
        adds one atomic op and tallies its cache line in order, as the
        per-element CAS does.  "Improving" is ``value < slot``, as in
        :meth:`fetch_min`: NaN never wins and the first stored of
        ``0.0``/``-0.0`` stays.  At least :data:`SLICE_VECTOR_MIN`
        indices take the vectorized prefix-record fold
        (:func:`_ordered_min`).  With an observer attached it makes the
        per-element :meth:`fetch_min` calls.
        """
        if ctx.observed:
            for i, value in zip(native(indices), native(values)):
                self.fetch_min(ctx, i, value)
            return
        name = self._name
        if len(indices) >= SLICE_VECTOR_MIN:
            lines, counts = _ordered_min(self._data, indices, values)
            ctx.commit_row(
                ctx.work + len(indices),
                [(name, line) for line in lines],
                counts,
            )
            return
        data, slots = self._data, self._slots
        contended = []
        for i, value in zip(native(indices), native(values)):
            if value < slots[i]:
                data[i] = value
                contended.append((name, i // CACHELINE_WORDS))
        ctx.commit_row(ctx.work + len(indices), contended)

    def fetch_add_row(self, ctx: ThreadContext, indices, delta: int):
        """:meth:`add` of ``delta`` at every index in order; returns each
        fetch-add's previous value, in order.

        ``indices`` is one row or a whole slice's rows (a list or an
        int64 array); the array must hold integers, and ``delta`` is an
        int.  The results are a list, or an int64 array from
        :data:`SLICE_VECTOR_MIN` indices up, where the vectorized
        ordered fetch-add (:func:`_ordered_add`) runs.  Unobserved, the
        ``len(indices)`` relaxed atomics are one charge, equal to the
        per-element ones while every addend of the region's ``work`` is
        an integer (docs/cost_model.md, "When a bulk charge is exact").
        With an observer attached it makes the per-element :meth:`add`
        calls.
        """
        if ctx.observed:
            return [self.add(ctx, i, delta) for i in native(indices)]
        # all that atomic(None, units=len(indices), contended=False)
        # does with no observer
        ctx.atomic_ops += len(indices)
        ctx.work += len(indices)
        if len(indices) >= SLICE_VECTOR_MIN:
            return _ordered_add(self._data, indices, delta)
        slots = self._slots
        olds = []
        for i in native(indices):
            old = slots[i]
            slots[i] = old + delta
            olds.append(old)
        return olds

    def add_row(
        self, ctx: ThreadContext, indices, delta: int, hit: int
    ) -> list[int]:
        """:meth:`fetch_add_row`, returning only the indices whose
        fetch-add result reached ``hit`` (``old + delta == hit``), in
        order: the handoffs of a level-synchronous peel, decided on the
        fetch-add results, never on a re-read of the slots.
        """
        olds = self.fetch_add_row(ctx, indices, delta)
        return reached(indices, olds, hit - delta)

    def load_le(self, ctx: ThreadContext, indices, bound) -> list[int]:
        """:meth:`load` of every index in order; returns the indices
        whose value is at most ``bound``, in order.

        The seed scan of a level-synchronous peel over one thread's
        slice (a list or an int64 array).  Unobserved, the loads are one
        ``len(indices)`` charge, exact while every addend of the
        region's ``work`` is an integer, and at least
        :data:`SLICE_VECTOR_MIN` indices select with one numpy mask.
        With an observer attached it makes the per-element :meth:`load`
        calls.
        """
        if ctx.observed:
            return [i for i in native(indices) if self.load(ctx, i) <= bound]
        ctx.work += len(indices)
        if len(indices) >= SLICE_VECTOR_MIN:
            idx = np.asarray(indices, dtype=np.int64)
            return idx[self._data[idx] <= bound].tolist()
        slots = self._slots
        return [i for i in native(indices) if slots[i] <= bound]

    def add_many(self, ctx: ThreadContext, indices, values) -> None:
        """:meth:`add` of ``values[j]`` at ``indices[j]`` for every ``j``,
        in order.

        A slice's relaxed fetch-adds whose results nobody reads.
        Unobserved, the atomics are one ``len(indices)`` charge, exact
        while every addend of the region's ``work`` is an integer, and
        one ``np.add.at``, which adds element by element in index order,
        so even a float slot receives its addends in the per-element
        order.  With an observer attached it makes the per-element
        :meth:`add` calls.
        """
        if ctx.observed:
            for i, value in zip(native(indices), native(values)):
                self.add(ctx, i, value)
            return
        ctx.atomic_ops += len(indices)
        ctx.work += len(indices)
        np.add.at(
            self._data, np.asarray(indices, dtype=np.int64), np.asarray(values)
        )

    def load(self, ctx: ThreadContext, index: int):
        """Charged atomic load of ``data[index]`` (one work unit), as a
        native Python value."""
        if ctx.observed:
            ctx.atomic_load((self._name, int(index)))
        else:
            ctx.work += 1.0  # all that atomic_load does with no observer
        return self._slots[index]

    def __len__(self) -> int:
        return int(self._data.size)


class AtomicSet:
    """A shared set with atomic add-if-absent (PHCD's ``kpc_pivot``).

    The paper's line "atomic add pvt to kpc_pivot if not exists"
    (Algorithm 2, line 9) maps to :meth:`add_if_absent`.  Every add
    hits the same hash-bucket location derived from the element, so
    different elements mostly avoid contention while duplicate inserts
    collide — matching a concurrent hash set.
    """

    __slots__ = ("_items", "_name", "_buckets")

    def __init__(self, name: str = "set", buckets: int = 64) -> None:
        self._items: set = set()
        self._name = name
        self._buckets = buckets

    def add_if_absent(self, ctx: ThreadContext, item) -> bool:
        """Insert ``item``; return True when it was not present.

        An atomic probe precedes the insert (check-then-CAS), so
        repeated inserts of an existing element cost one read and never
        contend — only the first insertion of each element pays the CAS.
        The probe and the insert are both keyed by the item identity,
        so two threads racing on the *same* element pair as atomic
        read vs. atomic write (synchronized, as in a concurrent set).
        """
        word = ("setitem", self._name, item) if ctx.observed else None
        ctx.atomic_load(word, units=PROBE_CHARGE)
        if item in self._items:
            return False
        ctx.atomic((self._name, hash(item) % self._buckets), word=word)
        self._items.add(item)
        return True

    def add_pivots(
        self, ctx: ThreadContext, uf, rows: list[list[int]],
        level: list[int], floor: int, scan: float,
    ) -> None:
        """PHCD step 1 over one thread's slice of adjacency rows.

        For every row: charge 1 (the row's own vertex), then for every
        ``y`` in it charge ``scan`` and, when ``level[y] >= floor``,
        ``add_if_absent(ctx, uf.get_pivot(y, ctx))``.  ``uf`` is either
        pivot union-find engine.  With an observer attached these are
        the calls made.  Unobserved, the pivots come from one uncharged
        ``uf.pivots`` call over the concatenated rows (the same finds in
        the same order) and the addends are replayed on one local in
        per-element order: 1, then per ``y`` ``scan``, :data:`FIND_CHARGE`,
        :data:`PROBE_CHARGE` and the bucket CAS of a new pivot, stored
        back once (:meth:`ThreadContext.commit_row`).
        """
        if ctx.observed:
            for row in rows:
                ctx.charge(1)
                for y in row:
                    ctx.charge(scan)
                    if level[y] >= floor:
                        self.add_if_absent(ctx, uf.get_pivot(y, ctx))
            return
        pivots = iter(uf.pivots([y for row in rows for y in row], level, floor))
        items, name, buckets = self._items, self._name, self._buckets
        contended = []
        work = ctx.work
        for row in rows:
            work += 1
            for y in row:
                work += scan
                if level[y] >= floor:
                    pvt = next(pivots)
                    work += FIND_CHARGE
                    work += PROBE_CHARGE
                    if pvt not in items:
                        work += 1
                        contended.append((name, hash(pvt) % buckets))
                        items.add(pvt)
        ctx.commit_row(work, contended)

    def __contains__(self, item) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        # Deterministic iteration order regardless of insertion pattern.
        return iter(sorted(self._items))


def _ordered_add(data: np.ndarray, indices, delta: int) -> np.ndarray:
    """``data[i] += delta`` for every ``i`` in ``indices``, in order, on an
    integer array; returns each entry's previous value, in order.

    The ``j``-th occurrence of an index (from 0) finds its start value
    plus ``j * delta``, which integer arithmetic makes exact whatever
    the grouping.
    """
    idx = np.asarray(indices, dtype=np.int64)
    order = np.argsort(idx, kind="stable")
    grouped = idx[order]
    first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
    positions = np.arange(grouped.size)
    # occurrence number of each entry among the entries of its index
    seen = positions - np.maximum.accumulate(np.where(first, positions, 0))
    olds = np.zeros(idx.size, dtype=data.dtype)
    olds[order] = data[grouped] + seen * delta
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, grouped.size))
    data[grouped[starts]] += counts * delta
    return olds


def reached(indices, olds, value) -> list[int]:
    """The entries of ``indices`` whose fetch-add found ``value``
    (``olds`` as :meth:`AtomicArray.fetch_add_row` returns them), in
    order, as native ints."""
    if isinstance(olds, np.ndarray):
        return np.asarray(indices)[olds == value].tolist()
    return [i for i, old in zip(native(indices), olds) if old == value]


def _ordered_min(
    data: np.ndarray, indices, values
) -> tuple[list[int], list[int]]:
    """``data[i] = min(data[i], v)`` for every ``(i, v)`` pair, in order,
    with the per-element test ``v < data[i]``; returns the cache lines
    of the improving pairs with their counts, in first-appearance order.

    Pair ``j`` improves iff its value is below the slot's start value
    and below every earlier non-NaN value aimed at that slot: after one
    sort by (slot, value, position) those are the entries whose
    position is a running minimum within their slot (NaN sorts last,
    so it never blocks one).  The value a slot ends with is its last
    improving one, which is the first of its group in that order; it is
    stored once per slot, with its own bits.
    """
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(values)
    size = idx.size
    # rank by (value, position): a stable sort keeps equal values
    # (0.0 and -0.0 among them) in position order and puts NaN last
    rank = np.zeros(size, dtype=np.int64)
    rank[np.argsort(vals, kind="stable")] = np.arange(size)
    order = np.argsort(idx * size + rank)
    grouped = idx[order]
    first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
    # keys ascend with the group, and within one they fall as the
    # position grows: a running maximum marks the prefix records
    keys = np.cumsum(first) * (size + 1) + (size - order)
    record = keys == np.maximum.accumulate(keys)
    record &= vals[order] < data[grouped]
    improving = np.sort(order[record])
    store = order[first & record]
    data[idx[store]] = vals[store]
    lines, at, counts = np.unique(
        idx[improving] // CACHELINE_WORDS, return_index=True, return_counts=True
    )
    seen = np.argsort(at)
    return lines[seen].tolist(), counts[seen].tolist()


class AtomicList:
    """A shared append-only list (atomic tail pointer)."""

    __slots__ = ("_items", "_key")

    def __init__(self, name: str = "list") -> None:
        self._items: list = []
        self._key = ("lst", name)

    def append(self, ctx: ThreadContext, item) -> None:
        """Atomically append ``item``."""
        ctx.atomic(self._key)
        self._items.append(item)

    def append_row(self, ctx: ThreadContext, items: list) -> None:
        """:meth:`append` of every item, in order.

        Unobserved, the ``len(items)`` contended atomics on the tail
        pointer are one charge and one tally of its key, exact while
        every addend of the region's ``work`` is an integer; with an
        observer attached it makes the per-element calls.
        """
        if ctx.observed:
            for item in items:
                self.append(ctx, item)
        elif items:
            ctx.commit_row(ctx.work + len(items), [self._key], [len(items)])
            self._items.extend(items)

    def snapshot(self) -> list:
        """Copy of the current contents."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)
