"""Per-thread accounting context for the simulated scheduler.

A :class:`ThreadContext` is handed to every worker function run inside
a :meth:`SimulatedPool.parallel_for` region (and to serial code via
:meth:`SimulatedPool.serial_region`).  Workers call :meth:`charge` for
ordinary operations and :meth:`atomic` for atomic read-modify-write
operations on a named shared location.  The scheduler turns the
recorded charges into simulated time; see
:mod:`repro.parallel.cost_model`.

Memory-access recording
-----------------------
When a :class:`~repro.sanitizer.detector.RaceDetector` is attached to
the pool, each context additionally records a *memory-access event
stream*: plain reads/writes (:meth:`read`, :meth:`write`) and atomic
accesses (:meth:`atomic`, :meth:`atomic_load`) on per-word location
keys.  The detector replays the stream against a vector-clock
happens-before model to flag unsynchronized conflicting accesses —
races that the deterministic sequential execution of virtual threads
would otherwise mask forever.  Recording is off by default
(``_events is None``) and costs one predicate test per charge site.

Observed and unobserved runs
----------------------------
:attr:`ThreadContext.observed` is true exactly while race recording
(:meth:`begin_recording` .. :meth:`end_recording`) or a memcheck
barrier (:meth:`set_memcheck`) is active on the context.  It is derived
from those two hooks, never configured.  The shared structures
(:mod:`repro.parallel.atomics`, :mod:`repro.unionfind`) read it to skip
building word and location keys that only an observer consumes; they
apply the same charges in the same order either way, so the sim clock
of an unobserved run is bit-identical to that of an observed one.

Four bulk calls, :meth:`ThreadContext.read_row`,
:meth:`ThreadContext.write_row`, :meth:`ThreadContext.relaxed_row` and
:meth:`ThreadContext.atomic_row`, charge a whole row or slice at once
when unobserved and make the per-element calls when observed.  Their
folded charges equal the per-element ones only in regions whose every
work addend is an integer (docs/cost_model.md, "When a bulk charge is
exact").  Slice operations over fractional charges (the union-find and
:class:`~repro.parallel.atomics.AtomicSet` slices of PHCD) instead add each
per-element addend in order to a local copy of ``work`` and store it
back with :meth:`ThreadContext.commit_row`.

The slice operations of PKC's peel (docs/cost_model.md, "Slice
operations") take a numpy path for sequences of at least
:data:`SLICE_VECTOR_MIN` elements and a Python loop below it, because
peel frontiers are often short.  Both paths charge the same; only wall
time differs.

Event kinds are small ints so hot paths append plain tuples:

========================  =====================================================
:data:`EV_READ`           plain (unsynchronized) read
:data:`EV_WRITE`          plain (unsynchronized) write
:data:`EV_ATOMIC_READ`    atomic load (relaxed/acquire read, synchronized)
:data:`EV_ATOMIC_WRITE`   atomic RMW / store / CAS (synchronized)
========================  =====================================================
"""

from __future__ import annotations

from repro.parallel.cost_model import CostModel

__all__ = [
    "ThreadContext",
    "CACHELINE_WORDS",
    "SLICE_VECTOR_MIN",
    "EV_READ",
    "EV_WRITE",
    "EV_ATOMIC_READ",
    "EV_ATOMIC_WRITE",
    "EVENT_NAMES",
    "native",
]

#: Atomic locations are coalesced at this granularity to model false
#: sharing: two threads hitting nearby array slots contend for the same
#: cache line.
CACHELINE_WORDS = 8

#: PKC's peel and the slice operations it calls
#: (:meth:`~repro.parallel.atomics.AtomicArray.load_le`,
#: :meth:`~repro.parallel.atomics.AtomicArray.add_row`) take their numpy
#: path for sequences of at least this many elements and loop in Python
#: below it, where numpy's fixed cost per call exceeds the per-element
#: work it saves (docs/cost_model.md, "Slice operations", has the
#: measured crossover).  A constant, not a parameter: both paths charge
#: the same, so it moves wall time only.
SLICE_VECTOR_MIN = 64

EV_READ = 0
EV_WRITE = 1
EV_ATOMIC_READ = 2
EV_ATOMIC_WRITE = 3

#: Human-readable names of the event kinds, indexed by kind.
EVENT_NAMES = ("read", "write", "atomic read", "atomic write")


class ThreadContext:
    """Accumulates the simulated cost of one virtual thread.

    Attributes
    ----------
    thread_id:
        Index of the virtual thread within its region (0-based).
    work:
        Ordinary work units charged so far.
    atomic_ops:
        Number of atomic operations charged so far.
    """

    __slots__ = (
        "thread_id",
        "work",
        "atomic_ops",
        "_cost",
        "_atomic_locations",
        "_events",
        "_memcheck",
        "observed",
    )

    def __init__(self, thread_id: int, cost_model: CostModel) -> None:
        self.thread_id = thread_id
        self.work = 0.0
        self.atomic_ops = 0
        self._cost = cost_model
        #: location-key -> number of atomic ops by this thread
        self._atomic_locations: dict[object, int] = {}
        #: memory-access event stream (None = recording disabled)
        self._events: list[tuple[int, object]] | None = None
        #: SimCheck read/write barrier (None = memcheck disabled).  Set
        #: by a :class:`~repro.sanitizer.memcheck.MemChecker` observer
        #: at region begin; every recorded access is then also checked
        #: *immediately* against the poisoned-allocation shadow state,
        #: so uninitialized reads and out-of-bounds indices report the
        #: exact serial order the substrate executed.  Charge-free.
        self._memcheck: object | None = None
        #: True while recording or a memcheck barrier is active; kept in
        #: step by :meth:`begin_recording`, :meth:`end_recording` and
        #: :meth:`set_memcheck`.  Read-only for everyone else.
        self.observed = False

    def charge(self, units: float = 1) -> None:
        """Charge ``units`` of ordinary work.

        The unit is one *random-access* memory operation (pointer
        chase, priority-slot update).  Sequential adjacency scans are
        cheaper per element (hardware prefetch) and charge fractional
        units; algorithm modules document their constants.
        """
        self.work += units

    def atomic(
        self,
        location: object,
        units: int = 1,
        contended: bool = True,
        word: object | None = None,
    ) -> None:
        """Charge ``units`` atomic operations on a shared ``location``.

        ``location`` is any hashable key identifying the memory being
        updated; array-based structures should coalesce indices to
        cache-line granularity (see :data:`CACHELINE_WORDS`).  The
        scheduler uses cross-thread location overlap to compute the
        region's contention penalty.

        ``contended=False`` marks commutative relaxed accumulation
        (hardware fetch-add): it pays the atomic surcharge but does not
        serialize on the critical path — only CAS-style operations
        (links, publications, insert-if-absent) queue behind each other.

        ``word`` optionally names the exact machine word for the race
        detector.  Contention is modelled at cache-line granularity
        (false sharing), but two atomics on *different* words of one
        line do not race — so detection uses the word key when given
        and falls back to ``location``.
        """
        self.atomic_ops += units
        self.work += units  # the op itself is also work
        if contended:
            self._atomic_locations[location] = (
                self._atomic_locations.get(location, 0) + units
            )
        if self._events is not None:
            self._events.append(
                (EV_ATOMIC_WRITE, location if word is None else word)
            )
        if self._memcheck is not None:
            self._memcheck.on_write_event(
                location if word is None else word, None, self.thread_id
            )

    # ------------------------------------------------------------------
    # recorded plain / atomic accesses (sanitizer-visible)
    # ------------------------------------------------------------------

    def read(self, location: object, units: float = 1.0) -> None:
        """Charge a plain read of the shared word ``location``.

        Equivalent to :meth:`charge` for the cost model, but visible to
        the race detector as an *unsynchronized* read.  Pass
        ``units=0.0`` when the surrounding code already charged the
        access and only the event matters.
        """
        self.work += units
        if self._events is not None:
            self._events.append((EV_READ, location))
        if self._memcheck is not None:
            self._memcheck.on_read_event(location, self.thread_id)

    def read_row(self, name: str, indices: list[int]) -> None:
        """Charge a plain read of ``(name, i)`` for every ``i`` in ``indices``.

        Unobserved, this is one ``len(indices)`` charge, equal to the
        per-element :meth:`read` calls while every addend of the
        region's ``work`` is an integer (docs/cost_model.md, "When a
        bulk charge is exact").  With an observer attached it makes
        those per-element calls, so the detector and memcheck see every
        word.
        """
        if self.observed:
            for i in indices:
                self.read((name, i))
        else:
            self.work += len(indices)

    def write_row(self, name: str, indices, values=None) -> None:
        """Charge a plain write of ``(name, i)`` for every ``i`` in ``indices``.

        The write counterpart of :meth:`read_row`, for slices whose
        every element owns its slot: one ``len(indices)`` charge
        unobserved, the per-element :meth:`write` calls (with native
        ints) when observed.  ``values``, when given, holds the value
        stored at each index, in order, and rides along on each
        :meth:`write` as its ``value``.
        """
        if not self.observed:
            self.work += len(indices)
        elif values is None:
            for i in native(indices):
                self.write((name, i))
        else:
            for i, value in zip(native(indices), native(values), strict=True):
                self.write((name, i), value=value)

    def write(
        self, location: object, units: float = 1.0, value: object = None
    ) -> None:
        """Charge a plain write of the shared word ``location``.

        The write itself is *not* synchronized: the detector flags it
        against any concurrent access of the same word.  Kernels use
        this for stores whose disjointness across threads is a proof
        obligation (per-item output slots, permutation scatters).

        ``value`` optionally carries the value being stored so the
        memcheck sanitizer can track numeric soundness — a non-finite
        ``value`` records the writing region/phase as the NaN origin.
        Pass it at score-producing sites; it is ignored (and free)
        when no checker is attached.
        """
        self.work += units
        if self._events is not None:
            self._events.append((EV_WRITE, location))
        if self._memcheck is not None:
            self._memcheck.on_write_event(location, value, self.thread_id)

    def atomic_load(self, location: object, units: float = 1.0) -> None:
        """Charge an atomic (synchronized) load of ``location``.

        Atomic wrappers use this for their read APIs: a relaxed atomic
        load does not pay the RMW surcharge — it costs ordinary work —
        but unlike :meth:`read` it never races with atomic writes.
        """
        self.work += units
        if self._events is not None:
            self._events.append((EV_ATOMIC_READ, location))
        if self._memcheck is not None:
            self._memcheck.on_read_event(location, self.thread_id)

    def atomic_row(self, name: str, indices: list[int]) -> None:
        """Charge one contended atomic on ``(name, i)`` per ``i`` in ``indices``.

        The same charges as ``atomic((name, i // CACHELINE_WORDS),
        word=(name, i))`` per index, the key
        :meth:`AtomicArray.compare_and_swap
        <repro.parallel.atomics.AtomicArray.compare_and_swap>` uses.
        Unobserved, ``atomic_ops`` and ``work`` grow by ``len(indices)``
        at once and each index's cache line is tallied in order, so the
        location histogram is the per-element one.  With an observer
        attached it makes the per-element calls.
        """
        if self.observed:
            for i in indices:
                self.atomic((name, i // CACHELINE_WORDS), word=(name, i))
            return
        self.atomic_ops += len(indices)
        self.work += len(indices)
        locations = self._atomic_locations
        for i in indices:
            key = (name, i // CACHELINE_WORDS)
            locations[key] = locations.get(key, 0) + 1

    def relaxed_row(self, prefix: tuple, suffixes) -> None:
        """Charge one uncontended atomic on ``prefix + (s,)`` per ``s``.

        The same charges as ``atomic(prefix + (s,), contended=False)``
        per element (an append to a per-thread buffer, a relaxed
        fetch-add): unobserved, ``atomic_ops`` and ``work`` grow by
        ``len(suffixes)`` at once and no key is built; with an observer
        attached it makes the per-element calls.
        """
        if self.observed:
            for s in native(suffixes):
                self.atomic(prefix + (s,), contended=False)
            return
        self.atomic_ops += len(suffixes)
        self.work += len(suffixes)

    def commit_row(self, work: float, contended: list) -> None:
        """Store back the charges a row operation replayed on locals.

        ``work`` is the new running total: the row operation copied
        :attr:`work` to a local and added the same addends, in the same
        order, as the per-element calls it stands for, so the float64
        sum rounds identically (docs/cost_model.md, "Replaying a
        fractional row").  ``contended`` lists the location key of every
        contended atomic it charged, in charge order; each counts one
        atomic op and is tallied as :meth:`atomic` would.  The atomic's
        own work unit must already be in ``work``.  Unobserved runs
        only: with an observer attached, row and slice operations make
        the per-element calls instead.
        """
        self.work = work
        self.atomic_ops += len(contended)
        locations = self._atomic_locations
        for key in contended:
            locations[key] = locations.get(key, 0) + 1

    def record(self, kind: int, location: object) -> None:
        """Append a raw access event without charging.

        For structures whose cost is charged at a flat amortized rate
        (union-find's ``FIND_CHARGE``) but whose individual slot
        accesses must still reach the detector.
        """
        if self._events is not None:
            self._events.append((kind, location))
        if self._memcheck is not None:
            if kind in (EV_WRITE, EV_ATOMIC_WRITE):
                self._memcheck.on_write_event(location, None, self.thread_id)
            else:
                self._memcheck.on_read_event(location, self.thread_id)

    def begin_recording(self) -> None:
        """Start (or reset) memory-access event recording."""
        self._events = []
        self.observed = True

    def end_recording(self) -> list[tuple[int, object]]:
        """Stop recording and return the event stream."""
        events = self._events or []
        self._events = None
        self.observed = self._memcheck is not None
        return events

    def set_memcheck(self, checker: object | None) -> None:
        """Install (or, with ``None``, remove) the memcheck barrier."""
        self._memcheck = checker
        self.observed = checker is not None or self._events is not None

    @property
    def events(self) -> list[tuple[int, object]]:
        """Recorded ``(kind, location)`` events (empty when disabled)."""
        return self._events if self._events is not None else []

    @property
    def local_time(self) -> float:
        """Simulated time of this thread, excluding contention effects."""
        return (
            self.work * self._cost.op_cost
            + self.atomic_ops * self._cost.atomic_cost
        )

    @property
    def atomic_locations(self) -> dict[object, int]:
        """Read-only view of this thread's atomic-location histogram."""
        return self._atomic_locations

    def __repr__(self) -> str:
        return (
            f"ThreadContext(t={self.thread_id}, work={self.work}, "
            f"atomics={self.atomic_ops})"
        )


def native(items):
    """``items`` as a sequence of Python ints: numpy arrays become lists
    (one C-level conversion), lists and ranges pass through."""
    return items.tolist() if hasattr(items, "tolist") else items
