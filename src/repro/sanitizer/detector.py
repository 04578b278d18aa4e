"""Dynamic happens-before race detector for the simulated substrate.

:class:`RaceDetector` attaches to a
:class:`~repro.parallel.scheduler.SimulatedPool` as its region
observer.  At ``on_region_begin`` it turns on event recording for
every :class:`~repro.parallel.context.ThreadContext`; at
``on_region_end`` — the barrier, and therefore the only
happens-before edge the substrate has — it drains the per-thread
event streams and checks every location touched by more than one
virtual thread for unsynchronized conflicting access.

Two accesses to the same word *conflict* when at least one is a write
and they come from different virtual threads whose epochs are
concurrent under the vector-clock model
(:mod:`repro.sanitizer.vectorclock`).  A conflict is a **race** unless
both accesses are atomic.  Mixed pairs — a plain read against an
atomic write, or a plain write against anything — are races, matching
ThreadSanitizer's treatment: an ``Atomic*`` wrapper on one side does
not license a bare ``.data`` access on the other.

What a *simulated* race means: the virtual threads run sequentially,
so the racy execution always produces the serial result here.  On real
hardware the same access pattern is undefined behaviour — torn
reads, lost updates, or worse.  The detector exists precisely because
the substrate can never surface those outcomes at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.context import (
    EV_ATOMIC_READ,
    EV_ATOMIC_WRITE,
    EV_READ,
    EV_WRITE,
    EVENT_NAMES,
    ThreadContext,
)
from repro.sanitizer.vectorclock import VectorClock

__all__ = ["RaceDetector", "RaceReport"]

# Per-location, per-thread access masks.
_PR = 1  # plain read
_PW = 2  # plain write
_AR = 4  # atomic read
_AW = 8  # atomic write

_KIND_TO_BIT = {EV_READ: _PR, EV_WRITE: _PW, EV_ATOMIC_READ: _AR, EV_ATOMIC_WRITE: _AW}
_SYNCED = _AR | _AW


def _mask_names(mask: int) -> str:
    parts = []
    for bit, kind in ((_PR, EV_READ), (_PW, EV_WRITE), (_AR, EV_ATOMIC_READ), (_AW, EV_ATOMIC_WRITE)):
        if mask & bit:
            parts.append(EVENT_NAMES[kind])
    return "+".join(parts)


@dataclass(frozen=True)
class RaceReport:
    """One unsynchronized conflicting access pair.

    Attributes
    ----------
    location:
        The word-granular location key both threads touched.
    region:
        Label of the ``parallel_for`` region the race occurred in.
    region_index:
        Ordinal of that region within the detector's watch (regions
        with the same label are distinguished by this).
    thread_a, thread_b:
        The two virtual-thread ids involved (``thread_a < thread_b``).
    access_a, access_b:
        Human-readable access summaries, e.g. ``"write"`` or
        ``"read+write"``.
    """

    location: object
    region: str
    region_index: int
    thread_a: int
    thread_b: int
    access_a: str
    access_b: str

    def __str__(self) -> str:
        return (
            f"RACE on {self.location!r} in region {self.region!r} "
            f"(#{self.region_index}): thread {self.thread_a} "
            f"[{self.access_a}] vs thread {self.thread_b} [{self.access_b}]"
        )


class RaceDetector:
    """Region observer implementing happens-before race detection.

    Usage::

        detector = RaceDetector()
        with detector.watch(pool):
            run_kernel(pool, ...)
        for race in detector.races:
            print(race)

    The detector deduplicates: each ``(location, region label,
    thread pair)`` is reported once per watch.
    """

    def __init__(self) -> None:
        self.races: list[RaceReport] = []
        self.regions_checked = 0
        self.events_seen = 0
        self._pool = None
        self._seen: set[tuple] = set()
        self._main_clock: VectorClock | None = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, pool) -> None:
        """Install this detector as ``pool``'s region observer."""
        pool.set_observer(self)
        self._pool = pool
        self._main_clock = None

    def detach(self) -> None:
        """Remove the detector from its pool."""
        if self._pool is not None and self._pool.observer is self:
            self._pool.set_observer(None)
        self._pool = None

    def watch(self, pool):
        """Context manager attaching for the duration of a block."""
        detector = self

        class _Watch:
            def __enter__(self):
                detector.attach(pool)
                return detector

            def __exit__(self, *exc):
                detector.detach()
                return False

        return _Watch()

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------

    def on_region_begin(self, label: str, contexts: list[ThreadContext]) -> None:
        for ctx in contexts:
            ctx.begin_recording()

    def on_region_end(self, label: str, contexts: list[ThreadContext]) -> None:
        self.regions_checked += 1
        n = len(contexts)
        if self._main_clock is None or self._main_clock.width < n:
            # widen lazily; old components carry over ordering
            widened = VectorClock(n)
            if self._main_clock is not None:
                for i in range(self._main_clock.width):
                    widened._c[i] = self._main_clock[i]
            self._main_clock = widened
        main = self._main_clock
        epochs = [main.copy().tick(t) for t in range(n)]

        # location -> {thread_id: access mask}
        by_location: dict[object, dict[int, int]] = {}
        for ctx in contexts:
            events = ctx.end_recording()
            self.events_seen += len(events)
            t = ctx.thread_id
            for kind, loc in events:
                threads = by_location.get(loc)
                if threads is None:
                    threads = by_location.setdefault(loc, {})
                threads[t] = threads.get(t, 0) | _KIND_TO_BIT[kind]

        for loc, threads in by_location.items():
            if len(threads) < 2:
                continue
            items = sorted(threads.items())
            for i in range(len(items)):
                ta, ma = items[i]
                for j in range(i + 1, len(items)):
                    tb, mb = items[j]
                    if not epochs[ta].concurrent_with(epochs[tb]):
                        continue  # ordered by happens-before: no race
                    if not self._conflicts(ma, mb):
                        continue
                    key = (loc, label, ta, tb)
                    if key in self._seen:
                        continue
                    self._seen.add(key)
                    self.races.append(
                        RaceReport(
                            location=loc,
                            region=label,
                            region_index=self.regions_checked - 1,
                            thread_a=ta,
                            thread_b=tb,
                            access_a=_mask_names(ma),
                            access_b=_mask_names(mb),
                        )
                    )

        # the barrier: every epoch joins back into the main clock, so
        # all accesses of later regions are ordered after this one
        for epoch in epochs:
            main.join(epoch)

    # ------------------------------------------------------------------

    @staticmethod
    def _conflicts(ma: int, mb: int) -> bool:
        """Unsynchronized conflicting access between two masks?

        At least one side writes, and at least one of the involved
        accesses is plain.  All-atomic pairs are synchronized by the
        wrappers; plain-read vs plain-read is harmless.
        """
        a_plain = ma & (_PR | _PW)
        b_plain = mb & (_PR | _PW)
        # plain write vs any access on the other side
        if (ma & _PW) and mb:
            return True
        if (mb & _PW) and ma:
            return True
        # plain read vs (atomic or plain) write on the other side
        if a_plain & _PR and mb & (_AW | _PW):
            return True
        if b_plain & _PR and ma & (_AW | _PW):
            return True
        return False

    def summary(self) -> str:
        """One-line human summary of the watch."""
        return (
            f"{self.regions_checked} regions, {self.events_seen} events, "
            f"{len(self.races)} race(s)"
        )
