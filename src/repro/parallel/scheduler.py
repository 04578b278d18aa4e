"""Deterministic simulated-multicore scheduler.

:class:`SimulatedPool` is the execution substrate substituting for the
paper's 40-core OpenMP environment (see DESIGN.md Section 1).  Worker
code runs *for real* — results are exactly what a serial execution
produces — while a simulated clock advances according to the cost model:

* a ``parallel_for`` region partitions its items over ``threads``
  virtual threads, runs each partition, and advances the clock by the
  *maximum* per-thread cost plus spawn/barrier overhead and a
  contention penalty for atomics on shared locations;
* a ``serial_region`` advances the clock by exactly the work charged.

Because the virtual threads are executed one after another in a fixed
order, every run is deterministic: algorithms must therefore be written
so that their *output* does not depend on interleaving (the same
property the paper's lock-free algorithms guarantee), and the test
suite verifies output equality across thread counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import SchedulerError
from repro.parallel.context import ThreadContext
from repro.parallel.cost_model import (
    BARRIER_COST,
    CONTENDED_ATOMIC_COST,
    SPAWN_COST,
    ordered_sum,
)

__all__ = ["SimulatedPool", "RegionStats", "contended_locations"]

T = TypeVar("T")
R = TypeVar("R")


def contended_locations(
    contexts: Sequence[ThreadContext],
) -> dict[object, tuple[int, int]]:
    """Per-location ``(ops, queued)`` of a region's queueing atomics.

    For each location, the ops issued beyond the single busiest
    thread's share must queue behind it; each queued op costs
    ``CONTENDED_ATOMIC_COST`` on the region's critical path.  Only a
    location hit by more than one thread queues, so the map holds
    exactly the locations with ``queued > 0``.
    """
    if len(contexts) <= 1:
        return {}
    totals: dict[object, int] = {}
    maxima: dict[object, int] = {}
    for ctx in contexts:
        for loc, ops in ctx.atomic_locations.items():
            totals[loc] = totals.get(loc, 0) + ops
            if ops > maxima.get(loc, 0):
                maxima[loc] = ops
    return {
        loc: (total, total - maxima[loc])
        for loc, total in totals.items()
        if total > maxima[loc]
    }


class RegionStats:
    """Accounting record of one completed parallel region."""

    __slots__ = (
        "label",
        "threads",
        "items",
        "work_total",
        "work_max",
        "atomic_ops",
        "contention_penalty",
        "elapsed",
        "kind",
    )

    def __init__(
        self,
        label: str,
        threads: int,
        items: int,
        work_total: int,
        work_max: int,
        atomic_ops: int,
        contention_penalty: float,
        elapsed: float,
        kind: str = "parallel",
    ) -> None:
        self.label = label
        self.threads = threads
        self.items = items
        self.work_total = work_total
        self.work_max = work_max
        self.atomic_ops = atomic_ops
        self.contention_penalty = contention_penalty
        self.elapsed = elapsed
        self.kind = kind

    def __repr__(self) -> str:
        return (
            f"RegionStats({self.label!r}, p={self.threads}, items={self.items}, "
            f"work={self.work_total}, elapsed={self.elapsed:.0f})"
        )


class SimulatedPool:
    """A pool of ``threads`` virtual threads with a simulated clock.

    Parameters
    ----------
    threads:
        Number of virtual threads; 1 reproduces serial execution (plus
        region overheads, as a real 1-thread OpenMP run would pay).

    The constants converting charges to simulated time are fixed in
    :mod:`repro.parallel.cost_model`.
    """

    def __init__(self, threads: int = 1) -> None:
        if threads < 1:
            raise SchedulerError(f"threads must be >= 1, got {threads}")
        self.threads = int(threads)
        self._clock = 0.0
        self._regions: list[RegionStats] = []
        self._in_region = False
        self._observer: object | None = None
        self._phase_stack: list[str] = []

    # ------------------------------------------------------------------
    # observation (race detection / tracing)
    # ------------------------------------------------------------------

    def set_observer(self, observer: object | None) -> None:
        """Install a region observer (e.g. a sanitizer race detector).

        The observer receives ``on_region_begin(label, contexts)``
        before any worker runs (typically enabling event recording on
        each :class:`ThreadContext`) and ``on_region_end(label,
        contexts)`` after the region's accounting closes — the barrier
        point, and therefore the happens-before synchronization edge.
        Pass ``None`` to detach.
        """
        self._observer = observer

    @property
    def observer(self) -> object | None:
        """The attached region observer, or ``None``."""
        return self._observer

    # ------------------------------------------------------------------
    # phases (profiling attribution)
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Group subsequent regions under a named algorithm phase.

        Phases are *attribution only*: they never charge the clock.
        Kernels annotate their rounds (``phcd:level-3``, ``pbks:score``)
        so that a profiling observer (SimProf's
        :class:`~repro.profiler.tracer.SpanTracer`) can nest region
        records under algorithm structure.  Phases nest; regions opened
        inside run under the innermost phase.  With no observer
        attached the body costs one list append/pop.

        An observer providing ``on_phase_begin(name)`` /
        ``on_phase_end(name)`` is notified at the boundaries; observers
        without those hooks (e.g. the race detector) are unaffected.
        """
        if self._in_region:
            raise SchedulerError("cannot open a phase inside a region")
        self._phase_stack.append(str(name))
        observer = self._observer
        if observer is not None:
            hook = getattr(observer, "on_phase_begin", None)
            if hook is not None:
                hook(name)
        try:
            yield
        finally:
            # reset() inside the block clears the stack; don't over-pop
            if self._phase_stack:
                self._phase_stack.pop()
            observer = self._observer
            if observer is not None:
                hook = getattr(observer, "on_phase_end", None)
                if hook is not None:
                    hook(name)

    @property
    def phase_stack(self) -> tuple[str, ...]:
        """The currently open phases, outermost first."""
        return tuple(self._phase_stack)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Total simulated time elapsed on this pool."""
        return self._clock

    @property
    def regions(self) -> list[RegionStats]:
        """Accounting records of every completed region, in order."""
        return list(self._regions)

    @property
    def region_count(self) -> int:
        """``len(regions)`` without copying the record list."""
        return len(self._regions)

    def work_since(self, cursor: int, start: float) -> float:
        """``start`` plus the work units of every region from ``cursor``.

        A region's work units are its charges plus its atomic ops; they
        are partition-independent, so the result is bit-identical at
        every thread count.  Regions are added one at a time in log
        order (a pre-summed cost can differ from that float sum in the
        last bit), walking the log in place from ``cursor``, a
        :attr:`region_count` taken earlier.
        """
        regions = self._regions
        for index in range(cursor, len(regions)):
            stats = regions[index]
            start += stats.work_total + stats.atomic_ops
        return start

    @property
    def last_region(self) -> RegionStats | None:
        """The most recently completed region's record, or ``None``."""
        return self._regions[-1] if self._regions else None

    def reset(self, detach_observer: bool = True) -> None:
        """Restore the pool to construction state.

        Zeroes the clock, drops region records, clears any open phase
        stack, and — by default — detaches the region observer, so a
        reused pool cannot silently keep stale tracer/sanitizer state
        (an observer attached before ``reset()`` would otherwise keep
        receiving events and mixing runs).  Pass
        ``detach_observer=False`` to deliberately keep an observer
        across runs, e.g. to accumulate race reports over several
        workloads.
        """
        self._clock = 0.0
        self._regions = []
        self._in_region = False
        self._phase_stack = []
        if detach_observer:
            self._observer = None

    def mark(self) -> float:
        """Current clock value, for phase timing via subtraction."""
        return self._clock

    def elapsed_since(self, mark: float) -> float:
        """Simulated time since a previous :meth:`mark`."""
        return self._clock - mark

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------

    def partition(self, count: int) -> list[range]:
        """Static contiguous split of ``range(count)`` over the threads.

        Mirrors Algorithm 1's "distribute vertices to V_1..V_pmax in
        ascending vertex id".  Threads receive near-equal slices; the
        first ``count % threads`` slices are one longer.
        """
        p = self.threads
        base, extra = divmod(count, p)
        ranges: list[range] = []
        start = 0
        for t in range(p):
            size = base + (1 if t < extra else 0)
            ranges.append(range(start, start + size))
            start += size
        return ranges

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------

    def parallel_for(
        self,
        items: Sequence[T],
        fn: Callable[[T, ThreadContext], R],
        label: str = "parallel_for",
        chunking: str = "static",
        grain: int = 64,
    ) -> list[R]:
        """Run ``fn(item, ctx)`` for every item; return results in order.

        ``chunking='static'`` gives each virtual thread one contiguous
        slice (OpenMP ``schedule(static)``); ``'dynamic'`` deals
        ``grain``-sized chunks round-robin (``schedule(dynamic, grain)``)
        which improves simulated load balance on skewed work.  A thin
        per-item wrapper over :meth:`parallel_slices`, which records the
        region.
        """
        results: list[R] = [None] * len(items)  # type: ignore[list-item]

        def run(positions: Sequence[int], ctx: ThreadContext) -> None:
            for i in positions:
                results[i] = fn(items[i], ctx)  # sani: ok - the engine's own result slots, one per item

        self.parallel_slices(range(len(items)), run, label, chunking, grain)
        return results

    def parallel_slices(
        self,
        items: Sequence[T],
        fn: Callable[[Sequence[T], ThreadContext], R],
        label: str = "parallel_slices",
        chunking: str = "static",
        grain: int = 64,
    ) -> list[R]:
        """Run ``fn(thread_items, ctx)`` once per virtual thread.

        ``thread_items`` holds the items :meth:`parallel_for` would run
        on that thread, in the same order: with ``chunking='static'``
        the thread's contiguous slice of ``items`` (a slice of the same
        type, so a ``range`` stays a ``range``), with ``'dynamic'`` its
        ``grain``-sized chunks in round-robin order, as a list.  Returns
        ``fn``'s result per thread, in thread order.  The region record
        counts ``len(items)`` items, exactly as :meth:`parallel_for`
        does, so a slice kernel that charges what the per-item kernel
        charged closes an identical region.
        """
        if self._in_region:
            raise SchedulerError("nested parallel regions are not supported")
        if chunking not in ("static", "dynamic"):
            raise SchedulerError(f"unknown chunking {chunking!r}")
        count = len(items)
        contexts = [ThreadContext(t) for t in range(self.threads)]
        if chunking == "static":
            slices = [items[r.start : r.stop] for r in self.partition(count)]
        else:
            slices = self._dynamic_slices(items, grain)
        observer = self._observer
        if observer is not None:
            observer.on_region_begin(label, contexts)
        self._in_region = True
        try:
            results = [fn(part, ctx) for part, ctx in zip(slices, contexts)]
        finally:
            self._in_region = False
        self._close_region(label, count, contexts)
        if observer is not None:
            observer.on_region_end(label, contexts)
        return results

    def _dynamic_slices(self, items: Sequence[T], grain: int) -> list[list[T]]:
        """Deal ``grain``-sized chunks of ``items`` round-robin to threads."""
        if grain < 1:
            raise SchedulerError("grain must be >= 1")
        p = self.threads
        buckets: list[list[T]] = [[] for _ in range(p)]
        for t, start in enumerate(range(0, len(items), grain)):
            buckets[t % p].extend(items[start : start + grain])
        return buckets

    def _close_region(
        self, label: str, items: int, contexts: list[ThreadContext]
    ) -> None:
        """Fold per-thread charges into a region record and the clock."""
        work_total = ordered_sum(ctx.work for ctx in contexts)
        work_max = max(ctx.work for ctx in contexts)
        atomic_ops = sum(ctx.atomic_ops for ctx in contexts)
        local_max = max(ctx.local_time for ctx in contexts)
        penalty = self._contention_penalty(contexts)
        elapsed = (
            local_max + penalty + SPAWN_COST * self.threads + BARRIER_COST
        )
        self._clock += elapsed
        self._regions.append(
            RegionStats(
                label=label,
                threads=self.threads,
                items=items,
                work_total=work_total,
                work_max=work_max,
                atomic_ops=atomic_ops,
                contention_penalty=penalty,
                elapsed=elapsed,
            )
        )

    @staticmethod
    def _contention_penalty(contexts: Sequence[ThreadContext]) -> float:
        """Serialized time of the atomics queued across threads."""
        queued = 0
        for _, waiting in contended_locations(contexts).values():
            queued += waiting
        return queued * CONTENDED_ATOMIC_COST

    @contextmanager
    def serial_region(self, label: str = "serial") -> Iterator[ThreadContext]:
        """Charge work from purely sequential code onto the clock.

        No spawn/barrier overhead is applied — this is the accounting
        path for the serial baselines (LCPS, BKS) and for sequential
        stretches inside parallel algorithms.
        """
        if self._in_region:
            raise SchedulerError("nested regions are not supported")
        ctx = ThreadContext(0)
        observer = self._observer
        if observer is not None:
            observer.on_region_begin(label, [ctx])
        self._in_region = True
        try:
            yield ctx
        finally:
            self._in_region = False
        # close accounting first so observers see the finished record
        # (the documented on_region_end contract, same as parallel_for)
        self._clock += ctx.local_time
        self._regions.append(
            RegionStats(
                label=label,
                threads=1,
                items=0,
                work_total=ctx.work,
                work_max=ctx.work,
                atomic_ops=ctx.atomic_ops,
                contention_penalty=0.0,
                elapsed=ctx.local_time,
                kind="serial",
            )
        )
        if observer is not None:
            observer.on_region_end(label, [ctx])

    def __repr__(self) -> str:
        return f"SimulatedPool(threads={self.threads}, clock={self._clock:.0f})"
