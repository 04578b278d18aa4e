"""SimProf span tracer — zero-perturbation observability for the pool.

:class:`SpanTracer` attaches to a
:class:`~repro.parallel.scheduler.SimulatedPool` through the same
observer protocol SimTSan's race detector uses, and additionally
consumes the pool's phase hooks (``on_phase_begin`` /
``on_phase_end``).  It builds a tree of :class:`Span` records:

* a **phase span** for every ``pool.phase(...)`` block a kernel opens
  (``phcd:level-3``, ``pbks:score``, ...), nested by the phase stack;
* a **region span** for every completed ``parallel_for`` /
  ``serial_region``, attached under the innermost open phase (or at
  the root when no phase is open).

Each region span carries a *cost decomposition* of its simulated
elapsed time — pure work (the critical-path thread), spawn overhead,
barrier overhead, and the contention penalty — plus the per-thread
work histogram, a load-imbalance factor, and the per-cache-line
contended-atomic attribution derived from the same location keys the
sanitizer's contention model uses.

Zero-perturbation guarantee
---------------------------
The tracer is strictly *read-only*: it never charges a context, never
enables event recording, and only snapshots state the scheduler
already maintains (``RegionStats``, per-context counters, the clock).
Attaching or detaching it therefore changes ``pool.clock`` by exactly
``0.0`` on every workload — asserted by
:func:`repro.profiler.selftest.selftest`,
``benchmarks/bench_analysis.py`` and the test suite.
"""

from __future__ import annotations

from repro.parallel.context import ThreadContext
from repro.parallel.cost_model import BARRIER_COST, SPAWN_COST
from repro.parallel.scheduler import contended_locations

__all__ = ["Span", "SpanTracer"]


class Span:
    """One node of the trace tree: an algorithm phase or a region.

    Attributes
    ----------
    name:
        Phase name or region label.
    kind:
        ``"phase"``, ``"parallel"`` or ``"serial"``.
    t0, t1:
        Simulated clock at entry / exit.
    threads, items, work_total, work_max, atomic_ops:
        Copied from the region's :class:`RegionStats` (regions only).
    costs:
        Decomposition of ``elapsed`` into ``work`` / ``spawn`` /
        ``barrier`` / ``contention`` simulated time (regions only).
    thread_work:
        Work units charged by each virtual thread (regions only).
    thread_time:
        Local simulated time of each virtual thread, excluding
        contention (regions only).
    contention:
        ``{location-key: (ops, queued)}`` for contended atomic
        locations touched by more than one thread (regions only);
        ``queued * contended_atomic_cost`` is the location's share of
        the region's contention penalty.
    children:
        Nested spans (phases only; regions are leaves).
    """

    __slots__ = (
        "name",
        "kind",
        "t0",
        "t1",
        "elapsed",
        "threads",
        "items",
        "work_total",
        "work_max",
        "atomic_ops",
        "costs",
        "thread_work",
        "thread_time",
        "contention",
        "children",
    )

    def __init__(self, name: str, kind: str, t0: float) -> None:
        self.name = name
        self.kind = kind
        self.t0 = t0
        self.t1 = t0
        #: For regions this is the scheduler's RegionStats.elapsed
        #: verbatim (so sums reproduce the clock bitwise); for phases
        #: it is ``t1 - t0`` at close.
        self.elapsed = 0.0
        self.threads = 0
        self.items = 0
        self.work_total = 0.0
        self.work_max = 0.0
        self.atomic_ops = 0
        self.costs: dict[str, float] = {}
        self.thread_work: list[float] = []
        self.thread_time: list[float] = []
        self.contention: dict[object, tuple[int, int]] = {}
        self.children: list["Span"] = []

    @property
    def imbalance(self) -> float:
        """Load-imbalance factor: max thread work / mean thread work.

        ``1.0`` is perfect balance; ``p`` means one thread did all the
        work.  Phases and empty regions report ``1.0``.
        """
        if self.kind == "phase" or self.threads <= 1:
            return 1.0
        if self.work_total <= 0:
            return 1.0
        return self.work_max * self.threads / self.work_total

    def walk(self):
        """Yield this span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready representation (recursive)."""
        d: dict = {
            "name": self.name,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "elapsed": self.elapsed,
        }
        if self.kind != "phase":
            d.update(
                threads=self.threads,
                items=self.items,
                work_total=self.work_total,
                work_max=self.work_max,
                atomic_ops=self.atomic_ops,
                costs=dict(self.costs),
                thread_work=list(self.thread_work),
                imbalance=self.imbalance,
            )
            if self.contention:
                d["contention"] = [
                    {"location": repr(loc), "ops": ops, "queued": queued}
                    for loc, (ops, queued) in sorted(
                        self.contention.items(),
                        key=lambda kv: (-kv[1][1], -kv[1][0], repr(kv[0])),
                    )
                ]
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.kind}, t0={self.t0:.0f}, "
            f"t1={self.t1:.0f}, children={len(self.children)})"
        )


class SpanTracer:
    """Pool observer recording a span tree; see the module docstring.

    Usage::

        tracer = SpanTracer()
        with tracer.watch(pool):
            run_kernel(pool, ...)
        print(flame_summary(profile_report(tracer, pool)))

    The tracer may be combined with phases opened before attachment:
    regions are filed under whatever phases are open *at region end*.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._pool = None
        self._region_t0: float | None = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, pool) -> None:
        """Install this tracer as ``pool``'s region observer."""
        pool.set_observer(self)
        self._pool = pool
        # adopt phases already open on the pool so nesting stays right
        for name in pool.phase_stack:
            self.on_phase_begin(name)

    def detach(self) -> None:
        """Remove the tracer from its pool; open phase spans are closed."""
        pool = self._pool
        if pool is not None:
            while self._stack:
                self.on_phase_end(self._stack[-1].name)
            if pool.observer is self:
                pool.set_observer(None)
        self._pool = None

    def watch(self, pool):
        """Context manager attaching for the duration of a block."""
        tracer = self

        class _Watch:
            def __enter__(self):
                tracer.attach(pool)
                return tracer

            def __exit__(self, *exc):
                tracer.detach()
                return False

        return _Watch()

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def on_phase_begin(self, name: str) -> None:
        span = Span(str(name), "phase", self._clock())
        self._open(span)
        self._stack.append(span)

    def on_phase_end(self, name: str) -> None:
        if not self._stack:
            return  # phase opened before attach and not adopted
        span = self._stack.pop()
        span.t1 = self._clock()
        span.elapsed = span.t1 - span.t0

    def on_region_begin(self, label: str, contexts: list[ThreadContext]) -> None:
        # read-only by design: no recording toggles, no charges — just
        # remember where the clock stood when the region opened
        if self._pool is not None:
            self._region_t0 = self._pool.clock

    def on_region_end(self, label: str, contexts: list[ThreadContext]) -> None:
        pool = self._pool
        if pool is None:
            return
        stats = pool.last_region
        if stats is None or stats.label != label:
            # accounting not closed (shouldn't happen) — skip silently
            # rather than risk perturbing the run
            return
        t0 = self._region_t0
        if t0 is None:
            t0 = pool.clock - stats.elapsed
        self._region_t0 = None
        span = Span(label, stats.kind, t0)
        span.t1 = pool.clock
        span.elapsed = stats.elapsed
        span.threads = stats.threads
        span.items = stats.items
        span.work_total = float(stats.work_total)
        span.work_max = float(stats.work_max)
        span.atomic_ops = int(stats.atomic_ops)
        span.thread_work = [float(ctx.work) for ctx in contexts]
        span.thread_time = [float(ctx.local_time) for ctx in contexts]
        if stats.kind == "serial":
            spawn = barrier = 0.0
        else:
            spawn = SPAWN_COST * stats.threads
            barrier = BARRIER_COST
        contention = float(stats.contention_penalty)
        span.costs = {
            "work": stats.elapsed - spawn - barrier - contention,
            "spawn": spawn,
            "barrier": barrier,
            "contention": contention,
        }
        span.contention = contended_locations(contexts)
        self._open(span)

    # ------------------------------------------------------------------

    def _clock(self) -> float:
        return self._pool.clock if self._pool is not None else 0.0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def region_spans(self) -> list[Span]:
        """Every region span, in completion order."""
        return [
            s
            for root in self.roots
            for s in root.walk()
            if s.kind != "phase"
        ]

    def total_elapsed(self) -> float:
        """Sum of region-span elapsed times, in completion order.

        Summed left-to-right over the same floats the scheduler added
        to its clock, so for a pool traced from construction this is
        *bitwise equal* to ``pool.clock`` — the invariant the selftest
        and the CI gate assert.
        """
        total = 0.0
        for span in self.region_spans():
            total += span.elapsed
        return total

    def __repr__(self) -> str:
        return (
            f"SpanTracer(roots={len(self.roots)}, "
            f"regions={len(self.region_spans())})"
        )
