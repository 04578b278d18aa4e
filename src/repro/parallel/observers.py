"""Composing multiple region observers on one pool.

:class:`~repro.parallel.scheduler.SimulatedPool` holds a single
observer slot, but the sanitizer families are independent tools: the
race detector (:class:`~repro.sanitizer.detector.RaceDetector`) owns
the recorded event streams, the memory checker
(:class:`~repro.sanitizer.memcheck.MemChecker`) hooks the per-access
read barrier, and the profiler consumes region records.
:class:`ObserverFanout` broadcasts the observer protocol to all of
them so ``repro sanitize`` (detector and memory checker on every
kernel run) and ``pytest --sanitize --memcheck`` run both families in
one pass.

The fanout forwards ``on_region_begin``/``on_region_end`` to every
child in order, and the optional ``on_phase_begin``/``on_phase_end``
hooks to the children that define them.  Children must not fight over
shared state: exactly one child may drain the per-thread event streams
(``ctx.end_recording()``), which in practice means at most one
``RaceDetector`` per fanout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.parallel.context import ThreadContext

__all__ = ["ObserverFanout"]


class ObserverFanout:
    """Broadcast the region-observer protocol to several observers."""

    __slots__ = ("observers",)

    def __init__(self, observers: Iterable[object]) -> None:
        self.observers: list[object] = [o for o in observers if o is not None]

    def on_region_begin(
        self, label: str, contexts: Sequence[ThreadContext]
    ) -> None:
        for observer in self.observers:
            observer.on_region_begin(label, contexts)

    def on_region_end(
        self, label: str, contexts: Sequence[ThreadContext]
    ) -> None:
        for observer in self.observers:
            observer.on_region_end(label, contexts)

    def on_phase_begin(self, name: str) -> None:
        for observer in self.observers:
            hook = getattr(observer, "on_phase_begin", None)
            if hook is not None:
                hook(name)

    def on_phase_end(self, name: str) -> None:
        for observer in self.observers:
            hook = getattr(observer, "on_phase_end", None)
            if hook is not None:
                hook(name)

    def __repr__(self) -> str:
        inner = ", ".join(type(o).__name__ for o in self.observers)
        return f"ObserverFanout([{inner}])"
