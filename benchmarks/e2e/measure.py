"""Measurement primitives of the end-to-end benchmark.

* the metric table — name, unit, direction and whether the value is
  deterministic (compared exactly) — shared by ``run.py``, ``compare.py``
  and the self-test;
* order statistics (median, quartiles, nearest-rank percentiles);
* :class:`Meter`, which times calls into the program's public functions
  from outside, in calibrated seconds, and on a traced run keeps one
  span per call (name, parent, ``perf_counter_ns`` start and end, plus
  the sim-clock and work-unit deltas of the pools it watches) and
  attaches SimProf's :class:`~repro.profiler.tracer.SpanTracer` to every
  pool it is shown;
* the two-clock Chrome trace writer.

Calibrated seconds
------------------
On the shared 2-vCPU x86-64 VM where the baseline was recorded, speed
drifts by up to +-30% over tens of seconds; process CPU time drifts
with it, so only a reference measured *next to* the program cancels it.
Every timed interval is therefore scaled by the nominal time of a fixed
pure-Python :func:`probe` (shaped like the program's hot loops: numpy
scalar reads, dict updates, list appends) divided by the mean of the
probes taken just before and just after the interval, at most
:data:`PROBE_GAP_S` apart.  The result is in *calibrated seconds*:
seconds at the speed the machine had when :data:`CAL_NOMINAL_S` was
taken.  The raw seconds are kept beside the calibrated end-to-end times.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: End-to-end metrics every workload reports and ``BENCHMARK.json`` bounds:
#: name -> (unit, better, exact).  Times are calibrated seconds.
END_TO_END = {
    "setup_s": ("s", "lower", False),
    "wall_s": ("s", "lower", False),
    "lat_p50_ms": ("ms", "lower", False),
    "peak_rss_mb": ("MiB", "lower", False),
}

#: Further end-to-end metrics of the ``bench/v1`` record, reported where
#: they apply.  Exact metrics are deterministic for a seed: ``compare.py``
#: holds them exactly, seed by seed.  They vary too much *between* seeds
#: (the sim clock of the cluster by ~10%) or, for the tail, between runs
#: to carry a bound across seeds.
MORE_END_TO_END = {
    "sim_clock": ("sim", "lower", True),
    "fail_frac": ("ratio", "lower", True),
    "lat_p99_ms": ("ms", "lower", False),
    "req_per_s": ("req/s", "higher", False),
    "mutations_per_s": ("mut/s", "higher", False),
    "visible_s": ("s", "lower", False),
}

#: Per-layer metrics of a traced run: name -> (unit, better).  Every
#: workload reports every name; a layer the workload never calls reads 0.
#: ``_s`` is calibrated wall time, ``_sim`` sim clock, ``_work`` work units.
#: The traced run also reports :data:`MORE_END_TO_END` under the same names.
LAYERS = {
    **{name: (unit, better) for name, (unit, better, _) in MORE_END_TO_END.items()},
    "graph.generate_s": ("s", "lower"),
    "core.pkc_s": ("s", "lower"),
    "core.pkc_sim": ("sim", "lower"),
    "core.pkc_work": ("wu", "lower"),
    "core.rank_s": ("s", "lower"),
    "core.rank_sim": ("sim", "lower"),
    "core.phcd_s": ("s", "lower"),
    "core.phcd_sim": ("sim", "lower"),
    "core.phcd_work": ("wu", "lower"),
    "search.preprocess_s": ("s", "lower"),
    "search.preprocess_sim": ("sim", "lower"),
    "search.pbks_s": ("s", "lower"),
    "search.pbks_sim": ("sim", "lower"),
    "search.pbks_work": ("wu", "lower"),
    "parallel.regions": ("count", "lower"),
    "parallel.items": ("count", "lower"),
    "parallel.work_units": ("wu", "lower"),
    "parallel.atomic_ops": ("count", "lower"),
    "parallel.contention": ("sim", "lower"),
    "parallel.ns_per_work_unit": ("ns/wu", "lower"),
    "serve.build_s": ("s", "lower"),
    "serve.open_s": ("s", "lower"),
    "serve.warm_s": ("s", "lower"),
    "serve.hit_rate": ("ratio", "higher"),
    "serve.computed": ("count", "lower"),
    "serve.coalesced": ("count", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.admit_sim": ("sim", "lower"),
    "serve.plan_sim": ("sim", "lower"),
    "serve.cache_sim": ("sim", "lower"),
    "serve.execute_sim": ("sim", "lower"),
    "serve.hit_call_ms": ("ms", "lower"),
    "serve.miss_call_ms": ("ms", "lower"),
    "serve.publish_s": ("s", "lower"),
    "serve.refresh_s": ("s", "lower"),
    "dynamic.apply_s": ("s", "lower"),
    "dynamic.apply_sim": ("sim", "lower"),
    "dynamic.apply_work": ("wu", "lower"),
    "dynamic.changed": ("count", "lower"),
    "dynamic.rounds": ("count", "lower"),
    "dynamic.recompute_s": ("s", "lower"),
    "cluster.shard_s": ("s", "lower"),
    "cluster.edge_cut": ("count", "lower"),
    "cluster.decompose_s": ("s", "lower"),
    "cluster.supersteps": ("count", "lower"),
    "cluster.local_rounds": ("count", "lower"),
    "cluster.messages": ("count", "lower"),
    "cluster.bytes": ("B", "lower"),
    "cluster.compute_clock": ("sim", "lower"),
    "cluster.comms_clock": ("sim", "lower"),
    "cluster.serve_s": ("s", "lower"),
    "cluster.failovers": ("count", "lower"),
    "cluster.network_cost": ("sim", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: ``ceil(q% * n)``-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median, sample count and quartiles (as :func:`statistics.quantiles`
    gives them) of ``values``, every value times ``scale``."""
    scaled = [v * scale for v in values]
    q1, _, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled * 3
    return {"value": statistics.median(scaled), "n": len(scaled), "q1": q1, "q3": q3}


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

#: median :func:`probe` time on the 2-vCPU x86-64 VM (Python 3.11) where
#: the committed baseline was recorded; defines the calibrated second
CAL_NOMINAL_S = 0.0025
#: an outermost timed block is bracketed by probes at most this old
PROBE_GAP_S = 0.25
_CAL_DATA = np.arange(1024, dtype=np.int64)


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like the program's hot loops."""
    data = _CAL_DATA
    seen: dict[int, int] = {}
    out: list[int] = []
    for i in range(10000):
        v = int(data[(i * 37) & 1023])
        seen[v & 255] = seen.get(v & 255, 0) + 1
        if v & 1:
            out.append(v)
    return len(out) + len(seen)


def probe() -> float:
    """Median seconds of three calibration loops, measured now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# pools
# ----------------------------------------------------------------------


def region_totals(pool, start: int = 0) -> dict[str, float]:
    """Region counters of ``pool`` summed from region index ``start``."""
    regions = pool.regions[start:]
    return {
        "regions": len(regions),
        "items": sum(r.items for r in regions),
        "work": sum(r.work_total + r.atomic_ops for r in regions),
        "atomic_ops": sum(r.atomic_ops for r in regions),
        "contention": sum(r.contention_penalty for r in regions),
    }


# ----------------------------------------------------------------------
# timing and spans
# ----------------------------------------------------------------------


@dataclass
class Timing:
    """One timed block, filled in when the block exits."""

    raw: float = 0.0       # wall seconds
    seconds: float = 0.0   # calibrated seconds


@dataclass
class Span:
    """One traced call into a layer."""

    name: str
    parent: int          # index of the enclosing span, -1 at the root
    start_ns: int = 0
    end_ns: int = 0
    seconds: float = 0.0  # calibrated duration
    sim: float = 0.0     # sim-clock delta over the watched pools
    work: float = 0.0    # work-unit delta over the watched pools


class Meter:
    """Times calls into the program in calibrated seconds; traces on request.

    Untraced, :meth:`time` costs two ``perf_counter_ns`` reads plus a
    speed probe for an outermost block when the last probe is older than
    :data:`PROBE_GAP_S`.  Traced (``trace=True``), it also keeps one
    :class:`Span` per block with the sim-clock and work-unit deltas of
    the pools named, and :meth:`watch` attaches SimProf to pools.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.pools: list = []      # (label, pool, first region index)
        self.tracers: list = []    # one SimProf tracer per watched pool
        self._open: list[int] = []
        self._depth = 0
        self._probe_s = probe()
        self._probed_at = time.perf_counter()

    def _probe(self) -> float:
        if time.perf_counter() - self._probed_at > PROBE_GAP_S:
            self._probe_s = probe()
            self._probed_at = time.perf_counter()
        return self._probe_s

    @contextmanager
    def time(self, name: str, *pools):
        """Time the enclosed call as layer ``name``; yield its :class:`Timing`.

        ``pools`` are the pools the call charges (their deltas go on the
        span).  Nested blocks are calibrated by the enclosing block's
        opening probe, so no probe runs inside a timed block.
        """
        top = self._depth == 0
        before = self._probe() if top else self._probe_s
        timing = Timing()
        span = marks = None
        if self.trace:
            marks = [(pool, pool.clock, len(pool.regions)) for pool in pools]
            span = Span(name, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
        self._depth += 1
        start = time.perf_counter_ns()
        try:
            yield timing
        finally:
            end = time.perf_counter_ns()
            self._depth -= 1
            after = self._probe() if top else before
            timing.raw = (end - start) / 1e9
            timing.seconds = timing.raw * 2.0 * CAL_NOMINAL_S / (before + after)
            if span is not None:
                self._open.pop()
                span.start_ns, span.end_ns, span.seconds = start, end, timing.seconds
                for pool, clock, first in marks:
                    span.sim += pool.clock - clock
                    span.work += region_totals(pool, first)["work"]

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (traced passes only)."""
        if self.trace:
            self.counts[name] = self.counts.get(name, 0) + value

    def watch(self, label: str, pool) -> None:
        """Attach SimProf to ``pool`` and count its regions from now on."""
        if not self.trace:
            return
        from repro.profiler.tracer import SpanTracer

        tracer = SpanTracer()
        tracer.attach(pool)
        self.pools.append((label, pool, len(pool.regions)))
        self.tracers.append(tracer)

    def detach(self) -> None:
        for tracer in self.tracers:
            tracer.detach()

    # -- derived -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: calibrated span time minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.seconds - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>_s``/``_sim``/``_work`` from spans, plus the counters."""
        out = {f"{name}_s": value for name, value in self.self_times().items()}
        for span in self.spans:
            out[f"{span.name}_sim"] = out.get(f"{span.name}_sim", 0.0) + span.sim
            out[f"{span.name}_work"] = out.get(f"{span.name}_work", 0.0) + span.work
        totals = {"regions": 0, "items": 0, "work": 0, "atomic_ops": 0, "contention": 0.0}
        for _, pool, first in self.pools:
            for key, value in region_totals(pool, first).items():
                totals[key] += value
        out.update({f"parallel.{key}": value for key, value in totals.items() if key != "work"})
        out["parallel.work_units"] = totals["work"]
        out.update(self.counts)
        return out

    def chrome_trace(self, meta: dict) -> dict:
        """Both clocks in one Chrome trace.

        Process 0 holds the benchmark's layer spans on the wall clock
        (microseconds since the first span; ``args.seconds`` is the
        calibrated duration).  Processes 1..N hold one SimProf span tree
        per watched pool on that pool's sim clock (1 sim unit = 1 us), as
        :func:`repro.profiler.export.chrome_trace` lays them out.
        """
        from repro.profiler.export import chrome_trace

        t0 = min((s.start_ns for s in self.spans), default=0)
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "wall clock: benchmark layer spans"}},
        ]
        for i, span in enumerate(self.spans):
            events.append(
                {
                    "ph": "X", "pid": 0, "tid": 0, "cat": "layer", "name": span.name,
                    "ts": (span.start_ns - t0) / 1000.0,
                    "dur": (span.end_ns - span.start_ns) / 1000.0,
                    "args": {"id": i, "parent": span.parent, "seconds": span.seconds,
                             "sim": span.sim, "work": span.work},
                }
            )
        for pid, ((label, pool, _), tracer) in enumerate(zip(self.pools, self.tracers), start=1):
            events.extend(
                chrome_trace(tracer, pool, pid=pid, process_name=f"sim clock: {label}")["traceEvents"]
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, self_time_s=self.self_times()),
        }
