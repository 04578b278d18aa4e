"""Unobserved fast path vs observed path: same outputs, same sim clock.

Without an observer, the shared structures (atomics, both union-find
engines) skip building the word and location keys that only the race
detector and memcheck read.  The charges they apply must not depend on
that: every kernel below runs once per observer setting, and the pool
clock, every region's accounting and the outputs must match the
unobserved run bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import compute_vertex_rank
from repro.graph.generators import erdos_renyi, powerlaw_cluster, rmat
from repro.parallel.context import ThreadContext
from repro.parallel.cost_model import DEFAULT_COST_MODEL
from repro.parallel.observers import ObserverFanout
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.detector import RaceDetector
from repro.sanitizer.memcheck import MemChecker
from repro.search.preprocessing import preprocess_neighbor_counts

GRAPHS = {
    "rmat": lambda: rmat(8, 4, seed=7),
    "holme_kim": lambda: powerlaw_cluster(150, 3, 0.3, seed=21),
    "gnp": lambda: erdos_renyi(120, 0.06, seed=3),
}
OBSERVERS = ("none", "races", "memcheck", "both")


def _pipeline(graph, pool):
    """PKC -> vertex rank -> PHCD (both engines) -> preprocessing."""
    coreness = pkc_core_decomposition(graph, pool)
    rank = compute_vertex_rank(graph, coreness, pool)
    outputs = [coreness, rank.rank, rank.vsort]
    for use_waitfree in (True, False):
        hcd = phcd_build_hcd(
            graph, coreness, pool, rank_result=rank,
            use_waitfree=use_waitfree, cas_failure_rate=0.1, seed=3,
        )
        outputs.extend(hcd.to_arrays().values())
    counts = preprocess_neighbor_counts(graph, coreness, pool)
    outputs.extend([counts.gt, counts.eq, counts.lt])
    return outputs


def _run(graph, threads: int, observer: str):
    pool = SimulatedPool(threads=threads)
    detector = RaceDetector() if observer in ("races", "both") else None
    checker = MemChecker() if observer in ("memcheck", "both") else None
    if checker is not None:
        checker.activate()
    pool.set_observer(ObserverFanout([detector, checker]))
    try:
        outputs = _pipeline(graph, pool)
    finally:
        pool.set_observer(None)
        if checker is not None:
            checker.deactivate()
    if detector is not None:
        assert detector.races == []
        assert detector.events_seen > 0
    if checker is not None:
        assert checker.findings == []
    regions = [
        (r.label, r.items, r.work_total, r.work_max, r.atomic_ops,
         r.contention_penalty, r.elapsed)
        for r in pool.regions
    ]
    return pool.clock, regions, outputs


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_observers_leave_clock_and_outputs_bit_identical(name, threads):
    graph = GRAPHS[name]()
    clock, regions, outputs = _run(graph, threads, "none")
    assert clock > 0
    for observer in OBSERVERS[1:]:
        o_clock, o_regions, o_outputs = _run(graph, threads, observer)
        assert o_clock == clock, observer
        assert o_regions == regions, observer
        assert len(o_outputs) == len(outputs)
        for got, want in zip(o_outputs, outputs):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), observer


def test_contention_still_charged_when_unobserved():
    # contention is part of the sim clock, so the fast path must keep
    # feeding contended locations (the union-find link CAS) to it; this
    # graph is also one the comparison above runs, so it compares a
    # nonzero penalty
    graph = GRAPHS["rmat"]()
    pool = SimulatedPool(threads=8)
    coreness = pkc_core_decomposition(graph, pool)
    phcd_build_hcd(graph, coreness, pool, use_waitfree=True)
    assert sum(r.contention_penalty for r in pool.regions) > 0


class TestObservedFlag:
    def _ctx(self):
        return ThreadContext(0, DEFAULT_COST_MODEL)

    def test_default_unobserved(self):
        assert self._ctx().observed is False

    def test_recording_lifecycle(self):
        ctx = self._ctx()
        ctx.begin_recording()
        assert ctx.observed
        ctx.end_recording()
        assert not ctx.observed

    def test_memcheck_lifecycle(self):
        ctx = self._ctx()
        checker = MemChecker()
        ctx.set_memcheck(checker)
        assert ctx.observed
        ctx.set_memcheck(None)
        assert not ctx.observed

    def test_detaching_one_of_two_observers_keeps_it_true(self):
        ctx = self._ctx()
        ctx.begin_recording()
        ctx.set_memcheck(MemChecker())
        ctx.end_recording()
        assert ctx.observed  # memcheck still attached
        ctx.set_memcheck(None)
        assert not ctx.observed

        ctx.set_memcheck(MemChecker())
        ctx.begin_recording()
        ctx.set_memcheck(None)
        assert ctx.observed  # recording still active
        ctx.end_recording()
        assert not ctx.observed

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_region_sets_and_clears_the_flag(self, observer):
        pool = SimulatedPool(threads=2)
        observers = {
            "none": [],
            "races": [RaceDetector()],
            "memcheck": [MemChecker()],
            "both": [RaceDetector(), MemChecker()],
        }[observer]
        pool.set_observer(ObserverFanout(observers))
        inside = []
        contexts = []

        def probe(v, ctx):
            inside.append(ctx.observed)
            contexts.append(ctx)

        pool.parallel_for([0, 1], probe, label="probe")
        pool.set_observer(None)
        assert inside == [observer != "none"] * 2
        assert not any(ctx.observed for ctx in contexts)

    def test_observed_is_not_a_parameter(self):
        # derived, never configured: no constructor argument sets it
        with pytest.raises(TypeError):
            ThreadContext(0, DEFAULT_COST_MODEL, observed=True)
