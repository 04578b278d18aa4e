"""Tests for the simulated-multicore scheduler and cost model."""

import pytest

from repro.errors import SchedulerError
from repro.parallel.context import ThreadContext
import math

from repro.analysis.stats import geometric_mean
from repro.parallel.cost_model import BARRIER_COST, SPAWN_COST, ordered_sum
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import DecompositionResult
from repro.profiler.report import _imbalance
from repro.search import metrics


class TestPartitioning:
    def test_static_partition_covers_all(self):
        pool = SimulatedPool(threads=4)
        ranges = pool.partition(10)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(10))

    def test_static_partition_balanced(self):
        pool = SimulatedPool(threads=3)
        sizes = [len(r) for r in pool.partition(10)]
        assert sizes == [4, 3, 3]

    def test_partition_more_threads_than_items(self):
        pool = SimulatedPool(threads=8)
        sizes = [len(r) for r in pool.partition(3)]
        assert sum(sizes) == 3

    def test_dynamic_assignment_covers_all(self):
        pool = SimulatedPool(threads=3)
        buckets = pool._dynamic_slices(range(20), grain=4)
        flat = sorted(i for b in buckets for i in b)
        assert flat == list(range(20))

    def test_dynamic_bad_grain(self):
        pool = SimulatedPool(threads=2)
        with pytest.raises(SchedulerError):
            pool.parallel_for([1], lambda x, c: x, chunking="dynamic", grain=0)


class TestParallelFor:
    def test_results_in_item_order(self):
        pool = SimulatedPool(threads=4)
        out = pool.parallel_for(list(range(17)), lambda x, ctx: x * 2)
        assert out == [2 * i for i in range(17)]

    def test_dynamic_results_in_item_order(self):
        pool = SimulatedPool(threads=4)
        out = pool.parallel_for(
            list(range(17)), lambda x, ctx: x + 1, chunking="dynamic", grain=2
        )
        assert out == [i + 1 for i in range(17)]

    def test_unknown_chunking(self):
        pool = SimulatedPool(threads=2)
        with pytest.raises(SchedulerError):
            pool.parallel_for([1], lambda x, c: x, chunking="guided")

    def test_nested_region_rejected(self):
        pool = SimulatedPool(threads=2)

        def nested(x, ctx):
            pool.parallel_for([1], lambda y, c: y)

        with pytest.raises(SchedulerError):
            pool.parallel_for([1], nested)

    def test_threads_validation(self):
        with pytest.raises(SchedulerError):
            SimulatedPool(threads=0)

    def test_same_results_any_thread_count(self):
        def work(x, ctx):
            ctx.charge(x)
            return x * x

        expected = [i * i for i in range(31)]
        for p in (1, 2, 5, 16):
            assert SimulatedPool(threads=p).parallel_for(
                list(range(31)), work
            ) == expected


class TestClock:
    def test_clock_accumulates(self):
        pool = SimulatedPool(threads=1)
        pool.parallel_for([1, 2], lambda x, ctx: ctx.charge(5))
        first = pool.clock
        assert first > 0
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1))
        assert pool.clock > first

    def test_region_elapsed_is_max_thread(self):
        # two threads, one does 100 work, the other 1 -> elapsed ~ 100
        pool = SimulatedPool(threads=2)

        def work(x, ctx):
            ctx.charge(100 if ctx.thread_id == 0 else 1)

        pool.parallel_for([0, 1], work)
        assert pool.clock == pytest.approx(100 + 2 * SPAWN_COST + BARRIER_COST)

    def test_more_threads_faster_on_balanced_work(self):
        def work(x, ctx):
            ctx.charge(50)

        t1 = SimulatedPool(threads=1)
        t8 = SimulatedPool(threads=8)
        t1.parallel_for(list(range(64)), work)
        t8.parallel_for(list(range(64)), work)
        assert t8.clock < t1.clock

    def test_reset(self):
        pool = SimulatedPool(threads=1)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1))
        pool.reset()
        assert pool.clock == 0.0
        assert pool.regions == []

    def test_reset_detaches_observer(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_region_begin(self, label, contexts):
                self.seen.append(label)

            def on_region_end(self, label, contexts):
                pass

        pool = SimulatedPool(threads=1)
        observer = Observer()
        pool.set_observer(observer)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="first")
        pool.reset()
        # construction state: no observer, no phases, no regions
        assert pool.observer is None
        assert pool.phase_stack == ()
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="second")
        assert observer.seen == ["first"]

    def test_reset_can_keep_observer(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_region_begin(self, label, contexts):
                self.seen.append(label)

            def on_region_end(self, label, contexts):
                pass

        pool = SimulatedPool(threads=1)
        observer = Observer()
        pool.set_observer(observer)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="first")
        pool.reset(detach_observer=False)
        pool.parallel_for([1], lambda x, ctx: ctx.charge(1), label="second")
        assert pool.observer is observer
        assert observer.seen == ["first", "second"]

    def test_reset_clears_open_phase_stack(self):
        pool = SimulatedPool(threads=1)
        with pool.phase("outer"):
            assert pool.phase_stack == ("outer",)
            pool.reset()
            assert pool.phase_stack == ()
        # the exiting with-block must not underflow the cleared stack
        assert pool.phase_stack == ()

    def test_mark_elapsed(self):
        pool = SimulatedPool(threads=1)
        mark = pool.mark()
        pool.parallel_for([1], lambda x, ctx: ctx.charge(3))
        assert pool.elapsed_since(mark) == pool.clock

    def test_serial_region(self):
        pool = SimulatedPool(threads=4)
        with pool.serial_region("setup") as ctx:
            ctx.charge(42)
        assert pool.clock == pytest.approx(42.0)
        assert pool.regions[-1].label == "setup"

    def test_serial_region_nested_rejected(self):
        pool = SimulatedPool(threads=1)
        with pytest.raises(SchedulerError):
            with pool.serial_region():
                with pool.serial_region():
                    pass


class TestContention:
    def test_contended_atomics_penalized(self):
        pool = SimulatedPool(threads=4)

        def work(x, ctx):
            ctx.atomic("hot")  # all threads hit the same location

        pool.parallel_for(list(range(40)), work)
        region = pool.regions[-1]
        assert region.contention_penalty > 0

    def test_uncontended_atomics_not_penalized(self):
        pool = SimulatedPool(threads=4)

        def work(x, ctx):
            ctx.atomic("relaxed", contended=False)

        pool.parallel_for(list(range(40)), work)
        assert pool.regions[-1].contention_penalty == 0

    def test_single_thread_never_contends(self):
        pool = SimulatedPool(threads=1)

        def work(x, ctx):
            ctx.atomic("hot")

        pool.parallel_for(list(range(10)), work)
        assert pool.regions[-1].contention_penalty == 0

    def test_distinct_locations_no_penalty(self):
        pool = SimulatedPool(threads=4)
        pool.parallel_for(
            list(range(16)), lambda x, ctx: ctx.atomic(("loc", x))
        )
        assert pool.regions[-1].contention_penalty == 0


class TestCostModel:
    def test_context_local_time(self):
        ctx = ThreadContext(0)
        ctx.charge(10)
        ctx.atomic("x")
        # atomic adds 1 work + 2 atomic surcharge
        assert ctx.local_time == pytest.approx(10 + 1 + 2)

    def test_region_stats_fields(self):
        pool = SimulatedPool(threads=2)
        pool.parallel_for([1, 2, 3], lambda x, ctx: ctx.charge(1), label="lbl")
        region = pool.regions[-1]
        assert region.label == "lbl"
        assert region.items == 3
        assert region.threads == 2
        assert region.work_total == pytest.approx(3)


class TestOrderedSums:
    """Recorded sums add left to right on every Python version."""

    def test_ordered_sum_adds_left_to_right(self):
        # a compensated sum (builtin sum from Python 3.12) gives 1.0
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0
        assert ordered_sum([3, 4]) == 7

    def test_region_work_total(self):
        pool = SimulatedPool(threads=10)
        pool.parallel_for(range(10), lambda v, ctx: ctx.charge(0.1), label="r")
        (region,) = pool.regions
        assert region.work_total == 0.9999999999999999
        assert region.work_max == 0.1

    def test_profiler_imbalance_and_pipeline_total(self):
        assert _imbalance([0.1] * 10) == 0.1 * 10 / 0.9999999999999999
        result = DecompositionResult(
            graph=None, coreness=None, hcd=None, rank_result=None, pool=None,
            phase_times={f"p{i}": 0.1 for i in range(10)},
        )
        assert result.total_time == 0.9999999999999999

    def test_metric_scores_and_geometric_mean_add_left_to_right(self, monkeypatch):
        # inputs whose left-to-right sum (0.0) differs from the
        # compensated one (builtin sum from Python 3.12, math.fsum)
        addends = [1e16, 1.0, -1e16]
        assert ordered_sum(addends) == 0.0 != math.fsum(addends)
        for key, value in zip(("a", "b", "c"), addends):
            monkeypatch.setitem(
                metrics._REGISTRY,
                key,
                metrics.Metric(key, "A", lambda v, t, value=value: value),
            )
        combined = metrics.combine_metrics(
            "abc", {"c": 1.0, "a": 1.0, "b": 1.0}, register=False
        )
        assert combined(None, None) == 0.0
        logs = [700.0, 1e-14, -700.0]
        assert ordered_sum(logs) == 0.0 != math.fsum(logs)
        assert geometric_mean([math.exp(x) for x in logs]) == 1.0


class TestWorkSince:
    """``work_since`` is a left fold of region work units from a cursor."""

    @staticmethod
    def _pool():
        # fractional charges: the sum depends on the order of addition
        pool = SimulatedPool(threads=3)
        pool.parallel_for(
            range(7), lambda v, ctx: ctx.charge(0.1 * (v + 1)), label="a"
        )
        with pool.serial_region("b") as ctx:
            ctx.charge(1 / 3)
            ctx.atomic(("x", 0))
        pool.parallel_for(range(5), lambda v, ctx: ctx.atomic(("y", v % 2)), label="c")
        with pool.serial_region("d") as ctx:
            ctx.charge(2.7)
        return pool

    @staticmethod
    def _fold(pool, cursor, start):
        for stats in pool.regions[cursor:]:
            start += stats.work_total + stats.atomic_ops
        return start

    @pytest.mark.parametrize("cursor", [0, 1, 2, 4])
    @pytest.mark.parametrize("start", [0.0, 0.1, 12345.678])
    def test_equals_per_region_left_fold(self, cursor, start):
        pool = self._pool()
        assert pool.work_since(cursor, start) == self._fold(pool, cursor, start)

    def test_cursor_in_the_middle_counts_only_later_regions(self):
        pool = self._pool()
        cursor = pool.region_count
        assert pool.work_since(cursor, 0.7) == 0.7
        with pool.serial_region("e") as ctx:
            ctx.charge(0.2)
        assert pool.work_since(cursor, 0.7) == 0.7 + 0.2

    def test_aliased_router_and_replica_count_each_region_once(self):
        # the router's replay loop and a replica share one pool: the
        # replica's regions enter the dispatch cost once, and the loop's
        # cursor, retaken after the dispatch, skips them
        pool = SimulatedPool(threads=2)
        with pool.serial_region("router:admit") as ctx:
            ctx.charge(1.5)
        now = pool.work_since(0, 0.25)
        replica_cursor = pool.region_count
        pool.parallel_for(
            range(4), lambda v, ctx: ctx.charge(0.3), label="replica:answer"
        )
        now += pool.work_since(replica_cursor, 0.0)
        router_cursor = pool.region_count
        with pool.serial_region("router:plan") as ctx:
            ctx.charge(2.2)
        now = pool.work_since(router_cursor, now)
        admit, answer, plan = (r.work_total for r in pool.regions)
        assert now == ((0.25 + admit) + (0.0 + answer)) + plan


class TestParallelSlices:
    """One worker call per virtual thread, the same region record."""

    def test_static_slices_keep_the_item_type(self):
        pool = SimulatedPool(threads=3)
        got = pool.parallel_slices(range(10), lambda vs, ctx: vs)
        assert got == [range(0, 4), range(4, 7), range(7, 10)]
        got = pool.parallel_slices([5, 6, 7], lambda vs, ctx: vs)
        assert got == [[5], [6], [7]]

    def test_dynamic_slices_deal_chunks_round_robin(self):
        pool = SimulatedPool(threads=2)
        got = pool.parallel_slices(
            list(range(10)), lambda vs, ctx: vs, chunking="dynamic", grain=3
        )
        assert got == [[0, 1, 2, 6, 7, 8], [3, 4, 5, 9]]

    @pytest.mark.parametrize("chunking", ["static", "dynamic"])
    def test_region_matches_parallel_for(self, chunking):
        def charge(v, ctx):
            ctx.charge(0.1 * v)
            ctx.atomic(("cell", v % 3))

        def charge_slice(vs, ctx):
            for v in vs:
                charge(v, ctx)

        records = []
        for run in (
            lambda p: p.parallel_for(range(50), charge, "r", chunking, 4),
            lambda p: p.parallel_slices(range(50), charge_slice, "r", chunking, 4),
        ):
            pool = SimulatedPool(threads=4)
            run(pool)
            (region,) = pool.regions
            records.append((pool.clock, repr(region), region.work_total,
                            region.work_max, region.atomic_ops,
                            region.contention_penalty))
        assert records[0] == records[1]
        assert records[0][5] > 0  # the shared cells contend

    def test_slices_reject_nesting_and_bad_chunking(self):
        pool = SimulatedPool(threads=2)
        with pytest.raises(SchedulerError):
            pool.parallel_slices([1], lambda vs, c: vs, chunking="guided")
        with pytest.raises(SchedulerError):
            pool.parallel_slices(
                [1, 2],
                lambda vs, c: pool.parallel_slices([1], lambda w, d: w),
            )
