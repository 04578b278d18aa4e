"""Tests for SimTSan: vector clocks, race detector, lint, kernel gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.atomics import AtomicArray, AtomicCounter
from repro.parallel.context import CACHELINE_WORDS
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer import (
    KERNELS,
    RaceDetector,
    VectorClock,
    lint_source,
    run_all_kernels,
    run_kernel,
    run_racy_kernel,
    selftest,
)
from repro.sanitizer.lint import lint_paths


class TestVectorClock:
    def test_fresh_clocks_equal(self):
        assert VectorClock(4) == VectorClock(4)

    def test_tick_orders(self):
        a = VectorClock(2)
        b = a.copy().tick(0)
        assert a.happens_before(b)
        assert not b.happens_before(a)

    def test_sibling_epochs_concurrent(self):
        main = VectorClock(3)
        e0 = main.copy().tick(0)
        e1 = main.copy().tick(1)
        assert e0.concurrent_with(e1)
        assert e1.concurrent_with(e0)

    def test_barrier_join_orders_next_region(self):
        main = VectorClock(2)
        epochs = [main.copy().tick(t) for t in range(2)]
        for e in epochs:
            main.join(e)
        nxt = main.copy().tick(0)
        for e in epochs:
            assert e.happens_before(nxt)

    def test_join_is_componentwise_max(self):
        a = VectorClock(3).tick(0).tick(0)
        b = VectorClock(3).tick(1)
        a.join(b)
        assert a[0] == 2 and a[1] == 1 and a[2] == 0


class TestDetector:
    def _run(self, worker, threads=4, items=16, label="region"):
        pool = SimulatedPool(threads=threads)
        detector = RaceDetector()
        with detector.watch(pool):
            pool.parallel_for(list(range(items)), worker, label=label)
        return detector

    def test_plain_write_write_is_race(self):
        det = self._run(lambda i, ctx: ctx.write(("cell", 0)))
        assert det.races
        assert det.races[0].location == ("cell", 0)

    def test_plain_read_write_is_race(self):
        def worker(i, ctx):
            if i % 2:
                ctx.read(("cell", 0))
            else:
                ctx.write(("cell", 0))

        assert self._run(worker).races

    def test_plain_read_read_is_not_race(self):
        det = self._run(lambda i, ctx: ctx.read(("cell", 0)))
        assert not det.races

    def test_atomic_traffic_is_not_race(self):
        arr = AtomicArray(4, name="a")
        det = self._run(lambda i, ctx: arr.add(ctx, 0, 1))
        assert not det.races

    def test_atomic_write_vs_plain_read_is_race(self):
        arr = AtomicArray(4, name="a")

        def worker(i, ctx):
            if i % 2:
                arr.store(ctx, 0, i)
            else:
                ctx.read(("a", 0))  # bare .data read of the same word

        det = self._run(worker)
        assert det.races
        (race,) = det.races[:1]
        assert "atomic write" in (race.access_a + race.access_b)

    def test_disjoint_plain_writes_are_not_race(self):
        det = self._run(lambda i, ctx: ctx.write(("cell", i)))
        assert not det.races

    def test_same_thread_accesses_are_not_race(self):
        det = self._run(lambda i, ctx: ctx.write(("cell", 0)), threads=1)
        assert not det.races

    def test_cross_region_accesses_are_ordered(self):
        # thread 1 writes the cell in region A, thread 0 in region B:
        # the barrier between regions is a happens-before edge.
        pool = SimulatedPool(threads=2)
        detector = RaceDetector()
        with detector.watch(pool):
            pool.parallel_for(
                [0, 1],
                lambda i, ctx: ctx.write(("x",)) if i == 1 else None,
                label="A",
            )
            pool.parallel_for(
                [0, 1],
                lambda i, ctx: ctx.write(("x",)) if i == 0 else None,
                label="B",
            )
        assert not detector.races

    def test_race_deduplicated_per_location_pair(self):
        det = self._run(lambda i, ctx: ctx.write(("cell", 0)), threads=2)
        assert len(det.races) == 1

    def test_serial_region_never_races(self):
        pool = SimulatedPool(threads=1)
        detector = RaceDetector()
        with detector.watch(pool):
            with pool.serial_region("serial") as ctx:
                ctx.write(("cell", 0))
                ctx.read(("cell", 0))
        assert not detector.races
        assert detector.regions_checked == 1

    def test_detach_stops_recording(self):
        pool = SimulatedPool(threads=2)
        detector = RaceDetector()
        detector.attach(pool)
        detector.detach()
        pool.parallel_for(
            [0, 1], lambda i, ctx: ctx.write(("cell", 0)), label="r"
        )
        assert not detector.races
        assert pool.observer is None

    def test_recording_does_not_change_clock(self):
        def worker(i, ctx):
            ctx.charge(1)
            ctx.write(("w", i))
            ctx.read(("r", i))

        plain = SimulatedPool(threads=3)
        plain.parallel_for(list(range(12)), worker, label="r")
        watched = SimulatedPool(threads=3)
        with RaceDetector().watch(watched):
            watched.parallel_for(list(range(12)), worker, label="r")
        assert watched.clock == plain.clock


class TestSeededBug:
    def test_selftest_passes(self):
        ok, message = selftest(threads=4)
        assert ok, message

    def test_report_carries_full_context(self):
        detector = run_racy_kernel(threads=4)
        races = [r for r in detector.races if r.region == "selftest:racy_sum"]
        assert races
        report = races[0]
        # acceptance criterion: location key, region label, both threads
        assert report.location == ("racy_total", 0)
        assert report.region == "selftest:racy_sum"
        assert report.thread_a != report.thread_b
        text = str(report)
        assert "racy_total" in text and "selftest:racy_sum" in text
        assert str(report.thread_a) in text and str(report.thread_b) in text

    def test_selftest_needs_two_threads(self):
        ok, _ = selftest(threads=1)
        assert not ok


class TestChargedLoads:
    def test_counter_load_is_charged_and_synchronized(self):
        pool = SimulatedPool(threads=2)
        counter = AtomicCounter(7, name="c")
        detector = RaceDetector()
        with detector.watch(pool):
            got = pool.parallel_for(
                [0, 1],
                lambda i, ctx: (
                    counter.load(ctx) if i else counter.fetch_add(ctx, 1)
                ),
                label="ctr",
            )
        assert not detector.races  # atomic read vs atomic RMW
        assert got[1] in (7, 8)  # sequential order: fetch_add ran first
        assert counter.value == 8  # post-region inspection

    def test_counter_load_charges_work(self):
        pool = SimulatedPool(threads=1)
        counter = AtomicCounter(0)
        with pool.serial_region() as ctx:
            counter.load(ctx)
        assert ctx.work == 1

    def test_array_add_returns_previous_value(self):
        pool = SimulatedPool(threads=1)
        arr = AtomicArray(2, name="a")
        with pool.serial_region() as ctx:
            assert arr.add(ctx, 0, 5) == 0
            assert arr.add(ctx, 0, -2) == 5
        assert arr.data[0] == 3

    def test_fetch_min(self):
        pool = SimulatedPool(threads=1)
        arr = AtomicArray(1, dtype=np.float64, name="m")
        arr.data[0] = 9.0
        with pool.serial_region() as ctx:
            assert arr.fetch_min(ctx, 0, 4.0) == 9.0
            assert arr.fetch_min(ctx, 0, 6.0) == 4.0  # no change
        assert arr.data[0] == 4.0

    def test_from_array_shares_buffer(self):
        backing = np.zeros(4, dtype=np.int64)
        arr = AtomicArray.from_array(backing, name="shared")
        pool = SimulatedPool(threads=1)
        with pool.serial_region() as ctx:
            arr.store(ctx, 2, 42)
        assert backing[2] == 42


class TestCachelineCoalescing:
    def test_adjacent_indices_share_location_key(self):
        arr = AtomicArray(4 * CACHELINE_WORDS, name="a")
        assert arr._key(0) == arr._key(CACHELINE_WORDS - 1)

    def test_line_apart_indices_do_not_share(self):
        arr = AtomicArray(4 * CACHELINE_WORDS, name="a")
        assert arr._key(0) != arr._key(CACHELINE_WORDS)

    def test_word_keys_are_exact(self):
        arr = AtomicArray(4 * CACHELINE_WORDS, name="a")
        assert arr._word(0) != arr._word(1)

    def test_false_sharing_contends_but_does_not_race(self):
        # two threads on adjacent words of one line: contention penalty
        # is charged, yet the detector stays quiet (different words)
        pool = SimulatedPool(threads=2)
        arr = AtomicArray(CACHELINE_WORDS, name="fs")
        detector = RaceDetector()
        with detector.watch(pool):
            pool.parallel_for(
                [0, 1], lambda i, ctx: arr.store(ctx, i, 1), label="fs"
            )
        assert not detector.races
        (region,) = pool.regions
        assert region.contention_penalty > 0

    def test_separate_lines_do_not_contend(self):
        pool = SimulatedPool(threads=2)
        arr = AtomicArray(2 * CACHELINE_WORDS, name="fs")
        pool.parallel_for(
            [0, CACHELINE_WORDS],
            lambda i, ctx: arr.store(ctx, i, 1),
            label="fs",
        )
        (region,) = pool.regions
        assert region.contention_penalty == 0


def _lint_codes(source: str) -> set[str]:
    return {f.code for f in lint_source(source)}


class TestLint:
    def test_mutating_call_on_captured_container(self):
        codes = _lint_codes(
            "shared = []\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    shared.append(v)\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN102" in codes

    def test_non_item_derived_store_is_error(self):
        codes = _lint_codes(
            "out = {}\n"
            "k = 3\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    out[k] = v\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN101" in codes

    def test_item_derived_store_is_warning(self):
        codes = _lint_codes(
            "import numpy as np\n"
            "out = np.zeros(10)\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    out[v] = 1\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN201" in codes and "SAN101" not in codes

    def test_recorded_item_store_is_clean(self):
        codes = _lint_codes(
            "import numpy as np\n"
            "out = np.zeros(10)\n"
            "def worker(v, ctx):\n"
            "    ctx.write(('out', v))\n"
            "    out[v] = 1\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert not codes

    def test_slice_worker_elements_are_items(self):
        # iterating a parallel_slices worker's slice yields items; a
        # loop over anything else does not, nor in a per-item worker
        source = (
            "import numpy as np\n"
            "out = np.zeros(10)\n"
            "def worker(vs, ctx):\n"
            "    ctx.write_row('out', vs)\n"
            "    out[vs] = 0\n"
            "    for v in vs:\n"
            "        out[v] = 1\n"
            "pool.parallel_slices(items, worker)\n"
        )
        assert not _lint_codes(source)
        assert "SAN101" in _lint_codes(
            source.replace("for v in vs:", "for v in other:")
        )
        assert "SAN101" in _lint_codes(
            source.replace("parallel_slices", "parallel_for")
        )

    def test_attribute_store_is_error(self):
        codes = _lint_codes(
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    obj.field = v\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN103" in codes

    def test_nonlocal_store_is_error(self):
        codes = _lint_codes(
            "def outer(pool, items):\n"
            "    total = 0\n"
            "    def worker(v, ctx):\n"
            "        nonlocal total\n"
            "        ctx.charge(1)\n"
            "        total += v\n"
            "    pool.parallel_for(items, worker)\n"
        )
        assert "SAN103" in codes

    def test_missing_ctx_call_is_warning(self):
        codes = _lint_codes(
            "def worker(v, ctx):\n"
            "    pass\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN202" in codes

    def test_passing_ctx_to_helper_counts_as_accounting(self):
        codes = _lint_codes(
            "def worker(v, ctx):\n"
            "    helper(v, ctx)\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN202" not in codes

    def test_thread_local_buffers_are_exempt(self):
        codes = _lint_codes(
            "bufs = [[] for _ in range(4)]\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    bufs[ctx.thread_id].append(v)\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert not codes

    def test_atomic_wrappers_are_exempt(self):
        codes = _lint_codes(
            "out = AtomicArray(8, name='out')\n"
            "def worker(v, ctx):\n"
            "    out.add(ctx, v, 1)\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert not codes

    def test_atomic_annotation_is_exempt(self):
        codes = _lint_codes(
            "def run(pool, items, out: AtomicArray):\n"
            "    def worker(v, ctx):\n"
            "        out.add(ctx, v, 1)\n"
            "    pool.parallel_for(items, worker)\n"
        )
        assert not codes

    def test_raw_data_store_on_atomic_is_flagged(self):
        codes = _lint_codes(
            "out = AtomicArray(8, name='out')\n"
            "k = 2\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    out.data[k] = v\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert "SAN101" in codes

    def test_suppression_comment(self):
        codes = _lint_codes(
            "shared = []\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    shared.append(v)  # sani: ok - reason here\n"
            "pool.parallel_for(items, worker)\n"
        )
        assert not codes

    def test_lambda_worker(self):
        codes = _lint_codes(
            "shared = []\n"
            "pool.parallel_for(items, lambda v, ctx: shared.append(v))\n"
        )
        assert "SAN102" in codes

    def test_syntax_error_reported(self):
        assert {"SAN000"} == _lint_codes("def broken(:\n")

    def test_src_tree_is_clean_of_errors(self):
        errors = [
            f for f in lint_paths(["src"]) if f.severity == "error"
        ]
        assert not errors, "\n".join(str(f) for f in errors)


class TestDeadSuppressions:
    """SAN002: suppression markers that no analysis consumes."""

    _LIVE = (
        "shared = []\n"
        "def worker(v, ctx):\n"
        "    ctx.charge(1)\n"
        "    shared.append(v)  # sani: ok - seeded, lint flags this\n"
        "pool.parallel_for(items, worker)\n"
    )
    _DEAD = (
        "def plain(values):\n"
        "    total = 0\n"
        "    for v in values:\n"
        "        total += v  # sani: ok - nothing here needs excusing\n"
        "    return total\n"
    )

    def test_live_marker_not_flagged(self):
        from repro.sanitizer.lint import dead_suppressions

        assert dead_suppressions(self._LIVE) == []

    def test_dead_marker_flagged_with_line(self):
        from repro.sanitizer.lint import dead_suppressions

        (finding,) = dead_suppressions(self._DEAD, path="toy.py")
        assert finding.code == "SAN002"
        assert finding.severity == "warning"
        assert (finding.path, finding.line) == ("toy.py", 4)
        assert "suppresses nothing" in finding.message

    def test_bare_marker_left_to_san001(self):
        from repro.sanitizer.lint import dead_suppressions

        source = self._DEAD.replace(
            "# sani: ok - nothing here needs excusing", "# sani: ok"
        )
        assert dead_suppressions(source) == []
        assert "SAN001" in _lint_codes(source)

    def test_unused_prove_assumption_flagged(self):
        from repro.sanitizer.lint import dead_suppressions

        source = (
            "# prove: n >= 1\n"
            "def f(n):\n"
            "    return n\n"
        )
        (finding,) = dead_suppressions(source)
        assert finding.code == "SAN002" and finding.line == 1

    def test_used_lines_keep_markers_alive(self):
        from repro.sanitizer.lint import dead_suppressions

        source = (
            "# prove: n >= 1\n"
            "def f(n):\n"
            "    return n  # sani: ok - flow proved this store disjoint\n"
        )
        assert len(dead_suppressions(source)) == 2
        assert dead_suppressions(source, used_lines={1, 3}) == []

    def test_in_tree_prove_assumptions_are_consumed(self):
        # the committed # prove: markers must seed real environments
        from pathlib import Path

        from repro.sanitizer.lint import dead_suppressions
        from repro.sanitizer.prove import prove_kernels

        report = prove_kernels(["pkc"])
        path = Path("src/repro/core/pkc.py")
        used = {
            ln
            for p, ln in report.used_marker_lines
            if Path(p).resolve() == path.resolve()
        }
        assert used, "prove recorded no assumption lines for pkc"
        findings = dead_suppressions(
            path.read_text(encoding="utf-8"),
            path=str(path),
            used_lines=used,
        )
        assert findings == [], [str(f) for f in findings]


class TestKernelGate:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_is_race_free(self, name):
        report = run_kernel(name, threads=4)
        assert report.clean, "\n".join(str(r) for r in report.races)
        assert report.regions > 0

    def test_all_kernels_cover_required_set(self):
        # the acceptance list: PHCD, PKC, PBKS, parallel accumulate,
        # and both concurrent union-find variants
        names = set(KERNELS)
        for required in (
            "phcd",
            "pkc",
            "pbks",
            "accumulate",
            "unionfind_pivot",
            "unionfind_waitfree",
        ):
            assert required in names

    def test_run_all_kernels(self):
        reports = run_all_kernels(threads=2)
        assert len(reports) == len(KERNELS)
        assert all(r.clean for r in reports)

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            run_kernel("definitely_not_a_kernel")


class TestCli:
    def test_sanitize_selftest_exit_zero(self, sanitize_tree):
        assert sanitize_tree.rc == 0, sanitize_tree.out
        assert "seeded race detected" in sanitize_tree.out
        assert sanitize_tree.report["selftest"] is True

    def test_sanitize_single_kernel(self, sanitize_tree):
        # every registered kernel runs under the race detector
        rows = {row["name"]: row for row in sanitize_tree.report["kernels"]}
        assert list(rows) == list(KERNELS)
        assert rows["pkc"]["regions"] > 0 and not rows["pkc"]["races"]
        assert "  pkc " in sanitize_tree.out

    def test_sanitize_lint_failure_exits_nonzero(self, sanitize_planted):
        run = sanitize_planted(
            {
                "src/bad.py": "shared = []\n"
                "def worker(v, ctx):\n"
                "    ctx.charge(1)\n"
                "    shared.append(v)\n"
                "pool.parallel_for(items, worker)\n"
            }
        )
        assert run.rc == 1
        assert "SAN102" in run.out
        assert run.report["families"]["lint"]["failures"] >= 1
