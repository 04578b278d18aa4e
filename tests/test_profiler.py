"""SimProf span tracer: zero perturbation, coverage, exports, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.graph.io import write_edge_list
from repro.parallel.atomics import AtomicArray
from repro.parallel.cost_model import CONTENDED_ATOMIC_COST
from repro.parallel.scheduler import SchedulerError, SimulatedPool
from repro.pipeline import search_best_core
from repro.profiler import (
    SpanTracer,
    check_kernel,
    chrome_trace,
    flame_summary,
    profile_report,
    selftest,
    write_artifacts,
)
from repro.sanitizer.kernels import KERNELS


def _traced_pipeline(graph, metric="average_degree", threads=4):
    pool = SimulatedPool(threads=threads)
    tracer = SpanTracer()
    tracer.attach(pool)
    result, deco = search_best_core(graph, metric, pool=pool, parallel=True)
    tracer.detach()
    return tracer, pool, result


class TestZeroPerturbation:
    def test_selftest_passes(self):
        ok, message = selftest(threads=4)
        assert ok, message

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel_clock_identical(self, name):
        # raises AssertionError on any nonzero clock delta
        check_kernel(KERNELS[name], threads=4)

    def test_pipeline_clock_identical(self, paper_like_graph):
        bare, _ = search_best_core(
            paper_like_graph, "average_degree", threads=4, parallel=True
        )
        tracer, pool, traced = _traced_pipeline(paper_like_graph)
        _, bare_deco = search_best_core(
            paper_like_graph, "average_degree", threads=4, parallel=True
        )
        assert pool.clock == bare_deco.pool.clock
        assert traced.best_k == bare.best_k


class TestSpanTree:
    def test_phases_nest_regions(self):
        pool = SimulatedPool(threads=2)
        tracer = SpanTracer()
        tracer.attach(pool)
        with pool.phase("outer"):
            with pool.phase("inner"):
                pool.parallel_for([0, 1], lambda x, ctx: ctx.charge(5))
            with pool.serial_region("setup") as ctx:
                ctx.charge(3)
        tracer.detach()
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.kind == "phase" and outer.name == "outer"
        kinds = [c.kind for c in outer.children]
        assert kinds == ["phase", "serial"]
        inner = outer.children[0]
        assert inner.children[0].kind == "parallel"

    def test_total_elapsed_bitwise_equals_clock(self, paper_like_graph):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        # not approx: the spans store the scheduler's floats verbatim
        assert tracer.total_elapsed() == pool.clock

    def test_cost_decomposition_sums_to_elapsed(self, paper_like_graph):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        for span in tracer.region_spans():
            assert sum(span.costs.values()) == pytest.approx(span.elapsed)
            assert span.costs["work"] >= 0.0

    def test_serial_regions_carry_no_parallel_overheads(self):
        pool = SimulatedPool(threads=8)
        tracer = SpanTracer()
        tracer.attach(pool)
        with pool.serial_region("s") as ctx:
            ctx.charge(7)
        tracer.detach()
        (span,) = tracer.region_spans()
        assert span.costs["spawn"] == 0.0
        assert span.costs["barrier"] == 0.0
        assert span.elapsed == pytest.approx(7.0)

    def test_imbalance_factor(self):
        pool = SimulatedPool(threads=2)
        tracer = SpanTracer()
        tracer.attach(pool)
        # item 0 does all the work -> thread 0 gets everything
        pool.parallel_for(
            [0, 1], lambda x, ctx: ctx.charge(100 if x == 0 else 0)
        )
        tracer.detach()
        (span,) = tracer.region_spans()
        assert span.imbalance == pytest.approx(2.0)

    def test_phase_inside_region_rejected(self):
        pool = SimulatedPool(threads=1)
        with pytest.raises(SchedulerError):
            with pool.serial_region("r"):
                with pool.phase("p"):
                    pass


class TestContentionAttribution:
    def _contended_run(self):
        pool = SimulatedPool(threads=4)
        tracer = SpanTracer()
        tracer.attach(pool)
        arr = AtomicArray(1, dtype=np.float64, name="hot")
        # store() is CAS-style publication: it contends, unlike the
        # relaxed fetch-add
        with pool.phase("hammer"):
            pool.parallel_for(
                range(8), lambda i, ctx: arr.store(ctx, 0, float(i))
            )
        tracer.detach()
        return tracer, pool

    def test_hot_location_reported(self):
        tracer, pool = self._contended_run()
        (span,) = tracer.region_spans()
        assert span.contention, "all threads hit one cache line"
        ((loc, (ops, queued)),) = span.contention.items()
        assert ops == 8 and queued > 0

    def test_penalty_matches_scheduler(self):
        tracer, pool = self._contended_run()
        (span,) = tracer.region_spans()
        contended = CONTENDED_ATOMIC_COST
        total_queued = sum(q for _, q in span.contention.values())
        assert total_queued * contended == pytest.approx(
            span.costs["contention"]
        )

    def test_report_surfaces_hot_lines(self):
        tracer, pool = self._contended_run()
        report = profile_report(tracer, pool)
        (phase,) = [p for p in report["phases"] if p["path"] == "hammer"]
        assert phase["hot_locations"]
        hot = phase["hot_locations"][0]
        assert hot["queued"] > 0 and hot["penalty"] > 0


class TestExports:
    def test_chrome_trace_region_durations_sum_to_clock(
        self, paper_like_graph
    ):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        trace = chrome_trace(tracer, pool)
        region_durs = [
            e["dur"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "region"
        ]
        assert sum(region_durs) == pytest.approx(pool.clock)
        assert trace["otherData"]["clock"] == pool.clock
        json.dumps(trace)  # must serialize

    def test_trace_has_vthread_lanes(self, paper_like_graph):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        trace = chrome_trace(tracer, pool)
        tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert 0 in tids and 1 in tids

    def test_profile_report_schema(self, paper_like_graph):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        report = profile_report(tracer, pool)
        assert report["schema"] == "simprof/v1"
        assert report["totals"]["region_elapsed_sum"] == pool.clock
        paths = [p["path"] for p in report["phases"]]
        assert any(p.startswith("core-decomposition") for p in paths)
        assert any(p.startswith("search/pbks:") for p in paths)
        # phase elapsed values partition the clock (up to float assoc.)
        assert sum(p["elapsed"] for p in report["phases"]) == pytest.approx(
            pool.clock
        )

    def test_flame_summary_renders(self, paper_like_graph):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        text = flame_summary(profile_report(tracer, pool))
        assert "SimProf" in text
        assert "core-decomposition" in text
        assert "phase" in text  # the table header

    def test_write_artifacts(self, paper_like_graph, tmp_path):
        tracer, pool, _ = _traced_pipeline(paper_like_graph)
        paths = write_artifacts(tracer, pool, tmp_path, prefix="t.")
        assert paths["profile"].name == "t.profile.json"
        assert paths["trace"].name == "t.trace.json"
        profile = json.loads(paths["profile"].read_text())
        trace = json.loads(paths["trace"].read_text())
        assert profile["clock"] == pool.clock
        assert trace["otherData"]["clock"] == pool.clock


class TestCli:
    def test_profile_selftest_exit_zero(self, capsys):
        assert cli_main(["profile", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_profile_run_writes_artifacts(
        self, paper_like_graph, tmp_path, capsys
    ):
        edges = tmp_path / "g.txt"
        write_edge_list(paper_like_graph, edges)
        out_dir = tmp_path / "prof"
        code = cli_main(
            [
                "profile",
                "--input",
                str(edges),
                "--threads",
                "4",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "profile.json").exists()
        assert (out_dir / "trace.json").exists()
        assert "SimProf" in capsys.readouterr().out
