"""HCDServe serving bench — writes ``BENCH_serve.json``.

Replays one deterministic 64-request synthetic workload against a
published snapshot of the AS stand-in and records, per simulated
thread count (1/2/4/8):

* **throughput** (answers per 1k work units) and the **cache hit
  rate** — both work-unit quantities, so they must be bit-identical
  across thread counts (asserted: the whole replay signature minus the
  pool clock is compared across the sweep);
* **p50/p95/p99 latency** in work units (same determinism bar);
* the **simulated pool clock**, the one legitimately thread-dependent
  number — it should *shrink* as threads grow (batched shared passes
  parallelize).

It also replays the same trace in per-query baseline mode (batch size
1, no shared-pass memoization, no result cache) and asserts the
batched service beats it on the simulated clock — the build-once/
query-many payoff the serving layer exists for.

Every recorded number is a work-unit or sim-clock quantity, so the
committed file is exactly reproducible: ``tests/test_serve.py`` rebuilds
:func:`serve_payload` in-process and requires it to equal
``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py

Writes ``benchmarks/results/BENCH_serve.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.analysis.datasets import load
from repro.serve import (
    HCDService,
    ServiceConfig,
    SnapshotCatalog,
    build_snapshot,
    synthetic_trace,
)

THREADS = [1, 2, 4, 8]
DATASET = "AS"
TRACE_REQUESTS = 64
TRACE_SEED = 7
BASELINE_THREADS = 4


def _signature(report) -> dict:
    """The thread-count-independent part of a replay report."""
    payload = report.as_dict()
    payload.pop("sim_clock")
    payload.pop("threads")
    payload["records"] = [r.as_dict() for r in report.records]
    return payload


def serve_payload() -> dict:
    """The ``BENCH_serve.json`` payload (asserts determinism + the win)."""
    dataset = load(DATASET)
    trace = synthetic_trace(TRACE_REQUESTS, seed=TRACE_SEED)
    assert len(trace) >= 32, "speedup claim requires a >=32-query trace"

    with tempfile.TemporaryDirectory() as root:
        catalog = SnapshotCatalog(root)
        snapshot = build_snapshot(
            dataset.graph, threads=4, name="bench", source=DATASET
        )
        catalog.publish(snapshot)

        rows = []
        signatures = []
        for threads in THREADS:
            service = HCDService(catalog, "bench", threads=threads)
            report = service.serve(trace)
            signatures.append(_signature(report))
            rows.append(
                {
                    "threads": threads,
                    "throughput_per_1k_work": report.throughput,
                    "cache_hit_rate": report.cache["hit_rate"],
                    "p50_work_units": report.p50,
                    "p95_work_units": report.p95,
                    "p99_work_units": report.p99,
                    "work_units": report.work_units,
                    "sim_clock": report.sim_clock,
                    "admitted": report.admitted,
                    "hits": report.hits,
                    "computed": report.computed,
                    "coalesced": report.coalesced,
                    "batches": report.batches,
                }
            )

        for signature in signatures[1:]:
            assert signature == signatures[0], (
                "serving replay diverged across thread counts — "
                "work-unit accounting must be partition-independent"
            )

        baseline_config = ServiceConfig(
            max_batch=1, cache_capacity=0, share_passes=False
        )
        baseline = HCDService(
            catalog, "bench", threads=BASELINE_THREADS, config=baseline_config
        ).serve(trace)
        batched_clock = next(
            r["sim_clock"] for r in rows if r["threads"] == BASELINE_THREADS
        )
        assert batched_clock < baseline.sim_clock, (
            f"batched serving ({batched_clock:.0f}) must beat per-query "
            f"({baseline.sim_clock:.0f}) on the simulated clock for a "
            f"{len(trace)}-request trace"
        )

    return {
        "bench": "serve",
        "dataset": DATASET,
        "trace_requests": TRACE_REQUESTS,
        "trace_seed": TRACE_SEED,
        "deterministic_across_threads": True,
        "threads": rows,
        "per_query_baseline": {
            "threads": BASELINE_THREADS,
            "sim_clock": baseline.sim_clock,
            "work_units": baseline.work_units,
            "throughput_per_1k_work": baseline.throughput,
        },
        "batched_speedup": baseline.sim_clock / batched_clock,
    }


def main() -> int:
    sys.path.insert(0, str(Path(__file__).parent))
    from common import emit, paper_table, results_dir

    payload = serve_payload()
    out = results_dir() / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    rows = [
        [
            str(r["threads"]),
            f"{r['sim_clock']:.0f}",
            f"{r['work_units']:.0f}",
            f"{r['p50_work_units']:.0f}",
            f"{r['p95_work_units']:.0f}",
            f"{r['p99_work_units']:.0f}",
            f"{r['throughput_per_1k_work']:.3f}",
            f"{r['cache_hit_rate']:.2f}",
            f"{r['batches']}",
        ]
        for r in payload["threads"]
    ]
    emit(
        "bench_serve",
        paper_table(
            [
                "p",
                "sim clock",
                "work units",
                "p50",
                "p95",
                "p99",
                "thr/1k",
                "hit rate",
                "batches",
            ],
            rows,
            title=(
                f"HCDServe replay of {TRACE_REQUESTS} requests on {DATASET} "
                f"(batched {payload['batched_speedup']:.1f}x over per-query "
                f"at p={BASELINE_THREADS})"
            ),
        ),
    )
    print(f"wrote {out}")
    return 0


def test_bench_serve():
    """Pytest entry: determinism across threads + the batching win."""
    payload = serve_payload()
    assert payload["deterministic_across_threads"]
    assert payload["batched_speedup"] > 1.0
    hit_rates = {r["cache_hit_rate"] for r in payload["threads"]}
    p95s = {r["p95_work_units"] for r in payload["threads"]}
    assert len(hit_rates) == 1 and len(p95s) == 1


if __name__ == "__main__":
    sys.exit(main())
