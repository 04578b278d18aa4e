"""Dynamic maintenance bench — writes ``BENCH_dynamic.json``.

Replays one deterministic mixed mutation batch (24 deletions + 24
insertions on the AS stand-in) three ways and records simulated work
units for each:

* **maintenance**: per-edge repair (one singleton ``apply_batch`` per
  mutation) vs **batched** repair (one level-grouped ``apply_batch``
  for the whole batch), both charged to a shared
  :class:`~repro.parallel.scheduler.SimulatedPool` so the work-unit
  totals are directly comparable.  The batched pass must win, and both
  must land on the exact coreness of a from-scratch recomputation.
* **publishing**: a ``DynamicServingFeed`` with ``publish_every=1``
  (one full snapshot per mutation) vs a debounced feed that coalesces
  the whole batch into a single **delta** publish reusing unchanged
  arrays.  The debounced feed must win on pool clock, and both
  catalogs must serve a 32-request query trace with identical answers.
* **determinism**: the batched repair is replayed at 1/2/4/8 simulated
  threads and the resulting coreness, changed-set size, round count,
  and work-unit totals are asserted bit-identical — only the pool
  clock may move, and the 8-thread repair must run at least
  :data:`MIN_SCALING` times faster than the 1-thread one.
* **recompute**: the from-scratch reference — ``pipeline.decompose``
  (coreness and hierarchy) of the final graph at the same thread
  counts, sim clock and work units, next to the repair rows.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py

Writes ``benchmarks/results/BENCH_dynamic.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import emit, paper_table, results_dir  # noqa: E402
from repro.analysis.datasets import load  # noqa: E402
from repro.core.decomposition import core_decomposition  # noqa: E402
from repro.dynamic import DynamicGraph  # noqa: E402
from repro.parallel.scheduler import SimulatedPool  # noqa: E402
from repro.pipeline import decompose  # noqa: E402
from repro.serve import (  # noqa: E402
    DynamicServingFeed,
    HCDService,
    SnapshotCatalog,
    synthetic_trace,
)

THREADS = [1, 2, 4, 8]
DATASET = "AS"
NUM_DELETIONS = 24
NUM_INSERTIONS = 24
MUTATION_SEED = 5
TRACE_REQUESTS = 32
TRACE_SEED = 11
BASE_THREADS = 4
#: the 8-thread repair's sim clock must be this many times below 1 thread's
MIN_SCALING = 3.0


def _mutation_batch(graph):
    """Deterministic mixed batch: strided deletions + random non-edges."""
    present = {tuple(e) for e in graph.edge_array().tolist()}
    deletions = sorted(present)[:: max(1, len(present) // NUM_DELETIONS)]
    deletions = deletions[:NUM_DELETIONS]
    rng = np.random.default_rng(MUTATION_SEED)
    insertions = []
    while len(insertions) < NUM_INSERTIONS:
        u, v = sorted(rng.integers(0, graph.num_vertices, 2).tolist())
        if u != v and (u, v) not in present:
            present.add((u, v))
            insertions.append((u, v))
    return insertions, deletions


def _pool_work(pool: SimulatedPool) -> int:
    """Total charged work units (compute + atomics) across all regions."""
    return pool.work_since(0, 0)


def _maintenance(graph, insertions, deletions) -> dict:
    """Per-edge (singleton batches) vs one batched repair, shared pools."""
    per_edge = DynamicGraph(graph)
    per_pool = SimulatedPool(threads=BASE_THREADS)
    for u, v in insertions:
        per_edge.apply_batch(insertions=[(u, v)], pool=per_pool)
    for u, v in deletions:
        per_edge.apply_batch(deletions=[(u, v)], pool=per_pool)

    batched = DynamicGraph(graph)
    batch_pool = SimulatedPool(threads=BASE_THREADS)
    report = batched.apply_batch(
        insertions=insertions, deletions=deletions, pool=batch_pool
    )

    assert np.array_equal(per_edge.coreness, batched.coreness), (
        "batched repair diverged from per-edge maintenance"
    )
    recomputed = core_decomposition(batched.to_graph())
    assert np.array_equal(batched.coreness, recomputed), (
        "batched repair diverged from a from-scratch recomputation"
    )

    per_work, batch_work = _pool_work(per_pool), _pool_work(batch_pool)
    assert batch_work < per_work, (
        f"batched maintenance ({batch_work}) must beat per-edge "
        f"({per_work}) on sim work units"
    )
    return {
        "mutations": len(insertions) + len(deletions),
        "changed_vertices": report.changed,
        "repair_rounds": report.rounds,
        "per_edge": {"work_units": per_work, "sim_clock": per_pool.clock},
        "batched": {"work_units": batch_work, "sim_clock": batch_pool.clock},
        "work_speedup": per_work / batch_work,
        "clock_speedup": per_pool.clock / batch_pool.clock,
    }


def _feed_replay(graph, insertions, deletions, root, batched: bool) -> dict:
    """Drive a serving feed through the batch; serve the query trace."""
    dyn = DynamicGraph(graph)
    pool = SimulatedPool(threads=BASE_THREADS)
    catalog = SnapshotCatalog(root)
    window = len(insertions) + len(deletions) if batched else 1
    feed = DynamicServingFeed(
        dyn, catalog, "bench", publish_every=window, pool=pool
    )
    feed.publish()  # version 1: the pre-mutation baseline
    publishes = 1
    if batched:
        if feed.apply_batch(insertions=insertions, deletions=deletions):
            publishes += 1
        if feed.flush() is not None:
            publishes += 1
    else:
        for u, v in insertions:
            if feed.apply_batch(insertions=[(u, v)]) is not None:
                publishes += 1
        for u, v in deletions:
            if feed.apply_batch(deletions=[(u, v)]) is not None:
                publishes += 1

    trace = synthetic_trace(TRACE_REQUESTS, seed=TRACE_SEED)
    service = HCDService(catalog, "bench", threads=BASE_THREADS)
    report = service.serve(trace)
    return {
        "publishes": publishes,
        "maintain_publish_clock": pool.clock,
        "maintain_publish_work": _pool_work(pool),
        "serve_records": [r.as_dict() for r in report.records],
        "serve_work_units": report.work_units,
        "coreness": dyn.coreness.copy(),
    }


def _publishing(graph, insertions, deletions) -> dict:
    """Publish-each full snapshots vs one debounced delta publish."""
    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b:
        each = _feed_replay(graph, insertions, deletions, root_a, False)
        debounced = _feed_replay(graph, insertions, deletions, root_b, True)

    assert np.array_equal(each.pop("coreness"), debounced.pop("coreness"))
    records_each = each.pop("serve_records")
    records_debounced = debounced.pop("serve_records")
    assert records_each == records_debounced, (
        "the two catalogs must answer the query trace identically"
    )
    assert debounced["publishes"] < each["publishes"]
    assert debounced["maintain_publish_clock"] < each["maintain_publish_clock"], (
        f"debounced delta publishing ({debounced['maintain_publish_clock']:.0f}) "
        f"must beat publish-each ({each['maintain_publish_clock']:.0f}) "
        "on the simulated clock"
    )
    return {
        "trace_requests": TRACE_REQUESTS,
        "identical_answers": True,
        "publish_each": each,
        "debounced_delta": debounced,
        "work_speedup": (
            each["maintain_publish_work"] / debounced["maintain_publish_work"]
        ),
        "clock_speedup": (
            each["maintain_publish_clock"] / debounced["maintain_publish_clock"]
        ),
    }


def _determinism(graph, insertions, deletions) -> list[dict]:
    """Batched repair at each thread count; everything but clock is fixed."""
    rows = []
    signatures = []
    for threads in THREADS:
        dyn = DynamicGraph(graph)
        pool = SimulatedPool(threads=threads)
        report = dyn.apply_batch(
            insertions=insertions, deletions=deletions, pool=pool
        )
        work = _pool_work(pool)
        signatures.append(
            (dyn.coreness.tobytes(), report.changed, report.rounds, work)
        )
        rows.append(
            {
                "threads": threads,
                "work_units": work,
                "sim_clock": pool.clock,
                "changed_vertices": report.changed,
                "repair_rounds": report.rounds,
            }
        )
    for signature in signatures[1:]:
        assert signature == signatures[0], (
            "batched repair diverged across thread counts — the repair "
            "must be bit-identical for any partition"
        )
    clock = {row["threads"]: row["sim_clock"] for row in rows}
    assert clock[1] >= MIN_SCALING * clock[8], (
        f"the repair must scale: 1 thread {clock[1]:.0f} vs 8 threads "
        f"{clock[8]:.0f} sim, below {MIN_SCALING}x"
    )
    return rows


def _recompute(graph, insertions, deletions) -> list[dict]:
    """``pipeline.decompose`` of the final graph at each thread count."""
    dyn = DynamicGraph(graph)
    dyn.apply_batch(insertions=insertions, deletions=deletions)
    final = dyn.to_graph()
    rows = []
    for threads in THREADS:
        pool = decompose(final, threads=threads).pool
        rows.append(
            {
                "threads": threads,
                "work_units": _pool_work(pool),
                "sim_clock": pool.clock,
            }
        )
    return rows


def run() -> dict:
    graph = load(DATASET).graph
    insertions, deletions = _mutation_batch(graph)
    assert len(insertions) == NUM_INSERTIONS
    assert len(deletions) == NUM_DELETIONS

    maintenance = _maintenance(graph, insertions, deletions)
    publishing = _publishing(graph, insertions, deletions)
    thread_rows = _determinism(graph, insertions, deletions)
    recompute_rows = _recompute(graph, insertions, deletions)

    return {
        "bench": "dynamic",
        "dataset": DATASET,
        "insertions": NUM_INSERTIONS,
        "deletions": NUM_DELETIONS,
        "mutation_seed": MUTATION_SEED,
        "trace_seed": TRACE_SEED,
        "deterministic_across_threads": True,
        "maintenance": maintenance,
        "publishing": publishing,
        "threads": thread_rows,
        "recompute": recompute_rows,
    }


def main() -> int:
    payload = run()
    out = results_dir() / "BENCH_dynamic.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    m, p = payload["maintenance"], payload["publishing"]
    rows = [
        [
            "maintenance",
            f"{m['per_edge']['work_units']}",
            f"{m['batched']['work_units']}",
            f"{m['work_speedup']:.2f}x",
            f"{m['clock_speedup']:.2f}x",
        ],
        [
            "publish+serve",
            f"{p['publish_each']['maintain_publish_work']}",
            f"{p['debounced_delta']['maintain_publish_work']}",
            f"{p['work_speedup']:.2f}x",
            f"{p['clock_speedup']:.2f}x",
        ],
    ]
    scaling = [
        [
            f"{repair['threads']}",
            f"{repair['sim_clock']:.1f}",
            f"{scratch['sim_clock']:.1f}",
            f"{repair['work_units']:.1f}",
            f"{scratch['work_units']:.1f}",
        ]
        for repair, scratch in zip(payload["threads"], payload["recompute"])
    ]
    emit(
        "bench_dynamic",
        paper_table(
            ["stage", "per-edge work", "batched work", "work", "clock"],
            rows,
            title=(
                f"Batched maintenance on {DATASET} "
                f"({NUM_INSERTIONS}+{NUM_DELETIONS} mutations, "
                f"{payload['publishing']['debounced_delta']['publishes']} vs "
                f"{payload['publishing']['publish_each']['publishes']} "
                f"publishes)"
            ),
        )
        + "\n\n"
        + paper_table(
            ["threads", "repair sim", "recompute sim", "repair work",
             "recompute work"],
            scaling,
            title="Batched repair vs pipeline.decompose of the final graph",
        ),
    )
    print(f"wrote {out}")
    return 0


def test_bench_dynamic():
    """Pytest entry: determinism + both batched-over-per-edge wins."""
    payload = run()
    assert payload["deterministic_across_threads"]
    assert payload["maintenance"]["work_speedup"] > 1.0
    assert payload["publishing"]["clock_speedup"] > 1.0
    assert payload["publishing"]["identical_answers"]


if __name__ == "__main__":
    sys.exit(main())
