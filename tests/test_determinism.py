"""Determinism regression: results are bit-identical across thread counts.

The simulated substrate executes virtual threads sequentially, so every
parallel kernel must produce *exactly* the same output no matter how
many virtual threads the pool is configured with — the thread count may
change the simulated clock (more parallelism, shorter span) but never
the answer.  A divergence here means some kernel's result depends on
the work partition, i.e. a real scheduling hazard the race detector
models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.parallel.scheduler import SimulatedPool
from repro.search.pbks import pbks_search
from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

THREADS = (1, 2, 4, 8)


def _graph():
    return powerlaw_cluster(150, 3, 0.3, seed=21)


def _hcd_snapshot(hcd):
    return (
        hcd.node_coreness.tolist(),
        hcd.parent.tolist(),
        hcd.tid.tolist(),
    )


@pytest.mark.parametrize("use_waitfree", [True, False])
def test_phcd_identical_across_thread_counts(use_waitfree):
    graph = _graph()
    snapshots = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        coreness = pkc_core_decomposition(graph, pool)
        hcd = phcd_build_hcd(
            graph, coreness, pool, use_waitfree=use_waitfree
        )
        snapshots.append((coreness.tolist(), _hcd_snapshot(hcd)))
    assert all(s == snapshots[0] for s in snapshots[1:])


def test_pbks_identical_across_thread_counts():
    graph = _graph()
    picks = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        coreness = pkc_core_decomposition(graph, pool)
        hcd = phcd_build_hcd(graph, coreness, pool)
        result = pbks_search(
            graph, coreness, hcd, "internal_density", pool
        )
        picks.append(
            (
                result.best_node,
                result.best_k,
                result.best_score,
                result.scores.tolist(),
            )
        )
    assert all(p == picks[0] for p in picks[1:])


def test_waitfree_unionfind_identical_across_thread_counts():
    graph = erdos_renyi(140, 0.05, seed=8)
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    outcomes = []
    for threads in THREADS:
        pool = SimulatedPool(threads=threads)
        uf = SimulatedWaitFreeUnionFind(
            np.arange(140), failure_rate=0.2, seed=5
        )
        pool.parallel_for(
            edges,
            lambda e, ctx: uf.union(e[0], e[1], ctx),
            label="det_uf_union",
        )
        pivots = pool.parallel_for(
            list(range(140)),
            lambda v, ctx: uf.get_pivot(v, ctx),
            label="det_uf_pivot",
        )
        comps = pool.parallel_for(
            list(range(140)),
            lambda v, ctx: uf.find(v, ctx),
            label="det_uf_find",
        )
        outcomes.append((list(pivots), list(comps)))
    assert all(o == outcomes[0] for o in outcomes[1:])


def test_serve_batch_results_identical_across_thread_counts(tmp_path):
    """Batched serving answers and the whole replay report are
    bit-identical at every thread count (the HCDServe determinism bar:
    work-unit latencies, cache stats, and query results may not depend
    on the work partition)."""
    from repro.serve import (
        HCDService,
        SnapshotCatalog,
        SnapshotExecutor,
        build_snapshot,
        normalize_request,
        plan_batch,
        synthetic_trace,
    )

    graph = _graph()
    catalog = SnapshotCatalog(tmp_path)
    catalog.publish(build_snapshot(graph, threads=4, name="det"))

    requests = [
        {"kind": "pbks", "metric": "average_degree"},
        {"kind": "pbks", "metric": "clustering_coefficient"},
        {"kind": "densest"},
        {"kind": "best_k", "metric": "internal_density"},
        {"kind": "influential", "k": 2, "r": 3, "weights": "coreness"},
    ]
    plan = plan_batch(
        [(i, normalize_request(r)) for i, r in enumerate(requests)]
    )
    trace = synthetic_trace(48, seed=3)

    batch_results = []
    replays = []
    for threads in THREADS:
        snapshot = catalog.open("det")
        executor = SnapshotExecutor(snapshot, SimulatedPool(threads=threads))
        batch_results.append(executor.execute(plan.queries))
        report = HCDService(catalog, "det", threads=threads).serve(trace)
        signature = report.as_dict()
        # the pool clock is the one legitimately thread-dependent field
        signature.pop("sim_clock")
        signature.pop("threads")
        signature["records"] = [r.as_dict() for r in report.records]
        replays.append(signature)

    assert all(r == batch_results[0] for r in batch_results[1:])
    assert all(r == replays[0] for r in replays[1:])
