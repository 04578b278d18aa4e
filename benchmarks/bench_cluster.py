"""SimCluster bench — writes ``BENCH_cluster.json``.

Three experiment families on the AS stand-in, all deterministic:

* **decomposition scaling**: the distributed shard-grained MPM at
  1/2/4/8 shards under both partitioners.  Every row is asserted
  **bit-identical** to single-node ``core_decomposition``; recorded
  per row are the edge cut, superstep/local-round counts, message and
  byte totals, and the compute/comms clock split — the comms/compute
  ratio curve is the headline: communication grows with the cut while
  overlapped compute shrinks, and label propagation's smaller cut must
  beat range sharding on comms at every shard count.  A second sweep
  fixes the sharding and scales **threads per node**, where the
  cluster clock genuinely drops (the within-node speedup curve).  The
  single-node MPM baseline runs alongside: the cluster must converge
  in **fewer supersteps than MPM takes rounds** (each superstep runs
  local rounds to quiescence), with both exactly equal to the true
  coreness.
* **sharded serving**: a 48-request trace through ``ClusterService``
  at several (shards, replicas) topologies; every answer digest must
  equal the single-node ``HCDService`` digest.
* **fault tolerance**: a deterministic crash at work-unit 500 with
  replica failover — **zero wrong answers** (digest equality with
  failovers > 0 is asserted and recorded in the payload) — and one
  8x-slowed node with and without hedging, where hedging must cut p99
  latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py

Writes ``benchmarks/results/BENCH_cluster.json`` and prints a table.
The ``serving`` section records only work-unit numbers and digests, so
it is exactly reproducible: ``tests/test_cluster.py`` rebuilds
:func:`_serving` in-process and requires it to equal the committed one.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.datasets import load
from repro.cluster import (
    ClusterService,
    ClusterServiceConfig,
    SimCluster,
    distributed_core_decomposition,
    shard_graph,
)
from repro.core.decomposition import core_decomposition
from repro.core.distributed import mpm_core_decomposition
from repro.parallel.scheduler import SimulatedPool
from repro.serve import (
    HCDService,
    SnapshotCatalog,
    build_snapshot,
    synthetic_trace,
)

DATASET = "AS"
SHARD_COUNTS = [1, 2, 4, 8]
THREAD_COUNTS = [1, 2, 4, 8]
THREADS_SWEEP_SHARDS = 4
BASE_THREADS = 4
TRACE_REQUESTS = 48
TRACE_SEED = 7
CRASH_AT = 500.0
SLOW_FACTOR = 8.0
HEDGE_TIMEOUT = 2000.0
TOPOLOGIES = [(1, 1), (2, 1), (2, 2), (4, 2)]


def _decomposition(graph) -> dict:
    reference = core_decomposition(graph)
    rows = []
    by_key: dict[tuple[str, int], dict] = {}
    for strategy in ("range", "lp"):
        for shards in SHARD_COUNTS:
            sharded = shard_graph(graph, shards, strategy=strategy)
            cluster = SimCluster(shards, threads=BASE_THREADS)
            report = distributed_core_decomposition(graph, cluster, sharded)
            assert np.array_equal(report.coreness, reference), (
                f"distributed decomposition diverged at "
                f"{strategy}/{shards} shards"
            )
            row = {
                "strategy": strategy,
                "shards": shards,
                "edge_cut": sharded.edge_cut,
                "supersteps": report.supersteps,
                "local_rounds": report.local_rounds,
                "messages": report.messages,
                "bytes": report.bytes_sent,
                "compute_clock": report.compute_clock,
                "comms_clock": report.comms_clock,
                "cluster_clock": report.cluster_clock,
                "comms_compute_ratio": report.as_dict()[
                    "comms_compute_ratio"
                ],
                "bit_identical": True,
            }
            rows.append(row)
            by_key[(strategy, shards)] = row
    # comms grows with the cut; the better partitioner pays less of it
    for shards in SHARD_COUNTS[1:]:
        assert (
            by_key[("lp", shards)]["edge_cut"]
            < by_key[("range", shards)]["edge_cut"]
        ), f"label propagation must beat range sharding on cut ({shards})"
        assert (
            by_key[("lp", shards)]["comms_clock"]
            < by_key[("range", shards)]["comms_clock"]
        ), f"smaller cut must mean cheaper exchange ({shards} shards)"
    range_comms = [by_key[("range", s)]["comms_clock"] for s in SHARD_COUNTS]
    assert range_comms == sorted(range_comms), (
        "comms clock must grow with the shard count"
    )

    # within-node speedup: fixed sharding, scale threads per node
    sharded = shard_graph(graph, THREADS_SWEEP_SHARDS, strategy="lp")
    thread_rows = []
    for threads in THREAD_COUNTS:
        cluster = SimCluster(THREADS_SWEEP_SHARDS, threads=threads)
        report = distributed_core_decomposition(graph, cluster, sharded)
        assert np.array_equal(report.coreness, reference)
        thread_rows.append(
            {
                "threads": threads,
                "compute_clock": report.compute_clock,
                "cluster_clock": report.cluster_clock,
                "speedup": thread_rows[0]["cluster_clock"]
                / report.cluster_clock
                if thread_rows
                else 1.0,
            }
        )
    assert (
        thread_rows[-1]["cluster_clock"] < thread_rows[0]["cluster_clock"]
    ), "more threads per node must shrink the cluster clock"

    # the single-node MPM baseline: supersteps vs rounds
    mpm_pool = SimulatedPool(threads=BASE_THREADS)
    mpm_coreness, mpm_rounds = mpm_core_decomposition(graph, mpm_pool)
    assert np.array_equal(mpm_coreness, reference)
    for shards in SHARD_COUNTS:
        assert by_key[("range", shards)]["supersteps"] <= mpm_rounds, (
            "a superstep runs local rounds to quiescence, so the "
            "exchange count can never exceed MPM's round count"
        )
    return {
        "shard_rows": rows,
        "thread_rows": thread_rows,
        "mpm": {
            "rounds": mpm_rounds,
            "sim_clock": mpm_pool.clock,
            "bit_identical": True,
        },
    }


def _serving(graph) -> dict:
    trace = synthetic_trace(TRACE_REQUESTS, seed=TRACE_SEED)
    with tempfile.TemporaryDirectory() as root:
        catalog = SnapshotCatalog(root)
        catalog.publish(build_snapshot(graph, name="bench"))
        reference = HCDService(catalog, "bench").serve(trace)
        digest = reference.answers_digest()

        topology_rows = []
        for shards, replicas in TOPOLOGIES:
            service = ClusterService(
                catalog,
                "bench",
                config=ClusterServiceConfig(
                    num_shards=shards, replicas=replicas
                ),
            )
            report = service.serve(trace)
            assert report.answers_digest() == digest, (
                f"sharded serving diverged at {shards}x{replicas}"
            )
            topology_rows.append(
                {
                    "shards": shards,
                    "replicas": replicas,
                    "p50": report.p50,
                    "p99": report.p99,
                    "work_units": report.work_units,
                    "network_messages": report.network["messages"],
                    "network_cost": report.network["cost"],
                    "byte_identical": True,
                }
            )

        # deterministic crash mid-run: replica failover, no wrong answers
        crashed = ClusterService(
            catalog,
            "bench",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
        )
        crashed.crash(0, at=CRASH_AT)
        crash_report = crashed.serve(trace)
        assert crash_report.failovers >= 1, "the crash must fire"
        assert crash_report.failed == 0, "failover must answer everything"
        assert crash_report.answers_digest() == digest, (
            "a crashed-and-failed-over replay produced different answers"
        )

        # hedging's tail-latency win under one slow node
        def slow_run(hedge: bool):
            config = ClusterServiceConfig(
                num_shards=2,
                replicas=2,
                hedge_timeout=HEDGE_TIMEOUT if hedge else float("inf"),
            )
            service = ClusterService(catalog, "bench", config=config)
            service.slow(0, SLOW_FACTOR)
            return service.serve(trace)

        without_hedge = slow_run(False)
        with_hedge = slow_run(True)
        assert with_hedge.hedges >= 1
        assert with_hedge.answers_digest() == digest
        assert without_hedge.answers_digest() == digest
        assert with_hedge.p99 < without_hedge.p99, (
            "hedging must cut tail latency under a slow node"
        )

    return {
        "trace_requests": TRACE_REQUESTS,
        "reference_digest": digest,
        "topologies": topology_rows,
        "crash": {
            "crash_at": CRASH_AT,
            "failovers": crash_report.failovers,
            "failed_requests": crash_report.failed,
            "zero_wrong_answers": True,
            "digest_matches_single_node": True,
        },
        "hedging": {
            "slow_factor": SLOW_FACTOR,
            "hedge_timeout": HEDGE_TIMEOUT,
            "hedges": with_hedge.hedges,
            "p99_without": without_hedge.p99,
            "p99_with": with_hedge.p99,
            "tail_win": without_hedge.p99 / with_hedge.p99,
        },
    }


def run() -> dict:
    graph = load(DATASET).graph
    return {
        "bench": "cluster",
        "dataset": DATASET,
        "trace_seed": TRACE_SEED,
        "decomposition": _decomposition(graph),
        "serving": _serving(graph),
    }


def main() -> int:
    sys.path.insert(0, str(Path(__file__).parent))
    from common import emit, paper_table, results_dir

    payload = run()
    out = results_dir() / "BENCH_cluster.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    rows = [
        [
            row["strategy"],
            str(row["shards"]),
            str(row["edge_cut"]),
            str(row["supersteps"]),
            f"{row['compute_clock']:.0f}",
            f"{row['comms_clock']:.0f}",
            f"{row['comms_compute_ratio']:.3f}",
        ]
        for row in payload["decomposition"]["shard_rows"]
    ]
    emit(
        "bench_cluster",
        paper_table(
            ["partition", "shards", "cut", "steps", "compute", "comms", "c/c"],
            rows,
            title=(
                f"Distributed decomposition on {DATASET} "
                f"(bit-identical everywhere; MPM baseline: "
                f"{payload['decomposition']['mpm']['rounds']} rounds)"
            ),
        ),
    )
    hedging = payload["serving"]["hedging"]
    print(
        f"hedging tail win under one {hedging['slow_factor']:.0f}x slow "
        f"node: p99 {hedging['p99_without']:.0f} -> "
        f"{hedging['p99_with']:.0f} ({hedging['tail_win']:.2f}x)"
    )
    crash = payload["serving"]["crash"]
    print(
        f"crash at t={crash['crash_at']:.0f}: {crash['failovers']} "
        f"failover(s), {crash['failed_requests']} failed, "
        f"zero wrong answers: {crash['zero_wrong_answers']}"
    )
    print(f"wrote {out}")
    return 0


def test_bench_cluster():
    """Pytest entry: bit-identity, zero-wrong-answers, hedging win."""
    payload = run()
    assert all(
        row["bit_identical"]
        for row in payload["decomposition"]["shard_rows"]
    )
    assert payload["decomposition"]["mpm"]["bit_identical"]
    assert all(
        row["byte_identical"] for row in payload["serving"]["topologies"]
    )
    assert payload["serving"]["crash"]["zero_wrong_answers"]
    assert payload["serving"]["crash"]["failed_requests"] == 0
    assert payload["serving"]["hedging"]["tail_win"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
