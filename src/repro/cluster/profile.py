"""SimProf for SimCluster runs: per-node process lanes, shard breakdown.

A :class:`ClusterProfiler` attaches one read-only
:class:`~repro.profiler.tracer.SpanTracer` to every distinct pool of a
:class:`~repro.cluster.cluster.SimCluster` (shared-pool clusters get a
single tracer) for the duration of a ``with`` block.  Afterwards it
exports:

* :meth:`ClusterProfiler.chrome_trace` — one merged Chrome
  ``trace_event`` JSON where **each node is its own process lane**
  (``pid`` = node id) with its vthread tracks underneath, so a
  4-node × 4-thread run shows 4 × (1 + 4) tracks in Perfetto;
* :meth:`ClusterProfiler.report` — the cluster ``profile.json``:
  per-node SimProf phase aggregates plus the distribution-side facts
  a single-pool profile cannot show — per-shard work, the superstep
  ledger (compute vs comms per step), and the network counters.

Tracers observe, never charge: attaching a profiler changes the
cluster clock by **exactly 0.0** (asserted in the tests — the
zero-perturbation bar of the profiler subsystem).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster.cluster import SimCluster
from repro.profiler.export import chrome_trace
from repro.profiler.report import profile_report
from repro.profiler.tracer import SpanTracer

__all__ = ["ClusterProfiler"]


class ClusterProfiler:
    """Trace every pool of a cluster; export merged artifacts.

    Use as a context manager around the traced work::

        with ClusterProfiler(cluster) as prof:
            distributed_core_decomposition(graph, cluster, sharded)
        artifacts = prof.write_artifacts("out/")
    """

    def __init__(self, cluster: SimCluster) -> None:
        self.cluster = cluster
        # one tracer per distinct pool; nodes sharing a pool share it
        self._pools = cluster.pools()
        self.tracers = [SpanTracer() for _ in self._pools]

    def _nodes_of(self, pool) -> list[int]:
        return [
            node.node_id
            for node in self.cluster.nodes
            if node.pool is pool
        ]

    def __enter__(self) -> "ClusterProfiler":
        for pool, tracer in zip(self._pools, self.tracers):
            tracer.attach(pool)
        return self

    def __exit__(self, *exc) -> bool:
        for tracer in self.tracers:
            tracer.detach()
        return False

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def _lane_name(self, pool) -> str:
        node_ids = self._nodes_of(pool)
        if len(node_ids) == 1:
            return f"node {node_ids[0]}"
        ids = ",".join(str(i) for i in node_ids)
        return f"nodes {ids} (shared pool)"

    def chrome_trace(self) -> dict:
        """Merged Chrome trace: one process lane per node (pid = id)."""
        events: list[dict] = []
        for pool, tracer in zip(self._pools, self.tracers):
            node_ids = self._nodes_of(pool)
            pid = node_ids[0] if node_ids else 0
            sub = chrome_trace(
                tracer, pool, pid=pid, process_name=self._lane_name(pool)
            )
            events.extend(sub["traceEvents"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tracer": "SimProf/cluster",
                "nodes": self.cluster.num_nodes,
                "cluster_clock": self.cluster.clock,
                "compute_clock": self.cluster.compute_clock,
                "comms_clock": self.cluster.comms_clock,
            },
        }

    def report(self) -> dict:
        """The cluster ``profile.json``: per-node profiles + comms facts."""
        per_node_stats = self.cluster.per_node_stats()
        profiles = []
        for pool, tracer in zip(self._pools, self.tracers):
            profiles.append(
                {
                    "nodes": self._nodes_of(pool),
                    "profile": profile_report(tracer, pool),
                }
            )
        per_shard = [
            {
                "node": stats["node"],
                "compute": stats["compute"],
                "bytes_sent": stats["bytes_sent"],
                "bytes_received": stats["bytes_received"],
            }
            for stats in per_node_stats
        ]
        return {
            "cluster": {
                "nodes": self.cluster.num_nodes,
                "cluster_clock": self.cluster.clock,
                "compute_clock": self.cluster.compute_clock,
                "comms_clock": self.cluster.comms_clock,
            },
            "per_node": per_node_stats,
            "per_shard": per_shard,
            "supersteps": [r.as_dict() for r in self.cluster.supersteps],
            "network": self.cluster.network.stats(),
            "node_profiles": profiles,
        }

    def write_artifacts(
        self, out_dir: str | Path, prefix: str = "cluster_"
    ) -> dict[str, Path]:
        """Write ``cluster_profile.json`` + ``cluster_trace.json``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "profile": out / f"{prefix}profile.json",
            "trace": out / f"{prefix}trace.json",
        }
        paths["profile"].write_text(
            json.dumps(self.report(), indent=2) + "\n", encoding="utf-8"
        )
        paths["trace"].write_text(
            json.dumps(self.chrome_trace()) + "\n", encoding="utf-8"
        )
        return paths
