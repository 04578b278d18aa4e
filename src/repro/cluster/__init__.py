"""SimCluster: a deterministic simulated multi-node substrate.

Builds the distribution layer on top of the simulated-multicore
substrate: :class:`~repro.cluster.node.SimNode` (one pool per node),
a :class:`~repro.cluster.network.Network` cost model, edge-cut
sharding with ghost lists, distributed core decomposition that is
bit-identical to the single-node pipeline, and a fault-tolerant
sharded serving router over per-node ``HCDService`` instances.
"""

from repro.cluster.cluster import BSP_BARRIER, SimCluster, SuperstepRecord
from repro.cluster.decomposition import (
    DistributedReport,
    distributed_core_decomposition,
)
from repro.cluster.network import Network, WIRE_COUNTERS
from repro.cluster.node import LWW_FIELDS, METRIC_FIELDS, SimNode
from repro.cluster.shard import (
    DIST_PARTITION,
    ShardedGraph,
    ShardPart,
    shard_graph,
)

__all__ = [
    "SimCluster",
    "SuperstepRecord",
    "SimNode",
    "Network",
    "ShardedGraph",
    "ShardPart",
    "shard_graph",
    "DistributedReport",
    "distributed_core_decomposition",
    "ClusterService",
    "ClusterServiceConfig",
    "ClusterReport",
    "ClusterProfiler",
    "BSP_BARRIER",
    "WIRE_COUNTERS",
    "LWW_FIELDS",
    "METRIC_FIELDS",
    "DIST_PARTITION",
]


def __getattr__(name):  # lazy: serving pulls in the whole serve stack
    if name in ("ClusterService", "ClusterServiceConfig", "ClusterReport"):
        from repro.cluster import service

        return getattr(service, name)
    if name == "ClusterProfiler":
        from repro.cluster.profile import ClusterProfiler

        return ClusterProfiler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
