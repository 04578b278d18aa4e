"""SimCluster: nodes + network + the cluster clock-composition rule.

The cluster advances one *superstep* at a time, BSP style.  Within a
superstep every alive node runs its local compute on its own pool;
the cluster clock then advances by

    ``max over alive nodes of (node pool-clock delta * slow_factor)
      + network cost charged during the exchange``

— compute across nodes overlaps (hence the max), while the exchange
is charged through the :class:`~repro.cluster.network.Network` cost
model and serializes on the cluster clock (hence the sum).  Nodes run
sequentially inside the simulation, so superstep execution is fully
deterministic: same inputs, same per-node deltas, same clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.network import Network
from repro.cluster.node import SimNode
from repro.parallel.scheduler import SimulatedPool

__all__ = ["SuperstepRecord", "SimCluster", "BSP_BARRIER"]

#: Name of the BSP barrier method — SimDist (SAN602) anchors its phase
#: discipline on calls to this method: sends are only legal inside the
#: exchange closure passed to it, and live state read by node_fns must
#: be frozen into a snapshot before each call.
BSP_BARRIER = "superstep"


@dataclass
class SuperstepRecord:
    """Clock accounting of one superstep."""

    index: int
    label: str
    compute: float                 # max over alive nodes, slow-scaled
    comms: float                   # network cost of the exchange
    node_compute: dict[int, float] = field(default_factory=dict)
    messages: int = 0
    bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "compute": self.compute,
            "comms": self.comms,
            "node_compute": {
                str(k): v for k, v in sorted(self.node_compute.items())
            },
            "messages": self.messages,
            "bytes": self.bytes,
        }


class SimCluster:
    """A fixed set of :class:`SimNode` s joined by one :class:`Network`."""

    def __init__(
        self,
        num_nodes: int,
        threads: int = 4,
        pool: SimulatedPool | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.nodes = [
            SimNode(i, threads=threads, pool=pool) for i in range(num_nodes)
        ]
        self.network = Network(num_nodes)
        self.compute_clock = 0.0
        self.comms_clock = 0.0
        self.supersteps: list[SuperstepRecord] = []
        self.shared_pool = pool

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def clock(self) -> float:
        """The composed cluster clock: overlapped compute + comms."""
        return self.compute_clock + self.comms_clock

    def node(self, node_id: int) -> SimNode:
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def slow(self, node_id: int, factor: float) -> None:
        """Scale ``node_id``'s compute deltas by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        self.nodes[node_id].slow_factor = float(factor)

    def crash(self, node_id: int, at: float, recover_at: float | None = None) -> None:
        """Arm a deterministic crash of ``node_id`` at clock ``at``.

        The crash fires the first time the serving clock reaches
        ``at`` while the node is being dispatched to (see
        :class:`~repro.cluster.service.ClusterService`); with
        ``recover_at`` the node later re-registers from the snapshot
        catalog and rejoins its replica set.
        """
        if recover_at is not None and recover_at < at:
            raise ValueError("recover_at must be >= the crash time")
        node = self.nodes[node_id]
        node.crash_at = float(at)
        node.recover_at = None if recover_at is None else float(recover_at)

    # ------------------------------------------------------------------
    # supersteps
    # ------------------------------------------------------------------

    def superstep(
        self,
        label: str,
        node_fns: dict[int, Callable[[SimNode], None]],
        exchange: Callable[[], None] | None = None,
    ) -> SuperstepRecord:
        """Run one BSP superstep and advance the cluster clock.

        ``node_fns`` maps node ids to that node's local compute; every
        alive node with an entry runs (in ascending node order — the
        simulation is sequential, the clock model is parallel).
        ``exchange`` then performs the boundary communication, charging
        the network via :meth:`Network.send`; its cost is read off the
        network counters.  Returns the superstep's record.
        """
        messages0 = self.network.messages
        bytes0 = self.network.bytes_sent
        cost0 = self.network.total_cost
        node_compute: dict[int, float] = {}
        for node in self.nodes:
            fn = node_fns.get(node.node_id)
            if fn is None or not node.alive:
                continue
            mark = node.pool.mark()
            fn(node)
            node_compute[node.node_id] = (
                node.pool.elapsed_since(mark) * node.slow_factor
            )
        if exchange is not None:
            exchange()
        compute = max(node_compute.values(), default=0.0)
        comms = self.network.total_cost - cost0
        record = SuperstepRecord(
            index=len(self.supersteps),
            label=label,
            compute=compute,
            comms=comms,
            node_compute=node_compute,
            messages=self.network.messages - messages0,
            bytes=self.network.bytes_sent - bytes0,
        )
        self.supersteps.append(record)
        self.compute_clock += compute
        self.comms_clock += comms
        return record

    # ------------------------------------------------------------------

    def pools(self) -> list[SimulatedPool]:
        """The distinct pools of this cluster, node order preserved."""
        seen: list[SimulatedPool] = []
        for node in self.nodes:
            if all(node.pool is not pool for pool in seen):
                seen.append(node.pool)
        return seen

    def per_node_stats(self) -> list[dict]:
        """Per-node compute totals across all supersteps (JSON-ready)."""
        totals = {node.node_id: 0.0 for node in self.nodes}
        for record in self.supersteps:
            for node_id, delta in record.node_compute.items():
                totals[node_id] += delta
        sent: dict[int, int] = {node.node_id: 0 for node in self.nodes}
        received: dict[int, int] = {node.node_id: 0 for node in self.nodes}
        for (src, dst), (count, nbytes) in self.network.links.items():
            if src in sent:
                sent[src] += nbytes
            if dst in received:
                received[dst] += nbytes
        return [
            {
                "node": node.node_id,
                "alive": node.alive,
                "slow_factor": node.slow_factor,
                "compute": totals[node.node_id],
                "bytes_sent": sent[node.node_id],
                "bytes_received": received[node.node_id],
                "pool_clock": node.pool.clock,
            }
            for node in self.nodes
        ]

    def __repr__(self) -> str:
        return (
            f"SimCluster(nodes={self.num_nodes}, "
            f"clock={self.clock:.0f}, "
            f"supersteps={len(self.supersteps)})"
        )
