"""One simulated cluster node: an id, a pool, and a local shard."""

from __future__ import annotations

from repro.parallel.scheduler import SimulatedPool

__all__ = ["SimNode", "LWW_FIELDS", "METRIC_FIELDS"]

#: Node fields whose writes are last-writer-wins: replaying a handler
#: that sets them lands in the same state (SimDist SAN606 accepts
#: plain stores to these from failover-reachable handlers).
LWW_FIELDS = ("alive", "crash_at", "recover_at", "service", "shard")

#: Monotone event counters — replay-visible but tolerated by the
#: byte-identity contract, which compares answers, not metrics.
METRIC_FIELDS = ("crashes", "recoveries")


class SimNode:
    """A node of the simulated cluster.

    Each node computes on its own :class:`SimulatedPool` (the
    shared-memory substrate of PR 1) — the cluster layer composes the
    per-node clocks, it never reaches inside them.  For sanitizer
    kernel runs a single externally-watched pool can be aliased into
    every node (``pool=...``); nodes execute sequentially in
    simulation, so sharing is observationally equivalent.  Serving
    counts a replica's regions once, in the router's dispatch cost
    (:meth:`SimulatedPool.work_since` over the node's pool), even when
    they land on the router's own pool: the replay loop's cursor skips
    whatever a dispatch ran.

    Fault state lives here too: ``slow_factor`` scales the node's
    compute deltas on the cluster clock, ``crash_at`` arms a
    deterministic crash once the serving clock passes it, and
    ``alive`` is flipped by the failover machinery.
    """

    def __init__(
        self,
        node_id: int,
        threads: int = 4,
        pool: SimulatedPool | None = None,
    ) -> None:
        self.node_id = int(node_id)
        self.pool = pool if pool is not None else SimulatedPool(threads=threads)
        self.shard = None          # ShardPart, set by the cluster
        self.alive = True
        self.slow_factor = 1.0
        self.crash_at: float | None = None
        self.recover_at: float | None = None
        self.service = None        # per-node HCDService (serving only)
        self.crashes = 0
        self.recoveries = 0

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"SimNode(id={self.node_id}, {state}, "
            f"slow={self.slow_factor:g}, pool={self.pool!r})"
        )
