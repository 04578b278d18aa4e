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
    counts a replica's regions once, in the router's dispatch cost,
    even when they land on the router's own pool.

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

    def work_cursor(self) -> int:
        """Position in the pool's region log, for work-unit deltas."""
        return len(self.pool.regions)

    def work_since(self, cursor: int) -> float:
        """Work units (charges + atomics) recorded since ``cursor``.

        Work units are partition-independent, so anything measured
        through this is bit-identical across per-node thread counts.
        """
        total = 0.0
        for stats in self.pool.regions[cursor:]:
            total += stats.work_total + stats.atomic_ops
        return total

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"SimNode(id={self.node_id}, {state}, "
            f"slow={self.slow_factor:g}, pool={self.pool!r})"
        )
