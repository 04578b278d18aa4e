"""ClusterService: a sharded, replicated, fault-tolerant serving router.

The router partitions the *query space*: each request fingerprint is
hashed to a shard, and each shard is served by ``replicas`` nodes that
all hold the same published snapshot (replication for availability,
sharding for cache affinity — a shard's replicas only ever see their
slice of the fingerprint space, so their result caches and memoized
shared passes stay hot on it).  The replay loop is the single-node
one, :func:`~repro.serve.service.replay_trace`: admission, planning,
the work-unit clock and completion are shared, and the router only
supplies the dispatch step, which sends each shard's sub-batch to its
primary replica.  That step has three distribution-only stages:

* **routing**: request and response messages are charged through the
  :class:`~repro.cluster.network.Network` cost model and count toward
  request latency;
* **hedging**: when a dispatch costs more than ``hedge_timeout`` work
  units and another replica is alive, the router (deterministically)
  issues a backup request after ``HEDGE_BACKOFF`` and completes at
  whichever copy finishes first — the classic tail-at-scale mitigation,
  and the benchmark's tail-latency win under one slow node;
* **failover**: a node whose armed ``crash_at`` fires before or during
  a dispatch is marked dead, the in-flight work is lost, and the next
  replica answers after ``FAILOVER_PENALTY``; a dead node with
  ``recover_at`` set later *re-registers from the snapshot catalog*
  (a fresh :class:`HCDService` that reopens the latest published
  version) and rejoins its replica set.

The router opens the snapshot once and hands that one read-only
:class:`~repro.serve.snapshot.Snapshot` to every replica; only a
recovery reopens it.

Because every replica serves the same snapshot and
:meth:`HCDService.answer` depends only on (snapshot, queries), the
router's answers are **byte-identical** to a single ``HCDService`` —
under any shard count, replica count, hedging policy, or crash
schedule that leaves each shard one live replica.  Fault times are
expressed on the router's work-unit clock, so a fault scenario replays
bit-identically at any per-node thread count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import partial

from repro.cluster.cluster import SimCluster, SuperstepRecord
from repro.cluster.node import SimNode
from repro.parallel.scheduler import SimulatedPool
from repro.serve.cache import CacheStats
from repro.serve.catalog import SnapshotCatalog
from repro.serve.planner import Query
from repro.serve.service import (
    HCDService,
    ServiceConfig,
    ServiceReport,
    replay_trace,
)

__all__ = [
    "ClusterServiceConfig",
    "ClusterReport",
    "ClusterService",
    "DIST_PROTOCOL",
]

#: work units from the hedge timeout to the backup request
HEDGE_BACKOFF = 200.0
#: work units the router pays on discovering a crashed replica
FAILOVER_PENALTY = 500.0
#: routing-message bytes per routed query / per returned answer
REQUEST_BYTES = 48
RESPONSE_BYTES = 96

#: Declared protocol facts for SimDist (SAN6xx).  The router carries
#: no shared numeric estimates (answers come from immutable published
#: snapshots), so SAN601 is vacuous; what matters here is SAN602 —
#: sends confined to the dispatch path and recovery hooks rebuilding
#: from the snapshot catalog — and SAN606 replay safety of every
#: handler a failover can re-enter.
DIST_PROTOCOL = {
    "name": "serve",
    "kernels": ("cluster_serve",),
    "estimates": (),
    "live": (),
    "compute_roots": (),
    "send_scopes": ("_dispatch_attempt",),
    "recovery_roots": ("_do_recover",),
    "rebuild_calls": ("HCDService",),
    "handler_roots": (
        "_dispatch_attempt",
        "_dispatch_group",
        "_do_recover",
        "_maybe_recover",
    ),
    "metrics": ("failovers", "hedges", "recoveries"),
    "lww": (),
}


@dataclass(frozen=True)
class ClusterServiceConfig:
    """Topology and distribution knobs of the serving router.

    ``hedge_timeout`` is in work units; ``float("inf")`` (the default)
    disables hedging.
    """

    num_shards: int = 2
    replicas: int = 2
    hedge_timeout: float = float("inf")

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.hedge_timeout <= 0:
            raise ValueError("hedge_timeout must be > 0")


@dataclass
class ClusterReport(ServiceReport):
    """A :class:`ServiceReport` plus the distribution-side counters."""

    num_shards: int = 0
    replicas: int = 0
    failovers: int = 0
    hedges: int = 0
    recoveries: int = 0
    cluster_clock: float = 0.0
    network: dict = field(default_factory=dict)
    per_shard: list = field(default_factory=list)

    def as_dict(self) -> dict:
        payload = super().as_dict()
        payload.update(
            {
                "num_shards": self.num_shards,
                "replicas": self.replicas,
                "failed": self.failed,
                "failovers": self.failovers,
                "hedges": self.hedges,
                "recoveries": self.recoveries,
                "cluster_clock": self.cluster_clock,
                "network": dict(self.network),
                "per_shard": list(self.per_shard),
            }
        )
        return payload


def shard_of(fingerprint: str, num_shards: int) -> int:
    """Deterministic fingerprint -> shard map (stable across runs)."""
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % num_shards


class ClusterService:
    """Route one request trace over sharded, replicated HCD services."""

    def __init__(
        self,
        catalog: SnapshotCatalog,
        name: str,
        config: ClusterServiceConfig | None = None,
        service_config: ServiceConfig | None = None,
        threads: int = 4,
        pool: SimulatedPool | None = None,
    ) -> None:
        self.catalog = catalog
        self.name = name
        self.config = config or ClusterServiceConfig()
        self.service_config = service_config or ServiceConfig()
        total = self.config.num_shards * self.config.replicas
        # node ids 0..total-1 are replicas (shard-major); the extra
        # node is the router itself
        self.cluster = SimCluster(total + 1, threads=threads, pool=pool)
        self.router = self.cluster.nodes[total]
        # one open for every replica: a loaded snapshot is read-only
        snapshot = catalog.open(name)
        for node in self.cluster.nodes[:total]:
            node.service = HCDService(
                catalog,
                name,
                config=self.service_config,
                pool=node.pool,
                snapshot=snapshot,
            )
        self.failovers = 0
        self.hedges = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def replica_nodes(self, shard: int) -> list[SimNode]:
        """The replica set of ``shard``, primary first."""
        r = self.config.replicas
        return self.cluster.nodes[shard * r : (shard + 1) * r]

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def crash(
        self, node_id: int, at: float, recover_at: float | None = None
    ) -> None:
        """Arm a crash of replica ``node_id`` at work-unit time ``at``."""
        if node_id >= self.cluster.num_nodes - 1:
            raise ValueError("cannot crash the router node")
        self.cluster.crash(node_id, at, recover_at)

    def slow(self, node_id: int, factor: float) -> None:
        """Scale replica ``node_id``'s dispatch costs by ``factor``."""
        self.cluster.slow(node_id, factor)

    def recover(self, node_id: int) -> None:
        """Re-register a dead node from the snapshot catalog, now."""
        self._do_recover(self.cluster.nodes[node_id])

    def _do_recover(self, node: SimNode) -> None:
        node.service = HCDService(
            self.catalog,
            self.name,
            config=self.service_config,
            pool=node.pool,
        )
        node.alive = True
        node.crash_at = None
        node.recover_at = None
        node.recoveries += 1
        self.recoveries += 1

    def _maybe_recover(self, node: SimNode, now: float) -> None:
        if not node.alive and node.recover_at is not None and now >= node.recover_at:
            self._do_recover(node)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_attempt(
        self, node: SimNode, queries: dict[str, Query]
    ) -> tuple[dict, dict, float, float]:
        """Send one shard's queries to one replica; cost includes routing.

        Returns ``(results, statuses, cost, pool_delta)`` where cost is
        in work units (slow-scaled) and ``pool_delta`` is the node's
        sim-clock consumption for the cluster clock.
        """
        network = self.cluster.network
        request_cost = network.send(
            self.router.node_id,
            node.node_id,
            REQUEST_BYTES * max(len(queries), 1),  # per routed query
        )
        cursor = node.pool.region_count
        pool_mark = node.pool.mark()
        results, statuses = node.service.answer(queries)
        work = node.pool.work_since(cursor, 0.0) * node.slow_factor
        pool_delta = node.pool.elapsed_since(pool_mark) * node.slow_factor
        response_cost = network.send(
            node.node_id,
            self.router.node_id,
            RESPONSE_BYTES * max(len(results), 1),  # per answer
        )
        return results, statuses, request_cost + work + response_cost, pool_delta

    def _dispatch_group(
        self, shard: int, queries: dict[str, Query], now: float
    ) -> tuple[dict, dict, float, float, dict]:
        """Answer one shard's queries with failover and hedging.

        Walks the replica set primary-first; crashed replicas cost
        ``FAILOVER_PENALTY`` and the next replica recomputes.  Returns
        ``(results, statuses, cost, pool_delta, events)``; an empty
        results dict with empty statuses means every replica was dead.
        """
        config = self.config
        events = {"failovers": 0, "hedges": 0, "dispatches": 0}
        cost = 0.0
        pool_delta = 0.0
        replicas = self.replica_nodes(shard)
        for index, node in enumerate(replicas):
            self._maybe_recover(node, now + cost)
            if not node.alive:
                continue  # known-dead: the router routes around it
            if node.crash_at is not None and now + cost >= node.crash_at:
                # crashed between batches: discover it at dispatch time
                node.alive = False
                node.crashes += 1
                events["failovers"] += 1
                self.failovers += 1
                cost += FAILOVER_PENALTY
                continue
            events["dispatches"] += 1
            results, statuses, attempt, delta = self._dispatch_attempt(
                node, queries
            )
            pool_delta += delta
            if (
                node.crash_at is not None
                and now + cost + attempt >= node.crash_at
            ):
                # crash mid-batch: the in-flight work is lost; pay the
                # time until the crash plus the failover penalty and
                # let the next replica recompute from its own state
                lost = max(node.crash_at - (now + cost), 0.0)
                node.alive = False
                node.crashes += 1
                events["failovers"] += 1
                self.failovers += 1
                cost += lost + FAILOVER_PENALTY
                continue
            hedge_partner = next(
                (
                    peer
                    for peer in replicas[index + 1 :] + replicas[:index]
                    if peer.alive and peer is not node and peer.crash_at is None
                ),
                None,
            )
            if attempt > config.hedge_timeout and hedge_partner is not None:
                # deterministic hedging: the backup request fires at
                # the timeout and the batch completes at whichever
                # replica answers first
                h_results, h_statuses, h_attempt, h_delta = (
                    self._dispatch_attempt(hedge_partner, queries)
                )
                pool_delta += h_delta
                hedged_cost = (
                    config.hedge_timeout + HEDGE_BACKOFF + h_attempt
                )
                events["hedges"] += 1
                self.hedges += 1
                if hedged_cost < attempt:
                    cost += hedged_cost
                    return h_results, h_statuses, cost, pool_delta, events
                cost += attempt
                return results, statuses, cost, pool_delta, events
            cost += attempt
            return results, statuses, cost, pool_delta, events
        return {}, {}, cost, pool_delta, events

    # ------------------------------------------------------------------
    # the router's dispatch step
    # ------------------------------------------------------------------

    def _route(
        self, report: ClusterReport, queries: dict[str, Query], now: float
    ) -> tuple[dict, dict, float]:
        """Split ``queries`` by shard and answer each group on its replicas.

        The dispatch step of :func:`~repro.serve.service.replay_trace`:
        per-shard stats go to ``report.per_shard`` and the batch is one
        serving superstep on the cluster clock.
        """
        groups: dict[int, dict[str, Query]] = {}
        for fingerprint, query in queries.items():
            shard = shard_of(fingerprint, self.config.num_shards)
            groups.setdefault(shard, {})[fingerprint] = query
        answers: dict[str, object] = {}
        statuses: dict[str, str] = {}
        comms0 = self.cluster.network.total_cost
        messages0 = self.cluster.network.messages
        bytes0 = self.cluster.network.bytes_sent
        group_costs: dict[int, float] = {}
        group_deltas: dict[int, float] = {}
        for shard, group in sorted(groups.items()):
            results, group_statuses, cost, pool_delta, events = (
                self._dispatch_group(shard, group, now)
            )
            answers.update(results)
            statuses.update(group_statuses)
            group_costs[shard] = cost
            group_deltas[shard] = pool_delta
            stats = report.per_shard[shard]
            stats["requests"] += len(group)
            stats["work"] += cost
            for key, count in events.items():
                stats[key] += count
        # shard groups run concurrently on different nodes: the batch
        # completes when the slowest group does (the same max-compose
        # rule as the decomposition supersteps)
        compute = max(group_deltas.values(), default=0.0)
        self.cluster.compute_clock += compute
        self.cluster.supersteps.append(
            SuperstepRecord(
                index=len(self.cluster.supersteps),
                # the loop counts a batch before dispatching it
                label=f"serve:batch{report.batches - 1}",
                compute=compute,
                comms=self.cluster.network.total_cost - comms0,
                node_compute=group_deltas,
                messages=self.cluster.network.messages - messages0,
                bytes=self.cluster.network.bytes_sent - bytes0,
            )
        )
        return answers, statuses, now + max(group_costs.values(), default=0.0)

    def serve(self, trace: list[dict]) -> ClusterReport:
        """Replay a trace through the sharded router; see module docs.

        Every live replica first moves to the catalog's latest version.
        The replicas mostly hold one shared snapshot, so the catalog is
        probed once per version they hold, not once per replica.
        """
        stale: dict[int, bool] = {}
        for node in self.cluster.nodes[:-1]:
            if node.alive and node.service is not None:
                version = node.service.snapshot.version
                if version not in stale:
                    stale[version] = self.catalog.is_stale(self.name, version)
                if stale[version]:
                    node.service.refresh()
        pool = self.router.pool
        # label the report with a version a live replica serves; a dead
        # one was never refreshed
        replicas = self.replica_nodes(0)
        live = [
            node for node in replicas
            if node.alive and node.service is not None
        ]
        report = ClusterReport(
            snapshot=(live or replicas)[0].service.snapshot.version_id,
            threads=pool.threads,
            num_shards=self.config.num_shards,
            replicas=self.config.replicas,
            per_shard=[
                dict(shard=s, requests=0, dispatches=0, work=0.0, hedges=0, failovers=0)
                for s in range(self.config.num_shards)
            ],
        )
        replay_trace(
            trace,
            report,
            pool,
            self.service_config,
            partial(self._route, report),
            prefix="cluster",
        )
        report.failovers = self.failovers
        report.hedges = self.hedges
        report.recoveries = self.recoveries
        # comms_clock accrued inside the network counters; fold the
        # serving traffic into the cluster clock
        self.cluster.comms_clock = self.cluster.network.total_cost
        report.cluster_clock = self.cluster.clock
        report.network = self.cluster.network.stats()
        # cache counters summed over every replica (hit_rate recomputed)
        caches = [
            node.service.cache.stats()
            for node in self.cluster.nodes[:-1]
            if node.service is not None
        ]
        report.cache = CacheStats(
            **{f.name: sum(getattr(c, f.name) for c in caches) for f in fields(CacheStats)}
        ).as_dict()
        return report
