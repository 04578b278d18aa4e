"""Distributed core decomposition over a sharded graph.

The MPM h-index fixpoint (``repro.core.distributed``) generalizes to
shard-grained supersteps: within a superstep every shard repeatedly
recomputes the h-index estimate of its *owned* frontier vertices
against a frozen snapshot of the last-exchanged ghost values, running
local rounds until the shard is quiescent; the exchange then ships
every changed boundary estimate to the shards owning a neighbor and
wakes their remote neighbors for the next superstep.  Estimates only
decrease, so this is chaotic relaxation with a fair schedule: it
terminates at the unique greatest fixpoint below the degree bound —
the coreness — and is therefore **bit-identical** to single-node
``decomposition()`` at every shard count and every per-node thread
count.  One shard degenerates to MPM run to quiescence in a single
superstep.

Message accounting: a shard sends one message per destination shard
per superstep, carrying its changed boundary estimates for that
destination (:data:`MESSAGE_HEADER_BYTES` + 8 bytes per estimate),
charged through the cluster's :class:`~repro.cluster.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import SimCluster
from repro.cluster.node import SimNode
from repro.cluster.shard import ShardedGraph
from repro.core.distributed import h_index_rows
from repro.graph.graph import Graph, row_offsets

__all__ = [
    "DistributedReport",
    "distributed_core_decomposition",
    "MESSAGE_HEADER_BYTES",
    "ESTIMATE_BYTES",
    "DIST_PROTOCOL",
]

MESSAGE_HEADER_BYTES = 16
ESTIMATE_BYTES = 8

#: Declared protocol facts for SimDist (SAN6xx).  The analyzer proves
#: against the AST that: every store into the ``estimates`` arrays is
#: monotone non-increasing (SAN601), sends stay inside the exchange
#: closure and ``live`` state is frozen before each superstep (SAN602),
#: shard-parallel writes are owned-item disjoint (SAN603), and the
#: ``handler_roots`` are replay-safe (SAN606).
DIST_PROTOCOL = {
    "name": "decompose",
    "kernels": ("cluster_decompose",),
    "estimates": ("est", "committed", "local", "new_vals"),
    "live": ("est",),
    "compute_roots": ("_local_refine",),
    "send_scopes": (),
    "recovery_roots": (),
    "rebuild_calls": (),
    "handler_roots": ("exchange",),
    "metrics": (),
    "lww": (),
}


@dataclass
class DistributedReport:
    """Outcome of one distributed decomposition run."""

    coreness: np.ndarray
    supersteps: int
    local_rounds: int            # summed over shards and supersteps
    messages: int
    bytes_sent: int
    compute_clock: float
    comms_clock: float
    cluster_clock: float
    num_shards: int
    strategy: str
    edge_cut: int

    def as_dict(self) -> dict:
        return {
            "supersteps": self.supersteps,
            "local_rounds": self.local_rounds,
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "compute_clock": self.compute_clock,
            "comms_clock": self.comms_clock,
            "cluster_clock": self.cluster_clock,
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "edge_cut": self.edge_cut,
            "comms_compute_ratio": (
                self.comms_clock / self.compute_clock
                if self.compute_clock > 0
                else 0.0
            ),
        }


def _local_refine(
    node: SimNode,
    graph: Graph,
    shard_id: int,
    owner: np.ndarray,
    frontier: list[int],
    committed: np.ndarray,
    step: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run one shard's local rounds to quiescence for one superstep.

    ``committed`` holds the globally-exchanged estimates at superstep
    start; ghost slots are read from it and never written (other
    shards' updates from this superstep are invisible — message
    passing, not shared memory).  Returns the shard's changed owned
    vertices, their new estimates, and the local round count.
    """
    indptr, indices = graph.indptr, graph.indices
    local = committed.copy()
    front = np.sort(np.asarray(frontier, dtype=np.int64))
    rounds = 0
    with node.pool.phase("cluster.local"):
        while front.size:
            rounds += 1
            new_vals = local.copy()

            def update(vs: np.ndarray, ctx) -> None:
                # each frontier vertex owns its new_vals slot; local is
                # read-only inside the round (double-buffered, as in MPM)
                starts = indptr[vs]
                lens = indptr[vs + 1] - starts
                nbrs = indices[np.repeat(starts, lens) + row_offsets(lens)]
                ctx.write_row("cl_new", vs)
                ctx.charge(len(nbrs) + len(vs))
                h = h_index_rows(local[nbrs], lens, local[vs])
                new_vals[vs] = np.minimum(h, local[vs])

            # slices of the shard's frontier  # prove: slice of [0, n)
            node.pool.parallel_slices(
                front,
                update,
                label=f"cluster:s{shard_id}:step{step}:r{rounds}",
            )
            changed = front[new_vals[front] < local[front]]
            local = new_vals
            if not changed.size:
                break
            # a drop wakes the vertex and its shard-local neighbors;
            # remote neighbors wait for the exchange.  A mask lists the
            # woken ids once, ascending
            nbrs = graph.gather_rows(changed)[0]
            woken = np.zeros(local.size, dtype=bool)
            woken[changed] = True
            woken[nbrs[owner[nbrs] == shard_id]] = True
            front = np.flatnonzero(woken)
    changed_ids = np.flatnonzero(local != committed).astype(np.int64)
    return changed_ids, local[changed_ids], rounds


def distributed_core_decomposition(
    graph: Graph,
    cluster: SimCluster,
    sharded: ShardedGraph,
) -> DistributedReport:
    """Coreness via shard-grained MPM supersteps on a simulated cluster.

    ``cluster`` must have exactly one node per shard (node *i* owns
    shard *i*).  The returned estimates are exactly the coreness —
    the fixpoint is unique — so the result is bit-identical to
    single-node decomposition for every (shards, threads) choice.
    """
    if sharded.num_shards != cluster.num_nodes:
        raise ValueError(
            f"cluster has {cluster.num_nodes} node(s) but the graph is "
            f"sharded {sharded.num_shards}-way"
        )
    n = graph.num_vertices
    est = graph.degrees().astype(np.int64).copy()
    report = DistributedReport(
        coreness=est,
        supersteps=0,
        local_rounds=0,
        messages=0,
        bytes_sent=0,
        compute_clock=0.0,
        comms_clock=0.0,
        cluster_clock=0.0,
        num_shards=sharded.num_shards,
        strategy=sharded.strategy,
        edge_cut=sharded.edge_cut,
    )
    if n == 0:
        return report
    owner = sharded.owner
    indptr, indices = graph.indptr, graph.indices
    messages0 = cluster.network.messages
    bytes0 = cluster.network.bytes_sent
    compute0 = cluster.compute_clock
    comms0 = cluster.comms_clock
    for node in cluster.nodes[: sharded.num_shards]:
        node.shard = sharded.parts[node.node_id]

    frontiers: dict[int, list[int]] = {
        part.shard_id: part.owned.tolist() for part in sharded.parts
    }
    step = 0
    while any(frontiers.values()):
        step += 1
        committed = est.copy()
        results: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

        def make_fn(shard_id: int, frontier: list[int]):
            def run(node: SimNode) -> None:
                results[shard_id] = _local_refine(
                    node, graph, shard_id, owner, frontier, committed, step
                )

            return run

        node_fns = {
            s: make_fn(s, frontier)
            for s, frontier in frontiers.items()
            if frontier
        }

        def exchange() -> None:
            # ship changed boundary estimates shard-to-shard, then
            # commit every change and wake remote neighbors
            for s in sorted(results):
                changed_ids, _, _ = results[s]
                part = sharded.parts[s]
                per_dest: dict[int, int] = {}
                for v in changed_ids.tolist():
                    for dest in part.targets.get(int(v), ()):
                        per_dest[dest] = per_dest.get(dest, 0) + 1
                for dest in sorted(per_dest):
                    cluster.network.send(
                        s,
                        dest,
                        MESSAGE_HEADER_BYTES
                        + ESTIMATE_BYTES * per_dest[dest],  # per changed boundary estimate
                    )
            next_front: dict[int, set[int]] = {s: set() for s in frontiers}
            for s in sorted(results):
                changed_ids, changed_vals, _ = results[s]
                est[changed_ids] = changed_vals
                for v in changed_ids.tolist():
                    row = indices[indptr[v] : indptr[v + 1]]
                    remote = row[owner[row] != s]
                    for u in remote.tolist():
                        next_front[int(owner[u])].add(int(u))
            for s in frontiers:
                frontiers[s] = sorted(next_front[s])

        cluster.superstep(f"decompose:step{step}", node_fns, exchange)
        report.local_rounds += sum(r[2] for r in results.values())

    report.coreness = est
    report.supersteps = step
    report.messages = cluster.network.messages - messages0
    report.bytes_sent = cluster.network.bytes_sent - bytes0
    report.compute_clock = cluster.compute_clock - compute0
    report.comms_clock = cluster.comms_clock - comms0
    report.cluster_clock = report.compute_clock + report.comms_clock
    return report
