"""Edge-cut graph sharding with boundary/ghost bookkeeping.

A :class:`ShardedGraph` assigns every vertex to exactly one shard (its
*owner*) and precomputes, per shard:

* ``owned``    — the shard's vertices, ascending;
* ``boundary`` — owned vertices with at least one remote neighbor
  (their estimate updates must be shipped to other shards);
* ``ghosts``   — remote vertices adjacent to the shard (whose values
  the shard reads but never writes).

Two partitioning strategies are supported: ``"range"`` assigns
contiguous vertex-id ranges (the trivially balanced baseline) and
``"lp"`` reuses the Spinner-style
:func:`~repro.core.partition.label_propagation_partition`, which
trades balance for a smaller edge cut — the difference shows up
directly in the network counters of a distributed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["ShardPart", "ShardedGraph", "shard_graph", "DIST_PARTITION"]

STRATEGIES = ("range", "lp")

#: Partition facts for SimDist (SAN603): which builder derives the
#: owned sets, and which array names the owner map.  The analyzer
#: proves the builder selects owned rows by owner-equality, so owned
#: sets are pairwise disjoint and per-shard writes confined to owned
#: slots cannot collide; frontier inserts must be keyed by the owner map.
DIST_PARTITION = {"builder": "shard_graph", "owner": "owner"}


@dataclass
class ShardPart:
    """One shard's slice of the graph."""

    shard_id: int
    owned: np.ndarray      # owned vertex ids, ascending
    boundary: np.ndarray   # owned vertices with a remote neighbor
    ghosts: np.ndarray     # remote vertices adjacent to this shard
    #: boundary vertex -> shards that own one of its neighbors
    targets: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.owned.size)


@dataclass
class ShardedGraph:
    """A graph plus an owner map and per-shard boundary structure."""

    graph: Graph
    num_shards: int
    strategy: str
    owner: np.ndarray              # vertex -> owning shard
    parts: list[ShardPart]
    edge_cut: int                  # edges with endpoints in two shards

    @property
    def cut_fraction(self) -> float:
        m = self.graph.num_edges
        return self.edge_cut / m if m else 0.0

    def part(self, shard_id: int) -> ShardPart:
        return self.parts[shard_id]

    def stats(self) -> dict:
        """JSON-ready partition quality summary."""
        return {
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "edge_cut": self.edge_cut,
            "cut_fraction": self.cut_fraction,
            "shard_sizes": [p.size for p in self.parts],
            "boundary_sizes": [int(p.boundary.size) for p in self.parts],
            "ghost_sizes": [int(p.ghosts.size) for p in self.parts],
        }


def _owner_labels(
    graph: Graph,
    num_shards: int,
    strategy: str,
    pool: SimulatedPool | None,
) -> np.ndarray:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    n = graph.num_vertices
    if n == 0 or num_shards == 1:
        # trivial partition: everything on shard 0.  Short-circuiting
        # here keeps label propagation away from empty frontier rows
        # and saves the single-shard case its propagation rounds.
        return np.zeros(n, dtype=np.int64)
    if strategy == "range":
        return (np.arange(n, dtype=np.int64) * num_shards) // n
    from repro.core.partition import label_propagation_partition

    lp_pool = pool or SimulatedPool(threads=4)
    return label_propagation_partition(graph, num_shards, lp_pool)


def shard_graph(
    graph: Graph,
    num_shards: int,
    strategy: str = "range",
    pool: SimulatedPool | None = None,
) -> ShardedGraph:
    """Partition ``graph`` into ``num_shards`` shards with ghost lists.

    ``pool`` is only used by the ``"lp"`` strategy (the label
    propagation runs on it and its cost is charged there); the
    ``"range"`` strategy is free.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = graph.num_vertices
    owner = _owner_labels(graph, num_shards, strategy, pool)
    indices = graph.indices

    # cut[e]: does adjacency entry e cross to another shard?
    source = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    source_owner = owner[source]
    neighbor_owner = owner[indices]
    cut = neighbor_owner != source_owner
    remote_mask = np.bincount(source[cut], minlength=n) > 0
    edge_cut = int(np.count_nonzero(cut)) // 2  # each cut edge seen twice

    parts: list[ShardPart] = []
    for s in range(num_shards):
        owned = np.flatnonzero(owner == s).astype(np.int64)
        boundary = owned[remote_mask[owned]]
        # the cut entries leaving shard s, by boundary vertex
        mine = cut & (source_owner == s)
        ghosts = np.unique(indices[mine])
        # one (vertex, destination shard) pair per target, sorted
        pairs = np.unique(source[mine] * num_shards + neighbor_owner[mine])
        ends = np.searchsorted(pairs // num_shards, boundary, side="right")
        dests = (pairs % num_shards).tolist()
        targets = {
            v: tuple(dests[start:end])
            for v, start, end in zip(
                boundary.tolist(), [0, *ends[:-1].tolist()], ends.tolist()
            )
        }
        parts.append(
            ShardPart(
                shard_id=s,
                owned=owned,
                boundary=boundary,
                ghosts=ghosts,
                targets=targets,
            )
        )
    return ShardedGraph(
        graph=graph,
        num_shards=num_shards,
        strategy=strategy,
        owner=owner,
        parts=parts,
        edge_cut=edge_cut,
    )
