"""The simulated interconnect: a deterministic network cost model.

Every message between two distinct nodes is charged

    ``LATENCY + nbytes * BYTE_COST``

in the same simulated work units the pools charge, so communication
and computation compose on one cluster clock (see
:class:`~repro.cluster.cluster.SimCluster`).  The topology is a switch:
every pair of distinct nodes is one hop apart (a non-blocking crossbar;
the common datacenter abstraction).  Like the pools' unit costs
(:mod:`repro.parallel.cost_model`), the two charges are fixed
constants.

Sends where ``src == dst`` are local handoffs: free and not counted.
The network keeps per-link message/byte counters so benchmarks can
report the comms/compute ratio and per-shard traffic; like the pools,
it is purely deterministic — same sends, same totals, bit for bit.
"""

from __future__ import annotations

import operator

__all__ = ["Network", "WIRE_COUNTERS", "LATENCY", "BYTE_COST"]

#: Charge of one message, on top of its bytes: roughly one short
#: parallel region, deliberately expensive enough that a partitioning
#: with a large edge cut shows up in the cluster clock.
LATENCY = 500.0

#: Charge per message byte: bandwidth of 8 bytes per work unit.
BYTE_COST = 0.125

#: The only fields the wire-accounting path (send/cost/reset) may
#: write.  SimDist (SAN604) proves nothing else is mutated there, so
#: charging a message can never perturb protocol state.
WIRE_COUNTERS = ("messages", "bytes_sent", "total_cost", "links")


class Network:
    """Message charges and counters between ``num_nodes`` endpoints."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = int(num_nodes)
        self.messages = 0
        self.bytes_sent = 0
        self.total_cost = 0.0
        #: (src, dst) -> [messages, bytes]
        self.links: dict[tuple[int, int], list[int]] = {}

    def _check_endpoint(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"endpoint {node} out of range [0, {self.num_nodes})"
            )
        return node

    def hops(self, src: int, dst: int) -> int:
        """Link distance between two endpoints: 0 to itself, else 1."""
        return int(self._check_endpoint(src) != self._check_endpoint(dst))

    def _check_nbytes(self, src: int, dst: int, nbytes: int) -> int:
        """Validate a message size, naming the offending site."""
        if isinstance(nbytes, bool):
            raise ValueError(
                f"message {int(src)}->{int(dst)}: nbytes must be an "
                f"int, got bool ({nbytes!r})"
            )
        try:
            nbytes = operator.index(nbytes)
        except TypeError:
            raise ValueError(
                f"message {int(src)}->{int(dst)}: nbytes must be an "
                f"int, got {type(nbytes).__name__} ({nbytes!r})"
            ) from None
        if nbytes < 0:
            raise ValueError(
                f"message {int(src)}->{int(dst)}: nbytes must be "
                f">= 0, got {nbytes}"
            )
        return nbytes

    def cost(self, src: int, dst: int, nbytes: int) -> float:
        """Charge for one message, without sending it."""
        nbytes = self._check_nbytes(src, dst, nbytes)
        if self.hops(src, dst) == 0:
            return 0.0
        return LATENCY + nbytes * BYTE_COST

    def send(self, src: int, dst: int, nbytes: int) -> float:
        """Charge and count one ``src -> dst`` message of ``nbytes``.

        Returns the charged cost.  Local sends (``src == dst``) are
        free and uncounted — shared-memory handoff, not a message.
        """
        nbytes = self._check_nbytes(src, dst, nbytes)
        charged = self.cost(src, dst, nbytes)
        if src == dst:
            return 0.0
        self.messages += 1
        self.bytes_sent += nbytes
        self.total_cost += charged
        link = self.links.setdefault((int(src), int(dst)), [0, 0])
        link[0] += 1
        link[1] += nbytes
        return charged

    def reset(self) -> None:
        """Zero every counter."""
        self.messages = 0
        self.bytes_sent = 0
        self.total_cost = 0.0
        self.links.clear()

    def stats(self) -> dict:
        """JSON-ready counter snapshot."""
        return {
            "topology": "switch",
            "latency": LATENCY,
            "byte_cost": BYTE_COST,
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "cost": self.total_cost,
            "links": {
                f"{src}->{dst}": {"messages": link[0], "bytes": link[1]}
                for (src, dst), link in sorted(self.links.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.num_nodes}, "
            "topology='switch', "
            f"messages={self.messages}, bytes={self.bytes_sent})"
        )
