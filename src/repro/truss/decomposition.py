"""Truss decomposition: per-edge trussness via support peeling.

The *k-truss* of a graph is the maximal subgraph in which every edge
closes at least ``k - 2`` triangles; the *trussness* ``t(e)`` of an
edge is the largest ``k`` whose k-truss contains it.  The paper's
Section VI observes that the PHCD/PBKS framework extends to cohesive
models with hierarchical decompositions, naming k-truss first — this
module provides the decomposition those extensions build on.

The algorithm is the standard bin-sort peeling over edge supports
(Wang & Cheng, PVLDB'12), run by the shared
:func:`~repro.core.element_hierarchy.peel_levels`: an edge removed at
support ``s`` gets trussness ``s + 2``.
"""

from __future__ import annotations

import numpy as np

from repro.core.element_hierarchy import motif_supports, peel_levels
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["EdgeIndex", "edge_supports", "truss_decomposition"]


class EdgeIndex:
    """Dense ids for a graph's undirected edges with O(1) lookup.

    The element index of the truss hierarchy: triangles are the motifs,
    shared endpoints the outermost glue.
    """

    __slots__ = ("edges", "_lookup", "_graph")

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self.edges = graph.edge_array()  # (m, 2) with u < v rows
        self._lookup = {
            (int(u), int(v)): i for i, (u, v) in enumerate(self.edges)
        }

    def id_of(self, u: int, v: int) -> int:
        """Edge id of ``{u, v}``; KeyError if absent."""
        return self._lookup[(u, v) if u < v else (v, u)]

    def get(self, u: int, v: int) -> int | None:
        """Edge id of ``{u, v}`` or None."""
        return self._lookup.get((u, v) if u < v else (v, u))

    def companions(self, eid: int) -> list[tuple[int, int]]:
        """For edge ``eid``, the companion edge id pairs of its triangles."""
        u, v = (int(x) for x in self.edges[eid])
        g = self._graph
        commons = np.intersect1d(
            g.neighbors(u), g.neighbors(v), assume_unique=True
        )
        return [(self.id_of(u, int(w)), self.id_of(v, int(w))) for w in commons]

    def outer_neighbors(self, eid: int) -> list[int]:
        """Edges sharing an endpoint with ``eid`` (itself once per end)."""
        u, v = (int(x) for x in self.edges[eid])
        g = self._graph
        return [self.id_of(x, int(w)) for x in (u, v) for w in g.neighbors(x)]

    def __len__(self) -> int:
        return int(self.edges.shape[0])


def edge_supports(graph: Graph, index: EdgeIndex | None = None) -> np.ndarray:
    """Number of triangles through every edge (by edge id)."""
    return motif_supports(index or EdgeIndex(graph))


def truss_decomposition(
    graph: Graph,
    index: EdgeIndex | None = None,
    pool: SimulatedPool | None = None,
) -> np.ndarray:
    """Trussness of every edge (by edge id of :class:`EdgeIndex`).

    Work is O(sum over edges of min-degree) for the support pass plus
    the peeling; charged to ``pool`` when given.
    """
    return peel_levels(index or EdgeIndex(graph), pool, "truss") + 2
