"""(3,4)-nucleus decomposition: per-triangle nucleus numbers.

The nucleus decomposition of Sariyüce & Pinar generalizes k-core
(vertices/edges) and k-truss (edges/triangles) one motif higher:
*triangles* supported by *K4s*.  The (3,4)-nucleus number
``theta(T)`` of a triangle is the largest ``k`` such that ``T``
belongs to a maximal sub-collection of triangles in which every
triangle participates in at least ``k`` K4s whose four triangles all
remain in the sub-collection.

The paper's related work (Section VII) points out that hierarchy
construction for nucleus decomposition *has no parallel solution* —
:mod:`repro.nucleus.hierarchy` closes that gap with the PHCD
framework; this module provides the decomposition it consumes, via the
shared bin-bucket peel (:func:`~repro.core.element_hierarchy.peel_levels`)
that k-truss uses, one motif level up.
"""

from __future__ import annotations

import numpy as np

from repro.core.element_hierarchy import motif_supports, peel_levels
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["TriangleIndex", "triangle_supports", "nucleus_decomposition"]


class TriangleIndex:
    """Dense ids for a graph's triangles with O(1) lookup.

    Triangles are stored as sorted vertex triples, enumerated once via
    the degree-ordered wedge direction (O(m^1.5)).
    """

    __slots__ = ("triangles", "_lookup", "_graph")

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        degrees = graph.degrees()
        found: list[tuple[int, int, int]] = []
        for u, v in graph.edges():
            # direct the edge to the lower-(degree, id) endpoint
            lo, hi = (
                (u, v)
                if (int(degrees[u]), u) < (int(degrees[v]), v)
                else (v, u)
            )
            row_hi = graph.neighbors(hi)
            for w in graph.neighbors(lo):
                w = int(w)
                if w == hi:
                    continue
                # count each triangle once: at its max-id vertex as w
                if w < max(u, v):
                    continue
                pos = int(np.searchsorted(row_hi, w))
                if pos < row_hi.size and row_hi[pos] == w:
                    found.append(tuple(sorted((u, v, w))))
        unique = sorted(set(found))
        self.triangles = (
            np.asarray(unique, dtype=np.int64)
            if unique
            else np.empty((0, 3), dtype=np.int64)
        )
        self._lookup = {t: i for i, t in enumerate(unique)}

    def id_of(self, a: int, b: int, c: int) -> int:
        """Triangle id of ``{a, b, c}``; KeyError if absent."""
        return self._lookup[tuple(sorted((a, b, c)))]

    def get(self, a: int, b: int, c: int) -> int | None:
        """Triangle id of ``{a, b, c}`` or None."""
        return self._lookup.get(tuple(sorted((a, b, c))))

    def companions(self, tid: int) -> list[tuple[int, int, int]]:
        """For triangle ``tid``, its K4s as companion triangle triples.

        Each common neighbor ``w`` of the triangle's corners closes a
        K4 whose other three triangles are returned as one tuple.
        """
        a, b, c = (int(x) for x in self.triangles[tid])
        g = self._graph
        commons = np.intersect1d(
            np.intersect1d(g.neighbors(a), g.neighbors(b), assume_unique=True),
            g.neighbors(c),
            assume_unique=True,
        )
        return [
            (self.id_of(a, b, w), self.id_of(a, c, w), self.id_of(b, c, w))
            for w in map(int, commons)
        ]

    def outer_neighbors(self, tid: int) -> list[int]:
        """Triangles sharing an edge with ``tid`` (outermost-level glue)."""
        a, b, c = (int(x) for x in self.triangles[tid])
        g = self._graph
        out = []
        for u, v in ((a, b), (a, c), (b, c)):
            commons = np.intersect1d(
                g.neighbors(u), g.neighbors(v), assume_unique=True
            )
            for w in commons:
                other = self.id_of(u, v, int(w))
                if other != tid:
                    out.append(other)
        return out

    def __len__(self) -> int:
        return int(self.triangles.shape[0])


def triangle_supports(
    graph: Graph, index: TriangleIndex | None = None
) -> np.ndarray:
    """Number of K4s through every triangle (by triangle id)."""
    return motif_supports(index or TriangleIndex(graph))


def nucleus_decomposition(
    graph: Graph,
    index: TriangleIndex | None = None,
    pool: SimulatedPool | None = None,
) -> np.ndarray:
    """(3,4)-nucleus number of every triangle (by triangle id).

    Bin-bucket peeling over K4 supports, exactly the k-core/k-truss
    recipe one motif level up; charged to ``pool`` when given.
    """
    return peel_levels(index or TriangleIndex(graph), pool, "nucleus")
