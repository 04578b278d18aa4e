"""Parallel nucleus-hierarchy construction — the open gap of Section VII.

The paper observes: "A parallel solution for local nucleus query ...
is proposed in [44], but there is no parallel solution for the
hierarchy construction of nucleus decomposition."  Since the PHCD
paradigm only needs (i) elements arriving in descending decomposition
level and (ii) a connectivity relation preserved across levels, the
shared element framework of :mod:`repro.core.element_hierarchy`
applies verbatim with *triangles* as elements, *K4s* as motifs, and
shared edges as the outermost (theta = 0) glue.
"""

from __future__ import annotations

import numpy as np

from repro.core.element_hierarchy import build_element_hierarchy
from repro.core.hcd import HCD
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.nucleus.decomposition import TriangleIndex, nucleus_decomposition

__all__ = ["nucleus_hierarchy", "vertices_of_nucleus"]


def nucleus_hierarchy(
    graph: Graph,
    theta: np.ndarray | None = None,
    pool: SimulatedPool | None = None,
    index: TriangleIndex | None = None,
) -> HCD:
    """Build the (3,4)-nucleus hierarchy with the PHCD paradigm.

    The result is an :class:`~repro.core.hcd.HCD` over triangle ids of
    ``index``.
    """
    pool = pool or SimulatedPool(threads=1)
    index = index or TriangleIndex(graph)
    if theta is None:
        theta = nucleus_decomposition(graph, index, pool)
    return build_element_hierarchy(
        index, theta, pool, floor=0, prefix="nucleus"
    )


def vertices_of_nucleus(
    index: TriangleIndex, hierarchy: HCD, node: int
) -> np.ndarray:
    """Distinct corners of the node's nucleus triangles."""
    tris = index.triangles[hierarchy.reconstruct_core(node)]
    return np.unique(tris.reshape(-1))
