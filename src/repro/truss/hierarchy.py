"""Parallel truss-hierarchy construction — the PHCD framework on edges.

Paper Section VI: "Inspired by the framework of PHCD ... we can propose
parallel hierarchy construction algorithms ... for other cohesive
subgraph models with a hierarchical decomposition, such as k-truss".
This module carries that out.

The k-trusses (for triangle connectivity, the standard community
notion of Huang et al.) nest exactly like k-cores: every triangle-
connected k-truss component is contained in one (k-1)-truss component.
:func:`truss_hierarchy` therefore runs the shared element framework of
:mod:`repro.core.element_hierarchy` with edges as elements, triangles
as motifs, and shared endpoints as the outermost (k = 2) glue.
"""

from __future__ import annotations

import numpy as np

from repro.core.element_hierarchy import ElementHierarchy, build_element_hierarchy
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.truss.decomposition import EdgeIndex, truss_decomposition

__all__ = ["truss_hierarchy"]


def truss_hierarchy(
    graph: Graph,
    trussness: np.ndarray | None = None,
    pool: SimulatedPool | None = None,
    index: EdgeIndex | None = None,
) -> ElementHierarchy:
    """Build the truss hierarchy with the PHCD paradigm on edges.

    ``trussness`` may be precomputed (else it is computed here, charged
    to the pool).  Triangle connectivity leaves each triangle-free edge
    its own 2-truss class, so, following Huang et al., the forest keeps
    *triangle* connectivity for k >= 3 and groups the 2-level by the
    edges' subgraph connectivity: one root per connected chunk of the
    graph.
    """
    pool = pool or SimulatedPool(threads=1)
    index = index or EdgeIndex(graph)
    if trussness is None:
        trussness = truss_decomposition(graph, index, pool)
    return build_element_hierarchy(
        index, trussness, pool, floor=2, prefix="truss", slot="eid"
    )
