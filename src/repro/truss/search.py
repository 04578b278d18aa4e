"""Best-truss search — the PBKS paradigm on the truss hierarchy.

Section VI of the paper: the subgraph-search framework transfers to
other hierarchical models.  On the truss hierarchy, *edges* and
*triangles* are the additive motifs — each edge belongs to exactly one
tree node, and each triangle is charged to the node of its
minimum-(trussness, id)-rank edge, so one vertex-centric counting pass
plus a bottom-up accumulation yields, for every triangle-connected
k-truss community, its edge count and triangle count, exactly as PBKS
does for k-cores.

Shipped truss metrics (over ``(m, triangles)``):

* ``average_support`` — ``3 * triangles / m``, the mean number of
  triangles per edge (the truss analogue of average degree);
* ``triangle_density`` — triangles per edge pair upper bound.

Vertex-based quantities are *not* additive over the truss forest
(communities share vertices), so they are deliberately absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.element_hierarchy import ElementHierarchy
from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool
from repro.search.result import best_finite_index
from repro.truss.decomposition import EdgeIndex

__all__ = ["TrussSearchResult", "best_truss", "TRUSS_METRICS"]


def _average_support(m: float, triangles: float) -> float:
    return 3.0 * triangles / m if m > 0 else 0.0


def _triangle_density(m: float, triangles: float) -> float:
    if m < 2:
        return 0.0
    return triangles / (m * (m - 1) / 2.0)


#: metric name -> score(m, triangles); higher is better
TRUSS_METRICS: dict[str, Callable[[float, float], float]] = {
    "average_support": _average_support,
    "triangle_density": _triangle_density,
}


@dataclass
class TrussSearchResult:
    """Outcome of a best-truss search."""

    metric_name: str
    best_node: int
    best_k: int
    best_score: float
    scores: np.ndarray
    values: np.ndarray  # (|T|, 2): accumulated (m, triangles) per node
    hierarchy: ElementHierarchy

    def best_edges(self) -> np.ndarray:
        """Edge ids of the winning community."""
        if self.best_node < 0:
            return np.empty(0, dtype=np.int64)
        return self.hierarchy.reconstruct(self.best_node)

    def best_vertices(self) -> np.ndarray:
        """Distinct endpoints of the winning community's edges."""
        edges = self.hierarchy.index.edges[self.best_edges()]
        return np.unique(edges.reshape(-1))


def best_truss(
    graph: Graph,
    hierarchy: ElementHierarchy,
    trussness: np.ndarray,
    pool: SimulatedPool,
    metric: str = "average_support",
) -> TrussSearchResult:
    """Find the best-scoring k-truss community on ``pool``."""
    if metric not in TRUSS_METRICS:
        raise KeyError(
            f"unknown truss metric {metric!r}; known: {sorted(TRUSS_METRICS)}"
        )
    score_fn = TRUSS_METRICS[metric]
    index: EdgeIndex = hierarchy.index
    t = hierarchy.num_nodes
    trussness = np.asarray(trussness, dtype=np.int64)
    if t == 0:
        return TrussSearchResult(
            metric_name=metric,
            best_node=-1,
            best_k=-1,
            best_score=float("-inf"),
            scores=np.empty(0),
            values=np.empty((0, 2)),
            hierarchy=hierarchy,
        )

    contributions = AtomicArray(t * 2, dtype=np.float64, name="truss_vals")

    def contribute(eid: int, ctx) -> None:
        node = int(hierarchy.elem_node[eid])
        ctx.charge(1)
        contributions.add(ctx, node * 2, 1.0)  # one edge
        # triangles charged to the min-(trussness, id)-rank edge
        for e1, e2 in index.companions(eid):
            ctx.charge(1)
            rank = (int(trussness[eid]), eid)
            if rank < (int(trussness[e1]), e1) and rank < (
                int(trussness[e2]),
                e2,
            ):
                contributions.add(ctx, node * 2 + 1, 1.0)

    with pool.phase("truss-search:count"):
        pool.parallel_for(
            range(len(index)),
            contribute,
            label="truss_search:count",
            chunking="dynamic",
            grain=16,
        )

    # bottom-up accumulation over the truss forest
    values = contributions.data.reshape(t, 2).copy()
    order = sorted(
        range(t), key=lambda node: -int(hierarchy.node_level[node])
    )
    for node in order:
        pa = int(hierarchy.parent[node])
        if pa >= 0:
            values[pa] += values[node]
    with pool.phase("truss-search:accumulate"):
        with pool.serial_region("truss_search:accumulate") as ctx:
            ctx.charge(t)

    scores = np.array(
        [score_fn(float(m_), float(tri)) for m_, tri in values]
    )
    best = best_finite_index(scores)
    return TrussSearchResult(
        metric_name=metric,
        best_node=best,
        best_k=int(hierarchy.node_level[best]) if best >= 0 else -1,
        best_score=float(scores[best]) if best >= 0 else float("-inf"),
        scores=scores,
        values=values,
        hierarchy=hierarchy,
    )
