"""Exact maximum clique (Tomita-style branch & bound with coloring).

Table IV tests whether the maximum clique is contained in PBKS-D's
output subgraph ``S*`` — the paper's argument that PBKS-D is a strong
pruning step for clique search.  This module provides the exact solver
used for that check:

* vertices are pre-ordered by degeneracy (the classic reduction: the
  maximum clique has at most ``kmax + 1`` vertices, and each vertex
  only needs to be tried against its later neighbors);
* the branch and bound prunes with greedy-coloring upper bounds
  (Tomita's MCS-style bound);
* k-core pruning discards vertices whose coreness is below the best
  clique found so far, exactly the coupling with core decomposition
  the paper exploits.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.sanitizer.memcheck import san_empty

__all__ = ["maximum_clique", "is_clique"]


def is_clique(graph: Graph, members: np.ndarray | list[int]) -> bool:
    """Whether ``members`` induces a complete subgraph."""
    members = [int(v) for v in members]
    member_set = set(members)
    for v in members:
        row = set(int(u) for u in graph.neighbors(v))
        if len(member_set & row) != len(members) - 1:
            return False
    return True


def _greedy_coloring_order(
    candidates: list[int], adj: list[set[int]]
) -> tuple[list[int], list[int]]:
    """Color candidates greedily; return (vertices, colors) sorted by color.

    The color of a vertex is an upper bound on the clique size
    achievable from it and earlier candidates, enabling Tomita pruning.
    """
    color_classes: list[list[int]] = []
    for v in candidates:
        placed = False
        for cls in color_classes:
            if all(u not in adj[v] for u in cls):
                cls.append(v)
                placed = True
                break
        if not placed:
            color_classes.append([v])
    ordered: list[int] = []
    colors: list[int] = []
    for color, cls in enumerate(color_classes, start=1):
        for v in cls:
            ordered.append(v)
            colors.append(color)
    return ordered, colors


def maximum_clique(graph: Graph) -> np.ndarray:
    """Vertices of a maximum clique (sorted ascending)."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    from repro.core.decomposition import core_decomposition

    coreness = core_decomposition(graph)
    adj: list[set[int]] = [
        set(int(u) for u in graph.neighbors(v)) for v in range(n)
    ]

    best: list[int] = []
    best_size = 0

    # Degeneracy order: process vertices by ascending coreness so each
    # root call only explores later, higher-core candidates.
    order = np.lexsort((np.arange(n), coreness))
    position = san_empty(n, np.int64, name="clique_pos")
    position[order] = np.arange(n)

    def expand(clique: list[int], candidates: list[int]) -> None:
        nonlocal best, best_size
        ordered, colors = _greedy_coloring_order(candidates, adj)
        # iterate highest color first
        for idx in range(len(ordered) - 1, -1, -1):
            if len(clique) + colors[idx] <= best_size:
                return  # color bound prunes the rest
            v = ordered[idx]
            clique.append(v)
            next_candidates = [u for u in ordered[:idx] if u in adj[v]]
            if not next_candidates:
                if len(clique) > best_size:
                    best = list(clique)
                    best_size = len(best)
            else:
                expand(clique, next_candidates)
            clique.pop()

    for v in order[::-1]:
        v = int(v)
        if int(coreness[v]) + 1 <= best_size:
            continue  # k-core prune: c(v)+1 caps any clique through v
        later = [
            int(u)
            for u in graph.neighbors(v)
            if position[u] > position[v] and int(coreness[u]) + 1 > best_size
        ]
        expand([v], later)
    return np.asarray(sorted(best), dtype=np.int64)
