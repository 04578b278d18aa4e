"""k-truss decomposition, hierarchy, and search (Section VI extension)."""

from repro.truss.decomposition import EdgeIndex, edge_supports, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy
from repro.truss.search import TRUSS_METRICS, TrussSearchResult, best_truss

__all__ = [
    "EdgeIndex",
    "edge_supports",
    "truss_decomposition",
    "truss_hierarchy",
    "best_truss",
    "TrussSearchResult",
    "TRUSS_METRICS",
]
