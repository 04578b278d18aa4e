"""repro — parallel hierarchical core decomposition and subgraph search.

A from-scratch Python implementation of

    Chu, Zhang, Zhang, Lin, Zhang:
    "Hierarchical Core Decomposition in Parallel: From Construction to
    Subgraph Search", ICDE 2022

including the paper's contributions (PHCD, PBKS), every baseline it
compares against (Batagelj-Zaversnik, PKC, ParK, LCPS, BKS, CoreApp,
RC / divide-and-conquer), and the substrates they run on (CSR graphs,
pivot/wait-free union-find, a deterministic simulated-multicore
scheduler used to reproduce the scalability experiments).

Quick start::

    from repro import Graph, decompose, search_best_core

    graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    deco = decompose(graph, threads=4)
    print(deco.hcd)                       # the hierarchy
    result, _ = search_best_core(graph, "average_degree", threads=4)
    print(result.best_k, result.best_members())
"""

from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD
from repro.core.lcps import lcps_build_hcd
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import DecompositionResult, decompose, search_best_core
from repro.dynamic.maintenance import DynamicGraph
from repro.ecc.decomposition import ecc_decomposition, k_edge_connected_components
from repro.nucleus.decomposition import nucleus_decomposition
from repro.nucleus.hierarchy import nucleus_hierarchy
from repro.search.bks import bks_search
from repro.search.anchoring import anchored_k_core, greedy_anchors
from repro.search.influential import InfluentialCommunityIndex
from repro.search.metrics import get_metric, metric_names, register_metric
from repro.search.pbks import pbks_search
from repro.search.result import SearchResult
from repro.truss.decomposition import truss_decomposition
from repro.truss.hierarchy import truss_hierarchy

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "HCD",
    "SimulatedPool",
    "core_decomposition",
    "pkc_core_decomposition",
    "lcps_build_hcd",
    "phcd_build_hcd",
    "bks_search",
    "pbks_search",
    "SearchResult",
    "register_metric",
    "get_metric",
    "metric_names",
    "decompose",
    "search_best_core",
    "DecompositionResult",
    "DynamicGraph",
    "InfluentialCommunityIndex",
    "ecc_decomposition",
    "k_edge_connected_components",
    "nucleus_decomposition",
    "nucleus_hierarchy",
    "anchored_k_core",
    "greedy_anchors",
    "truss_decomposition",
    "truss_hierarchy",
    "__version__",
]
