"""High-level pipelines: graph in, hierarchy / best subgraph out.

These are the entry points most users want — they wire together the
stages the paper's end-to-end experiments time (Figures 5, 7, 9):

``PKC (parallel core decomposition) -> PHCD (parallel HCD construction)
-> preprocessing -> PBKS (parallel search)``

with per-phase simulated timings, and the serial counterpart
(``BZ -> LCPS -> BKS``) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD
from repro.core.lcps import lcps_build_hcd
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import VertexRankResult, compute_vertex_rank
from repro.graph.graph import Graph
from repro.parallel.cost_model import ordered_sum
from repro.parallel.scheduler import SimulatedPool
from repro.search.bks import bks_search
from repro.search.pbks import pbks_search
from repro.search.preprocessing import preprocess_neighbor_counts
from repro.search.result import SearchResult

__all__ = ["DecompositionResult", "decompose", "search_best_core"]


@dataclass
class DecompositionResult:
    """A graph's full decomposition with per-phase simulated timings."""

    graph: Graph
    coreness: np.ndarray
    hcd: HCD
    rank_result: VertexRankResult
    pool: SimulatedPool
    #: simulated time per phase, keys 'core_decomposition' and 'hcd'
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total simulated time across phases."""
        return ordered_sum(self.phase_times.values())


def decompose(
    graph: Graph,
    threads: int = 1,
    parallel: bool | None = None,
    pool: SimulatedPool | None = None,
) -> DecompositionResult:
    """Coreness + HCD of ``graph`` with per-phase timings.

    ``parallel=None`` picks the paper's pairing automatically: the
    parallel stack (PKC + PHCD) when ``threads > 1``, the serial stack
    (Batagelj-Zaversnik + LCPS) when ``threads == 1``.  Pass
    ``parallel=True`` to run the parallel algorithms on one thread
    (the paper's PHCD(1) serial-performance comparison).

    Pass ``pool`` to supply a pre-built pool — e.g. one with a SimProf
    tracer or SimTSan observer already attached; ``threads`` is then
    ignored in favor of the pool's own.
    """
    if pool is None:
        pool = SimulatedPool(threads=threads)
    else:
        threads = pool.threads
    if parallel is None:
        parallel = threads > 1
    mark = pool.mark()
    with pool.phase("core-decomposition"):
        if parallel:
            coreness = pkc_core_decomposition(graph, pool)
        else:
            coreness = core_decomposition(graph, pool)
    cd_time = pool.elapsed_since(mark)

    mark = pool.mark()
    with pool.phase("hcd"):
        rank_result = compute_vertex_rank(graph, coreness, pool)
        if parallel:
            hcd = phcd_build_hcd(
                graph, coreness, pool, rank_result=rank_result
            )
        else:
            hcd = lcps_build_hcd(graph, coreness, pool)
    hcd_time = pool.elapsed_since(mark)

    return DecompositionResult(
        graph=graph,
        coreness=coreness,
        hcd=hcd,
        rank_result=rank_result,
        pool=pool,
        phase_times={"core_decomposition": cd_time, "hcd": hcd_time},
    )


def search_best_core(
    graph: Graph,
    metric: str,
    threads: int = 1,
    parallel: bool | None = None,
    pool: SimulatedPool | None = None,
    deco: DecompositionResult | None = None,
) -> tuple[SearchResult, DecompositionResult]:
    """End-to-end best-k-core search from a raw graph.

    Runs :func:`decompose`, then the matching search engine (PBKS on
    the parallel stack, BKS on the serial stack).  The search phase's
    simulated time is added to the decomposition's ``phase_times``
    under ``'search'`` (and ``'preprocessing'``).  ``pool`` behaves as
    in :func:`decompose`.

    Pass ``deco`` to reuse an existing decomposition instead of
    recomputing coreness and the HCD — the build-once/query-many path:
    the serving layer answers every query against one shared
    :class:`DecompositionResult` (a snapshot's
    :meth:`~repro.serve.snapshot.Snapshot.decomposition`) and only the
    search stage runs per call.  ``graph`` must be the decomposed
    graph; ``threads`` is ignored in favor of the decomposition's own
    pool (or ``pool`` when also given).
    """
    if deco is not None:
        if deco.graph is not graph:
            raise ValueError(
                "deco was computed for a different graph object; "
                "pass the graph the decomposition was built from"
            )
        if pool is not None and pool is not deco.pool:
            deco = DecompositionResult(
                graph=deco.graph,
                coreness=deco.coreness,
                hcd=deco.hcd,
                rank_result=deco.rank_result,
                pool=pool,
                phase_times=dict(deco.phase_times),
            )
    else:
        deco = decompose(graph, threads=threads, parallel=parallel, pool=pool)
    pool = deco.pool
    threads = pool.threads
    use_parallel = parallel if parallel is not None else threads > 1
    mark = pool.mark()
    if use_parallel:
        with pool.phase("preprocessing"):
            counts = preprocess_neighbor_counts(graph, deco.coreness, pool)
        deco.phase_times["preprocessing"] = pool.elapsed_since(mark)
        mark = pool.mark()
        with pool.phase("search"):
            result = pbks_search(
                graph,
                deco.coreness,
                deco.hcd,
                metric,
                pool,
                counts=counts,
                rank_result=deco.rank_result,
            )
    else:
        with pool.phase("search"):
            result = bks_search(graph, deco.coreness, deco.hcd, metric, pool)
    deco.phase_times["search"] = pool.elapsed_since(mark)
    return result, deco
