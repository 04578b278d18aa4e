"""Incremental coreness maintenance under edge insertions/deletions.

The paper's related work (Lin et al., PVLDB'21; Sariyüce et al.,
PVLDB'13) maintains the core hierarchy on dynamic graphs.  This module
implements the classical *traversal* maintenance of the coreness array
on one engine, the level-grouped **parallel** repair of
:mod:`repro.dynamic.batch`:

* **insertion** of ``{u, v}``: only coreness-``k`` vertices,
  ``k = min(c(u), c(v))``, can gain a level, and only those reachable
  from the lower endpoint through coreness-``k`` vertices with more
  than ``k`` neighbors of coreness ``>= k`` (never through a higher
  core); a localized peel evicts candidates that cannot sustain degree
  ``k+1``, and the survivors are promoted.
* **deletion**: a frontier peel from the endpoints at level ``k``
  demotes exactly the vertices whose support collapses, updating
  only the support of each demoted vertex's level-``k`` neighbors.

Each direction sweeps the levels once; promoted or demoted vertices
become roots of the level they move to.  :meth:`DynamicGraph.apply_batch` applies
every structural mutation of a batch first and repairs once, so each
affected level is repaired once for the whole batch;
:meth:`DynamicGraph.insert_edge` and :meth:`DynamicGraph.delete_edge`
are batches of one.

The adjacency is a slack-capacity :class:`~repro.dynamic.dyncsr.DynamicCSR`
(sorted rows over a shared buffer), so :meth:`DynamicGraph.to_graph`
is a vectorized gather rather than an O(n + m) Python loop.

:class:`DynamicGraph` rebuilds the HCD lazily — full dynamic
*hierarchy* maintenance (the paper's [15]) is out of scope, but because
coreness stays incrementally correct, the rebuild runs PHCD on a ready
decomposition.  For delta snapshotting
(:func:`repro.serve.snapshot.snapshot_from_dynamic` with
``previous=``), the graph tracks which vertices had their adjacency or
coreness touched since the last :meth:`clear_dirty`.

Correctness is checked property-style in the test suite against full
recomputation after random update sequences and generated batches.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD
from repro.core.phcd import phcd_build_hcd
from repro.dynamic.batch import BatchUpdateReport, batch_repair, normalize_batch
from repro.dynamic.dyncsr import DynamicCSR
from repro.errors import GraphBuildError
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

__all__ = ["DynamicGraph"]


class DynamicGraph:
    """A mutable graph maintaining coreness across edge updates.

    Parameters
    ----------
    graph:
        Initial graph (its coreness is computed once, up front).
    """

    def __init__(self, graph: Graph) -> None:
        self._n = graph.num_vertices
        self._acsr = DynamicCSR.from_graph(graph)
        self._coreness = core_decomposition(graph).astype(np.int64)
        self._hcd_cache: HCD | None = None
        self._mutations = 0
        self._dirty_adj: set[int] = set()
        self._dirty_core: set[int] = set()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._acsr.num_edges

    @property
    def mutation_count(self) -> int:
        """Edge mutations applied since construction (snapshot lineage)."""
        return self._mutations

    @property
    def coreness(self) -> np.ndarray:
        """The maintained coreness array (read-only view)."""
        view = self._coreness.view()
        view.setflags(write=False)
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is present.

        Endpoints are validated: out-of-range vertices — including
        negative ids, which a raw Python container would silently wrap
        onto the tail of the vertex array — raise
        :class:`~repro.errors.GraphBuildError`.  ``has_edge(u, u)`` is
        ``False`` (self-loops cannot exist).
        """
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphBuildError(
                f"endpoint out of range: ({u}, {v}) for {self._n} vertices"
            )
        if u == v:
            return False
        return self._acsr.has(u, v)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor row of ``v`` (read-only view)."""
        return self._acsr.neighbors(int(v))

    def to_graph(self) -> Graph:
        """Materialize the current edge set as an immutable Graph.

        A vectorized gather out of the dynamic CSR — no per-edge
        Python loop, and no re-validation (rows are kept sorted and
        deduplicated by construction).
        """
        return self._acsr.to_csr()

    def hcd(self, threads: int = 1) -> HCD:
        """The hierarchy for the current edge set.

        Rebuilt with PHCD from the (incrementally correct) coreness and
        cached until the next update invalidates it — full dynamic
        hierarchy maintenance (the paper's [15]) is out of scope, but
        repeated queries between updates pay construction only once.
        """
        if self._hcd_cache is None:
            graph = self.to_graph()
            pool = SimulatedPool(threads=threads)
            self._hcd_cache = phcd_build_hcd(graph, self._coreness, pool)
        return self._hcd_cache

    # ------------------------------------------------------------------
    # dirty tracking (delta snapshots)
    # ------------------------------------------------------------------

    @property
    def dirty_adjacency(self) -> frozenset[int]:
        """Vertices whose rows changed since :meth:`clear_dirty`."""
        return frozenset(self._dirty_adj)

    @property
    def dirty_coreness(self) -> frozenset[int]:
        """Vertices whose coreness changed since :meth:`clear_dirty`."""
        return frozenset(self._dirty_core)

    def clear_dirty(self) -> None:
        """Reset dirty tracking (called after a snapshot consumes it)."""
        self._dirty_adj.clear()
        self._dirty_core.clear()

    # ------------------------------------------------------------------
    # single-edge updates
    # ------------------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> None:
        """Add ``{u, v}`` and repair coreness (a batch of one)."""
        u, v = int(u), int(v)
        self._check_endpoints(u, v)
        if self._acsr.has(u, v):
            raise GraphBuildError(f"edge ({u}, {v}) already present")
        self._acsr.insert(u, v)
        self._repair([(u, v)], [], SimulatedPool(threads=1))

    def delete_edge(self, u: int, v: int) -> None:
        """Remove ``{u, v}`` and repair coreness (a batch of one)."""
        u, v = int(u), int(v)
        self._check_endpoints(u, v)
        if not self._acsr.has(u, v):
            raise GraphBuildError(f"edge ({u}, {v}) not present")
        self._acsr.remove(u, v)
        self._repair([], [(u, v)], SimulatedPool(threads=1))

    # ------------------------------------------------------------------
    # batch updates
    # ------------------------------------------------------------------

    def insert_edges(self, edges) -> BatchUpdateReport:
        """Insert a batch of edges through per-edge repair.

        The whole batch is validated **before** anything is applied —
        a bad endpoint raises with the graph untouched (the old
        behavior left every earlier mutation applied).  Skip policy:
        self-loops, within-batch duplicates (including reversed
        ``(v, u)`` repeats), and already-present edges are skipped and
        reported, never silently dropped.
        """
        canonical, skipped = normalize_batch(edges, self._n, where="insert_edges")
        report = BatchUpdateReport(skipped=skipped)
        for u, v in canonical:
            if self._acsr.has(u, v):
                report.skipped.append((u, v, "present"))
                continue
            before = len(self._dirty_core)
            self.insert_edge(u, v)
            report.applied_insertions.append((u, v))
            report.changed += len(self._dirty_core) - before
        return report

    def delete_edges(self, edges) -> BatchUpdateReport:
        """Delete a batch of edges through per-edge repair.

        Validation and reporting mirror :meth:`insert_edges`; absent
        edges are skipped with reason ``"absent"``.
        """
        canonical, skipped = normalize_batch(edges, self._n, where="delete_edges")
        report = BatchUpdateReport(skipped=skipped)
        for u, v in canonical:
            if not self._acsr.has(u, v):
                report.skipped.append((u, v, "absent"))
                continue
            before = len(self._dirty_core)
            self.delete_edge(u, v)
            report.applied_deletions.append((u, v))
            report.changed += len(self._dirty_core) - before
        return report

    def apply_batch(
        self,
        insertions=(),
        deletions=(),
        pool: SimulatedPool | None = None,
        threads: int = 1,
    ) -> BatchUpdateReport:
        """Apply a batch of updates with level-grouped parallel repair.

        Both lists are validated up front (atomicity: a bad endpoint
        raises before any mutation); insertions are applied first, then
        deletions, then one :func:`~repro.dynamic.batch.batch_repair`
        pass repairs coreness for the whole batch at once.  The repair
        runs as ``parallel_for`` kernels on ``pool`` (or a fresh
        ``threads``-wide pool) and is bit-identical to per-edge
        maintenance at any thread count.

        Skip policy matches :meth:`insert_edges` / :meth:`delete_edges`:
        self-loops, duplicates, already-present insertions, and absent
        deletions are reported in ``skipped``.
        """
        ins, skipped_i = normalize_batch(insertions, self._n, where="insertions")
        dels, skipped_d = normalize_batch(deletions, self._n, where="deletions")
        report = BatchUpdateReport(skipped=skipped_i + skipped_d)
        for u, v in ins:
            if self._acsr.has(u, v):
                report.skipped.append((u, v, "present"))
            else:
                self._acsr.insert(u, v)
                report.applied_insertions.append((u, v))
        for u, v in dels:
            if not self._acsr.has(u, v):
                report.skipped.append((u, v, "absent"))
            else:
                self._acsr.remove(u, v)
                report.applied_deletions.append((u, v))
        if not report.applied:
            return report
        if pool is None:
            pool = SimulatedPool(threads=threads)
        report.changed, report.rounds = self._repair(
            report.applied_insertions, report.applied_deletions, pool
        )
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _repair(
        self,
        inserted: list[tuple[int, int]],
        deleted: list[tuple[int, int]],
        pool: SimulatedPool,
    ) -> tuple[int, int]:
        """Record applied mutations and repair coreness on ``pool``;
        returns ``(changed vertices, repair rounds)``."""
        self._hcd_cache = None
        for u, v in inserted + deleted:
            self._mutations += 1
            self._dirty_adj.update((u, v))
        with pool.phase("dynamic.batch"):
            changed, rounds = batch_repair(
                self._acsr, self._coreness, inserted, deleted, pool
            )
        self._dirty_core.update(changed)
        return len(changed), rounds

    def _check_endpoints(self, u: int, v: int) -> None:
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphBuildError(f"endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphBuildError("self-loops are not allowed")
