"""Incremental construction of :class:`~repro.graph.graph.Graph` objects.

:class:`GraphBuilder` accumulates edges from any source (parsers,
generators, tests) and produces an immutable CSR graph.  It mirrors the
preprocessing the paper applies to its datasets: directed inputs are
symmetrized, parallel edges are collapsed, and self-loops are dropped.

The builder also supports *relabeling*: sparse or string vertex names
can be mapped onto the dense ``0..n-1`` id space the algorithms expect.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.errors import GraphBuildError
from repro.graph.checked import check_vertex_count
from repro.graph.graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulate edges and build an immutable :class:`Graph`.

    Parameters
    ----------
    relabel:
        When true, endpoints may be arbitrary hashable values (strings,
        sparse ints); they are assigned dense ids in first-seen order and
        the mapping is available as :attr:`labels` after :meth:`build`.
        When false (the default), endpoints must already be non-negative
        integers and are used as-is.
    """

    def __init__(self, relabel: bool = False) -> None:
        self._relabel = relabel
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._label_to_id: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        self._min_vertices = 0
        self._built = False

    # ------------------------------------------------------------------

    def _intern(self, label: Hashable) -> int:
        vid = self._label_to_id.get(label)
        if vid is None:
            vid = len(self._labels)
            self._label_to_id[label] = vid
            self._labels.append(label)
        return vid

    def add_edge(self, u: Hashable, v: Hashable) -> "GraphBuilder":
        """Record the undirected edge ``{u, v}``.  Returns ``self``."""
        if self._built:
            raise GraphBuildError("builder already consumed by build()")
        if self._relabel:
            ui, vi = self._intern(u), self._intern(v)
        else:
            ui, vi = int(u), int(v)
            if ui < 0 or vi < 0:
                raise GraphBuildError("vertex ids must be non-negative")
        self._sources.append(ui)
        self._targets.append(vi)
        return self

    def add_edges(self, edges: Iterable[tuple[Hashable, Hashable]]) -> "GraphBuilder":
        """Record every edge in ``edges``.  Returns ``self``."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def add_vertex(self, v: Hashable) -> "GraphBuilder":
        """Ensure ``v`` exists even if it ends up isolated."""
        if self._built:
            raise GraphBuildError("builder already consumed by build()")
        if self._relabel:
            self._intern(v)
        else:
            self._min_vertices = max(self._min_vertices, int(v) + 1)
        return self

    @property
    def num_recorded_edges(self) -> int:
        """Number of ``add_edge`` calls so far (before dedup)."""
        return len(self._sources)

    # ------------------------------------------------------------------

    def build(self, num_vertices: int | None = None) -> Graph:
        """Produce the immutable graph.

        ``num_vertices`` may force a larger vertex universe than the
        largest endpoint (ignored when relabeling, where the universe is
        exactly the set of seen labels).
        """
        if self._built:
            raise GraphBuildError("builder already consumed by build()")
        self._built = True
        if self._relabel:
            n: int | None = len(self._labels)
        else:
            n = num_vertices
            if n is None and self._min_vertices:
                max_seen = max(
                    max(self._sources, default=-1),
                    max(self._targets, default=-1),
                )
                n = max(self._min_vertices, max_seen + 1)
        if n is not None:
            check_vertex_count(n)
        pairs = list(zip(self._sources, self._targets))
        return Graph.from_edges(pairs, num_vertices=n)

    @property
    def labels(self) -> list[Hashable]:
        """Dense-id → original-label mapping (relabel mode only)."""
        return list(self._labels)

    @property
    def label_to_id(self) -> dict[Hashable, int]:
        """Original-label → dense-id mapping (relabel mode only)."""
        return dict(self._label_to_id)
