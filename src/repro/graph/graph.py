"""Compressed-sparse-row (CSR) storage for undirected simple graphs.

The paper's algorithms (LCPS, PHCD, BKS, PBKS) all operate on a static
undirected simple graph whose adjacency lists are stored in flat arrays.
:class:`Graph` mirrors that layout: vertices are dense integers
``0..n-1``; ``indptr`` and ``indices`` are numpy ``int64`` arrays where
the neighbors of vertex ``v`` occupy ``indices[indptr[v]:indptr[v+1]]``.

Graphs are immutable once constructed.  Use
:class:`repro.graph.builder.GraphBuilder` or :func:`Graph.from_edges`
to build one from an edge list; both symmetrize, deduplicate, and drop
self-loops so the result is always a *simple undirected* graph, the
setting assumed throughout the paper (Section II-A).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphBuildError, GraphFormatError
from repro.graph.checked import check_vertex_count, validate_csr

__all__ = ["Graph", "row_offsets"]

#: Largest vertex count for which the scalar dedup key ``lo * n + hi``
#: provably fits int64 (``n**2 <= 2**63 - 1``).  Beyond it the key
#: arithmetic would silently wrap, merging distinct edges — dedup falls
#: back to row-wise ``np.unique`` instead.
_KEY_SAFE_N = 3_037_000_499


class Graph:
    """An immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; ``indptr[v]`` is the offset
        of vertex ``v``'s adjacency list inside ``indices``.
    indices:
        ``int64`` array of length ``2 * m`` holding the concatenated,
        per-vertex-sorted adjacency lists.  Every undirected edge
        ``{u, v}`` appears twice: as ``v`` in ``u``'s list and as ``u``
        in ``v``'s list.
    validate:
        When true (the default), treat the arrays as untrusted and run
        :func:`~repro.graph.checked.validate_csr` on them, which raises
        :class:`~repro.errors.GraphFormatError` naming the first
        violation.  Internal constructors that already guarantee the
        invariants pass false.
    """

    __slots__ = ("_indptr", "_indices", "_n", "_m")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        validate: bool = True,
    ) -> None:
        if validate:
            validate_csr(indptr, indices)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphBuildError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphBuildError("indptr must have at least one entry")
        self._indptr = indptr
        self._indices = indices
        self._n = int(indptr.size - 1)
        self._m = int(indices.size // 2)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_vertices: int | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges, reversed duplicates, and self-loops are removed;
        the resulting graph is symmetric.  ``num_vertices`` may be passed
        to include isolated vertices beyond the largest endpoint id.
        """
        try:
            pairs = np.asarray(list(edges), dtype=np.int64)
        except OverflowError as exc:
            raise GraphFormatError("vertex ids must fit int64") from exc
        if pairs.size == 0:
            return cls.empty(int(num_vertices or 0))
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError("edges must be (u, v) pairs")
        if pairs.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        max_id = int(pairs.max())
        n = max_id + 1 if num_vertices is None else int(num_vertices)
        if n <= max_id:
            raise GraphFormatError(
                f"num_vertices={n} too small for max vertex id {max_id}"
            )
        return cls._from_edge_array(pairs, check_vertex_count(n))

    @classmethod
    def _from_edge_array(cls, pairs: np.ndarray, n: int) -> "Graph":
        """Symmetrize/dedup an ``(e, 2)`` edge array and build the CSR."""
        u = pairs[:, 0]
        v = pairs[:, 1]
        keep = u != v  # drop self-loops
        u = u[keep]
        v = v[keep]
        # Canonicalize each undirected edge as (min, max) and dedup.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if n <= _KEY_SAFE_N:
            key = lo * np.int64(n) + hi
            _, first = np.unique(key, return_index=True)
            lo = lo[first]
            hi = hi[first]
        else:
            uniq = np.unique(np.column_stack([lo, hi]), axis=0)
            lo = uniq[:, 0]
            hi = uniq[:, 1]
        # Symmetric COO: both directions.
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, validate=False)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "Graph":
        """Return an edgeless graph with ``num_vertices`` vertices."""
        n = check_vertex_count(int(num_vertices))
        indptr = np.zeros(n + 1, dtype=np.int64)
        return cls(indptr, np.empty(0, dtype=np.int64), validate=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array of length ``n + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column array of length ``2 m``."""
        return self._indices

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degrees of all vertices as an ``int64`` array."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of vertex ``v`` (a read-only view)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def gather_rows(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """The neighbor lists of ``vertices``, concatenated in order, and
        their lengths, vectorized (``vertices`` is any int sequence)."""
        vs = np.asarray(vertices, dtype=np.int64)
        starts = self._indptr[vs]
        lens = self._indptr[vs + 1] - starts
        offsets = np.repeat(starts, lens) + row_offsets(lens)
        return self._indices[offsets], lens

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def average_degree(self) -> float:
        """Average degree ``2m / n`` (0.0 for the empty graph)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._m / self._n

    # ------------------------------------------------------------------
    # iteration / edges
    # ------------------------------------------------------------------

    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        indptr, indices = self._indptr, self._indices
        for u in range(self._n):
            row = indices[indptr[u] : indptr[u + 1]]
            for v in row[row > u]:
                yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        n = self._n
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        dst = self._indices
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])

    # ------------------------------------------------------------------
    # subgraphs
    # ------------------------------------------------------------------

    def induced_subgraph(
        self, vertices: Sequence[int] | np.ndarray
    ) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is
        the vertex of ``self`` that became vertex ``i`` of the subgraph.
        """
        vs = np.unique(np.asarray(vertices, dtype=np.int64))
        if vs.size and (vs[0] < 0 or vs[-1] >= self._n):
            raise GraphFormatError("subgraph vertex id out of range")
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[vs] = np.arange(vs.size, dtype=np.int64)
        sub_edges = []
        for u in vs:
            row = self.neighbors(int(u))
            for v in row[row > u]:
                if remap[v] >= 0:
                    sub_edges.append((remap[u], remap[v]))
        sub = Graph.from_edges(sub_edges, num_vertices=vs.size)
        return sub, vs

    def connected_components(self) -> np.ndarray:
        """Label each vertex with a component id (``int64`` array).

        Component ids are assigned in order of the lowest vertex id they
        contain, so the labelling is deterministic.
        """
        labels = np.full(self._n, -1, dtype=np.int64)
        next_label = 0
        stack: list[int] = []
        for start in range(self._n):
            if labels[start] != -1:
                continue
            labels[start] = next_label
            stack.append(start)
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    if labels[v] == -1:
                        labels[v] = next_label
                        stack.append(int(v))
            next_label += 1
        return labels

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return bool(
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # graphs are immutable, allow set membership
        return hash((self._n, self._m, self._indices.tobytes()[:64]))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


def row_offsets(lens: np.ndarray) -> np.ndarray:
    """``[0..lens[0]), [0..lens[1]), ...`` concatenated, vectorized."""
    total = int(lens.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lens)
    reset = np.repeat(ends - lens, lens)
    return np.arange(total, dtype=np.int64) - reset
