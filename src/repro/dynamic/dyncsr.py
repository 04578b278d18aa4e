"""Slack-capacity dynamic CSR: the mutable adjacency behind ``DynamicGraph``.

The original ``DynamicGraph`` kept a ``list[set[int]]`` adjacency, which
made every snapshot (``to_graph()``) an O(n + m) Python loop and kept
the maintenance kernels away from the flat-array idiom the rest of the
repo's parallel code uses.  :class:`DynamicCSR` replaces it with a
**delta-overlay CSR**:

* one shared ``int64`` buffer holds every row; ``indptr[v]`` is the
  row's start offset and ``lens[v]`` its current length (unlike an
  immutable CSR, rows are *not* contiguous — each row owns a capacity
  ``caps[v] >= lens[v]`` of slack slots so most insertions are an
  in-place sorted shift);
* a row that outgrows its capacity is **relocated** to the tail of the
  buffer with doubled capacity; the abandoned slots are tracked as
  ``dead_space`` and reclaimed by :meth:`compact` (triggered
  automatically once dead + slack bookkeeping crosses a threshold);
* rows stay **sorted**, so membership is a ``searchsorted`` probe and
  :meth:`to_csr` is a fully vectorized gather — no per-edge Python
  loop on the snapshot path.

The ``indptr`` / ``indices`` property names are deliberate: they match
the immutable :class:`~repro.graph.graph.Graph` CSR so the maintenance
kernels in :mod:`repro.dynamic.batch` traverse both through the same
trusted ``indices[indptr[v] + j]`` idiom.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphBuildError
from repro.graph.graph import Graph, row_offsets

__all__ = ["DynamicCSR"]

#: fractional headroom granted to every row on layout and compaction
_SLACK = 0.25

#: minimum slack capacity granted to any row
_MIN_CAP = 4

#: compact once dead space exceeds this fraction of the buffer
_DEAD_FRACTION = 0.5


class DynamicCSR:
    """A mutable, sorted, slack-capacity CSR adjacency.

    Construct with :meth:`from_graph` (or :meth:`empty`).  Mutations
    are undirected: :meth:`insert` / :meth:`remove` update both
    endpoint rows.  The structure does **no endpoint validation** —
    that is :class:`~repro.dynamic.DynamicGraph`'s job; indices
    reaching this layer are trusted to be canonical ``0 <= u,v < n``.
    """

    def __init__(
        self,
        starts: np.ndarray,
        lens: np.ndarray,
        caps: np.ndarray,
        buf: np.ndarray,
        tail: int,
        num_edges: int,
    ) -> None:
        self._starts = starts
        self._lens = lens
        self._caps = caps
        self._buf = buf
        self._tail = int(tail)
        self._m = int(num_edges)
        self._dead = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicCSR":
        """Lay out a graph's rows consecutively with per-row slack.

        Each row gets :data:`_SLACK` fractional headroom (at least
        :data:`_MIN_CAP` slots), so a burst of insertions rarely forces
        relocation right away.
        """
        degs = graph.degrees().astype(np.int64)
        caps = degs + np.maximum((degs * _SLACK).astype(np.int64), _MIN_CAP)
        starts = np.concatenate([[0], np.cumsum(caps)[:-1]]).astype(np.int64)
        tail = int(caps.sum())
        buf = np.zeros(max(tail, 1), dtype=np.int64)
        # vectorized scatter of the packed CSR into the slack layout
        src_indptr = graph.indptr
        n = graph.num_vertices
        if graph.num_edges:
            shift = np.repeat(starts - src_indptr[:-1], degs)
            dst = np.arange(src_indptr[-1], dtype=np.int64) + shift
            buf[dst] = graph.indices
        return cls(
            starts=starts,
            lens=degs.copy(),
            caps=caps,
            buf=buf,
            tail=tail,
            num_edges=graph.num_edges,
        ) if n else cls.empty(0)

    @classmethod
    def empty(cls, num_vertices: int) -> "DynamicCSR":
        n = int(num_vertices)
        caps = np.full(n, _MIN_CAP, dtype=np.int64)
        starts = (np.arange(n, dtype=np.int64) * _MIN_CAP)
        return cls(
            starts=starts,
            lens=np.zeros(n, dtype=np.int64),
            caps=caps,
            buf=np.zeros(max(n * _MIN_CAP, 1), dtype=np.int64),
            tail=n * _MIN_CAP,
            num_edges=0,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self._starts.size)

    @property
    def num_edges(self) -> int:
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """Row start offsets (kernel-facing; rows are non-contiguous)."""
        return self._starts

    @property
    def indices(self) -> np.ndarray:
        """The shared neighbor buffer (kernel-facing)."""
        return self._buf

    @property
    def lens(self) -> np.ndarray:
        """Per-row neighbor counts (kernel-facing)."""
        return self._lens

    @property
    def dead_space(self) -> int:
        """Buffer slots abandoned by relocated rows (reclaimed by compact)."""
        return self._dead

    def degree(self, v: int) -> int:
        return int(self._lens[v])

    def degrees(self) -> np.ndarray:
        return self._lens.copy()

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor row of ``v`` (a read-only view)."""
        s = int(self._starts[v])
        view = self._buf[s : s + int(self._lens[v])]
        view.setflags(write=False)
        return view

    def has(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is present (searchsorted probe)."""
        row = self._buf[
            int(self._starts[u]) : int(self._starts[u]) + int(self._lens[u])
        ]
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, u: int, v: int) -> None:
        """Add undirected edge ``{u, v}``; raises if already present."""
        if self.has(u, v):
            raise GraphBuildError(f"edge ({u}, {v}) already present")
        self._insert_directed(u, v)
        self._insert_directed(v, u)
        self._m += 1

    def remove(self, u: int, v: int) -> None:
        """Remove undirected edge ``{u, v}``; raises if absent."""
        if not self.has(u, v):
            raise GraphBuildError(f"edge ({u}, {v}) not present")
        self._remove_directed(u, v)
        self._remove_directed(v, u)
        self._m -= 1

    def _insert_directed(self, u: int, v: int) -> None:
        if self._lens[u] == self._caps[u]:
            self._relocate(u)
        s = int(self._starts[u])
        length = int(self._lens[u])
        row = self._buf[s : s + length]
        pos = int(np.searchsorted(row, v))
        # shift the tail of the row right by one, then drop v in place
        self._buf[s + pos + 1 : s + length + 1] = self._buf[s + pos : s + length]
        self._buf[s + pos] = v
        self._lens[u] = length + 1

    def _remove_directed(self, u: int, v: int) -> None:
        s = int(self._starts[u])
        length = int(self._lens[u])
        row = self._buf[s : s + length]
        pos = int(np.searchsorted(row, v))
        self._buf[s + pos : s + length - 1] = self._buf[s + pos + 1 : s + length]
        self._lens[u] = length - 1

    def _relocate(self, u: int) -> None:
        """Move row ``u`` to the buffer tail with doubled capacity."""
        old_cap = int(self._caps[u])
        new_cap = max(2 * old_cap, _MIN_CAP)
        if self._tail + new_cap > self._buf.size:
            grow = max(self._buf.size, new_cap)
            self._buf = np.concatenate(
                [self._buf, np.zeros(grow, dtype=np.int64)]
            )
        s = int(self._starts[u])
        length = int(self._lens[u])
        self._buf[self._tail : self._tail + length] = self._buf[s : s + length]
        self._starts[u] = self._tail
        self._caps[u] = new_cap
        self._tail += new_cap
        self._dead += old_cap
        if self._dead > _DEAD_FRACTION * self._buf.size:
            self.compact()

    def compact(self) -> None:
        """Rebuild the buffer with fresh per-row slack, dropping dead space."""
        degs = self._lens
        caps = degs + np.maximum((degs * _SLACK).astype(np.int64), _MIN_CAP)
        starts = np.concatenate([[0], np.cumsum(caps)[:-1]]).astype(np.int64)
        tail = int(caps.sum())
        buf = np.zeros(max(tail, 1), dtype=np.int64)
        total = int(degs.sum())
        if total:
            old_pos = np.repeat(self._starts, degs) + row_offsets(degs)
            new_pos = np.repeat(starts, degs) + row_offsets(degs)
            buf[new_pos] = self._buf[old_pos]
        self._starts = starts
        self._caps = caps
        self._buf = buf
        self._tail = tail
        self._dead = 0

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------

    def to_csr(self) -> Graph:
        """Materialize an immutable packed :class:`Graph` — vectorized.

        Rows are already sorted and deduplicated, so the result can use
        the trusted fast-path constructor (``validate=False``).
        """
        degs = self._lens
        indptr = np.concatenate([[0], np.cumsum(degs)]).astype(np.int64)
        total = int(indptr[-1])
        if total:
            pos = np.repeat(self._starts, degs) + row_offsets(degs)
            indices = np.ascontiguousarray(self._buf[pos])
        else:
            indices = np.empty(0, dtype=np.int64)
        return Graph(indptr, indices, validate=False)
