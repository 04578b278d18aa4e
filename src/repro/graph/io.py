"""Reading and writing graphs in the formats the paper's datasets use.

Three formats are supported:

* **edge list** — whitespace-separated ``u v`` pairs, one per line, with
  ``#`` / ``%`` comment lines (the SNAP and LAW distribution format);
* **METIS-style adjacency** — a header line ``n m`` followed by one
   1-indexed adjacency line per vertex;
* **npz binary** — the CSR arrays saved via :func:`numpy.savez_compressed`
  for fast reloads of generated stand-in datasets.

All readers return immutable :class:`~repro.graph.graph.Graph` objects;
directed inputs are symmetrized, matching the paper's preprocessing
("all directed datasets are symmetrized in the experiments").
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "load_npz",
    "save_npz",
    "parse_edge_lines",
]

_COMMENT_PREFIXES = ("#", "%", "//")


def parse_edge_lines(lines: Iterable[str]) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` pairs from edge-list text lines.

    Comment lines and blank lines are skipped.  Lines with more than two
    fields (e.g. weighted edge lists) use the first two fields.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            yield int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer endpoint in {line!r}"
            ) from exc


def read_edge_list(
    path: str | os.PathLike[str],
    relabel: bool = False,
) -> Graph:
    """Read a whitespace edge list from ``path``.

    With ``relabel=True`` sparse vertex ids are compacted to ``0..n-1``
    (first-seen order); otherwise ids are used verbatim and the vertex
    count is ``max id + 1``.
    """
    builder = GraphBuilder(relabel=relabel)
    with open(path, "r", encoding="utf-8") as handle:
        for u, v in parse_edge_lines(handle):
            builder.add_edge(u, v)
    return builder.build()


def write_edge_list(graph: Graph, path: str | os.PathLike[str]) -> None:
    """Write ``graph`` as a ``u v`` edge list (each edge once, u < v)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# undirected simple graph: n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_metis(path: str | os.PathLike[str]) -> Graph:
    """Read a METIS-style adjacency file (1-indexed).

    Comment lines are skipped, but *blank* lines are kept: a blank
    adjacency line is a degree-0 vertex (exactly what
    :func:`write_metis` emits for one), so stripping blanks would
    lose isolated vertices and shift every adjacency row after them.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [
            line.strip()
            for line in handle
            if not line.strip().startswith(_COMMENT_PREFIXES)
        ]
    # blanks before the header carry no meaning; adjacency blanks do
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise GraphFormatError("empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphFormatError(f"bad METIS header: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer METIS header: {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError(f"negative counts in METIS header: {lines[0]!r}")
    adjacency = lines[1:]
    # tolerate trailing blank lines beyond the declared vertex count
    while len(adjacency) > n and not adjacency[-1]:
        adjacency.pop()
    if len(adjacency) != n:
        raise GraphFormatError(
            f"METIS header declares {n} vertices, file has {len(adjacency)} adjacency lines"
        )
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    for v, line in enumerate(adjacency):
        for token in line.split():
            try:
                u = int(token) - 1
            except ValueError as exc:
                raise GraphFormatError(
                    f"vertex {v}: non-integer neighbor {token!r}"
                ) from exc
            if u < 0 or u >= n:
                raise GraphFormatError(f"vertex {v}: neighbor {token} out of range")
            builder.add_edge(v, u)
    graph = builder.build(num_vertices=n)
    if graph.num_edges != m:
        raise GraphFormatError(
            f"METIS header declares {m} edges, adjacency encodes {graph.num_edges}"
        )
    return graph


def write_metis(graph: Graph, path: str | os.PathLike[str]) -> None:
    """Write ``graph`` as a METIS-style adjacency file (1-indexed)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in graph.vertices():
            row = " ".join(str(int(u) + 1) for u in graph.neighbors(v))
            handle.write(row + "\n")


def save_npz(graph: Graph, path: str | os.PathLike[str]) -> None:
    """Persist the CSR arrays with :func:`numpy.savez_compressed`."""
    np.savez_compressed(
        Path(path),
        indptr=graph.indptr,
        indices=graph.indices,
    )


def load_npz(path: str | os.PathLike[str]) -> Graph:
    """Load a graph previously stored with :func:`save_npz`.

    The file is *untrusted input*: the CSR arrays are fully validated
    by :func:`~repro.graph.checked.validate_csr` (the default
    ``Graph(indptr, indices)`` construction), so a corrupted
    or hand-edited npz raises :class:`~repro.errors.GraphFormatError`
    instead of smuggling out-of-range indices into the kernels.
    """
    with np.load(Path(path)) as data:
        if "indptr" not in data or "indices" not in data:
            raise GraphFormatError("npz file missing 'indptr'/'indices' arrays")
        return Graph(data["indptr"], data["indices"])
