"""Level-synchronous parallel core decomposition: PKC, ParK and Julienne.

All three peel vertices level by level.  At level ``k`` a *frontier* of
undecided vertices of current degree ``<= k`` gets coreness ``k``, and
settling it decrements every unsettled neighbor with a relaxed
fetch-add.  They share that loop and its one settle kernel
(:func:`_peel`) and differ only in how a level finds its frontiers and
in what a settle keeps of the fetch-add results, one work unit per kept
entry:

* **PKC** (Kabir & Madduri, IPDPSW'17) scans the undecided vertices
  once per level, then hands every neighbor whose fetch-add reached
  ``k`` to the next sub-round through a thread-local buffer, whose
  appends are ordinary work rather than shared atomics: PKC's headline
  optimization over ParK.  Work ``O(n * kmax + m)``.
* **ParK** (Dasari, Ranjan & Zubair, 2014), PKC's predecessor,
  rescans the whole vertex set every sub-round and publishes the
  frontier through one shared list, paying more scans and contended
  appends; it keeps nothing.  The baseline PKC is compared against
  (paper Section VII).
* **Julienne** (the bucketing of GBBS, the paper's other input stage)
  keeps vertices in buckets keyed by degree and moves every decremented
  neighbor to bucket ``max(old - 1, k)``, charged as one bucket insert;
  stale entries are skipped at extraction (lazy deletion).  It never
  rescans the undecided set: ``O(m + n)`` work.

Every output is bit-identical to Batagelj–Zaversnik, which the test
suite asserts.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.atomics import AtomicArray, AtomicList, reached
from repro.parallel.context import SLICE_VECTOR_MIN, native
from repro.parallel.scheduler import SimulatedPool

__all__ = [
    "pkc_core_decomposition",
    "park_core_decomposition",
    "julienne_core_decomposition",
]


def _peel(
    graph: Graph, pool: SimulatedPool, name: str, label: str, frontier, keep
) -> np.ndarray:
    """Coreness of every vertex, peeled level-synchronously on ``pool``.

    Level ``k`` runs in the phase ``{name}:level-{k}``.  Its first
    frontier is ``frontier(k, None, degree, settled)``; each frontier is
    settled in one ``{label}_k{k}`` region, and the next is
    ``frontier(k, parts, degree, settled)``, with ``parts`` what
    ``keep(k, nbrs, olds)`` returned on each thread, in thread order.
    The level ends on an empty frontier.  ``settled`` is a bytearray.

    The settle kernel runs one slice per virtual thread.  A slice of at
    least :data:`~repro.parallel.context.SLICE_VECTOR_MIN` frontier
    vertices gathers its rows with numpy; shorter ones cut each row out
    of the CSR in Python.  Every charge here is an integer, so the folded
    charges of the slice operations are exact.
    """
    n = graph.num_vertices
    coreness = np.zeros(n, dtype=np.int64)
    # the CSR as native ints, listed once: the Python path cuts each
    # row out of the list without a numpy scalar read
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    degree = AtomicArray(n, dtype=np.int64, name="peel_deg")
    degree.data[:] = graph.degrees()
    # native bytes for the per-neighbor reads; numpy views for the scans
    settled = bytearray(n)
    remaining = n
    k = 0
    while remaining > 0:
        # SimProf attribution: one phase per peeled level (free).
        with pool.phase(f"{name}:level-{k}"):
            front = frontier(k, None, degree, settled)
            while front:
                for v in front:
                    settled[v] = 1
                parts: list[list] = [[] for _ in range(pool.threads)]

                def process(vs: list[int], ctx) -> None:
                    # each frontier vertex owns its coreness slot
                    ctx.write_row("peel_core", vs)
                    coreness[vs] = k
                    # every unsettled neighbor of the slice, row by row
                    if len(vs) >= SLICE_VECTOR_MIN:
                        nbrs, _ = graph.gather_rows(vs)
                        scanned = len(nbrs)
                        nbrs = nbrs[~np.frombuffer(settled, dtype=bool)[nbrs]]
                    else:
                        nbrs = []
                        scanned = 0
                        for v in vs:
                            scanned += indptr[v + 1] - indptr[v]
                            nbrs += [
                                u
                                for u in indices[indptr[v] : indptr[v + 1]]
                                if not settled[u]
                            ]
                    # decrement them; what the engine keeps is decided on
                    # the fetch-add results, never on a raw re-read of the
                    # slots: concurrent decrements would make the re-read
                    # miss (or duplicate) them
                    kept = keep(k, nbrs, degree.fetch_add_row(ctx, nbrs, -1))
                    # one unit per scanned neighbor and per kept entry,
                    # folded: integers only
                    ctx.charge(scanned + len(kept))
                    parts[ctx.thread_id].extend(kept)

                # slices of vertex ids  # prove: slice of [0, n)
                pool.parallel_slices(front, process, label=f"{label}_k{k}")
                remaining -= len(front)
                front = frontier(k, parts, degree, settled)
        k += 1
    return coreness


def pkc_core_decomposition(graph: Graph, pool: SimulatedPool) -> np.ndarray:
    """Coreness of every vertex via PKC: one scan per level, then the
    fetch-add handoffs at ``k``, appended to thread-local buffers."""

    def frontier(k, handoffs, degree, settled) -> list[int]:
        if handoffs is not None:
            # exactly one fetch-add takes a vertex's degree to k, so the
            # handoffs hold each vertex once, all of them unsettled
            return list(chain.from_iterable(handoffs))

        # Scan for the level-k seed frontier among undecided vertices.
        def scan(vs, ctx) -> list[int]:
            # charged atomic loads (earlier peel rounds decremented them)
            return degree.load_le(ctx, vs, k)

        undecided = np.flatnonzero(~np.frombuffer(settled, dtype=bool))
        # slices of an n-sized mask's positions  # prove: slice of [0, n)
        hits = pool.parallel_slices(undecided, scan, label=f"pkc:scan_k{k}")
        return list(chain.from_iterable(hits))

    def keep(k, nbrs, olds) -> list[int]:
        return reached(nbrs, olds, k + 1)

    return _peel(graph, pool, "pkc", "pkc:peel", frontier, keep)


def park_core_decomposition(graph: Graph, pool: SimulatedPool) -> np.ndarray:
    """Coreness of every vertex via ParK: a whole-set rescan into one
    shared list every sub-round."""

    def frontier(k, _, degree, settled) -> list:
        shared = AtomicList(name=f"park_frontier_k{k}")
        undecided = ~np.frombuffer(settled, dtype=bool)

        def scan(vs: range, ctx) -> None:
            ctx.charge(len(vs))
            live = np.flatnonzero(undecided[vs.start : vs.stop]) + vs.start
            shared.append_row(ctx, degree.load_le(ctx, live, k))

        pool.parallel_slices(
            range(graph.num_vertices), scan, label=f"park:scan_k{k}"
        )
        return shared.snapshot()

    return _peel(
        graph, pool, "park", "park:peel", frontier, lambda k, nbrs, olds: []
    )


def julienne_core_decomposition(graph: Graph, pool: SimulatedPool) -> np.ndarray:
    """Coreness of every vertex via Julienne's lazy buckets: a frontier
    is the live entries of bucket ``k``."""
    buckets: list[list[int]] = []

    def frontier(k, moves, degree, settled) -> list[int]:
        if k == 0 and moves is None:
            # level 0 fills the buckets, one unit per vertex
            buckets.extend([] for _ in range(int(degree.data.max()) + 1))
            for v, d in enumerate(degree.data.tolist()):
                buckets[d].append(v)
            with pool.serial_region("julienne:init") as ctx:
                ctx.charge(graph.num_vertices)
        # apply the bucket moves (lazy: old entries stay and are skipped)
        for u, old in chain.from_iterable(moves or ()):
            buckets[max(old - 1, k)].append(u)
        bucket, buckets[k] = buckets[k], []
        if not bucket:
            return []
        # claim at extraction: a vertex may have several (stale) entries
        # across buckets, but is settled exactly once
        front = []
        for v in bucket:
            if not settled[v] and degree.data[v] <= k:
                settled[v] = 1
                front.append(v)
        with pool.serial_region(f"julienne:extract_k{k}") as ctx:
            ctx.charge(len(bucket) + 1)
        return front

    def keep(k, nbrs, olds) -> list[tuple[int, int]]:
        # one bucket move per decremented neighbor, with its old degree
        return list(zip(native(nbrs), native(olds)))

    return _peel(graph, pool, "julienne", "julienne:settle", frontier, keep)
