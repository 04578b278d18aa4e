"""Generated differential oracle for the coreness repair.

One Hypothesis strategy draws a graph (empty, isolated vertices only,
a star, a clique, a disjoint union of two of these, or a small
``rmat``) and a sequence of mixed batches whose entries carry every
kind of noise the skip policy names: self-loops, within-batch
duplicates (reversed), insertions of present edges and deletions of
absent ones.  After every batch the maintained coreness must equal a
from-scratch ``core_decomposition``, the batched repair must be
identical at 1, 2 and 8 threads (coreness, changed count, rounds,
skip list), and per-edge repair (batches of one) must land on the
same coreness and the same edge set.

The repair has no full-level verification sweep: its worklist is
complete by the locality argument of DESIGN §12.  This test is what
checks that argument on generated inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import core_decomposition
from repro.dynamic import DynamicGraph
from repro.graph.generators import rmat
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

THREADS = (1, 2, 8)
BASIC = ("empty", "isolated", "star", "clique", "rmat")


def _basic(kind: str, size: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """``(num_vertices, edges)`` of one basic family member."""
    if kind == "empty":
        return 0, []
    if kind == "isolated":
        return size, []
    if kind == "star":
        return size, [(0, v) for v in range(1, size)]
    if kind == "clique":
        return size, [(u, v) for u in range(size) for v in range(u + 1, size)]
    graph = rmat(4, 4, seed=seed)
    return graph.num_vertices, [tuple(e) for e in graph.edge_array().tolist()]


@st.composite
def repair_cases(draw):
    """A graph and a list of ``(insertions, deletions)`` batches."""
    parts = draw(
        st.lists(st.sampled_from(BASIC), min_size=1, max_size=2)
    )
    n, edges = 0, []
    for kind in parts:
        size = draw(st.integers(min_value=1, max_value=7))
        m, part = _basic(kind, size, draw(st.integers(0, 2**16)))
        edges += [(u + n, v + n) for u, v in part]
        n += m
    n = max(n, 1)  # every batch needs a vertex to draw endpoints from
    graph = Graph.from_edges(edges, num_vertices=n)
    vertex = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(vertex, vertex)
    # entries of the original edge list: present until deleted, so
    # as insertions they are "present" noise, as deletions they turn
    # "absent" once an earlier batch removed them
    known = st.sampled_from(edges) if edges else pair
    entry = st.one_of(pair, known)
    batch = st.tuples(
        st.lists(entry, max_size=12), st.lists(entry, max_size=12)
    )
    batches = draw(st.lists(batch, min_size=1, max_size=4))
    noisy = []
    for insertions, deletions in batches:
        v = draw(vertex)
        insertions = insertions + [(v, v)]  # self-loop
        if deletions:
            u, w = deletions[0]
            deletions = deletions + [(w, u)]  # reversed duplicate
        noisy.append((insertions, deletions))
    return graph, noisy


def _edges(dyn: DynamicGraph) -> set[tuple[int, int]]:
    return {tuple(e) for e in dyn.to_graph().edge_array().tolist()}


@settings(max_examples=100, deadline=None)
@given(case=repair_cases())
def test_repair_matches_recompute_threads_and_per_edge(case):
    graph, batches = case
    batched = {p: DynamicGraph(graph) for p in THREADS}
    per_edge = DynamicGraph(graph)
    for insertions, deletions in batches:
        reports = []
        for p, dyn in batched.items():
            report = dyn.apply_batch(
                insertions, deletions, pool=SimulatedPool(threads=p)
            )
            reports.append(
                (dyn.coreness.tobytes(), report.changed, report.rounds,
                 report.skipped, report.applied)
            )
        assert all(r == reports[0] for r in reports[1:])
        per_edge.insert_edges(insertions)
        per_edge.delete_edges(deletions)

        dyn = batched[THREADS[0]]
        assert np.array_equal(dyn.coreness, core_decomposition(dyn.to_graph()))
        assert np.array_equal(per_edge.coreness, dyn.coreness)
        assert _edges(per_edge) == _edges(dyn)
