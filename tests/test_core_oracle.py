"""Generated equivalence oracle for core decomposition.

The core-decomposition group of the equivalence registry: PKC, ParK,
Julienne and MPM must each return Batagelj–Zaversnik's coreness at 1,
2 and 8 threads.  One Hypothesis strategy draws the graph: empty,
isolated vertices, a star, a clique, a random edge set, or a disjoint
union of up to three of these, built through ``Graph.from_edges`` from
an edge list that also carries duplicate, reversed and self-loop
entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    julienne_core_decomposition,
    mpm_core_decomposition,
    park_core_decomposition,
    pkc_core_decomposition,
)
from repro.core.decomposition import core_decomposition
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool

THREADS = (1, 2, 8)

ENGINES = {
    "pkc": pkc_core_decomposition,
    "park": park_core_decomposition,
    "julienne": julienne_core_decomposition,
    "mpm": lambda graph, pool: mpm_core_decomposition(graph, pool)[0],
}

KINDS = ("empty", "isolated", "star", "clique", "random")


@st.composite
def graphs(draw):
    """A graph of one to three basic parts, with edge-list noise."""
    n, edges = 0, []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        size = 0 if kind == "empty" else draw(st.integers(1, 9))
        if kind == "star":
            part = [(0, v) for v in range(1, size)]
        elif kind == "clique":
            part = [(u, v) for u in range(size) for v in range(u + 1, size)]
        elif kind == "random":
            vertex = st.integers(0, size - 1)
            part = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * size))
        else:
            part = []
        edges += [(u + n, v + n) for u, v in part]
        n += size
    if edges:
        repeated = draw(st.lists(st.sampled_from(edges), max_size=4))
        edges += repeated + [(v, u) for u, v in repeated]
    if n:
        edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    return Graph.from_edges(draw(st.permutations(edges)), num_vertices=n)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_engine_matches_bz(engine, graph):
    truth = core_decomposition(graph)
    for threads in THREADS:
        got = ENGINES[engine](graph, SimulatedPool(threads=threads))
        assert np.array_equal(got, truth), threads
