"""Property-based tests for the extension modules (truss, ecc)."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import k_edge_connected_components
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.truss.decomposition import EdgeIndex, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy

MAX_N = 14

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MAX_N - 1),
        st.integers(min_value=0, max_value=MAX_N - 1),
    ),
    max_size=45,
)


def build(edges) -> Graph:
    return Graph.from_edges(edges, num_vertices=MAX_N)


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    return g


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_trussness_matches_networkx(edges):
    g = build(edges)
    index = EdgeIndex(g)
    trussness = truss_decomposition(g, index)
    tmax = int(trussness.max()) if len(index) else 2
    for k in range(2, tmax + 1):
        mine = {
            tuple(int(x) for x in index.edges[e])
            for e in np.flatnonzero(trussness >= k)
        }
        theirs = {tuple(sorted(e)) for e in nx.k_truss(to_nx(g), k).edges()}
        assert mine == theirs


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists, threads=st.integers(min_value=1, max_value=4))
def test_truss_hierarchy_invariants(edges, threads):
    g = build(edges)
    index = EdgeIndex(g)
    trussness = truss_decomposition(g, index)
    th = truss_hierarchy(
        g, trussness, SimulatedPool(threads=threads), index=index
    )
    th.validate(trussness)
    # partition + parent monotonicity are inside validate; additionally
    # every reconstructed community's edges share one trussness floor
    for node in range(th.num_nodes):
        k = int(th.node_level[node])
        edges_of = th.reconstruct(node)
        assert np.all(trussness[edges_of] >= k)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, k=st.integers(min_value=1, max_value=4))
def test_ecc_matches_networkx_subgraphs(edges, k):
    g = build(edges)
    mine = {frozenset(c) for c in k_edge_connected_components(g, k)}
    theirs = {frozenset(c) for c in nx.k_edge_subgraphs(to_nx(g), k)}
    assert mine == theirs


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists)
def test_ecc_nesting(edges):
    """(k+1)-ECCs refine k-ECCs."""
    g = build(edges)
    previous = {frozenset(c) for c in k_edge_connected_components(g, 1)}
    for k in range(2, 5):
        current = {frozenset(c) for c in k_edge_connected_components(g, k)}
        for comp in current:
            assert any(comp <= prev for prev in previous)
        previous = current
