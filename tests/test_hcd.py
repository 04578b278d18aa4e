"""Tests for the HCD index and builder."""

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.core.hcd import HCD, HCDBuilder
from repro.core.lcps import lcps_build_hcd
from repro.errors import HierarchyError
from repro.graph.graph import Graph


@pytest.fixture
def small_hcd(paper_like_graph):
    coreness = core_decomposition(paper_like_graph)
    return lcps_build_hcd(paper_like_graph, coreness), coreness


class TestBuilder:
    def test_basic_build(self, triangle):
        b = HCDBuilder(3)
        node = b.new_node(2)
        for v in range(3):
            b.add_vertex(node, v)
        hcd = b.build()
        assert hcd.num_nodes == 1
        assert np.array_equal(hcd.vertices_of(0), [0, 1, 2])

    def test_unplaced_vertex_rejected(self):
        b = HCDBuilder(2)
        node = b.new_node(1)
        b.add_vertex(node, 0)
        with pytest.raises(HierarchyError):
            b.build()

    def test_parent_links(self):
        b = HCDBuilder(2)
        a = b.new_node(1)
        c = b.new_node(2)
        b.add_vertex(a, 0)
        b.add_vertex(c, 1)
        b.set_parent(c, a)
        hcd = b.build()
        assert hcd.parent[c] == a
        assert hcd.children[a] == [c]
        assert hcd.roots() == [a]

    def test_coreness_of(self):
        b = HCDBuilder(1)
        node = b.new_node(7)
        assert b.coreness_of(node) == 7


class TestAccessors:
    def test_counts(self, small_hcd, paper_like_graph):
        hcd, _ = small_hcd
        assert hcd.num_vertices == paper_like_graph.num_vertices
        assert hcd.num_nodes >= 4  # 4-core, two 3-cores, 2-core

    def test_kmax(self, small_hcd):
        hcd, coreness = small_hcd
        assert hcd.kmax == int(coreness.max())

    def test_tid_consistent(self, small_hcd):
        hcd, _ = small_hcd
        for node in range(hcd.num_nodes):
            for v in hcd.vertices_of(node):
                assert hcd.node_of_vertex(int(v)) == node

    def test_traversal_orders(self, small_hcd):
        hcd, _ = small_hcd
        bottom_up = hcd.nodes_bottom_up()
        top_down = hcd.nodes_top_down()
        assert sorted(bottom_up) == list(range(hcd.num_nodes))
        assert bottom_up == list(reversed(top_down))
        depths = hcd.depths()
        # children always precede parents in bottom-up order
        position = {node: i for i, node in enumerate(bottom_up)}
        for node in range(hcd.num_nodes):
            pa = int(hcd.parent[node])
            if pa >= 0:
                assert position[node] < position[pa]
                assert depths[node] == depths[pa] + 1

    def test_subtree_nodes(self, small_hcd):
        hcd, _ = small_hcd
        root = hcd.roots()[0]
        assert sorted(hcd.subtree_nodes(root)) == sorted(
            n for n in range(hcd.num_nodes)
            if root in _ancestors_of(hcd, n) or n == root
        )

    def test_reconstruct_core_is_k_core(self, small_hcd, paper_like_graph):
        hcd, coreness = small_hcd
        for node in range(hcd.num_nodes):
            members = hcd.reconstruct_core(node)
            k = int(hcd.node_coreness[node])
            sub, _ = paper_like_graph.induced_subgraph(members)
            assert int(sub.degrees().min()) >= k  # min degree property
            assert len(np.unique(sub.connected_components())) == 1

    def test_stats(self, small_hcd):
        hcd, _ = small_hcd
        stats = hcd.stats()
        assert stats.num_nodes == hcd.num_nodes
        assert stats.kmax == hcd.kmax
        assert stats.largest_node >= 1

    def test_repr(self, small_hcd):
        hcd, _ = small_hcd
        assert "HCD(" in repr(hcd)


def _ancestors_of(hcd: HCD, node: int) -> set[int]:
    out = set()
    cur = int(hcd.parent[node])
    while cur >= 0:
        out.add(cur)
        cur = int(hcd.parent[cur])
    return out


class TestCanonicalForm:
    def test_equivalent_under_renumbering(self, small_hcd):
        hcd, _ = small_hcd
        # rebuild with node ids permuted
        order = list(reversed(range(hcd.num_nodes)))
        remap = {old: new for new, old in enumerate(order)}
        b = HCDBuilder(hcd.num_vertices)
        for old in order:
            b.new_node(int(hcd.node_coreness[old]))
        for old in order:
            for v in hcd.vertices_of(old):
                b.add_vertex(remap[old], int(v))
            pa = int(hcd.parent[old])
            if pa >= 0:
                b.set_parent(remap[old], remap[pa])
        other = b.build()
        assert hcd.equivalent_to(other)

    def test_not_equivalent_to_different(self, small_hcd, triangle):
        hcd, _ = small_hcd
        b = HCDBuilder(3)
        node = b.new_node(2)
        for v in range(3):
            b.add_vertex(node, v)
        assert not hcd.equivalent_to(b.build())


class TestValidate:
    def test_valid_passes(self, small_hcd, paper_like_graph):
        hcd, coreness = small_hcd
        hcd.validate(paper_like_graph, coreness)  # should not raise

    def test_detects_wrong_coreness(self, small_hcd, paper_like_graph):
        hcd, coreness = small_hcd
        wrong = coreness.copy()
        wrong[0] += 1
        with pytest.raises(HierarchyError):
            hcd.validate(paper_like_graph, wrong)

    def test_detects_missing_vertex(self, triangle):
        b = HCDBuilder(3)
        node = b.new_node(2)
        b.add_vertex(node, 0)
        b.add_vertex(node, 1)
        b.tid[2] = node  # forged tid without membership
        hcd = b.build()
        with pytest.raises(HierarchyError):
            hcd.validate(triangle, np.array([2, 2, 2]))

    def test_detects_duplicate_vertex(self, triangle):
        b = HCDBuilder(3)
        a = b.new_node(2)
        for v in range(3):
            b.add_vertex(a, v)
        c = b.new_node(2)
        b.add_vertex(c, 0)  # vertex 0 in two nodes
        b.tid[0] = a
        with pytest.raises(HierarchyError):
            b.build().validate(triangle, np.array([2, 2, 2]))

    def test_detects_bad_parent_order(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        coreness = core_decomposition(g)  # [2,2,2,1]
        b = HCDBuilder(4)
        hi = b.new_node(2)
        lo = b.new_node(1)
        for v in range(3):
            b.add_vertex(hi, v)
        b.add_vertex(lo, 3)
        b.set_parent(lo, hi)  # inverted: parent coreness must be smaller
        with pytest.raises(HierarchyError):
            b.build().validate(g, coreness)

    def test_detects_non_maximal_core(self):
        # two disjoint triangles in one forged tree node
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = Graph.from_edges(edges)
        coreness = core_decomposition(g)
        b = HCDBuilder(6)
        node = b.new_node(2)
        for v in range(6):
            b.add_vertex(node, v)
        with pytest.raises(HierarchyError):
            b.build().validate(g, coreness)


def _random_forest_arrays(t: int, n: int, seed: int) -> dict:
    """Flat HCD arrays of a random ``t``-node forest over ``n`` vertices,
    node ids shuffled so parents are not always smaller than children."""
    rng = np.random.default_rng(seed)
    parent = np.asarray(
        [int(rng.integers(-1, i)) if i else -1 for i in range(t)], dtype=np.int64
    )
    label = rng.permutation(t)
    shuffled = np.empty(t, dtype=np.int64)
    shuffled[label] = np.where(parent >= 0, label[np.maximum(parent, 0)], -1)
    tid = rng.integers(0, t, size=n) if t else np.zeros(0, dtype=np.int64)
    order = np.argsort(tid, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(tid, minlength=t))))
    return {
        "node_coreness": rng.integers(1, 6, size=t),
        "parent": shuffled,
        "tid": tid.astype(np.int64),
        "member_offsets": offsets.astype(np.int64),
        "members": order.astype(np.int64),
    }


@pytest.mark.parametrize(
    "t, n, seed",
    [(0, 0, 0), (1, 1, 1), (1, 5, 2), (7, 20, 3), (40, 90, 4), (200, 500, 5)],
)
def test_from_arrays_matches_per_node_loop(t, n, seed):
    arrays = _random_forest_arrays(t, n, seed)
    hcd = HCD.from_arrays(arrays)
    offsets, members = arrays["member_offsets"], arrays["members"]
    want_children: list[list[int]] = [[] for _ in range(t)]
    for node in range(t):
        if arrays["parent"][node] >= 0:
            want_children[int(arrays["parent"][node])].append(node)
    assert hcd.children == want_children
    assert all(type(c) is int for kids in hcd.children for c in kids)
    assert hcd.roots() == [i for i in range(t) if arrays["parent"][i] < 0]
    for node in range(t):
        want = members[offsets[node] : offsets[node + 1]]
        got = hcd.vertices_of(node)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for key, arr in hcd.to_arrays().items():
        assert np.array_equal(arr, arrays[key]), key


def test_constructor_converts_non_int64_vertex_sets():
    hcd = HCD(
        node_coreness=[2, 1],
        parent=[1, -1],
        tid=[0, 0, 1],
        node_vertices=[[0, 1], np.asarray([2], dtype=np.int32)],
    )
    assert hcd.children == [[], [0]]
    assert all(hcd.vertices_of(i).dtype == np.int64 for i in range(2))
