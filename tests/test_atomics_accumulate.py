"""Tests for atomic wrappers and parallel tree accumulation."""

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.parallel import accumulate
from repro.parallel.accumulate import tree_accumulate, tree_depths
from repro.parallel.atomics import AtomicArray, AtomicCounter, AtomicList, AtomicSet
from repro.parallel.context import ThreadContext
from repro.parallel.scheduler import SimulatedPool


@pytest.fixture
def ctx():
    return ThreadContext(0)


class TestAtomicCounter:
    def test_fetch_add(self, ctx):
        counter = AtomicCounter()
        assert counter.fetch_add(ctx) == 0
        assert counter.fetch_add(ctx, 5) == 1
        assert counter.value == 6

    def test_charges_atomic(self, ctx):
        AtomicCounter().fetch_add(ctx)
        assert ctx.atomic_ops == 1


class TestAtomicArray:
    def test_add_store_load(self, ctx):
        arr = AtomicArray(4)
        arr.add(ctx, 1, 7)
        arr.store(ctx, 2, 9)
        assert arr.load(ctx, 1) == 7
        assert arr.data[2] == 9
        assert len(arr) == 4

    def test_cas_success_and_failure(self, ctx):
        arr = AtomicArray(2)
        assert arr.compare_and_swap(ctx, 0, 0, 5)
        assert not arr.compare_and_swap(ctx, 0, 0, 9)
        assert arr.data[0] == 5

    def test_float_dtype(self, ctx):
        arr = AtomicArray(2, dtype=np.float64)
        arr.add(ctx, 0, 0.5)
        assert arr.data[0] == pytest.approx(0.5)


class TestAtomicSet:
    def test_dedup(self, ctx):
        s = AtomicSet()
        assert s.add_if_absent(ctx, 3)
        assert not s.add_if_absent(ctx, 3)
        assert len(s) == 1
        assert 3 in s

    def test_sorted_iteration(self, ctx):
        s = AtomicSet()
        for item in (5, 1, 9, 2):
            s.add_if_absent(ctx, item)
        assert list(s) == [1, 2, 5, 9]


class TestAtomicList:
    def test_append(self, ctx):
        lst = AtomicList()
        lst.append(ctx, "a")
        lst.append(ctx, "b")
        assert lst.snapshot() == ["a", "b"]
        assert len(lst) == 2


class TestTreeDepths:
    def test_single_chain(self):
        assert np.array_equal(tree_depths([-1, 0, 1, 2]), [0, 1, 2, 3])

    def test_forest(self):
        depths = tree_depths([-1, -1, 0, 1, 2])
        assert np.array_equal(depths, [0, 0, 1, 1, 2])

    def test_cycle_detected(self):
        with pytest.raises(HierarchyError):
            tree_depths([1, 0])

    def test_out_of_range_parent(self):
        with pytest.raises(HierarchyError):
            tree_depths([5])

    def test_empty(self):
        assert tree_depths([]).size == 0


def _random_forest(rng, n, roots):
    """Parents of a random forest on shuffled labels."""
    order = rng.permutation(n)
    parents = np.full(n, -1, dtype=np.int64)
    for pos in range(roots, n):
        parents[order[pos]] = order[rng.integers(0, pos)]
    return parents


def _forests():
    rng = np.random.default_rng(3)
    yield "single", np.array([-1])
    for n in (2, 3, 17, 64, 65, 500):
        yield f"random{n}", _random_forest(rng, n, 1 + n // 10)
        yield f"chain{n}", np.arange(-1, n - 1)
        labels = rng.permutation(n)
        chain = np.full(n, -1, dtype=np.int64)
        chain[labels[1:]] = labels[:-1]
        yield f"shuffled_chain{n}", chain
        yield f"star{n}", np.r_[-1, np.zeros(n - 1, dtype=np.int64)]
    yield "roots", np.full(9, -1)


class TestTreeDepthsDoubling:
    """Pointer doubling against the per-node walk it falls back to."""

    @pytest.mark.parametrize("name, parents", list(_forests()))
    def test_matches_walk(self, name, parents, monkeypatch):
        want = accumulate._walked_depths(parents)

        def no_walk(parents):
            raise AssertionError("a valid forest took the walk")

        monkeypatch.setattr(accumulate, "_walked_depths", no_walk)
        got = tree_depths(parents)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "parents, message",
        [
            ([1, 0], "cycle detected in parent links"),
            ([0], "cycle detected in parent links"),
            # a tree, then a chain into a cycle
            ([-1, 0, 1, 4, 5, 3, 2], "cycle detected in parent links"),
            ([5], "parent 5 of node 0 out of range"),
            ([-1, 0, -2], "parent -2 of node 2 out of range"),
            ([-1, 3, 1], "parent 3 of node 1 out of range"),
            # the walk meets the cycle before the bad parent
            ([1, 0, 7], "cycle detected in parent links"),
        ],
    )
    def test_errors_are_the_walks(self, parents, message):
        with pytest.raises(HierarchyError) as doubled:
            tree_depths(parents)
        with pytest.raises(HierarchyError) as walked:
            accumulate._walked_depths(np.asarray(parents, dtype=np.int64))
        assert str(doubled.value) == str(walked.value) == message


class TestTreeAccumulate:
    def _oracle(self, parents, values):
        """Subtree sums by brute force."""
        parents = np.asarray(parents)
        n = parents.size
        out = np.array(values, dtype=np.float64, copy=True)
        # push repeatedly until fixpoint (small n)
        children = [[] for _ in range(n)]
        for i, p in enumerate(parents):
            if p >= 0:
                children[p].append(i)

        def subtree(i):
            total = np.array(values[i], dtype=np.float64)
            for ch in children[i]:
                total = total + subtree(ch)
            return total

        return np.stack([subtree(i) for i in range(n)])

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_matches_oracle_2d(self, threads):
        parents = [-1, 0, 0, 1, 1, 2, -1, 6]
        values = np.arange(16, dtype=np.float64).reshape(8, 2)
        pool = SimulatedPool(threads=threads)
        got = tree_accumulate(pool, parents, values)
        assert np.allclose(got, self._oracle(parents, values))

    def test_matches_oracle_1d(self):
        parents = [-1, 0, 1, 1]
        values = np.array([1.0, 2.0, 3.0, 4.0])
        pool = SimulatedPool(threads=2)
        got = tree_accumulate(pool, parents, values)
        assert np.allclose(got, [10.0, 9.0, 3.0, 4.0])

    def test_input_not_mutated(self):
        values = np.ones((3, 1))
        tree_accumulate(SimulatedPool(), [-1, 0, 0], values)
        assert np.allclose(values, 1.0)

    def test_empty_forest(self):
        out = tree_accumulate(SimulatedPool(), [], np.zeros((0, 2)))
        assert out.shape == (0, 2)

    def test_row_mismatch(self):
        with pytest.raises(HierarchyError):
            tree_accumulate(SimulatedPool(), [-1, 0], np.zeros((3, 1)))

    def test_thread_count_invariance(self):
        parents = [-1, 0, 0, 2, 2, 2, -1]
        values = np.random.default_rng(0).random((7, 3))
        results = [
            tree_accumulate(SimulatedPool(threads=p), parents, values)
            for p in (1, 2, 5)
        ]
        for other in results[1:]:
            assert np.allclose(results[0], other)


class TestTreeAccumulateEuler:
    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_matches_level_synchronous(self, threads):
        rng = np.random.default_rng(5)
        size = 40
        parents = np.array(
            [
                -1 if i == 0 or rng.random() < 0.2 else int(rng.integers(0, i))
                for i in range(size)
            ],
            dtype=np.int64,
        )
        values = rng.random((size, 3))
        a = tree_accumulate(SimulatedPool(threads=threads), parents, values)
        from repro.parallel.accumulate import tree_accumulate_euler

        b = tree_accumulate_euler(
            SimulatedPool(threads=threads), parents, values
        )
        assert np.allclose(a, b)

    def test_1d_and_empty(self):
        from repro.parallel.accumulate import tree_accumulate_euler

        out = tree_accumulate_euler(
            SimulatedPool(), [-1, 0, 1], np.array([1.0, 2.0, 4.0])
        )
        assert np.allclose(out, [7.0, 6.0, 4.0])
        empty = tree_accumulate_euler(SimulatedPool(), [], np.zeros((0, 2)))
        assert empty.shape == (0, 2)

    def test_fewer_regions_on_deep_chain(self):
        from repro.parallel.accumulate import tree_accumulate_euler

        # chain of 200 nodes: depth-synchronous needs ~200 regions,
        # the Euler scan needs ~log2(200) + 2
        parents = [-1] + list(range(199))
        values = np.ones((200, 1))
        pool_level = SimulatedPool(threads=4)
        tree_accumulate(pool_level, parents, values)
        pool_euler = SimulatedPool(threads=4)
        tree_accumulate_euler(pool_euler, parents, values)
        assert len(pool_euler.regions) < len(pool_level.regions) / 5

    def test_cycle_rejected(self):
        from repro.parallel.accumulate import tree_accumulate_euler

        with pytest.raises(HierarchyError):
            tree_accumulate_euler(SimulatedPool(), [1, 0], np.ones((2, 1)))
