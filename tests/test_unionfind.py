"""Tests for the union-find family, including failure injection."""

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.core.phcd import phcd_build_hcd
from repro.errors import ReproError, UnionFindError
from repro.graph.generators import erdos_renyi
from repro.parallel.context import ThreadContext
from repro.parallel.scheduler import SimulatedPool
from repro.unionfind.pivot import PivotUnionFind
from repro.unionfind.sequential import UnionFind
from repro.unionfind.waitfree import (
    SimulatedWaitFreeUnionFind,
    _DeterministicFailures,
)


class TestSequential:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert uf.num_components == 4
        assert not uf.same_set(0, 1)

    def test_union_find(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.same_set(0, 1)
        assert uf.same_set(4, 3)
        assert not uf.same_set(1, 3)
        assert uf.num_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.num_components == 2

    def test_component_labels_consistent(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        labels = uf.component_labels()
        assert labels[0] == labels[1] == labels[2]
        assert len(set(labels.tolist())) == 4

    def test_matches_graph_components(self):
        g = erdos_renyi(80, 0.03, seed=3)
        uf = UnionFind(80)
        for u, v in g.edges():
            uf.union(u, v)
        labels = g.connected_components()
        for u in range(80):
            for v in range(u + 1, 80):
                assert uf.same_set(u, v) == (labels[u] == labels[v])

    def test_len(self):
        assert len(UnionFind(7)) == 7


def _ranks(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64)


class TestPivot:
    def test_pivot_initial(self):
        uf = PivotUnionFind(_ranks(4))
        for x in range(4):
            assert uf.get_pivot(x) == x

    def test_pivot_is_min_rank_member(self):
        ranks = _ranks(30, seed=1)
        uf = PivotUnionFind(ranks)
        g = erdos_renyi(30, 0.1, seed=2)
        for u, v in g.edges():
            uf.union(u, v)
        labels = g.connected_components()
        for comp in np.unique(labels):
            members = np.flatnonzero(labels == comp)
            expected = members[np.argmin(ranks[members])]
            for x in members:
                assert uf.get_pivot(int(x)) == expected

    def test_charges_context(self):
        ctx = ThreadContext(0)
        uf = PivotUnionFind(_ranks(4))
        uf.union(0, 1, ctx)
        assert ctx.work > 0
        assert ctx.atomic_ops >= 1

    def test_num_components(self):
        uf = PivotUnionFind(_ranks(5))
        uf.union(0, 1)
        assert uf.num_components == 4


class TestWaitFree:
    @pytest.mark.parametrize("failure_rate", [0.0, 0.2, 0.6])
    def test_matches_sequential(self, failure_rate):
        ranks = _ranks(40, seed=4)
        ref = PivotUnionFind(ranks)
        wf = SimulatedWaitFreeUnionFind(ranks, failure_rate=failure_rate, seed=9)
        g = erdos_renyi(40, 0.08, seed=5)
        for u, v in g.edges():
            ref.union(u, v)
            wf.union(u, v)
        for x in range(40):
            for y in range(x + 1, 40):
                assert ref.same_set(x, y) == wf.same_set(x, y)
            assert ref.get_pivot(x) == wf.get_pivot(x)

    def test_failures_counted(self):
        ranks = _ranks(50, seed=0)
        wf = SimulatedWaitFreeUnionFind(ranks, failure_rate=0.5, seed=1)
        g = erdos_renyi(50, 0.1, seed=6)
        for u, v in g.edges():
            wf.union(u, v)
        assert wf.cas_failures > 0
        assert wf.cas_attempts > wf.cas_failures

    def test_no_failures_at_zero_rate(self):
        ranks = _ranks(20)
        wf = SimulatedWaitFreeUnionFind(ranks, failure_rate=0.0)
        for x in range(19):
            wf.union(x, x + 1)
        assert wf.cas_failures == 0

    def test_zero_rate_makes_no_draws(self):
        # no draw can fail at rate zero, so none is made; above zero
        # every CAS attempt draws, one xorshift step each
        draws = []
        for rate in (0.0, 0.3):
            wf = SimulatedWaitFreeUnionFind(_ranks(20), failure_rate=rate, seed=7)
            start = wf._failures._state
            wf.union_rows(list(range(19)), [[x + 1] for x in range(19)],
                          [0] * 20, 0, ThreadContext(0), 0.2)
            for x in range(19):
                wf.union(x, (x + 2) % 20)
            draws.append((wf._failures._state != start, wf.cas_attempts))
        assert draws[0] == (False, 19)
        assert draws[1][0] and draws[1][1] > 19

    def test_deterministic_failure_process(self):
        ranks = _ranks(30)
        runs = []
        for _ in range(2):
            wf = SimulatedWaitFreeUnionFind(ranks, failure_rate=0.3, seed=7)
            for x in range(29):
                wf.union(x, x + 1)
            runs.append(wf.cas_failures)
        assert runs[0] == runs[1]

    def test_num_components(self):
        wf = SimulatedWaitFreeUnionFind(_ranks(6))
        wf.union(0, 1)
        wf.union(2, 3)
        assert wf.num_components == 4

    def test_charges_cas_as_contended_atomic(self):
        ctx = ThreadContext(0)
        wf = SimulatedWaitFreeUnionFind(_ranks(4))
        wf.union(0, 1, ctx)
        assert ctx.atomic_ops >= 1
        assert len(ctx.atomic_locations) >= 1


class TestFailureRateValidation:
    """A rate of 1 (or NaN, which clamped to 1) made every CAS fail and
    ``union`` retry forever; such rates are rejected up front."""

    BAD = [1.0, 1.5, -0.1, float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("rate", BAD)
    def test_waitfree_rejects(self, rate):
        with pytest.raises(UnionFindError):
            SimulatedWaitFreeUnionFind(_ranks(4), failure_rate=rate)
        with pytest.raises(UnionFindError):
            SimulatedWaitFreeUnionFind(_ranks(4), rate, 3)

    @pytest.mark.parametrize("rate", BAD)
    def test_failure_process_rejects(self, rate):
        with pytest.raises(UnionFindError):
            _DeterministicFailures(rate, seed=0)

    @pytest.mark.parametrize("rate", BAD)
    def test_phcd_inherits_the_check(self, rate):
        g = erdos_renyi(30, 0.2, seed=1)
        coreness = core_decomposition(g)
        with pytest.raises(UnionFindError):
            phcd_build_hcd(
                g, coreness, SimulatedPool(threads=2),
                use_waitfree=True, cas_failure_rate=rate,
            )

    def test_error_is_a_value_error(self):
        assert issubclass(UnionFindError, ReproError)
        assert issubclass(UnionFindError, ValueError)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.999])
    def test_valid_rates_terminate(self, rate):
        wf = SimulatedWaitFreeUnionFind(_ranks(4), failure_rate=rate, seed=2)
        wf.union(0, 1, ThreadContext(0))
        assert wf.same_set(0, 1)
