"""Tests for the additional core-decomposition engines.

Julienne/GBBS bucketing, the MPM distributed h-index iteration, and
(1+delta)-approximate threshold peeling — each against the
Batagelj-Zaversnik reference — and the level phases of the three
level-synchronous peels.  ``tests/test_core_oracle.py`` runs every
exact engine against the reference on generated graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import approx_core_decomposition
from repro.core.decomposition import core_decomposition
from repro.core.distributed import mpm_core_decomposition
from repro.core.pkc import (
    julienne_core_decomposition,
    park_core_decomposition,
    pkc_core_decomposition,
)
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    rmat,
    star_graph,
)
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from tests.test_element_hierarchy import PhaseRecorder

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=19),
    ),
    max_size=60,
)


class TestJulienne:
    @pytest.mark.parametrize("threads", [1, 4, 9])
    def test_matches_bz(self, threads, random_graph):
        truth = core_decomposition(random_graph)
        got = julienne_core_decomposition(
            random_graph, SimulatedPool(threads=threads)
        )
        assert np.array_equal(got, truth)

    def test_empty(self):
        assert julienne_core_decomposition(Graph.empty(0), SimulatedPool()).size == 0

    def test_isolated(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        got = julienne_core_decomposition(g, SimulatedPool(threads=2))
        assert np.array_equal(got, [1, 1, 0, 0])

    def test_complete(self):
        got = julienne_core_decomposition(complete_graph(6), SimulatedPool())
        assert np.array_equal(got, [5] * 6)

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists, threads=st.integers(min_value=1, max_value=5))
    def test_property_random(self, edges, threads):
        g = Graph.from_edges(edges, num_vertices=20)
        truth = core_decomposition(g)
        got = julienne_core_decomposition(g, SimulatedPool(threads=threads))
        assert np.array_equal(got, truth)

    def test_work_efficient_vs_pkc_on_deep_graph(self):
        # high-kmax graph: PKC pays the n*kmax scans, Julienne does not
        g = barabasi_albert(500, 12, seed=0)
        pool_j = SimulatedPool(threads=1)
        julienne_core_decomposition(g, pool_j)
        pool_p = SimulatedPool(threads=1)
        pkc_core_decomposition(g, pool_p)
        assert pool_j.clock < pool_p.clock


PEELS = {
    "pkc": pkc_core_decomposition,
    "park": park_core_decomposition,
    "julienne": julienne_core_decomposition,
}


@pytest.mark.parametrize("engine", sorted(PEELS))
def test_every_region_runs_in_its_level_phase(engine):
    """One level loop: each ``{engine}:..._k{k}`` region runs inside
    the ``{engine}:level-{k}`` phase of the same ``k``, and Julienne's
    bucket fill inside level 0's."""
    pool = SimulatedPool(threads=4)
    recorder = PhaseRecorder(pool)
    pool.set_observer(recorder)
    PEELS[engine](rmat(8, 8, seed=0), pool)
    assert len(recorder.regions) == len(pool.regions) > 0
    for label, phases in recorder.regions:
        assert label.startswith(f"{engine}:"), label
        k = label.rsplit("_k", 1)[1] if "_k" in label else "0"
        assert phases == (f"{engine}:level-{k}",), label


class TestMpm:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_matches_bz(self, threads, random_graph):
        truth = core_decomposition(random_graph)
        got, rounds = mpm_core_decomposition(
            random_graph, SimulatedPool(threads=threads)
        )
        assert np.array_equal(got, truth)
        assert rounds >= 1

    def test_star_converges_fast(self):
        got, rounds = mpm_core_decomposition(star_graph(10), SimulatedPool())
        assert np.array_equal(got, [1] * 11)
        assert rounds <= 3

    def test_round_bound(self):
        # it_MPM is far below n on real-ish graphs
        g = erdos_renyi(150, 0.05, seed=3)
        _, rounds = mpm_core_decomposition(g, SimulatedPool(threads=2))
        assert rounds < g.num_vertices / 2

    def test_empty(self):
        got, rounds = mpm_core_decomposition(Graph.empty(0), SimulatedPool())
        assert got.size == 0
        assert rounds == 0


class TestApprox:
    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_approximation_bounds(self, delta, random_graph):
        truth = core_decomposition(random_graph)
        est, phases = approx_core_decomposition(
            random_graph, SimulatedPool(threads=3), delta=delta
        )
        mask = truth >= 1
        assert np.all(est[mask] >= truth[mask])
        assert np.all(est[mask] < (1.0 + delta) * truth[mask] + 1e-9)
        assert np.all(est[~mask] == 0)
        assert phases >= 1

    def test_fewer_phases_with_larger_delta(self):
        g = barabasi_albert(300, 8, seed=1)
        _, tight = approx_core_decomposition(g, SimulatedPool(), delta=0.1)
        _, loose = approx_core_decomposition(g, SimulatedPool(), delta=1.0)
        assert loose < tight

    def test_invalid_delta(self, triangle):
        with pytest.raises(ValueError):
            approx_core_decomposition(triangle, SimulatedPool(), delta=0.0)

    def test_exact_on_uniform_graph(self):
        # every coreness is hit exactly at an integer threshold <= 1+delta
        got, _ = approx_core_decomposition(
            complete_graph(4), SimulatedPool(), delta=0.5
        )
        truth = core_decomposition(complete_graph(4))
        assert np.all(got >= truth)

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists, delta=st.floats(min_value=0.1, max_value=2.0))
    def test_property_bounds(self, edges, delta):
        g = Graph.from_edges(edges, num_vertices=20)
        truth = core_decomposition(g)
        est, _ = approx_core_decomposition(g, SimulatedPool(), delta=delta)
        mask = truth >= 1
        assert np.all(est[mask] >= truth[mask])
        assert np.all(est[mask] < (1.0 + delta) * truth[mask] + 1e-9)
