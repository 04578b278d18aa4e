"""Cross-algorithm tests for HCD construction (LCPS, PHCD, RC, D&C).

Every construction algorithm must produce the *same* hierarchy (up to
node numbering), pass full structural validation, and agree with the
definitional ground truth computed by BFS per level.
"""

import numpy as np
import pytest

from repro.core.decomposition import core_decomposition
from repro.core.divide_conquer import dnc_build_hcd
from repro.core.hcd import HCDBuilder
from repro.core.lcps import lcps_build_hcd
from repro.core.local_search import local_core_search, rc_build_hcd
from repro.core.lower_bound import lower_bound_cost
from repro.core.partition import label_propagation_partition
from repro.core.phcd import phcd_build_hcd
from repro.errors import HierarchyError
from repro.graph.generators import (
    core_chain,
    erdos_renyi,
    powerlaw_cluster,
    rmat,
)
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool


def ground_truth_hcd(result):
    """Build an HCD object from a CoreChainResult's ground truth."""
    builder = HCDBuilder(result.graph.num_vertices)
    for k, verts in result.tree_nodes:
        node = builder.new_node(k)
        for v in sorted(verts):
            builder.add_vertex(node, v)
    for idx, pa in enumerate(result.parents):
        if pa >= 0:
            builder.set_parent(idx, pa)
    return builder.build()


class TestLCPS:
    def test_paper_like_graph(self, paper_like_graph):
        coreness = core_decomposition(paper_like_graph)
        hcd = lcps_build_hcd(paper_like_graph, coreness)
        hcd.validate(paper_like_graph, coreness)
        ks = sorted(int(k) for k in hcd.node_coreness)
        assert ks == [2, 3, 3, 4]

    @pytest.mark.parametrize(
        "branches",
        [
            [[4, 3, 2]],
            [[5, 3, 2], [4, 2]],
            [[5, 3, 2], [4, 2], [3, 2]],
            [[7, 5, 3, 1]],
            [[3, 1], [2, 1], [4, 1]],
        ],
    )
    def test_matches_ground_truth(self, branches):
        result = core_chain(branches)
        hcd = lcps_build_hcd(result.graph, result.coreness)
        hcd.validate(result.graph, result.coreness)
        assert hcd.equivalent_to(ground_truth_hcd(result))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_validate(self, seed):
        g = erdos_renyi(80, 0.07, seed=seed)
        coreness = core_decomposition(g)
        hcd = lcps_build_hcd(g, coreness)
        hcd.validate(g, coreness)

    def test_empty_graph(self):
        hcd = lcps_build_hcd(Graph.empty(0), np.array([], dtype=np.int64))
        assert hcd.num_nodes == 0

    def test_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        coreness = core_decomposition(g)
        hcd = lcps_build_hcd(g, coreness)
        hcd.validate(g, coreness)
        assert hcd.num_nodes == 3  # the edge + two isolated 0-cores

    def test_charges_pool(self, paper_like_graph):
        pool = SimulatedPool()
        lcps_build_hcd(paper_like_graph, core_decomposition(paper_like_graph), pool)
        assert pool.clock > 0


class TestPHCD:
    @pytest.mark.parametrize("threads", [1, 2, 4, 11])
    def test_matches_lcps(self, threads, random_graph):
        coreness = core_decomposition(random_graph)
        reference = lcps_build_hcd(random_graph, coreness)
        hcd = phcd_build_hcd(
            random_graph, coreness, SimulatedPool(threads=threads)
        )
        hcd.validate(random_graph, coreness)
        assert hcd.equivalent_to(reference)

    def test_sequential_engine_matches(self, random_graph):
        coreness = core_decomposition(random_graph)
        wf = phcd_build_hcd(
            random_graph, coreness, SimulatedPool(threads=4), use_waitfree=True
        )
        seq = phcd_build_hcd(
            random_graph, coreness, SimulatedPool(threads=4), use_waitfree=False
        )
        assert wf.equivalent_to(seq)

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_cas_failures_do_not_corrupt(self, rate):
        g = powerlaw_cluster(100, 3, 0.3, seed=2)
        coreness = core_decomposition(g)
        reference = lcps_build_hcd(g, coreness)
        hcd = phcd_build_hcd(
            g,
            coreness,
            SimulatedPool(threads=5),
            cas_failure_rate=rate,
            seed=3,
        )
        hcd.validate(g, coreness)
        assert hcd.equivalent_to(reference)

    def test_ground_truth(self, chain_result):
        hcd = phcd_build_hcd(
            chain_result.graph, chain_result.coreness, SimulatedPool(threads=3)
        )
        assert hcd.equivalent_to(ground_truth_hcd(chain_result))

    def test_empty_graph(self):
        hcd = phcd_build_hcd(
            Graph.empty(0), np.array([], dtype=np.int64), SimulatedPool()
        )
        assert hcd.num_nodes == 0

    @pytest.mark.parametrize(
        "bad", ["short", "long", "negative", "float", "two_d"]
    )
    def test_malformed_coreness_raises_before_any_work(self, bad):
        g = rmat(6, 4, seed=1)
        c = core_decomposition(g)
        coreness = {
            "short": c[:-1],
            "long": np.append(c, 0),
            "negative": np.where(np.arange(c.size) == 3, -1, c),
            "float": c + 0.5,
            "two_d": c[:, None],
        }[bad]
        pool = SimulatedPool(threads=4)
        with pytest.raises(HierarchyError, match="coreness"):
            phcd_build_hcd(g, coreness, pool)
        assert pool.region_count == 0

    def test_deterministic_across_runs(self, random_graph):
        coreness = core_decomposition(random_graph)
        a = phcd_build_hcd(random_graph, coreness, SimulatedPool(threads=4))
        b = phcd_build_hcd(random_graph, coreness, SimulatedPool(threads=4))
        assert a.canonical_form() == b.canonical_form()

    def test_serial_phcd_faster_than_lcps(self):
        # Table III column (1): serial PHCD beats LCPS on the clock
        g = powerlaw_cluster(400, 5, 0.3, seed=8)
        coreness = core_decomposition(g)
        pool_l = SimulatedPool(threads=1)
        lcps_build_hcd(g, coreness, pool_l)
        pool_p = SimulatedPool(threads=1)
        phcd_build_hcd(g, coreness, pool_p)
        assert pool_p.clock < pool_l.clock

    def test_parallel_scales(self):
        g = powerlaw_cluster(400, 5, 0.3, seed=8)
        coreness = core_decomposition(g)
        clocks = {}
        for p in (1, 8, 32):
            pool = SimulatedPool(threads=p)
            phcd_build_hcd(g, coreness, pool)
            clocks[p] = pool.clock
        assert clocks[8] < clocks[1]
        assert clocks[32] < clocks[8]


class TestLocalSearch:
    def test_local_core_search_is_k_core(self, paper_like_graph):
        coreness = core_decomposition(paper_like_graph)
        members = local_core_search(paper_like_graph, coreness, 0)
        k = int(coreness[0])
        sub, _ = paper_like_graph.induced_subgraph(members)
        assert int(sub.degrees().min()) >= k

    def test_local_search_level_override(self, paper_like_graph):
        coreness = core_decomposition(paper_like_graph)
        all_of_it = local_core_search(paper_like_graph, coreness, 0, level=0)
        assert all_of_it.size == paper_like_graph.num_vertices

    def test_level_above_coreness_empty(self, triangle):
        coreness = core_decomposition(triangle)
        assert local_core_search(triangle, coreness, 0, level=5).size == 0

    @pytest.mark.parametrize("threads", [1, 4])
    def test_rc_matches_lcps(self, threads, random_graph):
        coreness = core_decomposition(random_graph)
        reference = lcps_build_hcd(random_graph, coreness)
        hcd = rc_build_hcd(random_graph, coreness, SimulatedPool(threads=threads))
        hcd.validate(random_graph, coreness)
        assert hcd.equivalent_to(reference)

    def test_rc_costs_more_than_phcd(self):
        # RC re-walks every k-core at every level, so its cost grows
        # with hierarchy depth — use a graph with non-trivial kmax.
        g = erdos_renyi(250, 0.1, seed=5)
        coreness = core_decomposition(g)
        pool_rc = SimulatedPool(threads=4)
        pool_ph = SimulatedPool(threads=4)
        rc_build_hcd(g, coreness, pool_rc)
        phcd_build_hcd(g, coreness, pool_ph)
        assert pool_rc.clock > pool_ph.clock


class TestLowerBound:
    def test_lb_below_phcd(self, random_graph):
        coreness = core_decomposition(random_graph)
        pool_lb = SimulatedPool(threads=1)
        lb = lower_bound_cost(random_graph, pool_lb)
        pool_ph = SimulatedPool(threads=1)
        phcd_build_hcd(random_graph, coreness, pool_ph)
        assert 0 < lb < pool_ph.clock

    def test_lb_returns_elapsed(self, triangle):
        pool = SimulatedPool(threads=2)
        lb = lower_bound_cost(triangle, pool)
        assert lb == pytest.approx(pool.clock)


class TestPartitionAndDnc:
    def test_partition_labels_valid(self, random_graph):
        labels = label_propagation_partition(
            random_graph, 4, SimulatedPool(threads=4)
        )
        assert labels.size == random_graph.num_vertices
        assert set(np.unique(labels)) <= set(range(4))

    def test_partition_single_part(self, triangle):
        labels = label_propagation_partition(triangle, 1, SimulatedPool())
        assert np.array_equal(labels, [0, 0, 0])

    def test_partition_invalid(self, triangle):
        with pytest.raises(ValueError):
            label_propagation_partition(triangle, 0, SimulatedPool())

    def test_dnc_produces_correct_hcd(self, random_graph):
        coreness = core_decomposition(random_graph)
        reference = lcps_build_hcd(random_graph, coreness)
        result = dnc_build_hcd(
            random_graph, coreness, SimulatedPool(threads=4)
        )
        result.hcd.validate(random_graph, coreness)
        assert result.hcd.equivalent_to(reference)

    def test_dnc_phase_times(self, random_graph):
        coreness = core_decomposition(random_graph)
        result = dnc_build_hcd(random_graph, coreness, SimulatedPool(threads=2))
        assert result.partition_time > 0
        assert result.local_lcps_time > 0
        assert result.merge_time > 0
        assert result.total_time == pytest.approx(
            result.partition_time + result.local_lcps_time + result.merge_time
        )

    def test_dnc_slower_than_phcd(self):
        g = powerlaw_cluster(200, 4, 0.2, seed=3)
        coreness = core_decomposition(g)
        pool_dnc = SimulatedPool(threads=4)
        dnc = dnc_build_hcd(g, coreness, pool_dnc)
        pool_ph = SimulatedPool(threads=4)
        phcd_build_hcd(g, coreness, pool_ph)
        assert dnc.total_time > pool_ph.clock
