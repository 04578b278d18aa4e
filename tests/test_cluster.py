"""Tests for SimCluster: network model, sharding, distributed
decomposition bit-identity, fault-tolerant sharded serving, and the
cluster profiler."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.datasets import dataset_names, load
from repro.cli import main
from repro.cluster import (
    ClusterProfiler,
    ClusterService,
    ClusterServiceConfig,
    Network,
    SimCluster,
    SimNode,
    distributed_core_decomposition,
    shard_graph,
)
from repro.cluster.network import BYTE_COST, LATENCY
from repro.core.decomposition import core_decomposition
from repro.core.distributed import mpm_core_decomposition
from repro.graph.generators import powerlaw_cluster
from repro.parallel.scheduler import SimulatedPool
from repro.serve import (
    HCDService,
    SnapshotCatalog,
    build_snapshot,
    synthetic_trace,
)


def _graph():
    return powerlaw_cluster(90, 3, 0.35, seed=13)


# ----------------------------------------------------------------------
# network cost model
# ----------------------------------------------------------------------


class TestNetwork:
    def test_switch_is_one_hop(self):
        net = Network(4)
        assert net.hops(0, 3) == 1
        assert net.hops(2, 1) == 1
        assert net.hops(1, 1) == 0

    def test_cost_is_latency_plus_bytes(self):
        net = Network(2)
        assert net.cost(0, 1, 40) == LATENCY + 40 * BYTE_COST

    def test_send_counts_and_charges(self):
        net = Network(3)
        charged = net.send(0, 2, 80)
        assert charged == LATENCY + 80 * BYTE_COST
        assert net.messages == 1
        assert net.bytes_sent == 80
        assert net.total_cost == charged
        assert net.links[(0, 2)] == [1, 80]

    def test_local_send_free_and_uncounted(self):
        net = Network(2)
        assert net.send(1, 1, 1000) == 0.0
        assert net.messages == 0
        assert net.total_cost == 0.0

    def test_reset(self):
        net = Network(2)
        net.send(0, 1, 8)
        net.reset()
        assert net.messages == 0 and net.bytes_sent == 0
        assert net.links == {}

    def test_stats_shape(self):
        net = Network(2)
        net.send(0, 1, 8)
        stats = net.stats()
        assert stats["messages"] == 1
        assert stats["links"]["0->1"] == {"messages": 1, "bytes": 8}
        json.dumps(stats)  # JSON-ready

    def test_endpoint_range_checked(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 2, 8)
        with pytest.raises(ValueError):
            net.cost(-1, 0, 8)
        with pytest.raises(ValueError):
            net.hops(0, 5)

    def test_negative_nbytes_rejected(self):
        net = Network(2)
        with pytest.raises(ValueError, match=r"0->1.*>= 0"):
            net.send(0, 1, -1)
        with pytest.raises(ValueError, match=">= 0"):
            net.cost(0, 1, -8)
        assert net.messages == 0 and net.bytes_sent == 0

    @pytest.mark.parametrize("bad", [2.5, "8", None, True])
    def test_non_int_nbytes_rejected(self, bad):
        net = Network(2)
        with pytest.raises(ValueError, match="must be an int"):
            net.send(0, 1, bad)
        with pytest.raises(ValueError, match="must be an int"):
            net.cost(0, 1, bad)

    def test_numpy_integer_nbytes_accepted(self):
        net = Network(2)
        net.send(0, 1, np.int64(8))
        assert net.bytes_sent == 8

    def test_reset_stats_round_trip(self):
        net = Network(3)
        net.send(0, 1, 8)
        net.send(1, 2, 24)
        before = net.stats()
        assert before["messages"] == 2 and before["bytes"] == 32
        net.reset()
        cleared = net.stats()
        assert cleared["messages"] == 0
        assert cleared["bytes"] == 0
        assert cleared["cost"] == 0.0
        assert cleared["links"] == {}
        # counters accumulate identically after a reset
        net.send(0, 1, 8)
        net.send(1, 2, 24)
        assert net.stats() == before


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------


class TestShardGraph:
    def test_range_partition_covers_all_vertices(self):
        graph = _graph()
        sharded = shard_graph(graph, 4, strategy="range")
        owned = np.concatenate([p.owned for p in sharded.parts])
        assert sorted(owned.tolist()) == list(range(graph.num_vertices))
        assert sharded.owner.shape == (graph.num_vertices,)

    def test_boundary_and_ghosts_are_consistent(self):
        graph = _graph()
        sharded = shard_graph(graph, 3, strategy="range")
        indptr, indices = graph.indptr, graph.indices
        for part in sharded.parts:
            for v in part.boundary.tolist():
                row = indices[indptr[v] : indptr[v + 1]]
                owners = set(sharded.owner[row].tolist())
                assert owners - {part.shard_id}, "boundary vertex has no remote neighbor"
            ghost_owner = set(sharded.owner[part.ghosts].tolist())
            assert part.shard_id not in ghost_owner

    def test_targets_point_at_neighbor_owners(self):
        graph = _graph()
        sharded = shard_graph(graph, 3, strategy="range")
        for part in sharded.parts:
            for v, dests in part.targets.items():
                row = graph.indices[graph.indptr[v] : graph.indptr[v + 1]]
                neighbor_owners = set(sharded.owner[row].tolist())
                assert set(dests) <= neighbor_owners

    def test_lp_partition_reduces_cut(self):
        graph = load("as_skitter").graph
        by_range = shard_graph(graph, 4, strategy="range")
        by_lp = shard_graph(graph, 4, strategy="lp")
        assert by_lp.edge_cut < by_range.edge_cut

    def test_single_shard_has_no_cut(self):
        sharded = shard_graph(_graph(), 1)
        assert sharded.edge_cut == 0
        assert sharded.parts[0].boundary.size == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            shard_graph(_graph(), 2, strategy="metis")

    def test_unknown_strategy_beats_trivial_short_circuit(self):
        # validation first: even the degenerate cases reject bad names
        from repro.graph.graph import Graph

        with pytest.raises(ValueError):
            shard_graph(Graph.from_edges([], num_vertices=0), 2, strategy="metis")
        with pytest.raises(ValueError):
            shard_graph(_graph(), 1, strategy="metis")

    @pytest.mark.parametrize("strategy", ["range", "lp"])
    def test_empty_graph(self, strategy):
        from repro.graph.graph import Graph

        sharded = shard_graph(
            Graph.from_edges([], num_vertices=0), 4, strategy=strategy
        )
        assert sharded.owner.shape == (0,)
        assert len(sharded.parts) == 4
        assert sharded.edge_cut == 0
        for part in sharded.parts:
            assert part.owned.size == 0
            assert part.boundary.size == 0
        json.dumps(sharded.stats())

    def test_single_shard_lp_is_trivial(self):
        # shards=1 short-circuits before label propagation ever runs
        graph = _graph()
        sharded = shard_graph(graph, 1, strategy="lp")
        assert np.all(sharded.owner == 0)
        assert sharded.edge_cut == 0
        assert sharded.parts[0].owned.size == graph.num_vertices

    def test_stats_json_ready(self):
        json.dumps(shard_graph(_graph(), 2).stats())


# ----------------------------------------------------------------------
# cluster substrate
# ----------------------------------------------------------------------


class TestSimCluster:
    def test_superstep_clock_is_max_compute_plus_comms(self):
        cluster = SimCluster(2, threads=2)

        def work(units):
            def run(node: SimNode) -> None:
                with node.pool.serial_region("w") as ctx:
                    ctx.charge(units)

            return run

        def exchange():
            cluster.network.send(0, 1, 8)

        record = cluster.superstep("t", {0: work(10), 1: work(30)}, exchange)
        assert record.compute == max(record.node_compute.values())
        assert record.comms == cluster.network.total_cost
        assert cluster.clock == record.compute + record.comms

    def test_slow_factor_scales_compute(self):
        cluster = SimCluster(2, threads=2)
        cluster.slow(1, 4.0)

        def run(node: SimNode) -> None:
            with node.pool.serial_region("w") as ctx:
                ctx.charge(10)

        record = cluster.superstep("t", {0: run, 1: run})
        assert record.node_compute[1] == 4.0 * record.node_compute[0]

    def test_dead_node_skipped(self):
        cluster = SimCluster(2, threads=2)
        cluster.nodes[0].alive = False
        ran = []
        cluster.superstep("t", {0: lambda n: ran.append(0), 1: lambda n: ran.append(1)})
        assert ran == [1]

    def test_crash_validation(self):
        cluster = SimCluster(2)
        with pytest.raises(ValueError):
            cluster.crash(0, at=100.0, recover_at=50.0)
        with pytest.raises(ValueError):
            cluster.slow(0, 0.5)

    def test_shared_pool_mode(self):
        pool = SimulatedPool(threads=4)
        cluster = SimCluster(3, pool=pool)
        assert cluster.pools() == [pool]
        assert all(node.pool is pool for node in cluster.nodes)


# ----------------------------------------------------------------------
# distributed decomposition: bit-identity at every configuration
# ----------------------------------------------------------------------


class TestDistributedDecomposition:
    @pytest.mark.parametrize("name", dataset_names())
    def test_bit_identical_on_registry_sweep(self, name):
        """1/2/4/8 shards x 1/2/4 threads-per-node, every dataset."""
        graph = load(name).graph
        reference = core_decomposition(graph)
        for shards in (1, 2, 4, 8):
            sharded = shard_graph(graph, shards, strategy="range")
            for threads in (1, 2, 4):
                cluster = SimCluster(shards, threads=threads)
                report = distributed_core_decomposition(
                    graph, cluster, sharded
                )
                assert (report.coreness == reference).all(), (
                    f"{name}: shards={shards} threads={threads}"
                )

    def test_bit_identical_with_lp_partition(self):
        graph = load("as_skitter").graph
        reference = core_decomposition(graph)
        for shards in (2, 4):
            sharded = shard_graph(graph, shards, strategy="lp")
            cluster = SimCluster(shards, threads=4)
            report = distributed_core_decomposition(graph, cluster, sharded)
            assert (report.coreness == reference).all()

    def test_single_shard_is_one_superstep_of_mpm(self):
        graph = _graph()
        cluster = SimCluster(1, threads=4)
        sharded = shard_graph(graph, 1)
        report = distributed_core_decomposition(graph, cluster, sharded)
        assert report.supersteps == 1
        assert report.messages == 0
        assert (report.coreness == core_decomposition(graph)).all()

    def test_report_accounting(self):
        graph = _graph()
        cluster = SimCluster(4, threads=2)
        sharded = shard_graph(graph, 4, strategy="range")
        report = distributed_core_decomposition(graph, cluster, sharded)
        assert report.supersteps == len(cluster.supersteps)
        assert report.messages == cluster.network.messages > 0
        assert report.bytes_sent == cluster.network.bytes_sent > 0
        assert report.compute_clock > 0 and report.comms_clock > 0
        assert report.cluster_clock == cluster.clock
        payload = report.as_dict()
        assert payload["comms_compute_ratio"] > 0
        json.dumps(payload)

    def test_shard_count_must_match_cluster(self):
        graph = _graph()
        with pytest.raises(ValueError):
            distributed_core_decomposition(
                graph, SimCluster(2), shard_graph(graph, 4)
            )

    def test_mpm_direct(self):
        """The single-node MPM baseline converges to the exact coreness."""
        graph = _graph()
        pool = SimulatedPool(threads=4)
        coreness, rounds = mpm_core_decomposition(graph, pool)
        assert (coreness == core_decomposition(graph)).all()
        assert 0 < rounds <= int(coreness.max()) + graph.num_vertices

    def test_cluster_supersteps_at_most_mpm_rounds(self):
        # shard-grained supersteps batch many MPM rounds: the exchange
        # count never exceeds the per-vertex round count
        graph = load("as_skitter").graph
        _, rounds = mpm_core_decomposition(graph, SimulatedPool(4))
        cluster = SimCluster(4, threads=4)
        report = distributed_core_decomposition(
            graph, cluster, shard_graph(graph, 4, strategy="range")
        )
        assert report.supersteps <= rounds


# ----------------------------------------------------------------------
# sharded serving
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_setup(tmp_path_factory):
    graph = load("as_skitter").graph
    root = tmp_path_factory.mktemp("cluster-catalog")
    catalog = SnapshotCatalog(root)
    catalog.publish(build_snapshot(graph, name="as"))
    trace = synthetic_trace(48, seed=7)
    reference = HCDService(catalog, "as").serve(trace)
    return catalog, trace, reference


class TestClusterService:
    @pytest.mark.parametrize(
        "shards,replicas", [(1, 1), (2, 1), (2, 2), (4, 2)]
    )
    def test_byte_identical_to_single_service(
        self, serve_setup, shards, replicas
    ):
        catalog, trace, reference = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(
                num_shards=shards, replicas=replicas
            ),
        )
        report = service.serve(trace)
        assert report.answers_digest() == reference.answers_digest()
        assert report.answers() == reference.answers()
        assert report.failed == 0

    def test_crash_mid_run_fails_over_with_zero_wrong_answers(
        self, serve_setup
    ):
        catalog, trace, reference = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
        )
        service.crash(0, at=500.0)
        report = service.serve(trace)
        assert report.failovers >= 1
        assert report.failed == 0
        assert not service.cluster.nodes[0].alive
        assert report.answers_digest() == reference.answers_digest()

    def test_crash_replay_is_deterministic(self, serve_setup):
        catalog, trace, _ = serve_setup

        def run():
            service = ClusterService(
                catalog,
                "as",
                config=ClusterServiceConfig(num_shards=2, replicas=2),
            )
            service.crash(0, at=500.0)
            return service.serve(trace)

        first, second = run(), run()
        assert first.as_dict() == second.as_dict()
        assert [r.as_dict() for r in first.records] == [
            r.as_dict() for r in second.records
        ]

    def test_recovery_reregisters_from_catalog(self, serve_setup):
        catalog, trace, reference = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=1, replicas=2),
        )
        service.crash(0, at=300.0, recover_at=5000.0)
        report = service.serve(trace)
        assert report.recoveries == 1
        assert service.cluster.nodes[0].alive
        assert service.cluster.nodes[0].service is not None
        assert report.answers_digest() == reference.answers_digest()

    def test_one_open_per_router_and_per_recovery(
        self, serve_setup, monkeypatch
    ):
        catalog, trace, reference = serve_setup
        opened = []
        real_open = SnapshotCatalog.open

        def counted(self, *args, **kwargs):
            snapshot = real_open(self, *args, **kwargs)
            opened.append(snapshot)
            return snapshot

        monkeypatch.setattr(SnapshotCatalog, "open", counted)
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
        )
        assert len(opened) == 1
        replicas = service.cluster.nodes[:-1]
        assert all(node.service.snapshot is opened[0] for node in replicas)
        service.crash(0, at=300.0)
        service.serve(trace)
        service.recover(0)
        assert len(opened) == 2
        recovered = replicas[0].service.snapshot
        assert recovered is opened[1] and recovered is not opened[0]
        assert all(node.service.snapshot is opened[0] for node in replicas[1:])
        report = service.serve(trace)
        assert report.answers_digest() == reference.answers_digest()

    def test_serve_moves_live_replicas_to_a_new_version(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "catalog")
        catalog.publish(build_snapshot(_graph(), name="g"))
        service = ClusterService(
            catalog, "g", config=ClusterServiceConfig(num_shards=1, replicas=3)
        )
        service.crash(0, at=0.0)
        trace = synthetic_trace(12, seed=3)
        assert service.serve(trace).snapshot == ("g", 1)
        assert not service.cluster.nodes[0].alive
        catalog.publish(build_snapshot(_graph(), name="g"))
        assert service.serve(trace).snapshot == ("g", 2)
        replicas = service.cluster.nodes[:-1]
        # the dead replica stays on its version
        assert [node.service.snapshot.version for node in replicas] == [1, 2, 2]

    def test_service_rejects_snapshot_of_another_name(self, serve_setup):
        catalog, _, _ = serve_setup
        snapshot = catalog.open("as")
        snapshot.name = "other"
        with pytest.raises(ValueError, match="other"):
            HCDService(catalog, "as", snapshot=snapshot)

    def test_slow_node_hedges_and_stays_identical(self, serve_setup):
        catalog, trace, reference = serve_setup
        config = ClusterServiceConfig(
            num_shards=2, replicas=2, hedge_timeout=2000.0
        )
        service = ClusterService(catalog, "as", config=config)
        service.slow(0, 8.0)
        report = service.serve(trace)
        assert report.hedges >= 1
        assert report.answers_digest() == reference.answers_digest()

    def test_hedging_cuts_tail_latency_under_slow_node(self, serve_setup):
        catalog, trace, _ = serve_setup
        slowed = ClusterServiceConfig(num_shards=2, replicas=2)
        hedged = ClusterServiceConfig(
            num_shards=2, replicas=2, hedge_timeout=2000.0
        )
        without = ClusterService(catalog, "as", config=slowed)
        without.slow(0, 8.0)
        p99_without = without.serve(trace).p99
        with_hedge = ClusterService(catalog, "as", config=hedged)
        with_hedge.slow(0, 8.0)
        p99_with = with_hedge.serve(trace).p99
        assert p99_with < p99_without

    def test_all_replicas_dead_fails_requests(self, serve_setup):
        catalog, trace, _ = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=1, replicas=1),
        )
        service.crash(0, at=0.0)
        report = service.serve(trace)
        assert report.failed > 0
        assert report.answers() == {}

    def test_report_shape(self, serve_setup):
        catalog, trace, _ = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
        )
        report = service.serve(trace)
        payload = report.as_dict()
        assert payload["num_shards"] == 2
        assert payload["replicas"] == 2
        assert payload["network"]["messages"] > 0
        assert len(payload["per_shard"]) == 2
        assert sum(s["requests"] for s in payload["per_shard"]) > 0
        assert payload["cluster_clock"] > 0
        json.dumps(payload)

    def test_shared_pool_counts_replica_work_once(self, serve_setup):
        # with one pool aliased into every node the replicas' regions
        # land on the router's pool too; the dispatch cost already
        # holds them, so the replay must match per-node pools exactly
        catalog, trace, _ = serve_setup

        def run(pool):
            service = ClusterService(
                catalog,
                "as",
                config=ClusterServiceConfig(num_shards=1, replicas=1),
                pool=pool,
            )
            return service.serve(trace)

        per_node, shared = run(None), run(SimulatedPool(threads=4))
        assert shared.work_units == per_node.work_units
        assert [r.as_dict() for r in shared.records] == [
            r.as_dict() for r in per_node.records
        ]

    def test_sim_clock_is_per_call(self, serve_setup):
        catalog, trace, _ = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
        )
        first = service.serve(trace[:24])
        second = service.serve(trace[:24])
        assert first.sim_clock == second.sim_clock > 0

    def test_committed_bench_cluster_serving_is_reproduced(self):
        # the serving section of BENCH_cluster.json holds only work-unit
        # numbers and digests: p50/p99, work units and network numbers
        # at four topologies, under a crash and with hedging.  The bench
        # must rebuild it exactly; re-record it (make bench-cluster)
        # whenever serving accounting legitimately moves
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "bench_cluster", root / "benchmarks" / "bench_cluster.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        committed = json.loads(
            (root / "benchmarks" / "results" / "BENCH_cluster.json").read_text()
        )
        serving = bench._serving(load("AS").graph)
        assert json.loads(json.dumps(serving)) == committed["serving"]

    def test_committed_bench_cluster_decomposition_is_reproduced(self):
        # the decomposition section holds only sim-clock numbers: the
        # range and lp shard sweeps, the threads-per-node sweep and the
        # MPM baseline.  Same rule as the serving section: rebuilt
        # exactly, re-recorded only when the accounting legitimately moves
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "bench_cluster", root / "benchmarks" / "bench_cluster.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        committed = json.loads(
            (root / "benchmarks" / "results" / "BENCH_cluster.json").read_text()
        )
        decomposition = bench._decomposition(load("AS").graph)
        assert (
            json.loads(json.dumps(decomposition)) == committed["decomposition"]
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterServiceConfig(num_shards=0)
        with pytest.raises(ValueError):
            ClusterServiceConfig(replicas=0)
        with pytest.raises(ValueError):
            ClusterServiceConfig(hedge_timeout=0.0)

    def test_cannot_crash_router(self, serve_setup):
        catalog, _, _ = serve_setup
        service = ClusterService(
            catalog,
            "as",
            config=ClusterServiceConfig(num_shards=1, replicas=1),
        )
        with pytest.raises(ValueError):
            service.crash(1, at=0.0)  # node 1 is the router


# ----------------------------------------------------------------------
# cluster profiler
# ----------------------------------------------------------------------


class TestClusterProfiler:
    def test_zero_perturbation(self):
        graph = _graph()

        def run(profiled: bool) -> tuple[float, np.ndarray]:
            cluster = SimCluster(4, threads=4)
            sharded = shard_graph(graph, 4, strategy="range")
            if profiled:
                with ClusterProfiler(cluster):
                    report = distributed_core_decomposition(
                        graph, cluster, sharded
                    )
            else:
                report = distributed_core_decomposition(
                    graph, cluster, sharded
                )
            return cluster.clock, report.coreness

        clock_without, coreness_without = run(False)
        clock_with, coreness_with = run(True)
        assert clock_with - clock_without == 0.0
        assert (coreness_with == coreness_without).all()

    def test_chrome_trace_has_one_process_lane_per_node(self):
        graph = _graph()
        cluster = SimCluster(3, threads=2)
        with ClusterProfiler(cluster) as prof:
            distributed_core_decomposition(
                graph, cluster, shard_graph(graph, 3)
            )
        trace = prof.chrome_trace()
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("name") == "process_name"
        }
        assert names == {"node 0", "node 1", "node 2"}
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {0, 1, 2}
        # vthread lanes exist under each node's process
        vthread = [
            e for e in trace["traceEvents"] if e.get("cat") == "vthread"
        ]
        assert {e["pid"] for e in vthread} == {0, 1, 2}

    def test_report_carries_per_shard_work_and_comms(self):
        graph = _graph()
        cluster = SimCluster(2, threads=2)
        with ClusterProfiler(cluster) as prof:
            distributed_core_decomposition(
                graph, cluster, shard_graph(graph, 2)
            )
        report = prof.report()
        assert len(report["per_shard"]) == 2
        assert all(s["compute"] >= 0 for s in report["per_shard"])
        assert sum(s["bytes_sent"] for s in report["per_shard"]) > 0
        assert report["supersteps"]
        assert report["network"]["messages"] > 0
        paths = {p["path"] for np_ in report["node_profiles"]
                 for p in np_["profile"]["phases"]}
        assert "cluster.local" in paths
        json.dumps(report)

    def test_write_artifacts(self, tmp_path):
        graph = _graph()
        cluster = SimCluster(2, threads=2)
        with ClusterProfiler(cluster) as prof:
            distributed_core_decomposition(
                graph, cluster, shard_graph(graph, 2)
            )
        paths = prof.write_artifacts(tmp_path)
        assert paths["profile"].exists() and paths["trace"].exists()
        json.loads(paths["profile"].read_text())
        json.loads(paths["trace"].read_text())

    def test_shared_pool_cluster_gets_one_lane(self):
        graph = _graph()
        pool = SimulatedPool(threads=4)
        cluster = SimCluster(2, pool=pool)
        with ClusterProfiler(cluster) as prof:
            distributed_core_decomposition(
                graph, cluster, shard_graph(graph, 2)
            )
        trace = prof.chrome_trace()
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("name") == "process_name"
        }
        assert names == {"nodes 0,1 (shared pool)"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestClusterCLI:
    def test_decompose_mode(self, capsys):
        assert main(["cluster", "--dataset", "AS", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to single-node decomposition: True" in out
        assert "supersteps" in out

    def test_missing_json_directory_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        def no_work(*args, **kwargs):
            raise AssertionError("loaded a graph before the usage check")

        monkeypatch.setattr(repro.cli, "_load_graph", no_work)
        out = tmp_path / "missing" / "cluster.json"
        assert main(["cluster", "--dataset", "AS", "--json", str(out)]) == 2
        assert f"no such directory for --json {out}" in capsys.readouterr().err

    def test_mpm_baseline_flag(self, capsys):
        assert (
            main(["cluster", "--dataset", "AS", "--shards", "2", "--mpm"])
            == 0
        )
        out = capsys.readouterr().out
        assert "mpm" in out
        assert "identical=True" in out

    def test_serve_mode_with_faults(self, tmp_path, capsys):
        code = main(
            [
                "cluster",
                "--dataset",
                "AS",
                "--shards",
                "2",
                "--serve",
                "16",
                "--build",
                "--catalog",
                str(tmp_path / "cat"),
                "--crash",
                "0:500",
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failover(s)" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["serve"]["failed"] == 0
        assert payload["serve"]["failovers"] >= 1

    def test_profile_out(self, tmp_path, capsys):
        code = main(
            [
                "cluster",
                "--dataset",
                "AS",
                "--shards",
                "2",
                "--profile-out",
                str(tmp_path / "prof"),
            ]
        )
        assert code == 0
        assert (tmp_path / "prof" / "cluster_profile.json").exists()
        assert (tmp_path / "prof" / "cluster_trace.json").exists()

    def test_bad_fault_spec(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--dataset",
                    "AS",
                    "--serve",
                    "4",
                    "--crash",
                    "zero",
                ]
            )
            == 2
        )
