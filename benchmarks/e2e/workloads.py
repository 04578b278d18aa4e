"""The five workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed alone (an R-MAT graph and,
where it serves, a request mix), times its calls into the program's
public functions from outside, and checks every output against an
independent reference before any number is reported.  Simulated threads
are virtual: p=8 everywhere costs one OS thread.

=========  ===========  =====================================================
workload   graph        one iteration
=========  ===========  =====================================================
construct  rmat(16, 8)  PKC -> vertex rank -> PHCD -> preprocessing -> PBKS
                        (conductance) on one pool, in ``search_best_core``'s
                        order
search     rmat(11, 8)  PBKS (clustering coefficient, type B) over the
                        decomposition built in set-up
serve      rmat(15, 8)  8,192 requests in closed-loop bursts of 1-16 through
                        ``HCDService.serve`` on a warm snapshot, cache and
                        pool accounting cleared first
dynamic    rmat(12, 8)  one round: a batch of 4 insertions + 4 deletions
                        stratified over the coreness order, a delta
                        publish, then 64 read calls
cluster    rmat(14, 8)  distributed decomposition on 8 shards, then 8,192
                        requests through 2 shards x 2 replicas with one
                        replica crashed and recovered mid-replay
=========  ===========  =====================================================

``--quick`` shrinks every graph to scale 8-10 for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import Meter, Timing
from repro.cluster import (
    ClusterService,
    ClusterServiceConfig,
    SimCluster,
    distributed_core_decomposition,
    shard_graph,
)
from repro.core.decomposition import core_decomposition
from repro.core.lcps import lcps_build_hcd
from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import compute_vertex_rank
from repro.dynamic import DynamicGraph
from repro.graph.generators import rmat
from repro.parallel.scheduler import SimulatedPool
from repro.pipeline import decompose, search_best_core
from repro.search.best_k import find_best_k
from repro.search.bks import bks_search
from repro.search.influential import InfluentialCommunityIndex
from repro.search.pbks import pbks_search
from repro.search.preprocessing import preprocess_neighbor_counts
from repro.serve import (
    DynamicServingFeed,
    HCDService,
    ResultCache,
    SnapshotCatalog,
    build_snapshot,
    normalize_request,
)

THREADS = 8
EDGE_FACTOR = 8

#: type-A metrics in Zipf popularity order (most popular first)
TYPE_A = (
    "conductance",
    "average_degree",
    "modularity",
    "internal_density",
    "cut_ratio",
    "separability",
    "expansion",
)
WEIGHT_SPECS = ("degree", "coreness", "uniform")
MAX_K = 64
MAX_BURST = 16
ZIPF_S = 1.1

#: one request per kind, so that every memoized shared pass exists
WARM_TRACE = [
    {"kind": "pbks", "metric": "conductance"},
    {"kind": "best_k", "metric": "conductance"},
    {"kind": "densest"},
] + [{"kind": "influential", "k": 1, "r": 1, "weights": w} for w in WEIGHT_SPECS]


class VerificationError(Exception):
    """An output of the program disagrees with its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def digest(*parts) -> str:
    """SHA-256 over byte strings, arrays and JSON-ready values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def search_summary(result) -> list:
    """The implementation-independent part of a best-core answer."""
    size = int(result.values[result.best_node][0]) if result.best_node >= 0 else 0
    return [result.best_k, size, result.best_score]


def same_search(a, b) -> bool:
    ka, sa, va = search_summary(a)
    kb, sb, vb = search_summary(b)
    return ka == kb and sa == sb and math.isclose(va, vb, rel_tol=1e-9)


def _zipf(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** ZIPF_S
    return weights / weights.sum()


def request_bursts(
    rng: np.random.Generator, total: int, calls: int | None = None
) -> list[list[dict]]:
    """``total`` serve-mix requests cut into bursts of 1-16 (at most ``calls``).

    40% PBKS and 20% best-k over the type-A metrics (Zipf popularity),
    10% densest, 30% top-r influential communities (Zipf ``k`` in
    [1, 64], ``r`` uniform in [1, 8], one of three weight specs).
    """
    metric_p = _zipf(len(TYPE_A))
    k_p = _zipf(MAX_K)
    bursts: list[list[dict]] = []
    left = total
    while left and (calls is None or len(bursts) < calls):
        size = min(int(rng.integers(1, MAX_BURST + 1)), left)
        left -= size
        burst = []
        for _ in range(size):
            roll = rng.random()
            if roll < 0.4:
                burst.append({"kind": "pbks", "metric": TYPE_A[rng.choice(len(TYPE_A), p=metric_p)]})
            elif roll < 0.6:
                burst.append({"kind": "best_k", "metric": TYPE_A[rng.choice(len(TYPE_A), p=metric_p)]})
            elif roll < 0.7:
                burst.append({"kind": "densest"})
            else:
                burst.append(
                    {
                        "kind": "influential",
                        "k": int(rng.choice(MAX_K, p=k_p)) + 1,
                        "r": int(rng.integers(1, 9)),
                        "weights": WEIGHT_SPECS[int(rng.integers(0, len(WEIGHT_SPECS)))],
                    }
                )
        bursts.append(burst)
    return bursts


def answers_of(report, count: int) -> list:
    """Answer payloads of one serve call, in request order (None if unanswered)."""
    return [
        report.results[rid].as_dict() if rid in report.results else None
        for rid in range(count)
    ]


def expected_answer(snapshot, query, pool, indexes: dict) -> dict:
    """Answer ``query`` on ``snapshot`` through the search layer directly.

    Bypasses the serving path (planner, cache, memoized shared passes,
    batched folds), which is what the served answer is checked against.
    """
    graph, coreness, hcd = snapshot.graph, snapshot.coreness, snapshot.hcd
    fingerprint = query.fingerprint
    if query.kind == "pbks":
        result = pbks_search(
            graph, coreness, hcd, query.metric, pool,
            counts=snapshot.counts, rank_result=snapshot.rank_result,
        )
        best = result.best_node
        return {
            "fingerprint": fingerprint, "kind": "pbks",
            "best_k": result.best_k, "best_score": result.best_score,
            "size": int(result.values[best][0]) if best >= 0 else 0,
            "detail": [best] if best >= 0 else [],
        }
    if query.kind == "best_k":
        result = find_best_k(
            graph, coreness, query.metric, pool,
            counts=snapshot.counts, rank_result=snapshot.rank_result,
        )
        best = result.best_k
        return {
            "fingerprint": fingerprint, "kind": "best_k",
            "best_k": best, "best_score": result.best_score,
            "size": int(result.values[best][0]) if best >= 0 else 0,
            "detail": [],
        }
    if query.weights not in indexes:
        weights = {
            "degree": graph.degrees(),
            "coreness": coreness,
            "uniform": np.ones(graph.num_vertices),
        }[query.weights]
        indexes[query.weights] = InfluentialCommunityIndex(
            hcd, np.asarray(weights, dtype=np.float64), pool
        )
    top = indexes[query.weights].top_r(query.k, query.r)
    return {
        "fingerprint": fingerprint, "kind": "influential", "best_k": query.k,
        "best_score": top[0].influence if top else float("-inf"),
        "size": top[0].size if top else 0,
        "detail": [[c.node, c.influence, c.size] for c in top],
    }


def check_answers(snapshot, bursts: list[list[dict]], answers: list) -> None:
    """Every served answer equals the direct search-layer answer."""
    by_fingerprint: dict[str, tuple] = {}
    flat = [entry for burst in bursts for entry in burst]
    check(len(flat) == len(answers), "answer count differs from request count")
    for entry, answer in zip(flat, answers):
        check(answer is not None, f"request {entry} was not answered")
        query = normalize_request(entry)
        seen = by_fingerprint.setdefault(query.fingerprint, (query, answer))
        check(seen[1] == answer, f"two answers for {query.fingerprint}")
    pool = SimulatedPool(THREADS)
    indexes: dict = {}
    for fingerprint, (query, answer) in by_fingerprint.items():
        expected = expected_answer(snapshot, query, pool, indexes)
        check(answer == expected, f"served answer for {fingerprint} is {answer}, expected {expected}")


def check_repeatable(iterations: list) -> None:
    """Every iteration ran the same sim clock and gave the same outputs."""
    first = iterations[0]
    for i, it in enumerate(iterations[1:], start=1):
        check(it.sim == first.sim, f"iteration {i} sim clock {it.sim} != {first.sim}")
        check(it.digest == first.digest, f"iteration {i} outputs differ from iteration 0")


@dataclass
class Iteration:
    """What one iteration measured; times are calibrated seconds."""

    sim: float = 0.0            # sim clock of the iteration
    wall: float = 0.0           # time spent in program calls
    raw_wall: float = 0.0       # the same, uncalibrated
    calls: list[float] = field(default_factory=list)  # each client call
    digest: str = ""            # output fingerprint, equal across iterations
    requests: int = 0
    failed: int = 0             # shed + invalid + failed requests
    hit_calls: list[float] = field(default_factory=list)
    miss_calls: list[float] = field(default_factory=list)
    mutations: int = 0
    mutate_s: float = 0.0       # apply + publish
    visible_s: float = 0.0      # batch submitted -> first answer from its version

    def add(self, timing: Timing) -> float:
        """Count a timed block toward the wall time; return its seconds."""
        self.wall += timing.seconds
        self.raw_wall += timing.raw
        return timing.seconds


class Workload:
    """Set-up, one iteration, and verification of one workload."""

    name = ""
    why = ""
    #: (full, quick) R-MAT scale
    scales = (0, 0)
    #: iterations run even when they overrun ``--seconds``
    min_iters = 3
    #: iterations are identical: same sim clock and outputs every time
    #: (checked by :func:`check_repeatable`)
    repeatable = True

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = int(seed)
        self.quick = bool(quick)
        self.scale = self.scales[1] if quick else self.scales[0]
        self.workdir = Path(workdir)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def generate(self, meter: Meter):
        with meter.time("graph.generate"):
            return rmat(self.scale, EDGE_FACTOR, seed=self.seed)

    def fresh_catalog(self) -> SnapshotCatalog:
        root = self.workdir / "catalog"
        shutil.rmtree(root, ignore_errors=True)
        return SnapshotCatalog(root)

    def params(self) -> dict:
        return {
            "graph": f"rmat({self.scale},{EDGE_FACTOR},seed={self.seed})",
            "n": self.graph.num_vertices,
            "m": self.graph.num_edges,
            "threads": THREADS,
        }

    def setup(self, meter: Meter) -> None:
        raise NotImplementedError

    def iterate(self, index: int, meter: Meter) -> Iteration:
        raise NotImplementedError

    def verify(self, iterations: list[Iteration], meter: Meter) -> dict[str, str]:
        """Check every output; return the digests held in ``expected.json``."""
        raise NotImplementedError



class Construct(Workload):
    name = "construct"
    why = (
        "rmat(16,8): PKC, vertex rank and PHCD take ~86% of wall time, preprocessing "
        "and PBKS ~14%; the graph of the 5x wall-time target"
    )
    scales = (16, 10)
    metric = "conductance"

    def setup(self, meter: Meter) -> None:
        self.graph = self.generate(meter)
        # warm-up on a small graph, which also ties the layer-by-layer
        # calls below to the public pipeline: same answer, same clock
        small = rmat(8, EDGE_FACTOR, seed=self.seed)
        pool = SimulatedPool(THREADS)
        (_, _, result), _ = self.pipeline(small, pool, Meter())
        ref_pool = SimulatedPool(THREADS)
        ref, _ = search_best_core(small, self.metric, pool=ref_pool, parallel=True)
        check(
            ref_pool.clock == pool.clock and search_summary(ref) == search_summary(result),
            "layer-by-layer pipeline diverged from search_best_core",
        )

    def pipeline(self, graph, pool, meter: Meter):
        """The pipeline's layers, each timed; returns outputs and timings."""
        timings = []
        with meter.time("core.pkc", pool) as t, pool.phase("core-decomposition"):
            coreness = pkc_core_decomposition(graph, pool)
        timings.append(t)
        with pool.phase("hcd"):
            with meter.time("core.rank", pool) as t:
                rank = compute_vertex_rank(graph, coreness, pool)
            timings.append(t)
            with meter.time("core.phcd", pool) as t:
                hcd = phcd_build_hcd(graph, coreness, pool, rank_result=rank)
            timings.append(t)
        with meter.time("search.preprocess", pool) as t, pool.phase("preprocessing"):
            counts = preprocess_neighbor_counts(graph, coreness, pool)
        timings.append(t)
        with meter.time("search.pbks", pool) as t, pool.phase("search"):
            result = pbks_search(
                graph, coreness, hcd, self.metric, pool,
                counts=counts, rank_result=rank,
            )
        timings.append(t)
        return (coreness, hcd, result), timings

    def iterate(self, index: int, meter: Meter) -> Iteration:
        pool = SimulatedPool(THREADS)
        meter.watch("construct", pool)
        self.outputs, timings = self.pipeline(self.graph, pool, meter)
        coreness, hcd, result = self.outputs
        it = Iteration(sim=pool.clock)
        for timing in timings:
            it.add(timing)
        it.calls.append(it.wall)
        it.digest = digest(coreness, *hcd.to_arrays().values(), search_summary(result))
        return it

    def verify(self, iterations, meter):
        coreness, hcd, result = self.outputs
        reference = core_decomposition(self.graph)
        check(np.array_equal(coreness, reference), "PKC coreness differs from BZ")
        canonical = hcd.canonical_form()
        check(
            canonical == lcps_build_hcd(self.graph, reference).canonical_form(),
            "PHCD hierarchy differs from LCPS",
        )
        serial = bks_search(self.graph, reference, hcd, self.metric)
        check(same_search(result, serial), "PBKS best core differs from BKS")
        return {
            "coreness": digest(coreness),
            "hcd": digest(canonical),
            "search": digest(search_summary(result)),
        }


class Search(Workload):
    name = "search"
    why = "rmat(11,8): type-B PBKS is essentially all of the wall time, the mirror image of construct"
    scales = (11, 8)
    metric = "clustering_coefficient"

    def setup(self, meter: Meter) -> None:
        self.graph = graph = self.generate(meter)
        pool = SimulatedPool(THREADS)
        with meter.time("core.pkc", pool):
            self.coreness = pkc_core_decomposition(graph, pool)
        with meter.time("core.rank", pool):
            self.rank = compute_vertex_rank(graph, self.coreness, pool)
        with meter.time("core.phcd", pool):
            self.hcd = phcd_build_hcd(graph, self.coreness, pool, rank_result=self.rank)
        with meter.time("search.preprocess", pool):
            self.counts = preprocess_neighbor_counts(graph, self.coreness, pool)

    def iterate(self, index: int, meter: Meter) -> Iteration:
        pool = SimulatedPool(THREADS)
        meter.watch("search", pool)
        with meter.time("search.pbks", pool) as t:
            self.result = pbks_search(
                self.graph, self.coreness, self.hcd, self.metric, pool,
                counts=self.counts, rank_result=self.rank,
            )
        it = Iteration(sim=pool.clock)
        it.calls.append(it.add(t))
        it.digest = digest(search_summary(self.result), self.result.scores)
        return it

    def verify(self, iterations, meter):
        reference = core_decomposition(self.graph)
        check(np.array_equal(self.coreness, reference), "PKC coreness differs from BZ")
        serial = bks_search(self.graph, reference, self.hcd, self.metric)
        check(same_search(self.result, serial), "type-B PBKS best core differs from BKS")
        return {"coreness": digest(reference), "search": digest(search_summary(self.result))}


class Serve(Workload):
    name = "serve"
    why = (
        "rmat(15,8) warm snapshot, closed-loop bursts: admit/plan/cache dominate hits, "
        "executor folds misses; no construction"
    )
    scales = (15, 10)
    requests = (8192, 1024)

    def setup(self, meter: Meter) -> None:
        self.graph = self.generate(meter)
        catalog = self.fresh_catalog()
        pool = SimulatedPool(THREADS)
        with meter.time("serve.build", pool):
            snapshot = build_snapshot(self.graph, pool=pool, name=self.name)
        with meter.time("serve.publish"):
            catalog.publish(snapshot)
        with meter.time("serve.open"):
            self.service = HCDService(catalog, self.name, threads=THREADS)
        with meter.time("serve.warm", self.service.pool):
            self.service.serve(WARM_TRACE)
        total = self.requests[1] if self.quick else self.requests[0]
        self.bursts = request_bursts(self.rng(1), total)

    def params(self) -> dict:
        return dict(super().params(), requests=sum(map(len, self.bursts)), calls=len(self.bursts))

    def iterate(self, index: int, meter: Meter) -> Iteration:
        service = self.service
        service.pool.reset()
        service.cache = ResultCache(service.config.cache_capacity)
        meter.watch("serve", service.pool)
        it = Iteration()
        answers: list = []
        hits = computed = coalesced = batches = 0
        for burst in self.bursts:
            with meter.time("serve.call", service.pool) as t:
                report = service.serve(burst)
            it.calls.append(it.add(t))
            (it.miss_calls if report.computed else it.hit_calls).append(t.seconds)
            it.failed += report.shed + report.invalid
            hits += report.hits
            computed += report.computed
            coalesced += report.coalesced
            batches += report.batches
            answers.extend(answers_of(report, len(burst)))
        it.sim = service.pool.clock
        it.requests = len(answers)
        it.digest = digest(answers)
        self.answers = answers
        meter.count("serve.hit_rate", hits / max(hits + computed, 1))
        meter.count("serve.computed", computed)
        meter.count("serve.coalesced", coalesced)
        meter.count("serve.batches", batches)
        if meter.trace:
            stages = {"serve:admit": "serve.admit_sim", "serve:plan": "serve.plan_sim",
                      "serve:cache": "serve.cache_sim"}
            for region in service.pool.regions:
                meter.count(stages.get(region.label, "serve.execute_sim"), region.elapsed)
        return it

    def verify(self, iterations, meter):
        snapshot = self.service.snapshot
        check(
            np.array_equal(snapshot.coreness, core_decomposition(self.graph)),
            "snapshot coreness differs from BZ",
        )
        check_answers(snapshot, self.bursts, self.answers)
        return {"answers": iterations[0].digest}


class Dynamic(Workload):
    name = "dynamic"
    why = (
        "rmat(12,8), batches of 4+4 mutations beside reads: repair, delta publish "
        "and the per-version shared-pass rebuild dominate"
    )
    scales = (12, 8)
    batch = (4, 2)
    reads = (256, 16)
    min_iters = 6
    repeatable = False
    #: coreness after round ``min_iters``, the state ``expected.json`` pins
    coreness_digest = ""

    def setup(self, meter: Meter) -> None:
        self.graph = self.generate(meter)
        self.catalog = self.fresh_catalog()
        self.dyn = DynamicGraph(self.graph)
        self.pool = SimulatedPool(THREADS)
        self.feed = DynamicServingFeed(self.dyn, self.catalog, self.name, pool=self.pool)
        with meter.time("serve.publish", self.pool):
            self.feed.publish()
        with meter.time("serve.open"):
            self.reader = HCDService(self.catalog, self.name, threads=THREADS)
        with meter.time("serve.warm", self.reader.pool):
            self.reader.serve(WARM_TRACE)
        self.mutation_rng = self.rng(2)
        self.read_rng = self.rng(3)

    def mutations(self) -> tuple[list, list]:
        """A batch of absent edges to insert and present edges to delete.

        Both are stratified over the coreness order: mutation ``j`` of a
        batch falls in the ``j``-th equal slice of the vertices (edges)
        sorted by coreness (smaller endpoint coreness).  A repair sweeps
        whole levels, so uniform draws make one batch's cost swing by
        ~17% with the levels it happens to hit; stratified batches hit
        the same spread of levels every round (~5%).
        """
        size = self.batch[1] if self.quick else self.batch[0]
        rng = self.mutation_rng
        dyn = self.dyn
        coreness = np.asarray(dyn.coreness)
        graph = dyn.to_graph()
        src = np.repeat(np.arange(dyn.num_vertices), np.diff(graph.indptr))
        upper = src < graph.indices
        edges = np.column_stack([src[upper], graph.indices[upper]])
        by_level = np.argsort(np.minimum(coreness[edges[:, 0]], coreness[edges[:, 1]]), kind="stable")
        deletions = sorted(
            tuple(int(x) for x in edges[band[rng.integers(0, len(band))]])
            for band in np.array_split(by_level, size)
        )
        vertices = np.argsort(coreness, kind="stable")
        vertices = vertices[coreness[vertices] > 0]
        insertions: set[tuple[int, int]] = set()
        for band in np.array_split(vertices, size):
            while True:
                u = int(band[rng.integers(0, len(band))])
                # a band can be a clique: then pair with any vertex
                v = int(band[rng.integers(0, len(band))]) if rng.random() < 0.9 else int(rng.choice(vertices))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in insertions and not dyn.has_edge(u, v):
                    insertions.add(edge)
                    break
        return sorted(insertions), deletions

    def iterate(self, index: int, meter: Meter) -> Iteration:
        insertions, deletions = self.mutations()
        reads = self.reads[1] if self.quick else self.reads[0]
        bursts = request_bursts(self.read_rng, reads * MAX_BURST, calls=reads)
        self.pool.reset()
        self.reader.pool.reset()
        meter.watch("dynamic writer", self.pool)
        meter.watch("dynamic reader", self.reader.pool)
        it = Iteration()
        with meter.time("dynamic.apply", self.pool) as t:
            report = self.dyn.apply_batch(insertions, deletions, pool=self.pool)
        it.mutate_s += it.add(t)
        with meter.time("serve.publish", self.pool) as t:
            version = self.feed.publish()
        it.mutate_s += it.add(t)
        reports = []
        for i, burst in enumerate(bursts):
            with meter.time("serve.refresh" if i == 0 else "serve.call", self.reader.pool) as t:
                reply = self.reader.serve(burst)
            it.calls.append(it.add(t))
            if i == 0:
                it.visible_s = it.mutate_s + t.seconds
                check(reply.snapshot[1] == version, "first read after publish missed the new version")
            it.failed += reply.shed + reply.invalid
            it.requests += len(burst)
            reports.append(reply)
        it.sim = self.pool.clock + self.reader.pool.clock
        it.mutations = report.applied
        check(report.applied == len(insertions) + len(deletions), "a generated mutation was skipped")
        self.last_reads = (bursts, reports)
        if index == self.min_iters - 1:
            self.coreness_digest = digest(np.asarray(self.dyn.coreness))
        meter.count("dynamic.changed", report.changed)
        meter.count("dynamic.rounds", report.rounds)
        return it

    def verify(self, iterations, meter):
        graph = self.dyn.to_graph()
        reference = core_decomposition(graph)
        check(np.array_equal(self.dyn.coreness, reference), "maintained coreness differs from BZ")
        self.catalog.publish(build_snapshot(graph, name="fresh"))
        fresh = HCDService(self.catalog, "fresh", threads=THREADS)
        bursts, reports = self.last_reads
        for burst, report in zip(bursts, reports):
            check(
                answers_of(fresh.serve(burst), len(burst)) == answers_of(report, len(burst)),
                "final-version answers differ from a fresh build_snapshot of the same graph",
            )
        if meter.trace:
            with meter.time("dynamic.recompute"):
                decompose(graph, threads=THREADS)
        return {"coreness": self.coreness_digest}


class Cluster(Workload):
    name = "cluster"
    why = (
        "rmat(14,8) on 8 shards, then 2x2 sharded serving with a crash: the only "
        "workload with network traffic and failover"
    )
    scales = (14, 9)
    shards = 8
    node_threads = 2
    requests = (8192, 512)

    def setup(self, meter: Meter) -> None:
        self.graph = self.generate(meter)
        with meter.time("cluster.shard"):
            self.sharded = shard_graph(self.graph, self.shards, strategy="lp")
        self.catalog = self.fresh_catalog()
        pool = SimulatedPool(THREADS)
        with meter.time("serve.build", pool):
            snapshot = build_snapshot(self.graph, pool=pool, name=self.name)
        with meter.time("serve.publish"):
            self.catalog.publish(snapshot)
        total = self.requests[1] if self.quick else self.requests[0]
        self.bursts = request_bursts(self.rng(4), total)
        meter.count("cluster.edge_cut", self.sharded.edge_cut)

    def params(self) -> dict:
        return dict(
            super().params(),
            shards=self.shards,
            node_threads=self.node_threads,
            requests=sum(map(len, self.bursts)),
            calls=len(self.bursts),
            serving="2 shards x 2 replicas, replica 0 crashed at call 1/3, recovered at 2/3",
        )

    def iterate(self, index: int, meter: Meter) -> Iteration:
        it = Iteration()
        cluster = SimCluster(self.shards, threads=self.node_threads)
        for pool in cluster.pools():
            meter.watch("decompose", pool)
        with meter.time("cluster.decompose", *cluster.pools()) as t:
            report = distributed_core_decomposition(self.graph, cluster, self.sharded)
        it.add(t)
        with meter.time("cluster.serve") as t:
            service = ClusterService(
                self.catalog, self.name,
                config=ClusterServiceConfig(num_shards=2, replicas=2),
                threads=self.node_threads,
            )
        it.add(t)
        for pool in service.cluster.pools():
            meter.watch("serve", pool)
        crash, recover = len(self.bursts) // 3, 2 * len(self.bursts) // 3
        answers: list = []
        for i, burst in enumerate(self.bursts):
            if i == crash:
                service.crash(0, at=0.0)
            elif i == recover:
                with meter.time("cluster.serve") as t:
                    service.recover(0)
                it.add(t)
            with meter.time("cluster.serve") as t:
                reply = service.serve(burst)
            it.calls.append(it.add(t))
            it.failed += reply.failed + reply.shed + reply.invalid
            answers.extend(answers_of(reply, len(burst)))
        it.sim = report.cluster_clock + service.cluster.clock
        it.requests = len(answers)
        it.digest = digest(answers)
        check(
            service.failovers >= 1 and service.recoveries >= 1,
            "the scripted crash and recovery did not happen",
        )
        self.coreness, self.answers = report.coreness, answers
        for key, value in (
            ("cluster.supersteps", report.supersteps),
            ("cluster.local_rounds", report.local_rounds),
            ("cluster.messages", report.messages),
            ("cluster.bytes", report.bytes_sent),
            ("cluster.compute_clock", report.compute_clock),
            ("cluster.comms_clock", report.comms_clock),
            ("cluster.failovers", service.failovers),
            ("cluster.network_cost", service.cluster.network.total_cost),
        ):
            meter.count(key, value)
        return it

    def verify(self, iterations, meter):
        check(
            np.array_equal(self.coreness, core_decomposition(self.graph)),
            "distributed coreness differs from BZ",
        )
        check(all(it.failed == 0 for it in iterations), "requests failed under the crash")
        single = HCDService(self.catalog, self.name, threads=self.node_threads)
        answers = []
        for burst in self.bursts:
            answers.extend(answers_of(single.serve(burst), len(burst)))
        check(answers == self.answers, "sharded answers differ from single-node HCDService")
        return {"coreness": digest(self.coreness), "answers": iterations[0].digest}


WORKLOADS = {w.name: w for w in (Construct, Search, Serve, Dynamic, Cluster)}
