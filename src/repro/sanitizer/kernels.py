"""Named kernel workloads for ``repro sanitize``.

Each kernel builds a small deterministic input graph, runs one of the
repo's parallel algorithms on a fresh
:class:`~repro.parallel.scheduler.SimulatedPool` watched by a
:class:`~repro.sanitizer.detector.RaceDetector`, and reports what the
detector saw.  ``repro sanitize`` runs every entry; the pytest
``--sanitize`` mode achieves the same coverage through the
ordinary test suite instead.

The graphs are intentionally small (hundreds of vertices): the
detector's verdict depends on *which* location keys overlap across
virtual threads, not on scale, and small inputs keep the gate fast
enough for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.parallel.scheduler import SimulatedPool
from repro.parallel.observers import ObserverFanout
from repro.sanitizer.detector import RaceDetector, RaceReport
from repro.sanitizer.memcheck import MemChecker, san_empty

__all__ = [
    "KernelReport",
    "KERNELS",
    "KERNEL_EXTENTS",
    "run_kernel",
    "run_all_kernels",
]


@dataclass
class KernelReport:
    """Outcome of one kernel run under the detector (and memcheck)."""

    name: str
    threads: int
    races: list[RaceReport] = field(default_factory=list)
    regions: int = 0
    events: int = 0
    clock: float = 0.0
    #: SimCheck findings (uninit/OOB/overflow) when run with memcheck
    memcheck_findings: list = field(default_factory=list)
    #: NaN origins tracked by memcheck (informational, never failing)
    nan_origins: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.races and not self.memcheck_findings


def _coreness(graph, pool: SimulatedPool) -> np.ndarray:
    from repro.core.pkc import pkc_core_decomposition

    return pkc_core_decomposition(graph, pool)


# ----------------------------------------------------------------------
# kernel bodies: fn(pool) -> None
# ----------------------------------------------------------------------


def _kernel_pkc(pool: SimulatedPool) -> None:
    graph = powerlaw_cluster(240, 3, 0.3, seed=11)
    _coreness(graph, pool)


def _kernel_phcd(pool: SimulatedPool) -> None:
    from repro.core.phcd import phcd_build_hcd

    graph = powerlaw_cluster(200, 3, 0.3, seed=7)
    coreness = _coreness(graph, pool)
    phcd_build_hcd(graph, coreness, pool, use_waitfree=True)


def _kernel_phcd_pivot(pool: SimulatedPool) -> None:
    from repro.core.phcd import phcd_build_hcd

    graph = erdos_renyi(180, 0.04, seed=3)
    coreness = _coreness(graph, pool)
    phcd_build_hcd(graph, coreness, pool, use_waitfree=False)


def _kernel_pbks(pool: SimulatedPool) -> None:
    from repro.core.phcd import phcd_build_hcd
    from repro.search.pbks import pbks_search

    graph = powerlaw_cluster(160, 3, 0.3, seed=5)
    coreness = _coreness(graph, pool)
    hcd = phcd_build_hcd(graph, coreness, pool)
    # internal_density exercises type-A contributions, clustering the
    # triangle-counting type-B path (Algorithm 5's two motif families)
    pbks_search(graph, coreness, hcd, "internal_density", pool)
    pbks_search(graph, coreness, hcd, "clustering_coefficient", pool)


def _uf_workload(pool: SimulatedPool, uf) -> None:
    graph = erdos_renyi(160, 0.05, seed=13)
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    pool.parallel_for(
        edges,
        lambda e, ctx: uf.union(e[0], e[1], ctx),
        label="sanitize_uf_union",
    )
    pool.parallel_for(
        list(range(graph.num_vertices)),
        lambda v, ctx: uf.get_pivot(v, ctx),
        label="sanitize_uf_pivot",
    )


def _kernel_unionfind_pivot(pool: SimulatedPool) -> None:
    from repro.unionfind.pivot import PivotUnionFind

    _uf_workload(pool, PivotUnionFind(np.arange(160)))


def _kernel_unionfind_waitfree(pool: SimulatedPool) -> None:
    from repro.unionfind.waitfree import SimulatedWaitFreeUnionFind

    _uf_workload(
        pool, SimulatedWaitFreeUnionFind(np.arange(160), failure_rate=0.2, seed=5)
    )


def _accumulate_forest(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parents = san_empty(n, np.int64, name="forest_parents")
    parents[0] = -1
    for i in range(1, n):
        parents[i] = int(rng.integers(0, i))
    return parents


def _kernel_accumulate(pool: SimulatedPool) -> None:
    from repro.parallel.accumulate import tree_accumulate

    parents = _accumulate_forest(300, seed=2)
    values = np.arange(300 * 3, dtype=np.float64).reshape(300, 3) * 0.5
    tree_accumulate(pool, parents, values)


def _kernel_accumulate_euler(pool: SimulatedPool) -> None:
    from repro.parallel.accumulate import tree_accumulate_euler

    parents = _accumulate_forest(300, seed=4)
    values = np.arange(300, dtype=np.float64) * 0.5
    tree_accumulate_euler(pool, parents, values)


def _kernel_vertex_rank(pool: SimulatedPool) -> None:
    from repro.core.vertex_rank import compute_vertex_rank

    graph = powerlaw_cluster(220, 3, 0.3, seed=9)
    coreness = _coreness(graph, pool)
    compute_vertex_rank(graph, coreness, pool)


def _kernel_serve_batch(pool: SimulatedPool) -> None:
    from repro.serve.executor import SnapshotExecutor
    from repro.serve.planner import normalize_request, plan_batch
    from repro.serve.snapshot import build_snapshot

    # the full serving execute path: snapshot build (decomposition +
    # preprocessing), batched shared passes (type A + B), per-metric
    # score folds, and the influential-index fold — all in memory
    graph = powerlaw_cluster(150, 3, 0.3, seed=21)
    snapshot = build_snapshot(graph, pool=pool, name="sanitize")
    requests = [
        {"kind": "pbks", "metric": "internal_density"},
        {"kind": "pbks", "metric": "clustering_coefficient"},
        {"kind": "densest"},
        {"kind": "best_k", "metric": "average_degree"},
        {"kind": "influential", "k": 2, "r": 2, "weights": "degree"},
    ]
    plan = plan_batch(
        [(rid, normalize_request(req)) for rid, req in enumerate(requests)]
    )
    SnapshotExecutor(snapshot, pool).execute(plan.queries)


def _dynamic_workload(seed: int):
    """A mutated DynamicCSR + pre-batch coreness + applied edge lists."""
    from repro.core.decomposition import core_decomposition
    from repro.dynamic.dyncsr import DynamicCSR

    graph = powerlaw_cluster(180, 3, 0.3, seed=seed)
    coreness = core_decomposition(graph).astype(np.int64)
    acsr = DynamicCSR.from_graph(graph)
    rng = np.random.default_rng(seed)
    present = {tuple(e) for e in graph.edge_array().tolist()}
    deleted = sorted(present)[:: max(1, len(present) // 8)][:12]
    inserted = []
    while len(inserted) < 12:
        u, v = sorted(rng.integers(0, 180, 2).tolist())
        if u != v and (u, v) not in present:
            present.add((u, v))
            inserted.append((u, v))
    for u, v in inserted:
        acsr.insert(u, v)
    for u, v in deleted:
        acsr.remove(u, v)
    return acsr, coreness, inserted, deleted


def _kernel_dynamic_batch(pool: SimulatedPool) -> None:
    from repro.dynamic.batch import batch_repair

    # batched parallel coreness maintenance: pruned subcore collection
    # and two-phase frontier peels, for a mixed insertion/deletion batch
    acsr, coreness, inserted, deleted = _dynamic_workload(seed=19)
    batch_repair(acsr, coreness, inserted=inserted, deleted=deleted, pool=pool)


def _kernel_dynamic_publish(pool: SimulatedPool) -> None:
    from repro.dynamic.maintenance import DynamicGraph
    from repro.serve.snapshot import snapshot_from_dynamic

    # the delta-publish path: batched repair through DynamicGraph, then
    # a snapshot refresh that reuses clean rows from the previous
    # version (dirty-row recount kernel included)
    graph = powerlaw_cluster(140, 3, 0.3, seed=27)
    dyn = DynamicGraph(graph)
    base = snapshot_from_dynamic(dyn, pool=pool, name="sanitize-dyn")
    edges = graph.edge_array()
    deletions = [tuple(e) for e in edges[:: max(1, len(edges) // 6)][:8].tolist()]
    insertions = [(0, 130), (1, 131), (2, 132), (3, 133)]
    dyn.apply_batch(insertions=insertions, deletions=deletions, pool=pool)
    snapshot_from_dynamic(dyn, pool=pool, name="sanitize-dyn", previous=base)


def _kernel_cluster_decompose(pool: SimulatedPool) -> None:
    from repro.cluster.cluster import SimCluster
    from repro.cluster.decomposition import distributed_core_decomposition
    from repro.cluster.shard import shard_graph

    # shared-pool mode: every SimNode aliases the sanitized pool, so
    # the detector watches each shard's local rounds of every superstep
    graph = powerlaw_cluster(200, 3, 0.3, seed=15)
    cluster = SimCluster(2, pool=pool)
    sharded = shard_graph(graph, 2, strategy="range", pool=pool)
    distributed_core_decomposition(graph, cluster, sharded)


def _kernel_cluster_serve(pool: SimulatedPool) -> None:
    import tempfile

    from repro.cluster.service import ClusterService, ClusterServiceConfig
    from repro.serve.catalog import SnapshotCatalog
    from repro.serve.service import synthetic_trace
    from repro.serve.snapshot import build_snapshot

    # the sharded serving path under a deterministic mid-run crash:
    # snapshot build, routed sub-batches on replica services, failover
    graph = powerlaw_cluster(150, 3, 0.3, seed=23)
    with tempfile.TemporaryDirectory() as root:
        catalog = SnapshotCatalog(root)
        catalog.publish(build_snapshot(graph, pool=pool, name="sanitize-cluster"))
        service = ClusterService(
            catalog,
            "sanitize-cluster",
            config=ClusterServiceConfig(num_shards=2, replicas=2),
            pool=pool,
        )
        service.crash(0, at=200.0)
        service.serve(synthetic_trace(12, seed=3))


#: Registry of named kernels; order is the ``repro sanitize`` run order.
KERNELS: dict[str, object] = {
    "pkc": _kernel_pkc,
    "phcd": _kernel_phcd,
    "phcd_pivot": _kernel_phcd_pivot,
    "pbks": _kernel_pbks,
    "accumulate": _kernel_accumulate,
    "accumulate_euler": _kernel_accumulate_euler,
    "unionfind_pivot": _kernel_unionfind_pivot,
    "unionfind_waitfree": _kernel_unionfind_waitfree,
    "vertex_rank": _kernel_vertex_rank,
    "serve_batch": _kernel_serve_batch,
    "dynamic_batch": _kernel_dynamic_batch,
    "dynamic_publish": _kernel_dynamic_publish,
    "cluster_decompose": _kernel_cluster_decompose,
    "cluster_serve": _kernel_cluster_serve,
}


#: Declared array extents for SimProve (SAN5xx) bounds proofs: kernel
#: name -> {array or recorded-location name -> extent expression over
#: size symbols}.  Expressions must stay affine (``"n"``, ``"n + 1"``,
#: ``"2 * m"``); anything the prover cannot parse makes every access
#: to that array fail closed to SAN502 unproven.  ``n`` is the vertex
#: count and ``m`` the (undirected) edge count, so a CSR graph has
#: ``indptr`` of extent ``n + 1`` and ``indices`` of extent ``2 * m``
#: — declaring both unlocks the CSR value facts (elements of
#: ``indices`` are vertex ids, elements of ``indptr`` are offsets
#: into ``indices``), which is what proves the paper's nested
#: ``indices[indptr[v]:indptr[v + 1]]`` traversals.  Arrays left
#: undeclared generate no obligations and no claims; AtomicArray
#: receivers need no entry (their constructors self-declare).  The
#: dynamic kernels deliberately omit the CSR pair: ``DynamicCSR``
#: rows carry slack capacity, so the static CSR facts do not hold.
_CSR_EXTENTS: dict[str, str] = {
    "indptr": "n + 1",
    "indices": "2 * m",
    "coreness": "n",
    "settled": "n",
    "peel_core": "n",
}

KERNEL_EXTENTS: dict[str, dict[str, str]] = {
    "pkc": dict(_CSR_EXTENTS),
    "phcd": dict(_CSR_EXTENTS),
    "phcd_pivot": dict(_CSR_EXTENTS),
    "pbks": dict(_CSR_EXTENTS),
    "accumulate": {"parents": "t", "vals": "t"},
    "accumulate_euler": {
        "out": "n",
        "prefix": "n",
        "start": "n",
        "end": "n",
        "source": "n",
    },
    "unionfind_pivot": {},
    "unionfind_waitfree": {},
    "vertex_rank": dict(_CSR_EXTENTS),
    "serve_batch": dict(_CSR_EXTENTS),
    "dynamic_batch": {"coreness": "n", "core": "n"},
    "dynamic_publish": dict(_CSR_EXTENTS),
    "cluster_decompose": {
        "indptr": "n + 1",
        "indices": "2 * m",
        "cl_new": "n",
        "local": "n",
        "new_vals": "n",
    },
    "cluster_serve": dict(_CSR_EXTENTS),
}

def run_kernel(
    name: str,
    threads: int = 4,
    memcheck: bool = False,
) -> KernelReport:
    """Run one named kernel under a fresh detector; returns its report.

    With ``memcheck=True`` a :class:`~repro.sanitizer.memcheck.MemChecker`
    rides along on the same pool (composed with the detector via
    :class:`~repro.parallel.observers.ObserverFanout`), so the report
    also carries memory/numeric findings and NaN origins.
    """
    try:
        body = KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNELS)}"
        ) from None
    pool = SimulatedPool(threads=threads)
    detector = RaceDetector()
    checker = MemChecker() if memcheck else None
    if checker is None:
        with detector.watch(pool):
            body(pool)
    else:
        pool.set_observer(ObserverFanout([detector, checker]))
        checker.activate()
        try:
            body(pool)
        finally:
            checker.deactivate()
            pool.set_observer(None)
    return KernelReport(
        name=name,
        threads=threads,
        races=list(detector.races),
        regions=detector.regions_checked,
        events=detector.events_seen,
        clock=pool.clock,
        memcheck_findings=list(checker.findings) if checker else [],
        nan_origins=list(checker.nan_origins) if checker else [],
    )


def run_all_kernels(
    threads: int = 4, memcheck: bool = False
) -> list[KernelReport]:
    """Run every registered kernel; returns reports in registry order."""
    return [
        run_kernel(name, threads=threads, memcheck=memcheck)
        for name in KERNELS
    ]
