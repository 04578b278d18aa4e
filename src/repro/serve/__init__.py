"""HCDServe: a build-once, query-many serving layer over the HCD.

The paper's index is built once and queried many times; this package
is the "many times" half.  A :class:`~repro.serve.snapshot.Snapshot`
is one immutable, checksummed build of the index (graph CSR, coreness,
HCD forest, PBKS preprocessing); a
:class:`~repro.serve.catalog.SnapshotCatalog` versions and atomically
publishes snapshots; an :class:`~repro.serve.service.HCDService`
replays request traces through admission control, query planning with
in-flight dedup, an LRU result cache, and batched execution that
shares one hierarchy traversal across many queries.  See DESIGN.md
section 10.
"""

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.catalog import SnapshotCatalog
from repro.serve.executor import QueryResult, SnapshotExecutor
from repro.serve.planner import BatchPlan, Query, normalize_request, plan_batch
from repro.serve.service import (
    DynamicServingFeed,
    HCDService,
    RequestRecord,
    ServiceConfig,
    ServiceReport,
    load_trace,
    save_trace,
    synthetic_trace,
)
from repro.serve.snapshot import (
    FORMAT_VERSION,
    Snapshot,
    build_snapshot,
    snapshot_from_dynamic,
)

__all__ = [
    "BatchPlan",
    "CacheStats",
    "DynamicServingFeed",
    "FORMAT_VERSION",
    "HCDService",
    "Query",
    "QueryResult",
    "RequestRecord",
    "ResultCache",
    "ServiceConfig",
    "ServiceReport",
    "Snapshot",
    "SnapshotCatalog",
    "SnapshotExecutor",
    "build_snapshot",
    "load_trace",
    "normalize_request",
    "plan_batch",
    "save_trace",
    "snapshot_from_dynamic",
    "synthetic_trace",
]
