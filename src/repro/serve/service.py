"""The HCDServe service loop: trace in, latency report out.

The service replays a *request trace* — a list of query requests with
simulated arrival times — through the full serving path::

    admit (bounded queue, load shedding)
      -> plan (normalize, dedup, batch)
        -> cache probe (LRU, keyed on snapshot version + fingerprint)
          -> execute (batched shared passes on the snapshot)

and reports per-request latency percentiles, a latency histogram,
throughput, and cache statistics.

Two clocks
----------
The pool's simulated clock (``pool.clock``) includes spawn, barrier,
and contention costs and therefore **depends on the thread count** —
it is the right clock for speedup questions (batched vs per-query,
1 vs 8 threads) and is reported as ``sim_clock``.  Request latencies,
however, must make the replay *reproducible across thread counts*
(the determinism acceptance bar), so the service timeline advances in
**work units**: the sum of per-item charges plus atomic operations of
every region executed on the service's behalf.  Work units are
partition-independent — every item runs exactly once with identical
charges no matter how the pool slices it — so the latency histogram
and cache stats are bit-identical at ``-p 1/2/4/8``.

All four stages run under SimProf-visible phases ``serve.admit``,
``serve.plan``, ``serve.cache``, ``serve.execute``.  Admit and plan
belong to :func:`replay_trace`, the one replay loop; the cache probe
and execute stages are this service's dispatch step.  The cluster
router runs the same loop with its own dispatch step.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import WorkloadError
from repro.parallel.scheduler import SimulatedPool
from repro.serve.cache import ResultCache
from repro.serve.catalog import SnapshotCatalog
from repro.serve.executor import QueryResult, SnapshotExecutor
from repro.serve.planner import Query, normalize_request, plan_batch
from repro.serve.snapshot import Snapshot, snapshot_from_dynamic

__all__ = [
    "ServiceConfig",
    "RequestRecord",
    "ServiceReport",
    "HCDService",
    "DynamicServingFeed",
    "replay_trace",
    "synthetic_trace",
    "load_trace",
    "save_trace",
]


# ----------------------------------------------------------------------
# configuration and records
# ----------------------------------------------------------------------


#: per-item work-unit charges of the bookkeeping stages (per arrival,
#: per batched request, per distinct query probed), so admission
#: control, planning and cache probes show up in latencies (and in
#: SimProf) instead of being free
ADMIT_COST = 1
PLAN_COST = 2
PROBE_COST = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of the serving loop."""

    queue_capacity: int = 64
    max_batch: int = 16
    cache_capacity: int = 256
    share_passes: bool = True

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")


class RequestRecord(NamedTuple):
    """Outcome of one trace request."""

    rid: int
    fingerprint: str   # "" for shed/invalid requests
    status: str        # "ok" | "hit" | "shared" | "shed" | "invalid" | "failed"
    arrival: float     # work-unit timestamp from the trace
    latency: float     # completion - arrival, in work units (0 if unanswered)
    batch: int         # batch index that answered it (-1 if never batched)

    def as_dict(self) -> dict:
        return self._asdict()


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of ascending ``ordered`` (deterministic,
    no interpolation)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _histogram(latencies: list[float]) -> dict[str, int]:
    """Power-of-two latency histogram, bucket label -> count."""
    buckets: dict[str, int] = {}
    for latency in latencies:
        if latency <= 1.0:
            label = "<=1"
        else:
            label = f"<=2^{int(math.ceil(math.log2(latency)))}"
        buckets[label] = buckets.get(label, 0) + 1

    def order(item: tuple[str, int]) -> int:
        return 0 if item[0] == "<=1" else int(item[0][4:])

    return dict(sorted(buckets.items(), key=order))


@dataclass
class ServiceReport:
    """Everything one trace replay produced."""

    snapshot: tuple[str, int]
    threads: int
    records: list[RequestRecord] = field(default_factory=list)
    admitted: int = 0
    shed: int = 0
    invalid: int = 0
    failed: int = 0            # dispatch had no answer (cluster only)
    hits: int = 0
    computed: int = 0
    shared: int = 0
    coalesced: int = 0
    batches: int = 0
    work_units: float = 0.0    # thread-count-independent service clock
    sim_clock: float = 0.0     # pool clock consumed (p-dependent)
    cache: dict = field(default_factory=dict)
    #: rid -> the answer it received (answered requests only)
    results: dict[int, QueryResult] = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        """Latencies of every answered request, in trace order."""
        return [
            r.latency
            for r in self.records
            if r.status in ("ok", "hit", "shared")
        ]

    @property
    def p50(self) -> float:
        return _percentile(sorted(self.latencies), 50)

    @property
    def p95(self) -> float:
        return _percentile(sorted(self.latencies), 95)

    @property
    def p99(self) -> float:
        return _percentile(sorted(self.latencies), 99)

    @property
    def throughput(self) -> float:
        """Answered requests per 1000 simulated work units."""
        if self.work_units <= 0:
            return 0.0
        return 1000.0 * (self.admitted - self.invalid) / self.work_units

    def histogram(self) -> dict[str, int]:
        return _histogram(self.latencies)

    def answers(self) -> dict[int, dict]:
        """Per-request answer payloads, keyed on rid (JSON-ready)."""
        return {
            rid: result.as_dict()
            for rid, result in sorted(self.results.items())
        }

    def answers_digest(self) -> str:
        """SHA-256 over the canonical answer payloads.

        This is the byte-identity signature the cluster router is held
        to: a sharded, replicated, fault-injected replay must produce
        exactly this digest.
        """
        payload = json.dumps(
            {str(rid): answer for rid, answer in self.answers().items()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def as_dict(self) -> dict:
        """JSON-ready summary (the deterministic replay signature)."""
        ordered = sorted(self.latencies)
        return {
            "snapshot": {"name": self.snapshot[0], "version": self.snapshot[1]},
            "threads": self.threads,
            "requests": len(self.records),
            "admitted": self.admitted,
            "shed": self.shed,
            "invalid": self.invalid,
            "hits": self.hits,
            "computed": self.computed,
            "shared": self.shared,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "latency": {
                "p50": _percentile(ordered, 50),
                "p95": _percentile(ordered, 95),
                "p99": _percentile(ordered, 99),
                "histogram": _histogram(ordered),
            },
            "throughput": self.throughput,
            "work_units": self.work_units,
            "sim_clock": self.sim_clock,
            "cache": dict(self.cache),
            "answers_digest": self.answers_digest(),
        }


# ----------------------------------------------------------------------
# the replay loop
# ----------------------------------------------------------------------


def replay_trace(
    trace: list[dict],
    report: ServiceReport,
    pool: SimulatedPool,
    config: ServiceConfig,
    dispatch: Callable[[dict[str, Query], float], tuple[dict, dict, float]],
    prefix: str = "serve",
) -> None:
    """Replay ``trace`` into ``report``: the one serving loop.

    Cycles admit -> plan (``{prefix}.admit``/``{prefix}.plan`` phases
    on ``pool``) -> dispatch -> complete.  ``dispatch(queries, now)``
    answers a batch's distinct queries (fingerprint -> :class:`Query`)
    starting at work-unit time ``now`` and returns ``(answers,
    statuses, completion)`` keyed on fingerprint; a fingerprint without
    an answer is recorded as ``"failed"``.  The clock advances by the
    work units of the loop's own regions
    (:meth:`~repro.parallel.scheduler.SimulatedPool.work_since`) and
    jumps to ``completion`` after a dispatch; the loop's region cursor
    skips whatever the dispatch step ran on ``pool``: that work is
    already in ``completion``, and every region is counted once.
    """
    pending: deque[tuple[int, float, dict]] = deque()
    last_arrival = float("-inf")
    for rid, entry in enumerate(trace):
        if not isinstance(entry, dict):
            raise WorkloadError(
                f"trace[{rid}]: entry must be an object, "
                f"got {type(entry).__name__}"
            )
        arrival = entry.get("arrival", 0)
        if not isinstance(arrival, (int, float)) or isinstance(arrival, bool):
            raise WorkloadError(
                f"trace[{rid}]: field 'arrival' must be a number, "
                f"got {arrival!r}"
            )
        try:
            arrival = float(arrival)
        except OverflowError:  # an int beyond the float range
            arrival = math.inf
        if not math.isfinite(arrival):
            # json reads NaN and Infinity: a NaN arrival is never <=
            # the clock, so admission would never take it
            raise WorkloadError(
                f"trace[{rid}]: field 'arrival' must be finite, got {arrival!r}"
            )
        if arrival < last_arrival:
            raise WorkloadError(
                f"trace[{rid}]: field 'arrival' decreased "
                f"({arrival} after {last_arrival})"
            )
        last_arrival = arrival
        pending.append((rid, arrival, entry))

    # every rid gets exactly one record: shed, invalid or completed
    records: list = [None] * len(trace)
    queue: deque[tuple[int, float, dict]] = deque()
    clock_mark = pool.mark()
    cursor = pool.region_count
    now = 0.0

    while pending or queue:
        # ---- admit ----------------------------------------------------
        if not queue and pending and pending[0][1] > now:
            # idle service: jump to the next arrival
            now = pending[0][1]
        arrivals = []
        while pending and pending[0][1] <= now:
            arrivals.append(pending.popleft())
        if arrivals:
            with pool.phase(f"{prefix}.admit"):
                with pool.serial_region(f"{prefix}:admit") as ctx:
                    ctx.charge(ADMIT_COST * len(arrivals))
            for rid, arrival, entry in arrivals:
                if len(queue) >= config.queue_capacity:
                    report.shed += 1
                    records[rid] = RequestRecord(
                        rid, "", "shed", arrival, 0.0, -1
                    )
                else:
                    queue.append((rid, arrival, entry))
            now = pool.work_since(cursor, now)
            cursor = pool.region_count
        if not queue:
            continue

        # ---- plan -----------------------------------------------------
        batch_id = report.batches
        report.batches += 1
        taken = [queue.popleft() for _ in range(min(config.max_batch, len(queue)))]
        report.admitted += len(taken)
        normalized = []
        with pool.phase(f"{prefix}.plan"):
            with pool.serial_region(f"{prefix}:plan") as ctx:
                ctx.charge(PLAN_COST * len(taken))
        for rid, arrival, entry in taken:
            try:
                query = normalize_request(entry)
            except WorkloadError:
                report.invalid += 1
                records[rid] = RequestRecord(
                    rid, "", "invalid", arrival, 0.0, batch_id
                )
                continue
            normalized.append((rid, arrival, query))
        plan = plan_batch([(rid, q) for rid, _, q in normalized])
        report.coalesced += plan.coalesced
        now = pool.work_since(cursor, now)

        # ---- dispatch -------------------------------------------------
        answers, statuses, now = dispatch(plan.queries, now)
        cursor = pool.region_count

        # ---- complete -------------------------------------------------
        # The leader (first requester) of each fingerprint is the
        # request whose outcome reflects real work: a cache probe
        # ("hit") or an executor computation ("ok").  Coalesced
        # followers ride on the leader's result and are recorded as
        # "shared" — counting them as computed would overstate
        # executor work against BatchPlan.coalesced and the
        # ResultCache counters (hits + computed + shared reconciles
        # with both).
        leaders = {fp: rids[0] for fp, rids in plan.requesters.items()}
        for rid, arrival, query in normalized:
            fingerprint = query.fingerprint
            answered = fingerprint in answers
            if not answered:
                status = "failed"
                report.failed += 1
            elif leaders.get(fingerprint) != rid:
                status = "shared"
                report.shared += 1
            elif statuses.get(fingerprint) == "hit":
                status = "hit"
                report.hits += 1
            else:
                status = "ok"
                report.computed += 1
            if answered:
                report.results[rid] = answers[fingerprint]
            records[rid] = RequestRecord(
                rid,
                fingerprint,
                status,
                arrival,
                now - arrival if answered else 0.0,
                batch_id,
            )

    report.records = records
    report.work_units = now
    report.sim_clock = pool.elapsed_since(clock_mark)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------


class HCDService:
    """Build-once/query-many serving of one named snapshot.

    Opens the latest published version of ``name`` from the catalog,
    or serves ``snapshot``, a version of ``name`` that is already open
    (loaded snapshots are read-only, so services may share one);
    :meth:`refresh` reopens when the catalog has a newer version (the
    result cache needs no flush — its keys embed the version).
    """

    def __init__(
        self,
        catalog: SnapshotCatalog,
        name: str,
        threads: int = 4,
        config: ServiceConfig | None = None,
        pool: SimulatedPool | None = None,
        *,
        snapshot: Snapshot | None = None,
    ) -> None:
        if snapshot is None:
            snapshot = catalog.open(name)
        elif snapshot.name != name:
            raise ValueError(
                f"snapshot {snapshot.name!r} given for service of {name!r}"
            )
        self.catalog = catalog
        self.name = name
        self.config = config or ServiceConfig()
        self.pool = pool or SimulatedPool(threads=threads)
        self.cache = ResultCache(self.config.cache_capacity)
        self.snapshot = snapshot
        self.executor = SnapshotExecutor(
            self.snapshot, self.pool, share_passes=self.config.share_passes
        )

    # ------------------------------------------------------------------

    def refresh(self) -> bool:
        """Reopen the snapshot if the catalog has a newer version.

        Returns whether a newer version was loaded.  Cached results of
        the old version stay in the LRU but can never be returned —
        their keys carry the old ``(name, version)`` pair.
        """
        if not self.catalog.is_stale(self.name, self.snapshot.version):
            return False
        self.snapshot = self.catalog.open(self.name)
        self.executor = SnapshotExecutor(
            self.snapshot, self.pool, share_passes=self.config.share_passes
        )
        return True

    def _cache_key(self, fingerprint: str) -> tuple:
        return (self.snapshot.version_id, fingerprint)

    # ------------------------------------------------------------------

    def answer(
        self, queries: dict[str, Query]
    ) -> tuple[dict[str, QueryResult], dict[str, str]]:
        """Answer distinct queries: cache probe, then execute misses.

        ``queries`` maps fingerprint to :class:`Query`.  This is the
        replica-side path — the cluster router plans and routes, each
        replica answers its shard's queries through this method.
        Returns ``(results, statuses)`` keyed on fingerprint; a status
        is ``"hit"`` (result cache) or ``"ok"`` (executed).
        Answers depend only on the snapshot and the queries, never on
        batch composition, which is what makes sharded serving
        byte-identical to a single service.
        """
        pool = self.pool
        results: dict[str, QueryResult] = {}
        statuses: dict[str, str] = {}
        if not queries:
            return results, statuses
        with pool.phase("serve.cache"):
            with pool.serial_region("serve:cache") as ctx:
                ctx.charge(PROBE_COST * len(queries))
        for fingerprint in queries:
            cached = self.cache.get(self._cache_key(fingerprint))
            if cached is not None:
                results[fingerprint] = cached
                statuses[fingerprint] = "hit"
        misses = {fp: q for fp, q in queries.items() if fp not in results}
        if misses:
            with pool.phase("serve.execute"):
                computed = self.executor.execute(misses)
            for fingerprint, result in computed.items():
                self.cache.put(self._cache_key(fingerprint), result)
                results[fingerprint] = result
                statuses[fingerprint] = "ok"
        return results, statuses

    # ------------------------------------------------------------------

    def _dispatch(
        self, queries: dict[str, Query], now: float
    ) -> tuple[dict[str, QueryResult], dict[str, str], float]:
        """The single-node dispatch step: :meth:`answer`, timed in work units."""
        cursor = self.pool.region_count
        answers, statuses = self.answer(queries)
        return answers, statuses, self.pool.work_since(cursor, now)

    def serve(self, trace: list[dict]) -> ServiceReport:
        """Replay a request trace and report latencies and cache stats.

        ``trace`` entries are mappings with an ``arrival`` work-unit
        timestamp plus the query fields of
        :func:`~repro.serve.planner.normalize_request`.  Arrivals must
        be finite and non-decreasing (:class:`WorkloadError`
        otherwise).  The loop is :func:`replay_trace`; this service's
        dispatch step is :meth:`answer`.  It first moves to the
        catalog's latest version (:meth:`refresh`).
        """
        self.refresh()
        report = ServiceReport(
            snapshot=self.snapshot.version_id, threads=self.pool.threads
        )
        replay_trace(trace, report, self.pool, self.config, self._dispatch)
        report.cache = self.cache.stats().as_dict()
        return report


# ----------------------------------------------------------------------
# incremental refresh from a dynamic graph
# ----------------------------------------------------------------------


class DynamicServingFeed:
    """Bridge a maintained :class:`~repro.dynamic.DynamicGraph` into a catalog.

    Edge mutations apply the traversal-maintenance update (the coreness
    array is adjusted, never recomputed) and the refreshed state is
    published as a **new snapshot version** under the feed's name.  A
    service polling :meth:`HCDService.refresh` picks the new version up
    on its next replay; result-cache entries of the old version are
    implicitly dead because cache keys embed the version.

    Publishing is **debounced**: with ``publish_every=N`` the feed
    coalesces N mutations into one published version (mutation methods
    return the new version number, or ``None`` while buffered);
    :meth:`flush` forces out whatever is pending.  The default
    ``publish_every=1`` preserves publish-per-mutation behavior.

    Every publish after the first is a **delta publish**: the previous
    snapshot is handed to :func:`~repro.serve.snapshot.snapshot_from_dynamic`
    so unchanged arrays (vertex rank when coreness is untouched, the
    neighbor-coreness counts of clean rows) are reused instead of
    recomputed.
    """

    def __init__(
        self,
        dyn,
        catalog: SnapshotCatalog,
        name: str,
        threads: int = 4,
        publish_every: int = 1,
        pool: SimulatedPool | None = None,
    ) -> None:
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.dyn = dyn
        self.catalog = catalog
        self.name = name
        self.threads = int(threads)
        self.publish_every = int(publish_every)
        self.pool = pool
        self._pending = 0
        self._last_snapshot = None

    @property
    def pending_mutations(self) -> int:
        """Mutations applied since the last publish."""
        return self._pending

    def publish(self) -> int:
        """Snapshot the dynamic graph's current state; return the version."""
        snapshot = snapshot_from_dynamic(
            self.dyn,
            threads=self.threads,
            pool=self.pool,
            name=self.name,
            previous=self._last_snapshot,
        )
        version = self.catalog.publish(snapshot)
        self._last_snapshot = snapshot
        self._pending = 0
        return version

    def flush(self) -> int | None:
        """Publish buffered mutations, if any; return the new version."""
        if self._pending == 0:
            return None
        return self.publish()

    def _after_mutations(self, count: int) -> int | None:
        self._pending += count
        if self._pending >= self.publish_every:
            return self.publish()
        return None

    def insert_edge(self, u: int, v: int) -> int | None:
        """Apply an edge insertion; publish once the debounce window fills."""
        self.dyn.insert_edge(u, v)
        return self._after_mutations(1)

    def delete_edge(self, u: int, v: int) -> int | None:
        """Apply an edge deletion; publish once the debounce window fills."""
        self.dyn.delete_edge(u, v)
        return self._after_mutations(1)

    def apply_batch(self, insertions=(), deletions=()) -> int | None:
        """Apply a batched update via the parallel maintenance kernels.

        Runs :meth:`DynamicGraph.apply_batch` (one level-grouped repair
        for the whole batch) and counts every applied mutation against
        the debounce window.  Returns the published version, or
        ``None`` while buffered.
        """
        if self.pool is not None:
            report = self.dyn.apply_batch(
                insertions=insertions, deletions=deletions, pool=self.pool
            )
        else:
            report = self.dyn.apply_batch(
                insertions=insertions, deletions=deletions, threads=self.threads
            )
        if report.applied == 0:
            return None
        return self._after_mutations(report.applied)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


#: :func:`synthetic_trace` shape: mean simulated gap between bursts,
#: the number of PBKS / best-k metrics the mix cycles through, and the
#: most requests one burst holds
TRACE_MEAN_GAP = 50.0
TRACE_METRICS = 4
TRACE_BURST = 4


def synthetic_trace(num_requests: int, seed: int = 0) -> list[dict]:
    """A deterministic mixed workload trace.

    Arrivals are bursty (geometric gaps of mean ``TRACE_MEAN_GAP``
    between bursts of up to ``TRACE_BURST`` simultaneous requests) and
    the query mix cycles through ``TRACE_METRICS`` PBKS metrics,
    best-k, densest, and influential queries with enough repetition to
    exercise the result cache.  Same ``seed`` — same trace, bit for
    bit.
    """
    from repro.search.metrics import metric_names

    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    rng = np.random.default_rng(seed)
    metrics = metric_names()[:TRACE_METRICS]
    trace: list[dict] = []
    arrival = 0.0
    remaining_in_burst = 0
    for i in range(num_requests):
        if remaining_in_burst == 0:
            arrival += float(rng.geometric(1.0 / TRACE_MEAN_GAP))
            remaining_in_burst = int(rng.integers(1, TRACE_BURST + 1))
        remaining_in_burst -= 1
        roll = int(rng.integers(0, 10))
        if roll < 5:
            entry = {"kind": "pbks", "metric": metrics[int(rng.integers(0, len(metrics)))]}
        elif roll < 7:
            entry = {"kind": "best_k", "metric": metrics[int(rng.integers(0, len(metrics)))]}
        elif roll < 8:
            entry = {"kind": "densest"}
        else:
            entry = {
                "kind": "influential",
                "k": int(rng.integers(1, 4)),
                "r": int(rng.integers(1, 4)),
                "weights": ("degree", "coreness", "uniform")[int(rng.integers(0, 3))],
            }
        entry["arrival"] = arrival
        trace.append(entry)
    return trace


def save_trace(trace: list[dict], path: str | os.PathLike[str]) -> None:
    """Write a trace as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in trace:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")


def load_trace(path: str | os.PathLike[str]) -> list[dict]:
    """Read a JSON-lines trace; :class:`WorkloadError` on malformed input."""
    trace: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise WorkloadError(f"trace file not found: {path}") from None
    except OSError as exc:
        raise WorkloadError(f"unreadable trace file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(entry, dict):
            raise WorkloadError(
                f"{path}:{lineno}: trace entry must be an object, "
                f"got {type(entry).__name__}"
            )
        trace.append(entry)
    return trace
