"""Query normalization, fingerprinting, and in-flight dedup.

Requests arrive as loose dictionaries (a workload trace line, a CLI
flag set).  The planner turns each into a canonical immutable
:class:`Query`, derives its **fingerprint** (the cache-key component),
and coalesces identical in-flight queries into one
:class:`BatchPlan`.  ``densest`` is normalized to PBKS under the
average-degree metric (PBKS-D *is* PBKS with that metric), so a
densest request and an equivalent pbks request dedupe.  Which shared
pass each distinct query rides on is the executor's decision
(:meth:`~repro.serve.executor.SnapshotExecutor.execute`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import UnknownMetricError, WorkloadError
from repro.search.metrics import get_metric

__all__ = [
    "Query",
    "BatchPlan",
    "WEIGHT_SPECS",
    "normalize_request",
    "plan_batch",
]

#: deterministic per-vertex weight specifications for influential queries
WEIGHT_SPECS = ("degree", "coreness", "uniform")

_KIND_ALIASES = {
    "pbks": "pbks",
    "search": "pbks",
    "best_core": "pbks",
    "densest": "densest",
    "best_k": "best_k",
    "bestk": "best_k",
    "influential": "influential",
}


@dataclass(frozen=True)
class Query:
    """One normalized query; hashable, orderable, fingerprintable."""

    kind: str                 # "pbks" | "best_k" | "influential"
    metric: str = ""          # pbks / best_k
    k: int = 0                # influential
    r: int = 0                # influential
    weights: str = ""         # influential
    #: canonical identity string — the cache-key component; derived
    #: from the fields above once, at construction (``replace`` too)
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "influential":
            fingerprint = f"influential k={self.k} r={self.r} weights={self.weights}"
        else:
            fingerprint = f"{self.kind} metric={self.metric}"
        object.__setattr__(self, "fingerprint", fingerprint)

    @property
    def needs_type_b(self) -> bool:
        """Whether this query requires the type-B motif pass."""
        if self.kind in ("pbks", "best_k"):
            return get_metric(self.metric).kind == "B"
        return False


def normalize_request(request: Mapping) -> Query:
    """Canonicalize a raw request mapping into a :class:`Query`.

    Raises :class:`~repro.errors.WorkloadError` naming the offending
    field on anything malformed.
    """
    if not isinstance(request, Mapping):
        raise WorkloadError(f"request: request must be an object, got {type(request).__name__}")
    raw_kind = request.get("kind")
    if not isinstance(raw_kind, str) or raw_kind not in _KIND_ALIASES:
        raise WorkloadError(
            "request: field 'kind' must be one of "
            f"{sorted(set(_KIND_ALIASES))}, got {raw_kind!r}"
        )
    kind = _KIND_ALIASES[raw_kind]
    if kind == "densest":
        # PBKS-D is PBKS under average_degree; normalizing here makes a
        # densest request and the equivalent pbks request coalesce.
        if "metric" in request and request["metric"] != "average_degree":
            raise WorkloadError(
                "request: field 'metric' is not accepted for kind 'densest'"
            )
        return Query(kind="pbks", metric="average_degree")
    if kind in ("pbks", "best_k"):
        metric = request.get("metric", "average_degree")
        try:
            metric = get_metric(metric).name
        except (UnknownMetricError, TypeError):
            # TypeError: an unhashable JSON value (list/dict) as the
            # name; anything else escaping get_metric is a real bug
            # and must not be masked as a workload error
            raise WorkloadError(
                f"request: field 'metric' names no registered metric: {metric!r}"
            ) from None
        return Query(kind=kind, metric=metric)
    # influential
    k = request.get("k", 1)
    r = request.get("r", 1)
    weights = request.get("weights", "degree")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise WorkloadError(f"request: field 'k' must be an integer >= 1, got {k!r}")
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise WorkloadError(f"request: field 'r' must be an integer >= 1, got {r!r}")
    if weights not in WEIGHT_SPECS:
        raise WorkloadError(
            f"request: field 'weights' must be one of {list(WEIGHT_SPECS)}, "
            f"got {weights!r}"
        )
    return Query(kind="influential", k=int(k), r=int(r), weights=str(weights))


@dataclass
class BatchPlan:
    """One batch of coalesced queries.

    ``queries`` maps fingerprint to the distinct :class:`Query`, in
    first-appearance order; ``requesters`` maps fingerprint to the
    request ids riding on it (length > 1 means in-flight dedup
    coalesced identical queries).
    """

    queries: dict[str, Query] = field(default_factory=dict)
    requesters: dict[str, list[int]] = field(default_factory=dict)

    @property
    def distinct(self) -> int:
        """Number of distinct queries after coalescing."""
        return len(self.queries)

    @property
    def coalesced(self) -> int:
        """Requests answered by another identical in-flight query."""
        return sum(len(rids) - 1 for rids in self.requesters.values())


def plan_batch(batch: list[tuple[int, Query]]) -> BatchPlan:
    """Coalesce a batch of ``(request id, query)`` pairs by fingerprint."""
    plan = BatchPlan()
    for rid, query in batch:
        fp = query.fingerprint
        if fp in plan.requesters:
            plan.requesters[fp].append(rid)
        else:
            plan.queries[fp] = query
            plan.requesters[fp] = [rid]
    return plan
