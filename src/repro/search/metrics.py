"""Community scoring metrics (paper Section II-D) and their registry.

Each :class:`Metric` maps a subgraph's :class:`PrimaryValues` (plus the
whole-graph :class:`GraphTotals`) to a score, normalized so that higher
is better.  Metrics declare their *type*:

* **type A** — functions of ``n(S)``, ``m(S)``, ``b(S)`` only
  (computable in O(n) from the HCD after O(m) preprocessing);
* **type B** — functions that additionally need triangle / triplet
  counts (O(m^1.5) counting).

The six metrics of the paper are pre-registered; users can add any new
metric over the same primary values with :func:`register_metric`, and
both BKS and PBKS will evaluate it unchanged — the property the paper
highlights ("they can handle any (new) metric that is defined upon the
primary values").

A metric must be a pure function of ``(values, totals)``: PBKS, best-k
and the serving executor score a values matrix through
:func:`score_matrix`, which calls the metric once per *distinct* row
and hands the result to every row with the same bits.

Degenerate inputs (singleton subgraphs, triangle-free subgraphs, the
whole graph for cut ratio) are given the standard conventional values
so every k-core always has a well-defined score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import UnknownMetricError
from repro.parallel.cost_model import ordered_sum
from repro.search.primary_values import GraphTotals, PrimaryValues

__all__ = [
    "Metric",
    "register_metric",
    "get_metric",
    "metric_names",
    "score_matrix",
    "type_a_metrics",
    "type_b_metrics",
    "average_degree",
    "internal_density",
    "cut_ratio",
    "conductance",
    "modularity",
    "clustering_coefficient",
]


@dataclass(frozen=True)
class Metric:
    """A community scoring metric over primary values.

    Attributes
    ----------
    name:
        Registry key.
    kind:
        ``"A"`` or ``"B"`` (Section II-D's type-A / type-B split).
    score:
        Callable ``(values, totals) -> float``; higher is better.  It
        must be a pure function of its arguments: the fields of
        ``values`` are ``np.float64`` scalars, and a matrix of primary
        values is scored once per distinct row (:func:`score_matrix`).
    """

    name: str
    kind: str
    score: Callable[[PrimaryValues, GraphTotals], float]

    def __call__(self, values: PrimaryValues, totals: GraphTotals) -> float:
        return self.score(values, totals)


_REGISTRY: dict[str, Metric] = {}


def register_metric(
    name: str,
    kind: str,
    score: Callable[[PrimaryValues, GraphTotals], float],
) -> Metric:
    """Register a (possibly user-defined) metric; returns it.

    ``score`` must be a pure function of ``(values, totals)``: PBKS,
    best-k and serving call it once per distinct row of primary values
    (:func:`score_matrix`), not once per tree node or level.
    Re-registering a name replaces the previous definition.
    """
    if kind not in ("A", "B"):
        raise ValueError(f"metric kind must be 'A' or 'B', got {kind!r}")
    metric = Metric(name=name, kind=kind, score=score)
    _REGISTRY[name] = metric
    return metric


def get_metric(name: str) -> Metric:
    """Look up a registered metric by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def metric_names() -> list[str]:
    """All registered metric names, sorted."""
    return sorted(_REGISTRY)


def score_matrix(
    metric: Metric, values: np.ndarray, totals: GraphTotals
) -> np.ndarray:
    """Scores of every row of a ``(rows, 5)`` primary-values matrix.

    Rows are keyed by their bytes, so ``-0.0`` and ``0.0`` (or two NaN
    payloads) stay distinct rows.  ``metric`` is called once per
    distinct row, in the order of first appearance, with the row's
    ``np.float64`` fields; every row with the same key gets that score.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys = values.view(np.dtype((np.void, values.itemsize * 5))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique orders the keys by their bytes; call in row order instead
    order = np.argsort(first)
    scores = np.asarray(
        [
            metric(
                PrimaryValues(n=n_, m=m_, b=b_, triangles=tri, triplets=trip),
                totals,
            )
            for n_, m_, b_, tri, trip in zip(*values[first[order]].T)
        ],
        dtype=np.float64,
    )
    # scores[j] belongs to key order[j]; np.argsort(order) inverts that
    return scores[np.argsort(order)[inverse]]


def type_a_metrics() -> list[Metric]:
    """All registered type-A metrics."""
    return [m for _, m in sorted(_REGISTRY.items()) if m.kind == "A"]


def type_b_metrics() -> list[Metric]:
    """All registered type-B metrics."""
    return [m for _, m in sorted(_REGISTRY.items()) if m.kind == "B"]


# ----------------------------------------------------------------------
# the paper's six metrics
# ----------------------------------------------------------------------


def _average_degree(v: PrimaryValues, _: GraphTotals) -> float:
    """f(S) = 2 m(S) / n(S)."""
    return 2.0 * v.m / v.n if v.n > 0 else 0.0


def _internal_density(v: PrimaryValues, _: GraphTotals) -> float:
    """f(S) = 2 m(S) / (n(S) (n(S) - 1))."""
    if v.n <= 1:
        return 0.0
    return 2.0 * v.m / (v.n * (v.n - 1.0))


def _cut_ratio(v: PrimaryValues, totals: GraphTotals) -> float:
    """f(S) = 1 - b(S) / (n(S) (n - n(S)))."""
    outside = totals.n - v.n
    if v.n <= 0 or outside <= 0:
        return 1.0  # no possible boundary edge
    return 1.0 - v.b / (v.n * outside)


def _conductance(v: PrimaryValues, _: GraphTotals) -> float:
    """f(S) = 1 - b(S) / (2 m(S) + b(S))."""
    volume = 2.0 * v.m + v.b
    if volume <= 0:
        return 1.0
    return 1.0 - v.b / volume


def _modularity(v: PrimaryValues, totals: GraphTotals) -> float:
    """Single-community modularity: m(S)/m - ((2 m(S) + b(S)) / 2m)^2."""
    if totals.m <= 0:
        return 0.0
    frac_inside = v.m / totals.m
    frac_degree = (2.0 * v.m + v.b) / (2.0 * totals.m)
    return frac_inside - frac_degree * frac_degree


def _clustering_coefficient(v: PrimaryValues, _: GraphTotals) -> float:
    """f(S) = 3 triangles(S) / triplets(S)."""
    if v.triplets <= 0:
        return 0.0
    return 3.0 * v.triangles / v.triplets


average_degree = register_metric("average_degree", "A", _average_degree)
internal_density = register_metric("internal_density", "A", _internal_density)
cut_ratio = register_metric("cut_ratio", "A", _cut_ratio)
conductance = register_metric("conductance", "A", _conductance)
modularity = register_metric("modularity", "A", _modularity)
clustering_coefficient = register_metric(
    "clustering_coefficient", "B", _clustering_coefficient
)


# ----------------------------------------------------------------------
# further metrics from the surveys the paper covers ([32], [33])
# ----------------------------------------------------------------------


def _separability(v: PrimaryValues, _: GraphTotals) -> float:
    """Yang-Leskovec separability: internal over boundary edges.

    A boundary-free subgraph (a whole component) is perfectly
    separable; by convention it scores infinity when non-trivial.
    """
    if v.b <= 0:
        return float("inf") if v.m > 0 else 0.0
    return v.m / v.b


def _expansion(v: PrimaryValues, _: GraphTotals) -> float:
    """1 minus boundary edges per member (normalized higher-is-better)."""
    if v.n <= 0:
        return 0.0
    return 1.0 - v.b / v.n


def _triangle_participation(v: PrimaryValues, _: GraphTotals) -> float:
    """Triangles per internal edge — a motif-cohesion measure."""
    if v.m <= 0:
        return 0.0
    return v.triangles / v.m


separability = register_metric("separability", "A", _separability)
expansion = register_metric("expansion", "A", _expansion)
triangle_participation = register_metric(
    "triangle_participation", "B", _triangle_participation
)


def combine_metrics(
    name: str, weights: dict[str, float], register: bool = True
) -> Metric:
    """Assemble a weighted combination of registered metrics.

    Section VI's "new or assembled community scoring metrics": the
    returned metric scores ``sum(w * component(S))`` and is type-B iff
    any component is.  With ``register=True`` (default) it joins the
    registry so both BKS and PBKS can evaluate it by name.
    """
    if not weights:
        raise ValueError("need at least one component metric")
    components = [(get_metric(key), w) for key, w in sorted(weights.items())]
    kind = "B" if any(m.kind == "B" for m, _ in components) else "A"

    def score(values: PrimaryValues, totals: GraphTotals) -> float:
        # left to right on every Python version (builtin sum compensates
        # float addition from 3.12 on)
        return ordered_sum(w * m(values, totals) for m, w in components)

    metric = Metric(name=name, kind=kind, score=score)
    if register:
        _REGISTRY[name] = metric
    return metric
