"""Tests for community scoring metrics and the registry."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UnknownMetricError
from repro.search.metrics import (
    Metric,
    combine_metrics,
    get_metric,
    metric_names,
    register_metric,
    score_matrix,
    type_a_metrics,
    type_b_metrics,
)
from repro.search.primary_values import GraphTotals, PrimaryValues

TOTALS = GraphTotals(n=100, m=500)


def pv(**kwargs) -> PrimaryValues:
    return PrimaryValues(**kwargs)


class TestFormulas:
    def test_average_degree(self):
        m = get_metric("average_degree")
        assert m(pv(n=10, m=25), TOTALS) == pytest.approx(5.0)

    def test_average_degree_empty(self):
        assert get_metric("average_degree")(pv(), TOTALS) == 0.0

    def test_internal_density(self):
        m = get_metric("internal_density")
        # K4: 6 edges over C(4,2)=6 -> density 1
        assert m(pv(n=4, m=6), TOTALS) == pytest.approx(1.0)

    def test_internal_density_singleton(self):
        assert get_metric("internal_density")(pv(n=1), TOTALS) == 0.0

    def test_cut_ratio(self):
        m = get_metric("cut_ratio")
        # n(S)=10, outside=90, b=90 -> 1 - 90/900 = 0.9
        assert m(pv(n=10, b=90), TOTALS) == pytest.approx(0.9)

    def test_cut_ratio_whole_graph(self):
        m = get_metric("cut_ratio")
        assert m(pv(n=100, b=0), TOTALS) == 1.0

    def test_conductance(self):
        m = get_metric("conductance")
        # b=10, 2m=40 -> 1 - 10/50 = 0.8
        assert m(pv(m=20, b=10), TOTALS) == pytest.approx(0.8)

    def test_conductance_isolated(self):
        assert get_metric("conductance")(pv(), TOTALS) == 1.0

    def test_modularity(self):
        m = get_metric("modularity")
        # m(S)=100 of 500, degrees 2*100+50 over 1000
        expected = 100 / 500 - (250 / 1000) ** 2
        assert m(pv(m=100, b=50), TOTALS) == pytest.approx(expected)

    def test_modularity_empty_graph(self):
        assert get_metric("modularity")(pv(m=1), GraphTotals(n=0, m=0)) == 0.0

    def test_clustering_coefficient(self):
        m = get_metric("clustering_coefficient")
        # K3: 1 triangle, 3 triplets -> 3*1/3 = 1
        assert m(pv(triangles=1, triplets=3), TOTALS) == pytest.approx(1.0)

    def test_clustering_coefficient_no_triplets(self):
        assert get_metric("clustering_coefficient")(pv(), TOTALS) == 0.0


class TestRegistry:
    def test_paper_metrics_present(self):
        names = metric_names()
        for expected in (
            "average_degree",
            "internal_density",
            "cut_ratio",
            "conductance",
            "modularity",
            "clustering_coefficient",
        ):
            assert expected in names

    def test_type_split(self):
        a_names = {m.name for m in type_a_metrics()}
        b_names = {m.name for m in type_b_metrics()}
        assert "average_degree" in a_names
        assert "clustering_coefficient" in b_names
        assert not (a_names & b_names)

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError):
            get_metric("nope")

    def test_register_custom_metric(self):
        metric = register_metric(
            "test_only_density_per_boundary",
            "A",
            lambda v, t: v.m / (v.b + 1.0),
        )
        try:
            assert get_metric(metric.name)(pv(m=10, b=4), TOTALS) == 2.0
        finally:
            # keep the global registry clean for other tests
            from repro.search import metrics as mod

            del mod._REGISTRY[metric.name]

    def test_register_invalid_kind(self):
        with pytest.raises(ValueError):
            register_metric("bad", "C", lambda v, t: 0.0)

    def test_metric_callable(self):
        m = get_metric("average_degree")
        assert m(pv(n=2, m=1), TOTALS) == 1.0


class TestPrimaryValues:
    def test_addition(self):
        a = pv(n=1, m=2, b=3, triangles=4, triplets=5)
        b = pv(n=10, m=20, b=30, triangles=40, triplets=50)
        total = a + b
        assert total.as_tuple() == (11, 22, 33, 44, 55)

    def test_graph_totals_of(self, triangle):
        totals = GraphTotals.of(triangle)
        assert totals.n == 3
        assert totals.m == 3


class TestSurveyMetrics:
    def test_separability(self):
        m = get_metric("separability")
        assert m(pv(m=20, b=4), TOTALS) == 5.0
        assert m(pv(m=20, b=0), TOTALS) == float("inf")
        assert m(pv(m=0, b=0), TOTALS) == 0.0

    def test_expansion(self):
        m = get_metric("expansion")
        assert m(pv(n=10, b=5), TOTALS) == pytest.approx(0.5)
        assert m(pv(), TOTALS) == 0.0

    def test_triangle_participation(self):
        m = get_metric("triangle_participation")
        assert m(pv(m=3, triangles=1), TOTALS) == pytest.approx(1 / 3)
        assert m(pv(), TOTALS) == 0.0

    def test_types(self):
        assert get_metric("separability").kind == "A"
        assert get_metric("expansion").kind == "A"
        assert get_metric("triangle_participation").kind == "B"


class TestCombinedMetrics:
    def test_weighted_combination(self):
        from repro.search.metrics import _REGISTRY, combine_metrics

        metric = combine_metrics(
            "test_combo", {"average_degree": 2.0, "conductance": 1.0}
        )
        try:
            values = pv(n=10, m=25, b=0)
            expected = 2.0 * 5.0 + 1.0 * 1.0
            assert metric(values, TOTALS) == pytest.approx(expected)
            assert get_metric("test_combo") is metric
            assert metric.kind == "A"
        finally:
            del _REGISTRY["test_combo"]

    def test_type_b_propagates(self):
        from repro.search.metrics import combine_metrics

        metric = combine_metrics(
            "test_combo_b",
            {"average_degree": 1.0, "clustering_coefficient": 1.0},
            register=False,
        )
        assert metric.kind == "B"

    def test_bks_pbks_agree_on_combined(self):
        import numpy as np

        from repro.core.decomposition import core_decomposition
        from repro.core.lcps import lcps_build_hcd
        from repro.graph.generators import powerlaw_cluster
        from repro.parallel.scheduler import SimulatedPool
        from repro.search.bks import bks_search
        from repro.search.metrics import combine_metrics
        from repro.search.pbks import pbks_search

        g = powerlaw_cluster(80, 3, 0.4, seed=9)
        coreness = core_decomposition(g)
        hcd = lcps_build_hcd(g, coreness)
        metric = combine_metrics(
            "test_combo_search",
            {"conductance": 1.0, "clustering_coefficient": 0.5},
            register=False,
        )
        serial = bks_search(g, coreness, hcd, metric)
        parallel = pbks_search(g, coreness, hcd, metric, SimulatedPool(threads=4))
        assert np.allclose(serial.scores, parallel.scores)

    def test_empty_weights_rejected(self):
        from repro.search.metrics import combine_metrics

        with pytest.raises(ValueError):
            combine_metrics("empty", {})


# ---------------------------------------------------------------------------
# score_matrix: one metric call per distinct row
# ---------------------------------------------------------------------------

#: memcheck's float trap, a NaN with its own payload
_PAYLOAD_NAN = np.frombuffer(
    np.uint64(0x7FF8DEADDEADDEAD).tobytes(), dtype=np.float64
)[0]
_FIELDS = (0.0, -0.0, 1.0, 2.5, 3.0, 40.0, np.nan, _PAYLOAD_NAN, np.inf, -np.inf)
#: 1 / b tells -0.0 from 0.0 (-inf against inf)
_RECIPROCAL_B = Metric("reciprocal_b", "A", lambda v, _: 1.0 / v.b)
_COMBINED = combine_metrics(
    "combined_for_score_matrix",
    {"conductance": 1.0, "clustering_coefficient": 0.5, "cut_ratio": 2.0},
    register=False,
)
_SCORE_MATRIX_METRICS = [get_metric(name) for name in metric_names()] + [
    _COMBINED,
    _RECIPROCAL_B,
]


@st.composite
def _row_matrices(draw):
    """A ``(rows, 5)`` matrix drawn from a pool of at most five rows,
    so duplicate rows are common; 0 and 1 rows included."""
    row = st.tuples(*[st.sampled_from(_FIELDS)] * 5)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(-1, 5)


def _per_row(metric, values, totals):
    return np.array(
        [
            metric(PrimaryValues(n=n_, m=m_, b=b_, triangles=t, triplets=p), totals)
            for n_, m_, b_, t, p in values
        ],
        dtype=np.float64,
    )


@settings(max_examples=50, deadline=None)
@given(values=_row_matrices())
@example(values=np.empty((0, 5)))
@example(values=np.array([[3.0, -0.0, np.nan, np.inf, 1.0]]))
def test_score_matrix_matches_per_row_loop(values):
    for metric in _SCORE_MATRIX_METRICS:
        with np.errstate(all="ignore"):
            want = _per_row(metric, values, TOTALS)
            got = score_matrix(metric, values, TOTALS)
        assert got.dtype == np.float64 and got.shape == (values.shape[0],)
        assert got.tobytes() == want.tobytes(), metric.name


def test_score_matrix_keeps_signed_zeros_apart():
    values = np.array([[1, 1, 0.0, 0, 0], [1, 1, -0.0, 0, 0]] * 3, dtype=np.float64)
    with np.errstate(divide="ignore"):
        got = score_matrix(_RECIPROCAL_B, values, TOTALS)
    assert got.tolist() == [np.inf, -np.inf] * 3


def _counting_metric():
    """A metric recording the bytes and field types of every row it
    is called with."""
    calls = []

    def score(values, totals):
        fields = values.as_tuple()
        calls.append((np.array(fields).tobytes(), {type(x) for x in fields}))
        return float(values.n + values.m)

    return Metric("counting", "B", score), calls


def test_score_matrix_calls_metric_once_per_distinct_row():
    values = np.array(
        [[1, 0, 0, 0, 0], [3, 2, 1, 0, 0], [1, 0, 0, 0, 0], [3, 2, 1, 0, 0]],
        dtype=np.float64,
    )
    metric, calls = _counting_metric()
    assert score_matrix(metric, values, TOTALS).tolist() == [1.0, 5.0, 1.0, 5.0]
    # in the order of first appearance (the second row's bytes sort first)
    assert [row for row, _ in calls] == [values[0].tobytes(), values[1].tobytes()]
    calls.clear()
    assert score_matrix(metric, np.empty((0, 5)), TOTALS).shape == (0,)
    assert calls == []


@pytest.fixture(scope="module")
def _searched():
    from repro.core.decomposition import core_decomposition
    from repro.core.lcps import lcps_build_hcd
    from repro.graph.generators import rmat

    # 71 tree nodes, 10 distinct rows of primary values
    graph = rmat(8, 4, seed=7)
    coreness = core_decomposition(graph)
    return graph, coreness, lcps_build_hcd(graph, coreness)


def test_pbks_search_scores_each_distinct_row_once_with_float64_fields(_searched):
    from repro.parallel.scheduler import SimulatedPool
    from repro.search.pbks import pbks_search

    graph, coreness, hcd = _searched
    metric, calls = _counting_metric()
    result = pbks_search(graph, coreness, hcd, metric, SimulatedPool(threads=4))
    rows = [row.tobytes() for row in result.values]
    assert len(set(rows)) < len(rows)  # the test needs duplicate rows
    assert sorted(row for row, _ in calls) == sorted(set(rows))
    assert set().union(*(types for _, types in calls)) == {np.float64}


def test_find_best_k_scores_each_distinct_row_once_with_float64_fields(_searched):
    from repro.parallel.scheduler import SimulatedPool
    from repro.search.best_k import find_best_k

    graph, coreness, _ = _searched
    metric, calls = _counting_metric()
    result = find_best_k(graph, coreness, metric, SimulatedPool(threads=4))
    rows = [row.tobytes() for row in result.values]
    assert sorted(row for row, _ in calls) == sorted(set(rows))
    assert set().union(*(types for _, types in calls)) == {np.float64}
