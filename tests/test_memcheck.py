"""Tests for SimCheck: traps, barrier, checked casts, CSR validation, SAN3xx."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import GraphFormatError, MemcheckError, NumericSoundnessError
from repro.graph import Graph, validate_csr
from repro.graph.generators import erdos_renyi
from repro.graph.io import load_npz, read_metis, save_npz
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer import (
    KERNELS,
    MemChecker,
    checked_cast,
    checked_sum,
    lint_source,
    memcheck_selftest,
    run_all_kernels,
    run_buggy_memcheck_kernel,
    run_kernel,
    san_empty,
    trap_value,
)


class TestTrapValues:
    def test_f64_trap_is_payload_tagged_quiet_nan(self):
        trap = trap_value(np.float64)
        assert np.isnan(trap)
        assert np.float64(trap).view(np.uint64) == np.uint64(0x7FF8DEADDEADDEAD)

    def test_f32_trap_is_payload_tagged_quiet_nan(self):
        trap = trap_value(np.float32)
        assert np.isnan(trap)
        assert np.float32(trap).view(np.uint32) == np.uint32(0x7FC0DEAD)

    def test_signed_trap_near_iinfo_min(self):
        for dt in (np.int8, np.int16, np.int32, np.int64):
            trap = trap_value(dt)
            assert trap == np.iinfo(dt).min + 0xDD
            assert np.asarray(trap).dtype == np.dtype(dt)

    def test_unsigned_trap_near_iinfo_max(self):
        for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
            assert trap_value(dt) == np.iinfo(dt).max - 0xDD

    def test_unsupported_dtype_raises(self):
        with pytest.raises(MemcheckError):
            trap_value(np.bool_)

    def test_legit_nan_is_not_the_trap(self):
        # a NaN computed by arithmetic must be bit-distinguishable from
        # poison, or uninit-read would fire on legitimate 0/0 results
        legit = np.float64("nan")
        assert legit.view(np.uint64) != np.float64(trap_value(np.float64)).view(
            np.uint64
        )


class TestSanEmpty:
    def test_fills_with_trap(self):
        arr = san_empty(7, np.int64, name="t")
        assert arr.shape == (7,)
        assert np.all(arr == trap_value(np.int64))

    def test_float_fill_is_trap_bits(self):
        arr = san_empty(3, np.float64, name="t")
        assert np.all(arr.view(np.uint64) == np.uint64(0x7FF8DEADDEADDEAD))

    def test_registers_with_active_checker(self):
        checker = MemChecker().activate()
        try:
            san_empty(4, np.int64, name="reg_buf")
        finally:
            checker.deactivate()
        assert "reg_buf" in checker.allocations
        assert "test_memcheck.py" in checker.allocations["reg_buf"]

    def test_explicit_checker_beats_active(self):
        explicit = MemChecker()
        san_empty(2, np.int64, name="explicit_buf", checker=explicit)
        assert "explicit_buf" in explicit.allocations

    def test_no_active_checker_is_fine(self, no_active_checker):
        assert MemChecker.current() is None
        arr = san_empty(5, np.float32, name="orphan")
        assert np.all(np.isnan(arr))

    def test_bad_name_rejected(self):
        checker = MemChecker()
        with pytest.raises(MemcheckError):
            checker.register_allocation("", np.zeros(1))


def _watched_run(worker, *, setup, items=4, threads=4):
    """Run ``worker`` on a fresh watched pool; returns the checker."""
    pool = SimulatedPool(threads=threads)
    checker = MemChecker()
    with checker.watch(pool):
        arrays = setup()
        pool.parallel_for(
            list(range(items)),
            lambda i, ctx: worker(i, ctx, arrays),
            label="memcheck_test",
        )
    return checker


class TestReadBarrier:
    def test_uninit_read_detected_with_alloc_site(self):
        def setup():
            return san_empty(8, np.int64, name="cold")

        def worker(i, ctx, arr):
            if i == 0:
                ctx.read(("cold", 3))

        checker = _watched_run(worker, setup=setup)
        kinds = {f.kind for f in checker.findings}
        assert kinds == {"uninit-read"}
        finding = checker.findings[0]
        assert finding.name == "cold" and finding.index == 3
        assert finding.region == "memcheck_test"
        assert finding.alloc_site and "test_memcheck.py" in finding.alloc_site

    def test_write_then_read_is_clean(self):
        def setup():
            return san_empty(8, np.int64, name="warm")

        def worker(i, ctx, arr):
            ctx.write(("warm", i))
            arr[i] = i
            ctx.read(("warm", i))

        checker = _watched_run(worker, setup=setup)
        assert not checker.findings

    def test_legit_nan_read_not_flagged_when_written(self):
        # shadow bit distinguishes "wrote a NaN" from "never wrote"
        def setup():
            return san_empty(4, np.float64, name="nanbuf")

        def worker(i, ctx, arr):
            if i == 0:
                ctx.write(("nanbuf", 0), value=0.0)
                arr[0] = float("nan")  # sani: ok - testing legit-NaN path
                ctx.read(("nanbuf", 0))

        checker = _watched_run(worker, setup=setup)
        assert not [f for f in checker.findings if f.kind == "uninit-read"]

    def test_oob_read_and_write_detected(self):
        def setup():
            return san_empty(4, np.int64, name="tiny")

        def worker(i, ctx, arr):
            if i == 0:
                ctx.read(("tiny", 9))
            elif i == 1:
                ctx.write(("tiny", -2))

        checker = _watched_run(worker, setup=setup)
        kinds = {f.kind for f in checker.findings}
        assert kinds == {"oob-read", "oob-write"}
        oob_write = next(f for f in checker.findings if f.kind == "oob-write")
        assert "-2" in oob_write.detail

    def test_findings_deduplicated(self):
        def setup():
            return san_empty(4, np.int64, name="dup")

        def worker(i, ctx, arr):
            ctx.read(("dup", 1))  # every item hits the same poisoned slot

        checker = _watched_run(worker, setup=setup, items=8)
        assert len(checker.findings) == 1

    def test_unregistered_locations_ignored(self):
        def setup():
            return None

        def worker(i, ctx, arr):
            ctx.read(("nobody_registered_me", 0))
            ctx.write(("nobody_registered_me", 99))

        checker = _watched_run(worker, setup=setup)
        assert not checker.findings
        assert checker.events_seen > 0

    def test_detach_restores_pool(self, no_active_checker):
        pool = SimulatedPool(threads=2)
        pool.set_observer(None)  # shed any session-wide --memcheck observer
        checker = MemChecker()
        with checker.watch(pool):
            assert pool.observer is checker
            assert MemChecker.current() is checker
        assert pool.observer is None
        assert MemChecker.current() is None


@pytest.fixture
def no_active_checker():
    """Hide any session-wide checker (pytest --memcheck) for tests that
    exercise the raise-without-checker contract."""
    saved = MemChecker._active
    MemChecker._active = []
    yield
    MemChecker._active = saved


class TestNumericSoundness:
    def test_checked_cast_raises_without_checker(self, no_active_checker):
        with pytest.raises(NumericSoundnessError):
            checked_cast(np.asarray([2**40], dtype=np.int64), np.int32)

    def test_checked_cast_reports_to_checker(self):
        checker = MemChecker()
        out = checked_cast(
            np.asarray([2**40], dtype=np.int64),
            np.int32,
            what="deg_sum",
            checker=checker,
        )
        assert out.dtype == np.int32  # cast still performed
        assert len(checker.findings) == 1
        finding = checker.findings[0]
        assert finding.kind == "overflow" and finding.name == "deg_sum"
        assert "2**40" in finding.detail or str(2**40) in finding.detail

    def test_checked_cast_in_range_is_clean(self):
        checker = MemChecker()
        out = checked_cast(
            np.arange(10, dtype=np.int64), np.int32, checker=checker
        )
        assert not checker.findings
        assert np.array_equal(out, np.arange(10, dtype=np.int32))

    def test_checked_cast_nan_to_int_is_overflow(self, no_active_checker):
        with pytest.raises(NumericSoundnessError):
            checked_cast(np.asarray([float("nan")]), np.int64)

    def test_checked_cast_f64_to_f32_overflow(self, no_active_checker):
        with pytest.raises(NumericSoundnessError):
            checked_cast(np.asarray([1e300]), np.float32)

    def test_checked_cast_f64_to_f32_in_range(self):
        out = checked_cast(np.asarray([1.5, -2.5]), np.float32)
        assert out.dtype == np.float32

    def test_checked_sum_exact(self):
        assert checked_sum(np.arange(100, dtype=np.int32)) == 4950

    def test_checked_sum_overflow_raises(self, no_active_checker):
        vals = np.asarray([2**62, 2**62, 2**62], dtype=np.int64)
        with pytest.raises(NumericSoundnessError):
            checked_sum(vals, np.int64)

    def test_checked_sum_overflow_reported_and_exact(self):
        checker = MemChecker()
        vals = np.asarray([2**62, 2**62], dtype=np.int64)
        total = checked_sum(vals, np.int64, what="acc", checker=checker)
        assert total == 2**63  # exact, not wrapped
        assert checker.findings[0].kind == "overflow"

    def test_checked_sum_rejects_float_input(self):
        with pytest.raises(MemcheckError):
            checked_sum(np.asarray([1.0]))


class TestSeededAcceptance:
    """The acceptance suite: every seeded bug class must be detected."""

    def test_all_bug_classes_detected(self):
        checker = run_buggy_memcheck_kernel(threads=4)
        kinds = {f.kind for f in checker.findings}
        assert "uninit-read" in kinds
        assert "oob-write" in kinds
        assert "overflow" in kinds
        assert checker.nan_origins  # bug 4: NaN injection tracked

    def test_uninit_read_attributed_to_allocation_site(self):
        checker = run_buggy_memcheck_kernel(threads=4)
        uninit = next(f for f in checker.findings if f.kind == "uninit-read")
        assert uninit.name == "selftest_buf" and uninit.index == 5
        assert uninit.alloc_site and "memcheck.py" in uninit.alloc_site
        assert uninit.region == "selftest:memcheck"

    def test_nan_origin_names_region(self):
        checker = run_buggy_memcheck_kernel(threads=4)
        origin = checker.nan_origins[0]
        assert origin.name == "selftest_scores"
        assert origin.region == "selftest:memcheck"
        assert "selftest:memcheck" in str(origin)

    def test_memcheck_selftest_passes(self):
        ok, message = memcheck_selftest(threads=4)
        assert ok, message
        assert "detected" in message


class TestCheckedGraphBoundaries:
    def test_empty_graph(self):
        g = Graph(np.asarray([0]), np.asarray([], dtype=np.int64))
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_single_vertex_no_edges(self):
        g = Graph(np.asarray([0, 0]), np.asarray([], dtype=np.int64))
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_isolated_vertices_between_edges(self):
        # vertices 0-1 joined, 2 isolated, 3-4 joined
        indptr = np.asarray([0, 1, 2, 2, 3, 4])
        indices = np.asarray([1, 0, 4, 3])
        g = Graph(indptr, indices)
        assert g.num_vertices == 5 and g.num_edges == 2
        assert g.degree(2) == 0

    def test_wrap_revalidates(self):
        g = erdos_renyi(40, 0.1, seed=1)
        checked = Graph(g.indptr, g.indices)
        assert checked.num_edges == g.num_edges

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            validate_csr(np.asarray([0, 1, 2]), np.asarray([0, 1]))

    def test_duplicate_neighbor_rejected(self):
        # vertex 0 lists neighbor 1 twice -> not strictly sorted
        with pytest.raises(GraphFormatError, match="strictly"):
            validate_csr(np.asarray([0, 2, 4]), np.asarray([1, 1, 0, 0]))

    def test_unsorted_row_rejected(self):
        with pytest.raises(GraphFormatError, match="sorted"):
            validate_csr(
                np.asarray([0, 2, 3, 4]), np.asarray([2, 1, 0, 0])
            )

    def test_asymmetric_rejected(self):
        # arc (0, 1) with no reverse: vertex 1 points onward to 2
        with pytest.raises(GraphFormatError, match="symmetric"):
            validate_csr(np.asarray([0, 1, 2, 3]), np.asarray([1, 2, 1]))

    def test_vertex_count_bound_precedes_allocation(self):
        from repro.graph.checked import MAX_VERTICES

        # n * n of the symmetry keys must fit an int64; the bound is
        # the largest n for which it does
        assert MAX_VERTICES**2 <= np.iinfo(np.int64).max
        assert (MAX_VERTICES + 1) ** 2 > np.iinfo(np.int64).max
        # a zero-stride indptr of MAX_VERTICES + 1 vertices allocates
        # nothing; any O(n) step before the bound would
        indptr = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.int64), shape=(MAX_VERTICES + 2,), strides=(0,)
        )
        with pytest.raises(GraphFormatError, match="vertex count"):
            validate_csr(indptr, np.asarray([], dtype=np.int64))

    def test_odd_arc_count_rejected(self):
        with pytest.raises(GraphFormatError):
            validate_csr(np.asarray([0, 1, 1]), np.asarray([1]))

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(GraphFormatError, match="outside"):
            validate_csr(np.asarray([0, 1, 2]), np.asarray([5, 0]))

    def test_negative_neighbor_rejected(self):
        with pytest.raises(GraphFormatError, match="outside"):
            validate_csr(np.asarray([0, 1, 2]), np.asarray([-1, 0]))

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(GraphFormatError, match="decreases"):
            validate_csr(np.asarray([0, 2, 1, 2]), np.asarray([1, 2]))

    def test_indptr_head_tail_checked(self):
        with pytest.raises(GraphFormatError, match=r"indptr\[0\]"):
            validate_csr(np.asarray([1, 2]), np.asarray([0]))
        with pytest.raises(GraphFormatError, match=r"indptr\[-1\]"):
            validate_csr(np.asarray([0, 1]), np.asarray([1, 0]))

    def test_float_dtype_rejected(self):
        with pytest.raises(GraphFormatError, match="integer"):
            validate_csr(np.asarray([0.0, 1.0]), np.asarray([0]))

    def test_empty_indptr_rejected(self):
        with pytest.raises(GraphFormatError, match="at least one"):
            validate_csr(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))

    def test_uint64_overflow_rejected(self):
        huge = np.asarray([0, np.iinfo(np.uint64).max], dtype=np.uint64)
        with pytest.raises(GraphFormatError, match="overflow"):
            validate_csr(huge, np.asarray([], dtype=np.int64))

    def test_valid_graph_round_trips_through_validation(self):
        g = erdos_renyi(60, 0.08, seed=3)
        validate_csr(g.indptr, g.indices)  # must not raise


def _ref_symmetry_error(indptr, indices):
    """The symmetry check as two ``lexsort``s; ``None`` when symmetric.

    Only meaningful on CSRs that pass every earlier check of
    :func:`validate_csr`.
    """
    n = indptr.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    fwd = np.lexsort((indices, src))
    rev = np.lexsort((src, indices))
    if np.array_equal(src[fwd], indices[rev]) and np.array_equal(
        indices[fwd], src[rev]
    ):
        return None
    mismatch = np.flatnonzero(
        (src[fwd] != indices[rev]) | (indices[fwd] != src[rev])
    )
    k = int(fwd[mismatch[0]])
    return (
        f"graph is not symmetric: arc ({int(src[k])}, "
        f"{int(indices[k])}) has no reverse arc"
    )


def _csr_of_arcs(arcs, n):
    """CSR arrays of a set of directed arcs, rows strictly sorted."""
    arcs = sorted(set(arcs))
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _ in arcs:
        indptr[u + 1] += 1
    return np.cumsum(indptr), np.asarray([v for _, v in arcs], dtype=np.int64)


def _validation_error(indptr, indices):
    try:
        validate_csr(indptr, indices)
    except GraphFormatError as exc:
        return str(exc)
    return None


def _perturbed_csrs(seed):
    """A random graph's arcs, then with a reverse arc dropped, an extra
    arc added and an arc moved to another row."""
    rng = np.random.default_rng(seed)
    g = erdos_renyi(40, 0.12, seed=seed)
    n = g.num_vertices
    arcs = [tuple(a) for a in g.edge_array().tolist()]
    arcs += [(v, u) for u, v in arcs]
    yield "intact", arcs
    for _ in range(4):
        i = int(rng.integers(len(arcs)))
        yield "dropped", arcs[:i] + arcs[i + 1 :]
        u, v = rng.choice(n, 2, replace=False).tolist()
        yield "extra", arcs + [(u, v)]
        _, b = arcs[i]
        row = int(rng.integers(n))
        yield "moved", arcs[:i] + arcs[i + 1 :] + [(row, b)]
    # a whole symmetric pair moved is still symmetric
    a, b = arcs[0]
    c = next(x for x in range(n) if x not in (a, b))
    rest = [arc for arc in arcs if arc not in ((a, b), (b, a))]
    yield "pair-moved", rest + [(c, b), (b, c)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symmetry_check_matches_two_lexsorts(seed):
    kinds = set()
    for kind, arcs in _perturbed_csrs(seed):
        arcs = [(u, v) for u, v in arcs if u != v]  # self-loops fail earlier
        indptr, indices = _csr_of_arcs(arcs, 40)
        got = _validation_error(indptr, indices)
        want = _ref_symmetry_error(indptr, indices)
        if want is None and indices.size % 2:
            want = (
                f"arc count {indices.size} is odd; a symmetric simple graph "
                f"stores every edge twice"
            )
        assert got == want, kind
        kinds.add((kind, got is None))
    assert ("intact", True) in kinds and ("pair-moved", True) in kinds
    assert {("dropped", False), ("extra", False), ("moved", False)} <= kinds


class TestUntrustedIo:
    def test_load_npz_returns_checked_graph(self, tmp_path):
        g = erdos_renyi(30, 0.15, seed=2)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.num_edges == g.num_edges

    def test_corrupted_npz_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        # out-of-range neighbor smuggled into the indices array
        np.savez_compressed(
            path,
            indptr=np.asarray([0, 1, 2]),
            indices=np.asarray([99, 0]),
        )
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_npz_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez_compressed(path, other=np.zeros(3))
        with pytest.raises(GraphFormatError, match="missing"):
            load_npz(path)

    def test_metis_non_integer_header_rejected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("abc def\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_metis(path)

    def test_metis_negative_header_rejected(self, tmp_path):
        path = tmp_path / "neg.metis"
        path.write_text("-3 1\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_metis(path)

    def test_metis_non_integer_neighbor_rejected(self, tmp_path):
        path = tmp_path / "badnbr.metis"
        path.write_text("2 1\n2\nxyz\n")
        with pytest.raises(GraphFormatError, match="non-integer neighbor"):
            read_metis(path)

    def test_metis_out_of_range_neighbor_rejected(self, tmp_path):
        path = tmp_path / "oob.metis"
        path.write_text("2 1\n2\n7\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            read_metis(path)


class TestEdgeDedupFallback:
    def test_key_safe_fallback_matches_fast_path(self, monkeypatch):
        import repro.graph.graph as graph_mod

        edges = [(0, 1), (1, 2), (1, 0), (2, 1), (0, 3), (3, 0), (0, 1)]
        fast = Graph.from_edges(edges)
        # force the lexicographic np.unique(axis=0) fallback that guards
        # against lo*n+hi overflowing int64 on huge vertex counts
        monkeypatch.setattr(graph_mod, "_KEY_SAFE_N", 0)
        slow = Graph.from_edges(edges)
        assert np.array_equal(fast.indptr, slow.indptr)
        assert np.array_equal(fast.indices, slow.indices)


def _codes(source: str) -> set[str]:
    return {f.code for f in lint_source(source)}


class TestSan3xxLint:
    def test_san301_unpoisoned_empty(self):
        assert "SAN301" in _codes("import numpy as np\nbuf = np.empty(n)\n")

    def test_san301_empty_like(self):
        assert "SAN301" in _codes(
            "import numpy as np\nbuf = np.empty_like(other)\n"
        )

    def test_san301_zero_size_exempt(self):
        assert "SAN301" not in _codes(
            "import numpy as np\nbuf = np.empty(0)\n"
        )

    def test_san301_suppressed(self):
        assert "SAN301" not in _codes(
            "import numpy as np\n"
            "buf = np.empty(n)  # sani: ok - fully written below\n"
        )

    def test_san302_unchecked_fancy_index_in_worker(self):
        assert "SAN302" in _codes(
            "order = build_order()\n"
            "data = build_data()\n"
            "def worker(i, ctx):\n"
            "    ctx.charge(1)\n"
            "    x = data[order[i]]\n"
            "pool.parallel_for(items, worker)\n"
        )

    def test_san302_trusted_csr_exempt(self):
        assert "SAN302" not in _codes(
            "indptr = graph.indptr\n"
            "indices = graph.indices\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    x = indices[indptr[v]]\n"
            "pool.parallel_for(items, worker)\n"
        )

    def test_san302_tuple_unpack_trusted(self):
        assert "SAN302" not in _codes(
            "indptr, indices = graph.indptr, graph.indices\n"
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    x = indices[indptr[v]]\n"
            "pool.parallel_for(items, worker)\n"
        )

    def test_san302_annotation_not_flagged(self):
        assert "SAN302" not in _codes(
            "def worker(v, ctx):\n"
            "    ctx.charge(1)\n"
            "    lower: dict[int, tuple[int, int]] = {}\n"
            "    lower[v] = (v, v)\n"
            "pool.parallel_for(items, worker)\n"
        )

    def test_san303_narrowing_astype(self):
        assert "SAN303" in _codes("small = big.astype(np.int32)\n")

    def test_san303_widening_ok(self):
        assert "SAN303" not in _codes("wide = small.astype(np.int64)\n")

    def test_san304_float_into_int_accumulator(self):
        assert "SAN304" in _codes(
            "import numpy as np\n"
            "acc = np.zeros(n, dtype=np.int64)\n"
            "acc[0] += weight * 0.5\n"
        )

    def test_san3xx_are_warnings(self):
        findings = lint_source("import numpy as np\nbuf = np.empty(n)\n")
        assert all(
            f.severity == "warning"
            for f in findings
            if f.code.startswith("SAN3")
        )

    def test_src_tree_clean_of_san3xx(self):
        from repro.sanitizer.lint import lint_paths

        hits = [
            f for f in lint_paths(["src"]) if f.code.startswith("SAN3")
        ]
        assert not hits, "\n".join(str(f) for f in hits)


class TestKernelGateMemcheck:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_clean_under_memcheck(self, name):
        report = run_kernel(name, threads=4, memcheck=True)
        assert report.clean, "\n".join(
            str(f) for f in report.races + report.memcheck_findings
        )

    def test_run_all_kernels_memcheck(self):
        reports = run_all_kernels(threads=2, memcheck=True)
        assert len(reports) == len(KERNELS)
        assert all(r.clean for r in reports)

    def test_memcheck_does_not_perturb_simulated_clock(self):
        # the acceptance criterion: barrier work is charge-free, so the
        # simulated clock is bit-identical with and without memcheck
        for name in ("accumulate", "pkc", "pbks"):
            plain = run_kernel(name, threads=4, memcheck=False)
            checked = run_kernel(name, threads=4, memcheck=True)
            assert checked.clock == plain.clock


class TestCliMemcheck:
    def test_memcheck_kernel_clean_exit_zero(self, sanitize_tree):
        assert sanitize_tree.rc == 0, sanitize_tree.out
        header = "== races + memcheck (4 virtual threads) =="
        assert header in sanitize_tree.out

    def test_memcheck_selftest_exit_zero(self, sanitize_tree):
        assert "seeded race detected" in sanitize_tree.out
        assert "seeded memcheck bugs detected" in sanitize_tree.out

    def test_family_summary_lines(self, sanitize_tree):
        out = sanitize_tree.out
        summary = out[out.index("-- family summary --") :].splitlines()
        families = [line.split()[0] for line in summary[1:9]]
        assert families == [
            "races",
            "memcheck",
            "lint",
            "flow",
            "prove",
            "dist",
            "suppress",
            "selftest",
        ]

    def test_report_artifact(self, sanitize_tree):
        data = sanitize_tree.report
        assert data["ok"] is True
        assert data["families"]["memcheck"]["failures"] == 0
        assert [row["name"] for row in data["kernels"]] == list(KERNELS)
        assert all(not row["memcheck"] for row in data["kernels"])

    def test_warnings_gate_only_under_strict(self, sanitize_planted):
        # every run is the strict gate: a warning-only file fails it
        run = sanitize_planted(
            {"src/warn.py": "import numpy as np\nbuf = np.empty(n)\n"}
        )
        assert run.rc == 1
        assert "SAN301" in run.out
        assert "lint      FAILED 0 error(s), 1 warning(s) [strict]" in run.out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["sanitize", "--help"])
        out = capsys.readouterr().out
        assert "exit" in out.lower()
        # the one configuration has two options besides -h
        usage = out.split("\n\n")[0]
        assert usage.split() == [
            "usage:",
            "repro",
            "sanitize",
            "[-h]",
            "[--write-manifest]",
            "[--report",
            "FILE]",
        ]
