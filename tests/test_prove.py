"""SimProve (SAN5xx): interval domain, bounds proofs, certificates.

Covers the interval lattice and affine substitution engine, the
fail-closed edge cases the prover must never certify (empty ranges,
backward steps, unresolvable symbolic endpoints, ``indptr[-1]``
extents), certificate semantics, manifest round-trip + drift
detection and the seeded selftest.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sanitizer.intervals import (
    Interval,
    SymbolFacts,
    aff_add,
    aff_const,
    aff_sub,
    aff_sym,
    lower_const,
    prove_le,
    prove_nonneg,
    upper_const,
)
from repro.sanitizer.kernels import KERNEL_EXTENTS, KERNELS
from repro.sanitizer import manifest
from repro.sanitizer.dist import DEFAULT_DIST_MANIFEST_PATH
from repro.sanitizer.prove import (
    DEFAULT_MANIFEST_PATH,
    MANIFEST_SCHEMA,
    prove_kernels,
    prove_selftest,
    prove_source,
)


def manifest_payload(report):
    return manifest.payload(MANIFEST_SCHEMA, kernels=report.certificates)


def _nonneg_facts(*names: str) -> SymbolFacts:
    facts = SymbolFacts()
    for name in names:
        facts.declare(name, Interval(aff_const(0), None, False))
    return facts


# ----------------------------------------------------------------------
# affine / interval domain
# ----------------------------------------------------------------------


class TestAffine:
    def test_cancellation_needs_no_facts(self):
        # n - 1 <= n holds for every n by pure affine cancellation
        n = aff_sym("n")
        assert prove_le(aff_sub(n, aff_const(1)), n, SymbolFacts())

    def test_nonneg_via_declared_symbol(self):
        facts = _nonneg_facts("n")
        assert prove_nonneg(aff_sym("n"), facts)
        assert not prove_nonneg(aff_sub(aff_const(0), aff_sym("n")), facts)

    def test_substitution_bounds(self):
        # with k in [2, 5]: lower(k + 1) = 3, upper(k + 1) = 6
        facts = SymbolFacts()
        facts.declare("k", Interval(aff_const(2), aff_const(5), True))
        expr = aff_add(aff_sym("k"), aff_const(1))
        assert lower_const(expr, facts) == 3
        assert upper_const(expr, facts) == 6

    def test_unresolved_symbol_is_unbounded(self):
        facts = SymbolFacts()
        assert lower_const(aff_sym("mystery"), facts) is None
        assert upper_const(aff_sym("mystery"), facts) is None


class TestInterval:
    def test_join_equal_keeps_tightness(self):
        a = Interval(aff_const(0), aff_const(3), True)
        assert a.join(a, SymbolFacts()).tight

    def test_join_divergent_drops_tightness(self):
        a = Interval(aff_const(0), aff_const(3), True)
        b = Interval(aff_const(1), aff_const(9), True)
        j = a.join(b, SymbolFacts())
        assert not j.tight  # merged paths can no longer convict

    def test_widen_clears_changed_bounds(self):
        a = Interval(aff_const(0), aff_const(3), True)
        b = Interval(aff_const(0), aff_const(7), True)
        w = a.widen(b)
        assert w.lo == aff_const(0) and w.hi is None and not w.tight

    def test_arithmetic(self):
        a = Interval(aff_const(1), aff_const(4), True)
        assert a.shift(2).lo == aff_const(3)
        assert a.neg().hi == aff_const(-1)
        assert a.scale_const(-1).lo == aff_const(-4)


# ----------------------------------------------------------------------
# fail-closed edge cases: never certify what cannot be proven
# ----------------------------------------------------------------------

_EDGE_EXTENTS = {"out": "n"}


def _single_worker(body: str) -> str:
    return (
        "def run(pool, out, n):\n"
        f"{body}"
        "    pool.parallel_for(items, worker, label='edge')\n"
    )


class TestFailClosed:
    def _outcomes(self, src: str, extents=None):
        report = prove_source(src, extents=extents or _EDGE_EXTENTS)
        cert = report.certificates["<source>"]
        return cert, [f.code for f in report.findings]

    def test_empty_range_never_convicts(self):
        # range(5, 3) is empty: the store never executes, so flagging
        # it as a provable OOB would be wrong — must stay SAN502
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        for j in range(5, 3):\n"
            "            out[j + n] = 0.0\n"
        )
        cert, codes = self._outcomes(src)
        assert "SAN501" not in codes
        assert not cert.fully_proven

    def test_backward_range_step_is_top(self):
        # non-unit (negative) step: the iteration interval is unknown
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        for j in range(n, 0, -1):\n"
            "            out[j] = 0.0\n"
        )
        cert, codes = self._outcomes(src)
        assert "SAN501" not in codes
        assert "SAN502" in codes  # unproven, fail closed

    def test_unresolvable_symbolic_endpoint(self):
        # `limit` never resolves to anything the extents declare
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        for j in range(limit):\n"
            "            out[j] = 0.0\n"
        )
        cert, codes = self._outcomes(src)
        assert "SAN501" not in codes
        assert "SAN502" in codes
        assert cert.status == "certified"  # warnings don't block
        assert not cert.fully_proven

    def test_indptr_negative_extent_lookup_unresolved(self):
        # an extent expression the affine parser cannot read
        # (indptr[-1]) must yield "extent unresolved", not a proof
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        ctx.write(('out', int(i)))\n"
            "        out[i] = 0.0\n"
        )
        report = prove_source(src, extents={"out": "indptr[-1]"})
        cert = report.certificates["<source>"]
        assert not cert.fully_proven
        assert any(
            ob.outcome == "unproven" and "unresolved" in ob.reason
            for ob in cert.obligations
        )

    def test_tolist_of_unknown_receiver_is_top(self):
        # .tolist() is unwrapped, but `stuff` carries no value facts
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        for j in stuff.tolist():\n"
            "            out[j] = 0.0\n"
        )
        cert, codes = self._outcomes(src)
        assert "SAN501" not in codes
        assert "SAN502" in codes
        assert not cert.fully_proven

    def test_tolist_with_argument_is_top(self):
        # only the bare, argument-free call is a value-preserving view
        src = (
            "def run(pool, indptr, indices, settled, n):\n"
            "    def worker(v, ctx):  # prove: item in [0, n)\n"
            "        for u in indices[indptr[v] : indptr[v + 1]].tolist(1):\n"
            "            ctx.read(('settled', int(u)))\n"
            "    pool.parallel_for(front, worker, label='csr')\n"
        )
        report = prove_source(
            src,
            extents={"indptr": "n + 1", "indices": "2 * m", "settled": "n"},
        )
        cert = report.certificates["<source>"]
        assert not cert.fully_proven
        assert "SAN501" not in [f.code for f in report.findings]

    def test_unknown_item_domain_is_top(self):
        # no assumption comment, items expression opaque: item is top
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        out[i] = 0.0\n"
        )
        cert, codes = self._outcomes(src)
        assert "SAN501" not in codes
        assert "SAN502" in codes


# ----------------------------------------------------------------------
# proofs that must succeed
# ----------------------------------------------------------------------


class TestProofs:
    def test_range_loop_store_proves(self):
        src = _single_worker(
            "    def worker(i, ctx):\n"
            "        for j in range(n):\n"
            "            ctx.write(('out', int(j)))\n"
        )
        report = prove_source(src, extents=_EDGE_EXTENTS)
        cert = report.certificates["<source>"]
        assert cert.fully_proven
        assert "out" in cert.proven_arrays

    def test_csr_slice_idiom_proves(self):
        src = (
            "def run(pool, indptr, indices, settled, n):\n"
            "    def worker(v, ctx):  # prove: item in [0, n)\n"
            "        for u in indices[indptr[v] : indptr[v + 1]]:\n"
            "            ctx.read(('settled', int(u)))\n"
            "    pool.parallel_for(front, worker, label='csr')\n"
        )
        report = prove_source(
            src,
            extents={"indptr": "n + 1", "indices": "2 * m", "settled": "n"},
        )
        cert = report.certificates["<source>"]
        assert cert.fully_proven, [
            (o.outcome, o.index_repr, o.reason) for o in cert.obligations
        ]

    def test_csr_slice_tolist_proves(self):
        # the listified row carries the same CSR value facts as the
        # slice, and a listified item array the same item domain
        src = (
            "def run(pool, indptr, indices, settled, n):\n"
            "    def worker(v, ctx):  # prove: item in [0, n)\n"
            "        for u in indices[indptr[v] : indptr[v + 1]].tolist():\n"
            "            ctx.read(('settled', int(u)))\n"
            "            if settled[u]:\n"
            "                continue\n"
            "    pool.parallel_for(front, worker, label='csr')\n"
        )
        report = prove_source(
            src,
            extents={"indptr": "n + 1", "indices": "2 * m", "settled": "n"},
        )
        cert = report.certificates["<source>"]
        assert cert.fully_proven, [
            (o.outcome, o.index_repr, o.reason) for o in cert.obligations
        ]
        assert "settled" in cert.proven_arrays

    def test_bulk_row_ops_oblige_every_element(self):
        # ctx.read_row and AtomicArray.claim take an index list: each
        # element is an obligation, named by the comprehension's
        # element or as *seq
        src = (
            "def run(pool, indptr, indices, settled, n):\n"
            "    seen = AtomicArray(n, name='seen')\n"
            "    def worker(v, ctx):  # prove: item in [0, n)\n"
            "        ctx.read_row('settled', indices[indptr[v] : indptr[v + 1]].tolist())\n"
            "        seen.claim(ctx, [u for u in indices[indptr[v] : indptr[v + 1]] if u > v])\n"
            "        row = indices[indptr[v] : indptr[v + 1]].tolist()\n"
            "        ctx.read_row('settled', row)\n"
            "        ctx.read_row('settled', list(range(n + 1)))\n"
            "    pool.parallel_for(front, worker, label='csr')\n"
        )
        report = prove_source(
            src,
            extents={"indptr": "n + 1", "indices": "2 * m", "settled": "n"},
        )
        cert = report.certificates["<source>"]
        got = {
            (o.kind, o.array, o.index_repr): o.outcome
            for o in cert.obligations
        }
        csr_row = "*indices[indptr[v]:indptr[v + 1]].tolist()"
        assert got[("recorded", "settled", csr_row)] == "proven"
        assert got[("atomic", "seen", "u")] == "proven"
        assert got[("recorded", "settled", "*row")] == "unproven"
        assert got[("recorded", "settled", "*list(range(n + 1))")] == "violation"
        assert "SAN501" in [f.code for f in report.findings]

    def test_comprehension_target_ranges_over_its_iterable(self):
        # a comprehension's element and filters see its target bound
        # like a for-loop body; add_row obliges every element of its list
        src = (
            "def run(pool, indptr, indices, settled, core, n):\n"
            "    deg = AtomicArray(n, name='deg')\n"
            "    def worker(v, ctx):  # prove: item in [0, n)\n"
            "        deg.add_row(ctx, [u for u in indices[indptr[v] : indptr[v + 1]].tolist()\n"
            "                          if not settled[u]], -1, 0)\n"
            "        hot = [core[w] for w in range(n + 1)]\n"
            "        cold = [core[w] for w in unknown]\n"
            "    pool.parallel_for(front, worker, label='csr')\n"
        )
        report = prove_source(
            src,
            extents={
                "indptr": "n + 1", "indices": "2 * m", "settled": "n",
                "core": "n",
            },
        )
        cert = report.certificates["<source>"]
        got = {
            (o.kind, o.array, o.index_repr): o.outcome
            for o in cert.obligations
        }
        assert got[("load", "settled", "u")] == "proven"
        assert got[("atomic", "deg", "u")] == "proven"
        # range(n + 1) reaches n: convicted; an unknown iterable: unproven
        outcomes = {
            o.outcome for o in cert.obligations if o.array == "core"
        }
        assert outcomes == {"violation", "unproven"}

    def test_slice_worker_elements_range_over_the_marked_domain(self):
        # a parallel_slices worker's slice: iterating it, fancy-indexing
        # with it, its bulk ops and locals built from it all see the
        # marker's domain; a range slice's start/stop are bounded too
        src = (
            "def run(pool, graph, indptr, indices, core, n):\n"
            "    deg = AtomicArray(n, name='deg')\n"
            "    def worker(vs, ctx):\n"
            "        ctx.write_row('core', vs)\n"
            "        core[vs] = 0\n"
            "        hits = deg.load_le(ctx, vs, 3)\n"
            "        if len(vs) > 64:\n"
            "            nbrs, _ = graph.gather_rows(vs)\n"
            "        else:\n"
            "            nbrs = []\n"
            "            for v in vs:\n"
            "                nbrs += [u for u in indices[indptr[v] : indptr[v + 1]]]\n"
            "        deg.add_row(ctx, nbrs, -1, 0)\n"
            "    # prove: slice of [0, n)\n"
            "    pool.parallel_slices(front, worker, label='s')\n"
            "    def ranged(ps, ctx):\n"
            "        ctx.read_row('core', core[ps.start : ps.stop])\n"
            "        core[ps.stop] = 1\n"
            "    pool.parallel_slices(range(n), ranged, label='r')\n"
        )
        report = prove_source(
            src,
            extents={"indptr": "n + 1", "indices": "2 * m", "core": "n"},
        )
        cert = report.certificates["<source>"]
        got = {
            (o.kind, o.array, o.index_repr): o.outcome
            for o in cert.obligations
        }
        assert got[("recorded", "core", "*vs")] == "proven"
        assert got[("store", "core", "*vs")] == "proven"
        assert got[("atomic", "deg", "*vs")] == "proven"
        assert got[("atomic", "deg", "*nbrs")] == "proven"
        assert got[("load", "indptr", "v + 1")] == "proven"
        assert got[("slice", "core", "ps.start:ps.stop")] == "proven"
        # ps.stop reaches n: not provably in bounds
        assert got[("store", "core", "ps.stop")] != "proven"
        assert any("slice of [0, n)" in a for a in cert.assumptions)

    def test_slice_local_changed_in_place_gets_no_fact(self):
        # only =/+= assignments give a local its element fact: an
        # append, an element store or a loop rebinding may put an
        # out-of-range value in it
        src = (
            "def run(pool, n):\n"
            "    deg = AtomicArray(n, name='deg')\n"
            "    def worker(vs, ctx):\n"
            "        xs = [v for v in vs]\n"
            "        xs.append(n)\n"
            "        deg.add_row(ctx, xs, -1, 0)\n"
            "        ys = [v for v in vs]\n"
            "        ys[0] = n\n"
            "        deg.add_row(ctx, ys, -1, 0)\n"
            "        zs = [v for v in vs]\n"
            "        for zs in [[n]]:\n"
            "            pass\n"
            "        deg.add_row(ctx, zs, -1, 0)\n"
            "        ok = [v for v in vs]\n"
            "        deg.add_row(ctx, ok.copy(), -1, 0)\n"
            "        deg.add_row(ctx, ok, -1, 0)\n"
            "        core[xs] = 0\n"
            "        core[ok] = 0\n"
            "    # prove: slice of [0, n)\n"
            "    pool.parallel_slices(front, worker, label='s')\n"
        )
        report = prove_source(src, extents={"core": "n"})
        cert = report.certificates["<source>"]
        got = {
            (o.kind, o.array, o.index_repr): o.outcome
            for o in cert.obligations
        }
        for name in ("xs", "ys", "zs"):
            assert got[("atomic", "deg", f"*{name}")] == "unproven", name
        assert got[("atomic", "deg", "*ok")] == "proven"
        # fancy indexing by a local: by its elements only with a fact
        assert got[("store", "core", "xs")] == "unproven"
        assert got[("store", "core", "*ok")] == "proven"

    def test_assumption_is_recorded_not_convicting(self):
        src = (
            "def run(pool, out, n):\n"
            "    def worker(i, ctx):  # prove: item in [0, n)\n"
            "        ctx.write(('out', int(i)))\n"
            "    pool.parallel_for(items, worker, label='a')\n"
        )
        report = prove_source(src, extents=_EDGE_EXTENTS)
        cert = report.certificates["<source>"]
        assert cert.fully_proven
        assert any("item in [0, n)" in a for a in cert.assumptions)


# ----------------------------------------------------------------------
# in-tree certification + manifest
# ----------------------------------------------------------------------


class TestKernels:
    @pytest.fixture(scope="class")
    def report(self):
        return prove_kernels()

    def test_registry_coverage(self, report):
        assert set(report.certificates) == set(KERNELS)
        assert set(KERNEL_EXTENTS) == set(KERNELS)

    def test_at_least_ten_certified(self, report):
        assert len(report.certified) >= 10

    def test_no_provable_oob_in_tree(self, report):
        assert not [f for f in report.findings if f.code == "SAN501"]

    def test_pkc_fully_proven(self, report):
        cert = report.certificates["pkc"]
        assert cert.fully_proven
        assert cert.determinism == "commutative"
        assert "peel_deg" in cert.proven_arrays

    def test_float_reduction_flagged_order_sensitive(self, report):
        # tree_accumulate's float64 sink.add: bit-identity across
        # thread counts is *not* statically justified for these two
        for name in ("accumulate", "pbks"):
            assert report.certificates[name].status == "order-sensitive"
        codes = [f.code for f in report.findings]
        assert codes.count("SAN503") == 2

    def test_manifest_in_sync(self, report):
        assert DEFAULT_MANIFEST_PATH.exists()
        assert (
            manifest.drift(
                manifest_payload(report), DEFAULT_MANIFEST_PATH, "prove"
            )
            == []
        )

    def test_drift_detected_against_tampered_manifest(self, report, tmp_path):
        payload = json.loads(DEFAULT_MANIFEST_PATH.read_text())
        payload["kernels"]["pkc"]["determinism"] = "order-sensitive"
        del payload["kernels"]["vertex_rank"]
        tampered = tmp_path / "manifest.json"
        tampered.write_text(json.dumps(payload))
        drift = manifest.drift(manifest_payload(report), tampered, "prove")
        assert (
            "kernels.pkc.determinism: 'order-sensitive' -> 'commutative'"
            in drift
        )
        assert "kernels.vertex_rank: absent -> {...}" in drift

    def test_committed_bench_covers_manifest_kernels(self):
        # BENCH_analysis.json must be re-recorded whenever a kernel
        # joins (or leaves) the certified registry, or a protocol the
        # dist manifest
        bench = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "results" / "BENCH_analysis.json"
        )
        static = json.loads(bench.read_text())["static"]
        kernels = manifest.load(DEFAULT_MANIFEST_PATH)["kernels"]
        assert set(static["prove"]["kernel_names"]) == set(kernels)
        protocols = manifest.load(DEFAULT_DIST_MANIFEST_PATH)["protocols"]
        assert set(static["dist"]["protocol_names"]) == set(protocols)

    def test_missing_manifest_is_drift(self, report, tmp_path):
        drift = manifest.drift(
            manifest_payload(report), tmp_path / "absent.json", "prove"
        )
        assert drift and "missing" in drift[0]


def test_selftest_catches_planted_bugs():
    ok, message = prove_selftest()
    assert ok, message
    assert "SAN501" in message and "SAN503" in message


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCli:
    def test_prove_flag_exit_zero(self, sanitize_tree):
        assert sanitize_tree.rc == 0, sanitize_tree.out
        assert "SimProve" in sanitize_tree.out
        assert "fully-proven" in sanitize_tree.out
        assert "SAN503, 0 drift line(s)" in sanitize_tree.out

    def test_report_schema_key(self, sanitize_tree):
        data = sanitize_tree.report
        assert data["schema"] == "sanitize-report/v2"
        assert data["threads"] == 4
        assert data["prove"]["drift"] == []
        certs = data["prove"]["certificates"]
        assert certs["pkc"]["fully_proven"] is True


def test_committed_flow_baseline_not_stale():
    # SimFlow's one acknowledged finding is an inline marker: the
    # divide-and-conquer worker calls lcps_build_hcd with pool=None, so
    # its serial_region is dead; the marker must still swallow SAN401
    from repro.sanitizer.flow import analyze_paths

    path = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
    path = path / "divide_conquer.py"
    report = analyze_paths([path])
    assert report.findings == []
    ((hit_path, line),) = report.suppressed_hits
    assert hit_path == str(path)
    assert "lcps_build_hcd(" in path.read_text().splitlines()[line - 1]
