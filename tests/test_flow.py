"""SimFlow (SAN4xx) and sanitize-CLI surface tests.

Covers the CFG substrate, divergent-sync taint analysis, the
disjoint-write interval prover (verification, SAN403, and SAN201
downgrades), kernel effect signatures against the committed
``flow_manifest.json``, the SAN001 suppression-hygiene lint, and the
``repro sanitize`` exit-code contract for flow and lint findings
(errors, gating warnings, SAN201 downgrades).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.sanitizer import flow, manifest
from repro.sanitizer.cfg import build_cfg
from repro.sanitizer.flow import (
    DEFAULT_FLOW_MANIFEST_PATH,
    FlowAnalyzer,
    ModuleIndex,
    FLOW_MANIFEST_SCHEMA,
    analyze_source,
    flow_selftest,
    infer_kernel_effects,
)
from repro.sanitizer.lint import lint_source


def _fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in source")


# ======================================================================
# CFG
# ======================================================================


class TestCFG:
    def test_straight_line_single_block(self):
        cfg = build_cfg(_fn("def f():\n    a = 1\n    b = 2\n"))
        branchy = [b for b in cfg.blocks if b.is_branch]
        assert not branchy

    def test_if_creates_branch_and_join(self):
        cfg = build_cfg(
            _fn("def f(x):\n    if x:\n        a = 1\n    b = 2\n")
        )
        assert any(b.is_branch and b.kind == "if" for b in cfg.blocks)

    def test_early_return_makes_tail_control_dependent(self):
        # after `if x: return`, the tail does NOT postdominate the
        # branch, so it must be control-dependent on it
        cfg = build_cfg(
            _fn(
                "def f(x, pool):\n"
                "    if x:\n"
                "        return\n"
                "    pool.phase('p')\n"
            )
        )
        cd = cfg.transitive_control_dependence()
        branch = next(b.bid for b in cfg.blocks if b.kind == "if")
        tail = next(
            b.bid
            for b in cfg.blocks
            if any(isinstance(s, ast.Expr) for s in b.stmts)
        )
        assert branch in cd[tail]

    def test_plain_if_body_dependent_tail_not(self):
        cfg = build_cfg(
            _fn(
                "def f(x, pool):\n"
                "    if x:\n"
                "        a = 1\n"
                "    pool.phase('p')\n"
            )
        )
        cd = cfg.transitive_control_dependence()
        branch = next(b.bid for b in cfg.blocks if b.kind == "if")
        tail = next(
            b.bid
            for b in cfg.blocks
            if any(isinstance(s, ast.Expr) for s in b.stmts)
        )
        assert branch not in cd[tail]

    def test_while_true_dead_end_terminates(self):
        cfg = build_cfg(
            _fn("def f():\n    while True:\n        a = 1\n")
        )
        # postdominator fixpoint must settle despite no path to exit
        pdom = cfg.postdominators()
        assert len(pdom) == len(cfg.blocks)

    def test_loop_body_control_dependent_on_header(self):
        cfg = build_cfg(
            _fn(
                "def f(n, pool):\n"
                "    for i in range(n):\n"
                "        pool.phase('p')\n"
            )
        )
        cd = cfg.transitive_control_dependence()
        header = next(b.bid for b in cfg.blocks if b.kind == "for")
        body = next(
            b.bid
            for b in cfg.blocks
            if any(isinstance(s, ast.Expr) for s in b.stmts)
        )
        assert header in cd[body]


# ======================================================================
# divergent sync (SAN401 / SAN402)
# ======================================================================


DIVERGENT_BRANCH = """
def run(pool, items):
    def worker(v, ctx):
        if ctx.thread_id == 0:
            pool.phase("reduce")
    pool.parallel_for(items, worker)
"""

DIVERGENT_EARLY_RETURN = """
def run(pool, items, skip):
    def worker(v, ctx):
        if skip[v]:
            return
        pool.serial_region("merge")
    pool.parallel_for(items, worker)
"""

DIVERGENT_LOOP = """
def run(pool, items, deg):
    def worker(v, ctx):
        for _ in range(deg[v]):
            pool.phase("step")
    pool.parallel_for(items, worker)
"""

UNIFORM_NESTED = """
def run(pool, items, n):
    def worker(v, ctx):
        pool.parallel_for(range(n), lambda i, c: c.charge(1))
    pool.parallel_for(items, worker)
"""

CLEAN_WORKER = """
def run(pool, items, out):
    def worker(v, ctx):
        ctx.write(("out", int(v)))
        out[v] = v * 2
    pool.parallel_for(items, worker)
"""

DIVERGENT_ATOMIC = """
def run(pool, items, counter, flag):
    def worker(v, ctx):
        if ctx.thread_id % 2:
            ctx.atomic(("lock", 0), 1)
    pool.parallel_for(items, worker)
"""

RELAXED_ATOMIC_OK = """
def run(pool, items, counter):
    def worker(v, ctx):
        if ctx.thread_id % 2:
            ctx.atomic(("sum", 0), 1, contended=False)
    pool.parallel_for(items, worker)
"""

VARIANT_LOCATION_ATOMIC_OK = """
def run(pool, items, counter):
    def worker(v, ctx):
        if v > 3:
            ctx.atomic(("slot", v), 1)
    pool.parallel_for(items, worker)
"""

INTERPROCEDURAL = """
def helper(pool, flag):
    if flag:
        pool.phase("inner")

def run(pool, items):
    def worker(v, ctx):
        helper(pool, ctx.thread_id == 0)
    pool.parallel_for(items, worker)
"""

#: a thread-gated nested region in a helper defined beside the worker
LOCAL_HELPER = """
def run(pool, items):
    def helper(ctx):
        if ctx.thread_id == 0:
            pool.parallel_for(range(4), lambda i, c: c.charge(1))
    def worker(v, ctx):
        ctx.charge(1)
        helper(ctx)
    pool.parallel_for(items, worker)
"""


class TestDivergentSync:
    def codes(self, source: str) -> list[tuple[str, str]]:
        rep = analyze_source(source, "mod_under_test.py")
        return [(f.code, f.severity) for f in rep.findings]

    def test_variant_branch_is_san401_error(self):
        assert ("SAN401", "error") in self.codes(DIVERGENT_BRANCH)

    def test_early_return_divergence_caught(self):
        # the sync op is written at the top level of the worker; only
        # control dependence (not nesting) sees the divergence
        assert ("SAN401", "error") in self.codes(DIVERGENT_EARLY_RETURN)

    def test_variant_loop_is_san402_error(self):
        assert ("SAN402", "error") in self.codes(DIVERGENT_LOOP)

    def test_uniform_nested_region_is_san402_warning(self):
        codes = self.codes(UNIFORM_NESTED)
        assert ("SAN402", "warning") in codes
        assert ("SAN401", "error") not in codes

    def test_clean_worker_no_findings(self):
        assert self.codes(CLEAN_WORKER) == []

    def test_contended_uniform_atomic_under_variance_flagged(self):
        assert ("SAN402", "error") in self.codes(DIVERGENT_ATOMIC)

    def test_relaxed_atomic_exempt(self):
        assert self.codes(RELAXED_ATOMIC_OK) == []

    def test_variant_location_atomic_exempt(self):
        assert self.codes(VARIANT_LOCATION_ATOMIC_OK) == []

    def test_interprocedural_divergence_attributed_to_call_site(self):
        rep = analyze_source(INTERPROCEDURAL, "mod_under_test.py")
        hits = [f for f in rep.findings if f.code == "SAN401"]
        assert hits, [str(f) for f in rep.findings]
        assert "helper" in hits[0].message
        # attributed at the worker's call line, in the worker's file
        assert hits[0].line == 8

    @pytest.mark.parametrize("nested", [False, True])
    def test_local_helper_resolved_in_innermost_scope(self, nested):
        # the worker's calls resolve in the innermost enclosing
        # function, so the helper is reached one function deeper too
        source = LOCAL_HELPER
        if nested:
            body = "".join(f"    {line}\n" for line in source.splitlines())
            source = f"def outer(pool, items):{body}    run(pool, items)\n"
        rep = analyze_source(source, "mod_under_test.py")
        assert [f.code for f in rep.findings] == ["SAN401"]

    def test_suppression_comment_silences(self):
        src = DIVERGENT_BRANCH.replace(
            'pool.phase("reduce")',
            'pool.phase("reduce")  # sani: ok - selftest scaffolding',
        )
        rep = analyze_source(src, "mod_under_test.py")
        assert not rep.findings


# ======================================================================
# disjoint writes (SAN403 / verified)
# ======================================================================


CHUNK_SAFE = """
def run(pool, out, chunks):
    def worker(chunk, ctx):
        start, end = chunk
        for i in range(start, end):
            out[i] = i
    pool.parallel_for(chunks, worker)
"""

CHUNK_OFF_BY_ONE = """
def run(pool, out, chunks):
    def worker(chunk, ctx):
        start, end = chunk
        for i in range(start, end):
            out[i + 1] = i
    pool.parallel_for(chunks, worker)
"""

CHUNK_STORE_AT_END = """
def run(pool, out, chunks):
    def worker(chunk, ctx):
        start, end = chunk
        out[end] = 1
    pool.parallel_for(chunks, worker)
"""

PER_ITEM_STRIDED = """
def run(pool, out, items):
    def worker(v, ctx):
        out[2 * v] = 1.0
        out[2 * v + 1] = 2.0
    pool.parallel_for(items, worker)
"""

PER_ITEM_FOLD = """
def run(pool, out, n):
    def worker(v, ctx):
        out[v % 4] = v
    pool.parallel_for(range(n), worker)
"""

SLICE_STORE = """
def run(pool, out, n):
    def worker(vs, ctx):
        out[vs.start : vs.stop{end}] = 1
    pool.parallel_slices(range(n), worker)
"""

PER_ITEM_UNPROVEN = """
def run(pool, out, items, perm):
    def worker(v, ctx):
        out[perm[v]] = v
    pool.parallel_for(items, worker)
"""


class TestDisjointWrites:
    def test_chunk_loop_verified(self):
        rep = analyze_source(CHUNK_SAFE, "m.py")
        assert not rep.findings
        assert [v.mode for v in rep.verified] == ["chunk"]

    def test_cross_chunk_off_by_one_is_san403(self):
        rep = analyze_source(CHUNK_OFF_BY_ONE, "m.py")
        assert [f.code for f in rep.findings] == ["SAN403"]
        assert rep.findings[0].severity == "error"
        assert not rep.verified

    def test_store_at_exclusive_end_is_san403(self):
        rep = analyze_source(CHUNK_STORE_AT_END, "m.py")
        assert [f.code for f in rep.findings] == ["SAN403"]

    def test_strided_per_item_verified(self):
        rep = analyze_source(PER_ITEM_STRIDED, "m.py")
        assert not rep.findings
        assert len(rep.verified) == 2
        assert all(v.mode == "per-item" for v in rep.verified)

    def test_modulo_fold_over_range_items_is_san403(self):
        rep = analyze_source(PER_ITEM_FOLD, "m.py")
        assert [f.code for f in rep.findings] == ["SAN403"]

    def test_slice_store_inside_owned_range_verified(self):
        rep = analyze_source(SLICE_STORE.format(end=""), "m.py")
        assert not rep.findings
        assert [v.mode for v in rep.verified] == ["chunk"]

    def test_slice_store_past_owned_range_is_san403(self):
        rep = analyze_source(SLICE_STORE.format(end=" + 1"), "m.py")
        assert [f.code for f in rep.findings] == ["SAN403"]
        assert not rep.verified

    def test_data_dependent_index_unproven_not_flagged(self):
        rep = analyze_source(PER_ITEM_UNPROVEN, "m.py")
        assert not rep.findings
        assert not rep.verified

    def test_repo_src_has_at_least_three_verified_sites(self):
        # the acceptance bar: the interval prover must verify >= 3
        # SAN201-pattern stores across the repo's own kernels
        analyzer = FlowAnalyzer()
        rep = analyzer.analyze_paths(["src"])
        assert len(rep.verified) >= 3
        assert {v.path.rsplit("/", 1)[-1] for v in rep.verified} >= {
            "pkc.py",
            "preprocessing.py",
            "partition.py",
        }

    def test_verified_sites_cover_lint_findings(self):
        # per-item: the lint's SAN201 line must be a verified site;
        # chunk idiom: the lint's SAN101 (it cannot see through the
        # unpack) must be refuted by the prover at the same line
        per_item = (
            "def run(pool, out, items):\n"
            "    def worker(v, ctx):\n"
            "        out[v] = v\n"
            "    pool.parallel_for(items, worker)\n"
        )
        lint = [
            f for f in lint_source(per_item, "m.py") if f.code == "SAN201"
        ]
        assert lint, "expected a SAN201 to downgrade"
        verified = analyze_source(per_item, "m.py").verified_lines()
        assert all(("m.py", f.line) in verified for f in lint)

        lint = [
            f for f in lint_source(CHUNK_SAFE, "m.py") if f.code == "SAN101"
        ]
        assert lint, "expected a SAN101 at the chunk-loop store"
        verified = analyze_source(CHUNK_SAFE, "m.py").verified_lines()
        assert all(("m.py", f.line) in verified for f in lint)


# ======================================================================
# effect signatures + the committed flow manifest
# ======================================================================


def _committed_copy(tmp_path, kernel: str, category: str, edit) -> Path:
    """The committed flow manifest with one kernel's category list
    replaced by ``edit(list)``, written under ``tmp_path``."""
    committed = json.loads(DEFAULT_FLOW_MANIFEST_PATH.read_text())
    entry = committed["kernels"][kernel]
    entry[category] = edit(entry[category])
    return manifest.write(committed, tmp_path / "flow_manifest.json")


class TestEffects:
    def test_all_registered_kernels_inferred(self):
        from repro.sanitizer.kernels import KERNELS

        inferred = infer_kernel_effects()
        assert set(inferred) == set(KERNELS)

    def test_declared_matches_inferred_zero_drift(self):
        # the committed manifest is the declared record of every
        # kernel's effects; a full inference must reproduce it
        payload = manifest.payload(
            FLOW_MANIFEST_SCHEMA, kernels=infer_kernel_effects()
        )
        committed = DEFAULT_FLOW_MANIFEST_PATH
        assert manifest.drift(payload, committed, "flow") == []

    def test_pkc_signature_content(self):
        sig = infer_kernel_effects(["pkc"])["pkc"]
        assert "coreness" in sig.writes
        assert "degree" in sig.atomics
        assert "indptr" in sig.reads

    def test_undeclared_effect_is_drift(self, tmp_path):
        committed = _committed_copy(
            tmp_path, "pkc", "writes", lambda names: names[1:]
        )
        payload = manifest.payload(
            FLOW_MANIFEST_SCHEMA, kernels=infer_kernel_effects()
        )
        lines = manifest.drift(payload, committed, "flow")
        assert len(lines) == 1
        assert lines[0].startswith("kernels.pkc.writes: ")

    def test_stale_declaration_is_drift(self, tmp_path):
        committed = _committed_copy(
            tmp_path, "pkc", "reads", lambda names: names + ["ghost_array"]
        )
        payload = manifest.payload(
            FLOW_MANIFEST_SCHEMA, kernels=infer_kernel_effects()
        )
        lines = manifest.drift(payload, committed, "flow")
        assert len(lines) == 1
        assert lines[0].startswith("kernels.pkc.reads: ")
        assert "ghost_array" in lines[0]

    def test_changed_effect_fails_the_run(
        self, sanitize_planted, tmp_path, monkeypatch
    ):
        committed = _committed_copy(
            tmp_path, "phcd", "writes", lambda names: names[1:]
        )
        monkeypatch.setattr(flow, "DEFAULT_FLOW_MANIFEST_PATH", committed)
        run = sanitize_planted({})
        assert run.rc == 1
        assert "manifest drift: kernels.phcd.writes: " in run.out
        assert run.report["families"]["flow"]["failures"] == 1


# ======================================================================
# seeded-bug selftest
# ======================================================================


class TestSelftest:
    def test_flow_selftest_catches_both_seeded_bugs(self):
        ok, message = flow_selftest()
        assert ok, message
        assert "SAN401" in message and "SAN403" in message


# ======================================================================
# SAN001 suppression hygiene
# ======================================================================


class TestSuppressionHygiene:
    def test_bare_marker_warns(self):
        findings = lint_source("x = 1  # sani: ok\n", "m.py")
        assert [(f.code, f.severity) for f in findings] == [
            ("SAN001", "warning")
        ]

    def test_reasoned_marker_clean(self):
        assert not lint_source("x = 1  # sani: ok - scatter proof\n", "m.py")

    def test_marker_with_dash_but_no_reason_warns(self):
        findings = lint_source("x = 1  # sani: ok -\n", "m.py")
        assert [f.code for f in findings] == ["SAN001"]

    def test_marker_inside_string_ignored(self):
        assert not lint_source('M = "# sani: ok"\n', "m.py")

    def test_bare_marker_cannot_suppress_itself(self):
        # the marker line is in the suppressed set, but SAN001 must
        # still fire for it
        findings = lint_source("y = 2  # sani: ok\n", "m.py")
        assert findings


# ======================================================================
# CLI surface
# ======================================================================


class TestSanitizeCLI:
    def test_strict_promotes_lint_warnings(self, sanitize_planted):
        run = sanitize_planted({"src/warny.py": "x = 1  # sani: ok\n"})
        assert run.rc == 1
        assert "lint      FAILED 0 error(s), 1 warning(s) [strict]" in run.out

    def test_flow_clean_repo_exits_0(self, sanitize_tree):
        assert sanitize_tree.rc == 0, sanitize_tree.out
        assert "== flow (src, benchmarks) ==" in sanitize_tree.out
        assert "verified-disjoint" in sanitize_tree.out

    def test_flow_error_exits_1(self, sanitize_planted):
        run = sanitize_planted(
            {
                "src/bad_flow.py": "def run(pool, out, chunks):\n"
                "    def worker(chunk, ctx):\n"
                "        start, end = chunk\n"
                "        ctx.write(('out', int(start)))\n"
                "        for i in range(start, end):\n"
                "            out[i + 1] = i\n"
                "    pool.parallel_for(chunks, worker)\n"
            }
        )
        assert run.rc == 1
        assert "SAN403" in run.out
        assert run.report["families"]["flow"]["failures"] >= 1

    def test_flow_warning_promoted_under_strict(self, sanitize_planted):
        run = sanitize_planted(
            {
                "src/nested.py": "def run(pool, items, n):\n"
                "    def worker(v, ctx):\n"
                "        ctx.charge(1)\n"
                "        pool.parallel_for(range(n),"
                " lambda i, c: c.charge(1))\n"
                "    pool.parallel_for(items, worker)\n"
            }
        )
        assert run.rc == 1
        assert "flow      FAILED 0 error(s), 1 warning(s)" in run.out

    def test_flow_downgrades_san201_in_lint_family(self, sanitize_planted):
        # bare item-indexed store, no ctx record: SAN201 without flow,
        # downgraded (and annotated) because the prover verified it
        run = sanitize_planted(
            {
                "src/plain.py": "def run(pool, out, items):\n"
                "    def worker(v, ctx):\n"
                "        out[v] = v\n"
                "    pool.parallel_for(items, worker)\n"
            }
        )
        # SAN202 (no ctx call) still stands, so the run fails — but the
        # SAN201 must show as downgraded, not as an active warning
        assert "[downgraded: verified-disjoint]" in run.out
        assert [f.split()[1] for f in run.report["lint_downgraded"]] == [
            "SAN201"
        ]
        assert run.rc == 1

    def test_report_json_includes_flow_section(self, sanitize_tree):
        data = sanitize_tree.report
        assert data["flow"]["effects"]
        assert data["flow"]["drift"] == []
        assert data["flow"]["verified_disjoint"]
