"""The ``repro sanitize`` driver: one configuration, composed paths.

Covers what the per-family tests do not: the SAN002 dead-marker audit,
``--write-manifest`` reproducing the three committed manifests, a
narrow analysis scope still checking every kernel's effects, SAN000
for source that is not UTF-8 in either half of the scope, the shared
manifest checker's absent-vs-unreadable distinction, the usage errors,
the committed analysis bench against the tree, and the package import
set of a runtime process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.sanitizer import KERNELS, dist, flow, manifest, prove

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_dead_marker_audit_gates_under_strict(sanitize_planted):
    marker = "# sani: ok - nothing on this line is ever flagged"
    run = sanitize_planted({"src/mod.py": f"x = 1  {marker}\n"})
    assert run.rc == 1
    assert "SAN002" in run.out
    assert "suppress  FAILED 1 dead suppression(s) [strict]" in run.out


def test_write_manifest_reproduces_committed_files(
    sanitize_planted, tmp_path, monkeypatch
):
    flow_path = tmp_path / "flow_manifest.json"
    prove_path = tmp_path / "prove_manifest.json"
    dist_path = tmp_path / "dist_manifest.json"
    monkeypatch.setattr(flow, "DEFAULT_FLOW_MANIFEST_PATH", flow_path)
    monkeypatch.setattr(prove, "DEFAULT_MANIFEST_PATH", prove_path)
    monkeypatch.setattr(dist, "DEFAULT_DIST_MANIFEST_PATH", dist_path)
    run = sanitize_planted({}, "--write-manifest")
    assert run.rc == 0, run.out
    for path in (flow_path, prove_path, dist_path):
        assert f"manifest refreshed: {path}" in run.out
    package = Path(prove.__file__).parent
    for path in (flow_path, prove_path, dist_path):
        assert path.read_bytes() == (package / path.name).read_bytes()


def test_path_scoped_flow_run_has_no_stale_entries(sanitize_planted):
    # a narrow scope narrows the analyzed files, not the effect check:
    # every kernel is still inferred and compared with the manifest
    run = sanitize_planted({"src/ok.py": "x = 1\n"})
    assert run.rc == 0, run.out
    assert f"effects over {len(KERNELS)} kernel(s), 0 drift line(s)" in run.out
    assert run.report["flow"]["files"] == 1


@pytest.mark.parametrize("benchmarks", [False, True])
def test_non_utf8_source_is_san000(sanitize_planted, capsys, benchmarks):
    # both halves of the scope are linted
    where = "benchmarks" if benchmarks else "src"
    run = sanitize_planted(
        {
            f"{where}/ok.py": "x = 1\n",
            f"{where}/latin1.py": b"name = '\xe9t\xe9'\n",
        }
    )
    assert run.rc == 1
    assert "Traceback" not in capsys.readouterr().err
    san000 = f"{where}/latin1.py:0:0 SAN000 [error] cannot decode source"
    assert san000 in run.out
    assert run.report["families"]["lint"]["failures"] == 1


@pytest.mark.parametrize(
    "family, committed",
    [
        ("flow", flow.DEFAULT_FLOW_MANIFEST_PATH),
        ("prove", prove.DEFAULT_MANIFEST_PATH),
        ("dist", dist.DEFAULT_DIST_MANIFEST_PATH),
    ],
    ids=["flow", "prove", "dist"],
)
def test_corrupt_manifest_is_not_missing(tmp_path, family, committed):
    truncated = tmp_path / committed.name
    truncated.write_bytes(committed.read_bytes()[:100])
    (line,) = manifest.drift({}, truncated, family)
    assert line.startswith(f"{family} manifest unreadable: ")
    assert "`repro sanitize --write-manifest`" in line
    (line,) = manifest.drift({}, tmp_path / "absent.json", family)
    assert line.startswith(f"{family} manifest missing")
    with pytest.raises(ValueError, match="unreadable"):
        manifest.load(truncated)
    assert manifest.load(tmp_path / "absent.json") is None


def test_missing_report_directory_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    import repro.sanitizer

    def no_work(*args, **kwargs):
        raise AssertionError("a kernel ran before the usage check")

    monkeypatch.setattr(repro.sanitizer, "run_kernel", no_work)
    out = tmp_path / "missing" / "report.json"
    assert cli_main(["sanitize", "--report", str(out)]) == 2
    assert f"no such directory for --report {out}" in capsys.readouterr().err


def test_nothing_to_analyze_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    # neither src/ nor benchmarks/ in the working directory: a usage
    # error, not a clean report over an empty static scope
    import repro.sanitizer

    def no_work(*args, **kwargs):
        raise AssertionError("a kernel ran before the usage check")

    monkeypatch.setattr(repro.sanitizer, "run_kernel", no_work)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sanitize"]) == 2
    err = capsys.readouterr().err
    assert "nothing to analyze" in err
    assert str(tmp_path.resolve()) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--all-kernels"],
        ["--kernel", "pkc"],
        ["--lint", "src"],
        ["--selftest"],
        ["--memcheck"],
        ["--flow"],
        ["--prove"],
        ["--dist"],
        ["--strict"],
        ["--list"],
        ["--threads", "4"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_removed_options_are_usage_errors(argv, monkeypatch, capsys):
    import repro.sanitizer

    def no_work(*args, **kwargs):
        raise AssertionError("a kernel ran before the usage check")

    monkeypatch.setattr(repro.sanitizer, "run_kernel", no_work)
    with pytest.raises(SystemExit) as exc:
        cli_main(["sanitize", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_committed_bench_coverage_matches_tree(monkeypatch):
    # benchmarks/results/BENCH_analysis.json records what each static
    # pass covers; re-record it (benchmarks/bench_analysis.py) whenever
    # the tree moves a count
    static = json.loads(
        (ROOT / "benchmarks" / "results" / "BENCH_analysis.json").read_text()
    )["static"]
    monkeypatch.chdir(ROOT)
    paths = flow.analyze_paths(["src", "benchmarks"])
    effects = flow.infer_kernel_effects()
    proved = prove.prove_kernels()
    certified = dist.analyze_dist()
    recorded = {
        stage: {k: v for k, v in rec.items() if isinstance(v, (int, list))}
        for stage, rec in static.items()
        if stage in ("flow_paths", "flow_effects", "prove", "dist")
    }
    for rec in recorded.values():
        rec.pop("drift_lines", None)
    assert recorded == {
        "flow_paths": {
            "files": paths.files,
            "workers": paths.workers,
            "findings": len(paths.findings),
            "verified_disjoint": len(paths.verified),
        },
        "flow_effects": {"kernels": len(effects)},
        "prove": {
            "kernel_names": sorted(proved.certificates),
            "certified": len(proved.certified),
            "fully_proven": sorted(
                n for n, c in proved.certificates.items() if c.fully_proven
            ),
            "obligations": sum(
                len(c.obligations) for c in proved.certificates.values()
            ),
            "san501": sum(f.code == "SAN501" for f in proved.findings),
        },
        "dist": {
            "protocol_names": sorted(certified.certificates),
            "certified": len(certified.certified),
            "cluster_kernels": sorted(
                k for k in KERNELS if k.startswith("cluster")
            ),
            "obligations": sum(
                len(c.obligations) for c in certified.certificates.values()
            ),
            "send_sites": sum(
                len(c.sends) for c in certified.certificates.values()
            ),
            "findings": len(certified.findings),
        },
    }


@pytest.mark.parametrize(
    "module", [flow, prove, dist], ids=lambda m: m.__name__
)
def test_planted_selftest_cannot_pass_vacuously(module, monkeypatch):
    # the shared checker must fail a family whose planted case names
    # the wrong line, whose planted source is already the fix, or
    # whose fix still carries the bug
    family = module.__name__.rsplit(".", 1)[-1]
    selftest = getattr(module, f"{family}_selftest")
    planted = module._PLANTED
    assert selftest()[0]
    for i, case in enumerate(planted):
        broken = [case._replace(line=case.line + 1)]
        if case.fixed is not None:
            broken.append(case._replace(source=case.fixed))
            broken.append(case._replace(fixed=case.source))
        for bad in broken:
            cases = planted[:i] + (bad,) + planted[i + 1 :]
            monkeypatch.setattr(module, "_PLANTED", cases)
            ok, message = selftest()
            assert not ok, message


def test_runtime_import_skips_static_analyzers():
    code = (
        "import json, sys, repro.pipeline\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro.')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "repro.sanitizer.memcheck" in loaded
    for name in ("flow", "prove", "dist", "intervals", "manifest"):
        assert f"repro.sanitizer.{name}" not in loaded
