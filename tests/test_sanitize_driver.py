"""The ``repro sanitize`` driver: shared steps and composed paths.

Covers the paths single-family runs never reach: the SAN002
dead-marker audit (lint + flow + full prove together),
``--write-manifest`` reproducing the three committed manifests, a
path-scoped flow run still checking every kernel's effects, SAN000
for source that is not UTF-8, the shared manifest checker's
absent-vs-unreadable distinction, and the package import set of a
runtime process.
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

SRC = Path(__file__).resolve().parents[1] / "src"


def test_dead_marker_audit_gates_under_strict(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "x = 1  # sani: ok - nothing on this line is ever flagged\n"
    )
    rc = cli_main(
        ["sanitize", "--strict", "--lint", str(tmp_path), "--flow", "--prove"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "SAN002" in out
    assert "suppress  FAILED 1 dead suppression(s) [strict]" in out


def test_write_manifest_reproduces_committed_files(
    tmp_path, monkeypatch, capsys
):
    flow_path = tmp_path / "flow_manifest.json"
    prove_path = tmp_path / "prove_manifest.json"
    dist_path = tmp_path / "dist_manifest.json"
    monkeypatch.setattr(flow, "DEFAULT_FLOW_MANIFEST_PATH", flow_path)
    monkeypatch.setattr(prove, "DEFAULT_MANIFEST_PATH", prove_path)
    monkeypatch.setattr(dist, "DEFAULT_DIST_MANIFEST_PATH", dist_path)
    # a kernel subset must not shrink the refreshed flow manifest
    assert cli_main(["sanitize", "--kernel", "pkc", "--write-manifest"]) == 0
    out = capsys.readouterr().out
    for path in (flow_path, prove_path, dist_path):
        assert f"manifest refreshed: {path}" in out
    package = Path(prove.__file__).parent
    for path in (flow_path, prove_path, dist_path):
        assert path.read_bytes() == (package / path.name).read_bytes()


def test_path_scoped_flow_run_has_no_stale_entries(capsys):
    # the path scope narrows the analyzed files, not the effect check:
    # every kernel is still inferred and compared with the manifest
    rc = cli_main(
        [
            "sanitize",
            "--strict",
            "--flow",
            "--lint",
            str(SRC / "repro" / "search"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert f"effects over {len(KERNELS)} kernel(s), 0 drift line(s)" in out


@pytest.mark.parametrize("flow", [False, True])
def test_non_utf8_source_is_san000(tmp_path, capsys, flow):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
    argv = ["sanitize", "--lint", str(tmp_path)]
    rc = cli_main(argv + ["--flow"] if flow else argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    assert "latin1.py:0:0 SAN000 [error] cannot decode source" in captured.out


@pytest.mark.parametrize(
    "flag, committed",
    [
        ("--flow", flow.DEFAULT_FLOW_MANIFEST_PATH),
        ("--prove", prove.DEFAULT_MANIFEST_PATH),
        ("--dist", dist.DEFAULT_DIST_MANIFEST_PATH),
    ],
    ids=["flow", "prove", "dist"],
)
def test_corrupt_manifest_is_not_missing(tmp_path, flag, committed):
    name = flag.lstrip("-")
    truncated = tmp_path / committed.name
    truncated.write_bytes(committed.read_bytes()[:100])
    (line,) = manifest.drift({}, truncated, flag)
    assert line.startswith(f"{name} manifest unreadable: ")
    assert f"`repro sanitize {flag} --write-manifest`" in line
    (line,) = manifest.drift({}, tmp_path / "absent.json", flag)
    assert line.startswith(f"{name} manifest missing")
    with pytest.raises(ValueError, match="unreadable"):
        manifest.load(truncated)
    assert manifest.load(tmp_path / "absent.json") is None


def test_missing_report_directory_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys
):
    import repro.sanitizer

    def no_work(*args, **kwargs):
        raise AssertionError("linted before the usage check")

    monkeypatch.setattr(repro.sanitizer, "lint_paths", no_work)
    out = tmp_path / "missing" / "report.json"
    lint = str(SRC / "repro" / "errors.py")
    assert cli_main(["sanitize", "--lint", lint, "--report", str(out)]) == 2
    assert f"no such directory for --report {out}" in capsys.readouterr().err


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
