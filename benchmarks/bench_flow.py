"""SimFlow analysis bench — starts the ``BENCH_flow.json`` trajectory.

Times the three SAN4xx stages separately over the repo's own trees:

* **path analysis** — per-worker CFG construction, divergent-sync
  taint, and disjoint-write interval proofs over ``src/`` and
  ``benchmarks/``;
* **effect inference** — the call-graph walk from every registered
  kernel to its reachable workers, plus the drift check of the
  inferred signatures against the committed ``flow_manifest.json``;
* **selftest** — the seeded-bug round trip (two planted SAN4xx bugs
  plus a fixed variant that must verify).

Wall-clock is best-of-N; finding/verified/worker counts ride along so
a future PR that silently loses coverage (fewer workers analyzed,
fewer verified-disjoint sites) shows up as a count regression, not
just a speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_flow.py

Writes ``benchmarks/results/BENCH_flow.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import emit, paper_table, results_dir  # noqa: E402
from repro.sanitizer import manifest  # noqa: E402
from repro.sanitizer.flow import (  # noqa: E402
    DEFAULT_FLOW_MANIFEST_PATH,
    analyze_paths,
    flow_manifest_payload,
    flow_selftest,
    infer_kernel_effects,
)

REPEATS = 3
PATHS = [p for p in ("src", "benchmarks") if Path(p).exists()]


def _timed(fn):
    """(result, best-of-N wall seconds) for one stage."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return result, best


def _effects_drift() -> tuple[dict, list[str]]:
    """Inferred signatures of every kernel and their manifest drift."""
    effects = infer_kernel_effects()
    payload = flow_manifest_payload(effects)
    return effects, manifest.drift(payload, DEFAULT_FLOW_MANIFEST_PATH, "--flow")


def run() -> dict:
    report, wall_paths = _timed(lambda: analyze_paths(list(PATHS)))
    (effects, drift), wall_effects = _timed(_effects_drift)
    (ok, _message), wall_selftest = _timed(flow_selftest)
    assert ok, "flow selftest must pass under the bench"
    return {
        "bench": "flow_analysis",
        "repeats": REPEATS,
        "paths": list(PATHS),
        "stages": {
            "paths": {
                "wall_s": wall_paths,
                "files": report.files,
                "workers": report.workers,
                "findings": len(report.findings),
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "verified_disjoint": len(report.verified),
            },
            "effects": {
                "wall_s": wall_effects,
                "kernels": len(effects),
                "drift_lines": len(drift),
            },
            "selftest": {
                "wall_s": wall_selftest,
                "ok": ok,
            },
        },
    }


def main() -> int:
    payload = run()
    out = results_dir() / "BENCH_flow.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    s = payload["stages"]
    rows = [
        [
            "paths",
            f"{s['paths']['wall_s'] * 1e3:.1f}",
            f"{s['paths']['files']} files / {s['paths']['workers']} workers",
            f"{s['paths']['findings']} finding(s), "
            f"{s['paths']['verified_disjoint']} verified",
        ],
        [
            "effects",
            f"{s['effects']['wall_s'] * 1e3:.1f}",
            f"{s['effects']['kernels']} kernels",
            f"{s['effects']['drift_lines']} drift line(s)",
        ],
        [
            "selftest",
            f"{s['selftest']['wall_s'] * 1e3:.1f}",
            "2 seeded bugs + 1 fixed variant",
            "ok" if s["selftest"]["ok"] else "FAILED",
        ],
    ]
    emit(
        "bench_flow",
        paper_table(
            ["stage", "wall (ms)", "scope", "outcome"],
            rows,
            title="SimFlow SAN4xx analysis wall-time"
            f" (best of {REPEATS})",
        ),
    )
    print(f"wrote {out}")
    return 0


def test_bench_flow():
    """Pytest entry: analysis covers the tree and stays drift-free."""
    payload = run()
    s = payload["stages"]
    assert s["paths"]["workers"] > 0
    assert s["paths"]["findings"] == 0
    assert s["paths"]["verified_disjoint"] >= 3
    assert s["effects"]["drift_lines"] == 0
    assert s["selftest"]["ok"]


if __name__ == "__main__":
    sys.exit(main())
