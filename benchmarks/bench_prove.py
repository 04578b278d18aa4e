"""SimProve bench — the ``BENCH_prove.json`` trajectory.

One stage, **prove**: wall time of the full SAN5xx certification pass
over the kernel registry (fixpoint interval proofs + determinism
classification + manifest payload), with certified / fully-proven /
obligation counts riding along as coverage guards.

Usage::

    PYTHONPATH=src python benchmarks/bench_prove.py

Writes ``benchmarks/results/BENCH_prove.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import emit, paper_table, results_dir  # noqa: E402
from repro.sanitizer.prove import prove_kernels  # noqa: E402

REPEATS = 3


def _timed(fn):
    """(result, best-of-N wall seconds) for one stage."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return result, best


def run() -> dict:
    report, wall_prove = _timed(lambda: prove_kernels())
    fully = [
        n for n, c in report.certificates.items() if c.fully_proven
    ]
    obligations = sum(
        len(c.obligations) for c in report.certificates.values()
    )
    return {
        "bench": "prove_certification",
        "repeats": REPEATS,
        "stages": {
            "prove": {
                "wall_s": wall_prove,
                "kernels": len(report.certificates),
                "kernel_names": sorted(report.certificates),
                "certified": len(report.certified),
                "fully_proven": sorted(fully),
                "obligations": obligations,
                "san501": sum(
                    1 for f in report.findings if f.code == "SAN501"
                ),
            },
        },
    }


def main() -> int:
    payload = run()
    out = results_dir() / "BENCH_prove.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    s = payload["stages"]["prove"]
    rows = [
        [
            "prove",
            f"{s['wall_s'] * 1e3:.1f}",
            f"{s['certified']}/{s['kernels']} certified",
            f"{s['obligations']} obligations, {s['san501']} SAN501",
        ],
    ]
    emit(
        "bench_prove",
        paper_table(
            ["stage", "wall (ms)", "scope", "outcome"],
            rows,
            title=f"SimProve certification (best of {REPEATS})",
        ),
    )
    print(f"wrote {out}")
    return 0


def test_bench_prove():
    """Pytest entry: certification coverage."""
    s = run()["stages"]["prove"]
    assert s["certified"] >= 10
    assert s["san501"] == 0
    assert {"pkc", "vertex_rank"} <= set(s["fully_proven"])


if __name__ == "__main__":
    sys.exit(main())
