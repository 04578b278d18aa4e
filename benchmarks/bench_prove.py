"""SimProve bench — starts the ``BENCH_prove.json`` trajectory.

Three stages:

* **prove** — wall time of the full SAN5xx certification pass over the
  kernel registry (fixpoint interval proofs + determinism
  classification + manifest payload), with certified / fully-proven /
  obligation counts riding along as coverage guards;
* **elision** — for every certified kernel with proven arrays, run it
  under the memcheck barrier at a modeled cost of one work unit per
  crossing, with and without its certificate, and record the sim-clock
  work the certificate elides.  Findings and races must be identical
  in both modes — the fast path may only skip checks the certificate
  already discharged statically;
* **bit_identity** — the paper's PKC peeling kernel on a Holme–Kim
  graph, run end-to-end under ``MemChecker`` barriers with and without
  the certificate: the coreness arrays must be bit-identical
  (``np.array_equal``) and the checker must report zero findings in
  both modes.

Usage::

    PYTHONPATH=src python benchmarks/bench_prove.py

Writes ``benchmarks/results/BENCH_prove.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import emit, paper_table, results_dir  # noqa: E402
from repro.core.pkc import pkc_core_decomposition  # noqa: E402
from repro.graph.generators import powerlaw_cluster  # noqa: E402
from repro.parallel.scheduler import SimulatedPool  # noqa: E402
from repro.sanitizer.kernels import run_kernel  # noqa: E402
from repro.sanitizer.memcheck import MemChecker  # noqa: E402
from repro.sanitizer.prove import prove_kernels  # noqa: E402

REPEATS = 3
#: Modeled sim-clock cost of one memcheck barrier crossing.
BARRIER_UNITS = 1.0


def _timed(fn):
    """(result, best-of-N wall seconds) for one stage."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return result, best


def _elision_rows(report) -> list[dict]:
    """Barrier-elision savings per certified kernel with proven arrays."""
    rows = []
    for name, cert in sorted(report.certificates.items()):
        if cert.status != "certified" or not cert.proven_arrays:
            continue
        base = run_kernel(name, memcheck=True, barrier_units=BARRIER_UNITS)
        fast = run_kernel(
            name,
            memcheck=True,
            barrier_units=BARRIER_UNITS,
            certificate=cert,
        )
        # the certificate may only remove checks, never change outcomes
        assert [str(r) for r in base.races] == [str(r) for r in fast.races]
        assert [str(f) for f in base.memcheck_findings] == [
            str(f) for f in fast.memcheck_findings
        ]
        if fast.elided == 0:
            # certificate covers only plain numpy accesses, which never
            # cross the runtime barrier — nothing to elide
            assert fast.clock == base.clock, f"{name}: clock drifted"
            continue
        assert fast.clock < base.clock, f"{name}: no sim-clock savings"
        rows.append(
            {
                "kernel": name,
                "fully_proven": cert.fully_proven,
                "proven_arrays": list(cert.proven_arrays),
                "clock_memcheck": base.clock,
                "clock_certified": fast.clock,
                "elided": fast.elided,
                "saved_units": base.clock - fast.clock,
            }
        )
    return rows


def _bit_identity(cert) -> dict:
    """PKC end-to-end: certified fast path must be bit-identical."""
    graph = powerlaw_cluster(240, 3, 0.3, seed=11)

    def _run(certificate):
        pool = SimulatedPool(threads=4)
        checker = MemChecker(barrier_units=BARRIER_UNITS)
        if certificate is not None:
            checker.apply_certificate(certificate)
        with checker.watch(pool):
            coreness = pkc_core_decomposition(graph, pool)
        return coreness, checker, pool.clock

    base, base_chk, base_clock = _run(None)
    fast, fast_chk, fast_clock = _run(cert)
    assert np.array_equal(base, fast), "certified path changed the answer"
    assert not base_chk.findings and not fast_chk.findings
    assert fast_chk.elided_events > 0
    assert fast_clock < base_clock
    return {
        "graph": "powerlaw_cluster(240, 3, 0.3, seed=11)",
        "bit_identical": bool(np.array_equal(base, fast)),
        "clock_memcheck": base_clock,
        "clock_certified": fast_clock,
        "elided": fast_chk.elided_events,
    }


def run() -> dict:
    report, wall_prove = _timed(lambda: prove_kernels())
    certified = report.certified
    fully = [
        n for n, c in report.certificates.items() if c.fully_proven
    ]
    obligations = sum(
        len(c.obligations) for c in report.certificates.values()
    )
    rows, wall_elision = _timed(lambda: _elision_rows(report))
    identity, wall_identity = _timed(
        lambda: _bit_identity(report.certificates["pkc"])
    )
    return {
        "bench": "prove_certification",
        "repeats": REPEATS,
        "barrier_units": BARRIER_UNITS,
        "stages": {
            "prove": {
                "wall_s": wall_prove,
                "kernels": len(report.certificates),
                "kernel_names": sorted(report.certificates),
                "certified": len(certified),
                "fully_proven": sorted(fully),
                "obligations": obligations,
                "san501": sum(
                    1 for f in report.findings if f.code == "SAN501"
                ),
            },
            "elision": {
                "wall_s": wall_elision,
                "kernels": rows,
                "total_saved_units": sum(r["saved_units"] for r in rows),
                "total_elided": sum(r["elided"] for r in rows),
            },
            "bit_identity": {"wall_s": wall_identity, **identity},
        },
    }


def main() -> int:
    payload = run()
    out = results_dir() / "BENCH_prove.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    s = payload["stages"]
    rows = [
        [
            "prove",
            f"{s['prove']['wall_s'] * 1e3:.1f}",
            f"{s['prove']['certified']}/{s['prove']['kernels']} certified",
            f"{s['prove']['obligations']} obligations, "
            f"{s['prove']['san501']} SAN501",
        ],
        [
            "elision",
            f"{s['elision']['wall_s'] * 1e3:.1f}",
            f"{len(s['elision']['kernels'])} kernels",
            f"{s['elision']['total_elided']} barriers elided, "
            f"{s['elision']['total_saved_units']:.0f} units saved",
        ],
        [
            "bit_identity",
            f"{s['bit_identity']['wall_s'] * 1e3:.1f}",
            "pkc end-to-end",
            f"identical={s['bit_identity']['bit_identical']}, "
            f"clock {s['bit_identity']['clock_memcheck']:.0f} -> "
            f"{s['bit_identity']['clock_certified']:.0f}",
        ],
    ]
    emit(
        "bench_prove",
        paper_table(
            ["stage", "wall (ms)", "scope", "outcome"],
            rows,
            title="SimProve certification + barrier elision"
            f" (best of {REPEATS})",
        ),
    )
    print(f"wrote {out}")
    return 0


def test_bench_prove():
    """Pytest entry: certification coverage + provably free elision."""
    payload = run()
    s = payload["stages"]
    assert s["prove"]["certified"] >= 10
    assert s["prove"]["san501"] == 0
    assert s["elision"]["total_elided"] > 0
    assert s["elision"]["total_saved_units"] > 0
    assert s["bit_identity"]["bit_identical"]
    assert s["bit_identity"]["clock_certified"] < (
        s["bit_identity"]["clock_memcheck"]
    )


if __name__ == "__main__":
    sys.exit(main())
