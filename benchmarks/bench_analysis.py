"""Analysis overhead bench — the ``BENCH_analysis.json`` record.

What every analysis family costs, in one file:

* **observers** — every registered sanitize kernel runs on a bare pool
  and under each dynamic observer: the SimTSan race detector, the
  SimCheck memory sanitizer and the SimProf span tracer.  Each run is
  best-of-N wall time.  Recording, the read barrier and span snapshots
  are all charge-free, so each observer's simulated-clock delta must be
  exactly ``0.0``, and the traced spans must sum to the pool clock
  bitwise; the bench asserts both, and the JSON keeps the numbers so a
  change that couples an observer to the cost model shows up as a
  nonzero ``sim_delta``.
* **static** — lint (SAN1xx-3xx), SimFlow path analysis and effect
  inference (SAN4xx), SimProve certification (SAN5xx) and SimDist
  protocol certification (SAN6xx), each timed on the same call
  ``repro sanitize`` makes, manifest drift check included, plus every
  seeded-bug selftest ``repro sanitize`` runs.  Coverage counts ride along so
  a change that silently loses coverage (fewer workers analyzed, fewer
  certified kernels) shows up as a count regression, not a speedup.
  The distributed decomposition kernel also runs before and after a
  full SAN6xx pass: static certification must leave its simulated
  clock unchanged.

Usage::

    PYTHONPATH=src python benchmarks/bench_analysis.py

Writes ``benchmarks/results/BENCH_analysis.json`` and prints a table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import emit, paper_table, results_dir  # noqa: E402
from repro.parallel.scheduler import SimulatedPool  # noqa: E402
from repro.profiler import SpanTracer  # noqa: E402
from repro.sanitizer import (  # noqa: E402
    KERNELS,
    lint_paths,
    manifest,
    memcheck_selftest,
    run_kernel,
    selftest,
)
from repro.sanitizer.detector import RaceDetector  # noqa: E402
from repro.sanitizer.dist import (  # noqa: E402
    DEFAULT_DIST_MANIFEST_PATH,
    DIST_MANIFEST_SCHEMA,
    analyze_dist,
    dist_selftest,
)
from repro.sanitizer.flow import (  # noqa: E402
    DEFAULT_FLOW_MANIFEST_PATH,
    FLOW_MANIFEST_SCHEMA,
    analyze_paths,
    flow_selftest,
    infer_kernel_effects,
)
from repro.sanitizer.memcheck import MemChecker  # noqa: E402
from repro.sanitizer.prove import (  # noqa: E402
    DEFAULT_MANIFEST_PATH,
    MANIFEST_SCHEMA,
    prove_kernels,
    prove_selftest,
)

SCHEMA = "bench-analysis/v1"
THREADS = 4
REPEATS = 3
ROOT = Path(__file__).resolve().parents[1]
PATHS = [str(ROOT / "src"), str(ROOT / "benchmarks")]
PERTURB_KERNEL = "cluster_decompose"
OBSERVERS = {
    "detector": RaceDetector,
    "memcheck": MemChecker,
    "tracer": SpanTracer,
}


def _timed(fn):
    """(result of the last call, best-of-N wall seconds)."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return result, best


def _run(body, observer_cls):
    """Run one kernel body on a fresh pool, observed or bare."""
    pool = SimulatedPool(threads=THREADS)
    if observer_cls is None:
        body(pool)
        return pool, None
    observer = observer_cls()
    with observer.watch(pool):
        body(pool)
    return pool, observer


def _observer_rows() -> list[dict]:
    rows = []
    for name, body in KERNELS.items():
        (bare, _), wall_off = _timed(lambda: _run(body, None))
        row = {"kernel": name, "sim_clock": bare.clock, "wall_off_s": wall_off}
        for label, cls in OBSERVERS.items():
            (pool, observer), wall = _timed(lambda: _run(body, cls))
            delta = pool.clock - bare.clock
            assert delta == 0.0, (
                f"{name}: {label} changed the simulated clock by {delta}"
                " — observers must stay charge-free"
            )
            row[label] = {
                "sim_delta": delta,
                "wall_s": wall,
                "overhead": wall / wall_off if wall_off else float("nan"),
            }
            if cls is SpanTracer:
                exact = observer.total_elapsed() == pool.clock
                assert exact, f"{name}: traced spans do not sum to the clock"
                row[label]["regions"] = len(observer.region_spans())
                row[label]["coverage_exact"] = exact
        rows.append(row)
    return rows


def _checked(analyze, payload_of, path, family):
    """One analysis pass plus its manifest drift check, as ``repro
    sanitize`` runs it."""
    result = analyze()
    return result, manifest.drift(payload_of(result), path, family)


def _perturbation() -> dict:
    """Sim clock of a cluster kernel before/after a full SAN6xx pass."""
    before = run_kernel(PERTURB_KERNEL)
    analyze_dist()  # static pass: must not touch the substrate
    after = run_kernel(PERTURB_KERNEL)
    delta = after.clock - before.clock
    assert delta == 0.0, (
        f"{PERTURB_KERNEL}: SAN6xx analysis perturbed the sim clock "
        f"by {delta}"
    )
    assert after.events == before.events
    return {
        "kernel": PERTURB_KERNEL,
        "clock_before": before.clock,
        "clock_after": after.clock,
        "clock_delta": delta,
        "events": after.events,
    }


def _static() -> dict:
    lint, wall_lint = _timed(lambda: lint_paths(PATHS))
    flow, wall_paths = _timed(lambda: analyze_paths(PATHS))
    (effects, flow_drift), wall_effects = _timed(
        lambda: _checked(
            infer_kernel_effects,
            lambda effects: manifest.payload(
                FLOW_MANIFEST_SCHEMA, kernels=effects
            ),
            DEFAULT_FLOW_MANIFEST_PATH,
            "flow",
        )
    )
    (prove, prove_drift), wall_prove = _timed(
        lambda: _checked(
            prove_kernels,
            lambda report: manifest.payload(
                MANIFEST_SCHEMA, kernels=report.certificates
            ),
            DEFAULT_MANIFEST_PATH,
            "prove",
        )
    )
    (dist, dist_drift), wall_dist = _timed(
        lambda: _checked(
            analyze_dist,
            lambda report: manifest.payload(
                DIST_MANIFEST_SCHEMA,
                protocols=report.certificates,
                kernels=report.kernels,
            ),
            DEFAULT_DIST_MANIFEST_PATH,
            "dist",
        )
    )
    cluster_kernels = sorted(k for k in KERNELS if k.startswith("cluster"))
    assert set(cluster_kernels) <= set(dist.kernels), (
        "cluster kernels missing from the dist report: "
        f"{sorted(set(cluster_kernels) - set(dist.kernels))}"
    )
    assert "unclassified" not in dist.kernels.values(), dist.kernels
    assert not dist.findings, [str(f) for f in dist.findings]
    selftests = {}
    for family, check in (
        ("races", lambda: selftest(threads=THREADS)),
        ("memcheck", lambda: memcheck_selftest(threads=THREADS)),
        ("flow", flow_selftest),
        ("prove", prove_selftest),
        ("dist", dist_selftest),
    ):
        (ok, message), wall = _timed(check)
        assert ok, f"{family} selftest must pass under the bench: {message}"
        selftests[family] = {"wall_s": wall, "ok": ok}
    return {
        "lint": {
            "wall_s": wall_lint,
            "errors": sum(f.severity == "error" for f in lint),
            "warnings": sum(f.severity == "warning" for f in lint),
        },
        "flow_paths": {
            "wall_s": wall_paths,
            "files": flow.files,
            "workers": flow.workers,
            "findings": len(flow.findings),
            "verified_disjoint": len(flow.verified),
        },
        "flow_effects": {
            "wall_s": wall_effects,
            "kernels": len(effects),
            "drift_lines": len(flow_drift),
        },
        "prove": {
            "wall_s": wall_prove,
            "kernel_names": sorted(prove.certificates),
            "certified": len(prove.certified),
            "fully_proven": sorted(
                n for n, c in prove.certificates.items() if c.fully_proven
            ),
            "obligations": sum(
                len(c.obligations) for c in prove.certificates.values()
            ),
            "san501": sum(f.code == "SAN501" for f in prove.findings),
            "drift_lines": len(prove_drift),
        },
        "dist": {
            "wall_s": wall_dist,
            "protocol_names": sorted(dist.certificates),
            "certified": len(dist.certified),
            "kernels": dict(sorted(dist.kernels.items())),
            "cluster_kernels": cluster_kernels,
            "obligations": sum(
                len(c.obligations) for c in dist.certificates.values()
            ),
            "send_sites": sum(
                len(c.sends) for c in dist.certificates.values()
            ),
            "findings": len(dist.findings),
            "drift_lines": len(dist_drift),
            "perturbation": _perturbation(),
        },
        "selftests": selftests,
    }


def run() -> dict:
    return {
        "schema": SCHEMA,
        "threads": THREADS,
        "repeats": REPEATS,
        "observers": _observer_rows(),
        "static": _static(),
    }


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def _static_rows(static: dict) -> list[list[str]]:
    """One row per stage: best wall time and the stage's counts."""
    rows = [
        [
            stage,
            _ms(rec["wall_s"]),
            ", ".join(
                f"{key} {value}"
                for key, value in rec.items()
                if isinstance(value, int) and key != "wall_s"
            ),
        ]
        for stage, rec in static.items()
        if stage != "selftests"
    ]
    rows += [
        [f"{family} selftest", _ms(t["wall_s"]), "ok" if t["ok"] else "FAILED"]
        for family, t in static["selftests"].items()
    ]
    return rows


def main() -> int:
    payload = run()
    out = results_dir() / "BENCH_analysis.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    observer_rows = [
        [
            r["kernel"],
            f"{r['sim_clock']:.0f}",
            _ms(r["wall_off_s"]),
            *(
                f"{_ms(r[o]['wall_s'])} ({r[o]['overhead']:.2f}x)"
                for o in OBSERVERS
            ),
            str(r["tracer"]["regions"]),
        ]
        for r in payload["observers"]
    ]
    observers = paper_table(
        ["kernel", "sim clock", "bare (ms)"]
        + [f"{o} (ms)" for o in OBSERVERS]
        + ["spans"],
        observer_rows,
        title="Observer overhead, sim-clock delta exactly 0"
        f" ({THREADS} virtual threads, best of {REPEATS})",
    )
    static = paper_table(
        ["stage", "wall (ms)", "outcome"],
        _static_rows(payload["static"]),
        title=f"Static analysis wall time (best of {REPEATS})",
    )
    emit("bench_analysis", observers + "\n\n" + static)
    print(f"wrote {out}")
    return 0


def test_bench_analysis():
    """Pytest entry: zero perturbation, full coverage, clean passes."""
    payload = run()
    for row in payload["observers"]:
        assert all(row[o]["sim_delta"] == 0.0 for o in OBSERVERS)
        assert row["tracer"]["coverage_exact"]
    s = payload["static"]
    assert s["flow_paths"]["workers"] > 0
    assert s["flow_paths"]["findings"] == 0
    assert s["flow_paths"]["verified_disjoint"] >= 3
    assert s["flow_effects"]["drift_lines"] == 0
    assert s["prove"]["certified"] >= 10
    assert s["prove"]["san501"] == 0
    assert {"pkc", "vertex_rank"} <= set(s["prove"]["fully_proven"])
    dist = s["dist"]
    assert dist["certified"] == len(dist["protocol_names"]) >= 2
    assert dist["findings"] == 0
    assert set(dist["cluster_kernels"]) <= set(dist["kernels"])
    assert "unclassified" not in dist["kernels"].values()
    assert dist["perturbation"]["clock_delta"] == 0.0
    assert all(t["ok"] for t in s["selftests"].values())


if __name__ == "__main__":
    sys.exit(main())
