"""Seeded-bug fixture proving the detector actually detects.

A race detector that reports nothing is indistinguishable from one
that checks nothing, so the sanitizer gate runs this intentionally
racy kernel and *requires* it to be flagged.  The kernel performs the
canonical bug the substrate can never surface at runtime: every
virtual thread read-modify-writes the same plain (non-``Atomic*``)
cell.

Region labels here carry the ``selftest:`` prefix — the pytest
``--sanitize`` guard and CLI gate skip races in such regions when
deciding pass/fail, so intentional races never fail an honest build.

The static families (SimFlow, SimProve, SimDist) hold the same bar
with one checker, :func:`check_planted`, over a table of
:class:`Planted` sources.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.detector import RaceDetector, RaceReport

__all__ = [
    "SELFTEST_PREFIX",
    "Planted",
    "check_planted",
    "run_racy_kernel",
    "selftest",
]

#: Region labels starting with this prefix are expected to race.
SELFTEST_PREFIX = "selftest:"

_RACY_LOCATION = ("racy_total", 0)


def run_racy_kernel(threads: int = 4) -> RaceDetector:
    """Run the intentionally racy sum; returns the watching detector."""
    pool = SimulatedPool(threads=threads)
    detector = RaceDetector()
    total = [0]

    def worker(i: int, ctx) -> None:
        # the bug: a plain read-modify-write of one shared cell from
        # every virtual thread, with no Atomic* mediation
        ctx.read(_RACY_LOCATION)
        value = total[0]
        ctx.write(_RACY_LOCATION)
        total[0] = value + i  # sani: ok - seeded bug, the detector must flag it

    with detector.watch(pool):
        pool.parallel_for(
            list(range(threads * 8)), worker, label="selftest:racy_sum"
        )
    return detector


def selftest(threads: int = 4) -> tuple[bool, str]:
    """Check the detector flags the seeded bug; returns (ok, message).

    The acceptance bar: the report must carry the location key, the
    region label, and both thread ids.
    """
    if threads < 2:
        return False, "selftest needs >= 2 virtual threads"
    detector = run_racy_kernel(threads=threads)
    matching = [
        r
        for r in detector.races
        if r.location == _RACY_LOCATION and r.region == "selftest:racy_sum"
    ]
    if not matching:
        return (
            False,
            "seeded race NOT detected: the detector is not seeing plain "
            f"cross-thread writes ({detector.summary()})",
        )
    report: RaceReport = matching[0]
    if report.thread_a == report.thread_b:
        return False, f"degenerate thread pair in report: {report}"
    return True, f"seeded race detected: {report}"



class Planted(NamedTuple):
    """One seeded bug for a static analyzer: the source, the finding
    it must raise (code and exact line), and optionally the fixed
    source, which must come back clean."""

    name: str
    source: str
    code: str
    line: int
    fixed: str | None = None


def check_planted(
    cases: tuple[Planted, ...],
    analyze: Callable[[str], object],
    clean: Callable[[object], bool],
) -> tuple[bool, str]:
    """Check an analyzer catches every planted bug; returns (ok, message).

    ``analyze`` maps source text to a report with ``findings`` and
    ``errors``; ``clean`` says whether a report is clean or certified.
    Each planted source must raise exactly one finding of its code, on
    its line, no other error, and not be clean; each fixed source must
    be clean.
    """
    for case in cases:
        report = analyze(case.source)
        hits = [f for f in report.findings if f.code == case.code]
        if (
            [f.line for f in hits] != [case.line]
            or any(f not in hits for f in report.errors)
            or clean(report)
        ):
            return False, (
                f"seeded {case.name} NOT caught: expected one {case.code} "
                f"at line {case.line}, got {[str(f) for f in report.findings]}"
            )
        if case.fixed is not None:
            fixed = analyze(case.fixed)
            if not clean(fixed):
                return False, (
                    f"fixed {case.name} not clean: "
                    f"{[str(f) for f in fixed.findings]}"
                )
    caught = ", ".join(f"{c.code} ({c.name}, line {c.line})" for c in cases)
    return True, f"seeded {caught} caught; fixed variants clean"
