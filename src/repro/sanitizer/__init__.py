"""SimTSan + SimCheck: sanitizers and lint for the simulated substrate.

Three complementary gates over the simulated-multicore kernels:

* :mod:`repro.sanitizer.detector` — SimTSan, a dynamic happens-before
  race detector replaying per-thread memory-access event streams
  recorded by :class:`~repro.parallel.context.ThreadContext`;
* :mod:`repro.sanitizer.memcheck` — SimCheck, an ASan/UBSan-style
  memory & numeric soundness sanitizer: poisoned allocations
  (:func:`san_empty`), a per-access read barrier catching
  uninitialized reads and out-of-bounds indices, checked narrowing
  casts, and NaN-origin tracking;
* :mod:`repro.sanitizer.lint` — a static AST pass: SAN1xx/2xx over
  ``parallel_for`` worker closures (unrecorded mutation of captured
  shared state), SAN3xx module-wide (unpoisoned allocation, unchecked
  data-dependent indexing, narrowing casts, float-into-int
  accumulation);
* :mod:`repro.sanitizer.flow` — SimFlow, the SAN4xx CFG/dataflow
  family: divergent-sync taint analysis over worker control-flow
  graphs (SAN401/402), interval proofs that chunked stores stay in
  the owning thread's slice (SAN403 / verified-disjoint SAN201
  downgrades), and per-kernel inferred effect signatures committed to
  ``flow_manifest.json``;
* :mod:`repro.sanitizer.prove` — SimProve, the SAN5xx abstract-
  interpretation family: fixpoint interval analysis over the worker
  CFGs proving every recorded access in-bounds against declared
  extents (SAN501 provable OOB / SAN502 unproven), determinism
  classification of combining atomics (SAN503 order-sensitive float
  reductions), and per-kernel proof certificates committed to
  ``prove_manifest.json``;
* :mod:`repro.sanitizer.dist` — SimDist, the SAN6xx family over the
  distributed protocol: monotonicity certification of cross-shard
  estimate updates (SAN601), BSP phase discipline (SAN602),
  shard-ownership disjoint-write proofs (SAN603), statically-derived
  wire effects of every ``Network.send`` site (SAN604), and replay
  safety of failover-reachable handlers (SAN606), with per-protocol
  proof certificates, derived wire shapes included, committed to
  ``dist_manifest.json``.

Each committed manifest records what its analyzer derives and gates
changes to it as drift (:mod:`repro.sanitizer.manifest`); ``repro
sanitize --write-manifest`` refreshes all three.

The static analyzers (lint, flow, prove, dist) learn what each
substrate call touches from one table, :mod:`repro.sanitizer.effects`.

The static families share one scaffold: a one-module index
(``flow.ModuleIndex.of_source``), worker locals
(``lint._WorkerInfo``), the manifest payload builder
(:func:`repro.sanitizer.manifest.payload`) and the seeded-bug checker
(:func:`repro.sanitizer.selftest.check_planted`).

Entry points: ``repro sanitize`` (CLI and the only gate: one fixed
configuration running every family above over every kernel and
``src/`` + ``benchmarks/``, one table of families and one loop over
it; ``--report`` and ``--write-manifest`` are its only options),
``pytest --sanitize [--memcheck]`` (test suite under the observers),
:func:`repro.sanitizer.kernels.run_all_kernels` (programmatic).
``benchmarks/bench_analysis.py`` records what every family costs.

This package re-exports only the runtime half (detector, memcheck,
kernel registry, selftest) plus the lint: every kernel imports
:func:`san_empty`, so everything imported here loads in every
process.  The static analyzers (flow, prove, dist, intervals, the
shared :mod:`~repro.sanitizer.manifest` checker) are imported from
their own modules.
"""

from repro.sanitizer.detector import RaceDetector, RaceReport
from repro.sanitizer.kernels import (
    KERNELS,
    KernelReport,
    run_all_kernels,
    run_kernel,
)
from repro.sanitizer.lint import (
    Finding,
    Report,
    dead_suppressions,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.sanitizer.memcheck import (
    MemChecker,
    MemcheckFinding,
    NanOrigin,
    checked_cast,
    checked_sum,
    memcheck_selftest,
    run_buggy_memcheck_kernel,
    san_empty,
    trap_value,
)
from repro.sanitizer.selftest import (
    SELFTEST_PREFIX,
    run_racy_kernel,
    selftest,
)
from repro.sanitizer.vectorclock import VectorClock

__all__ = [
    "RaceDetector",
    "RaceReport",
    "VectorClock",
    "Finding",
    "Report",
    "lint_source",
    "lint_file",
    "lint_paths",
    "dead_suppressions",
    "KERNELS",
    "KernelReport",
    "run_kernel",
    "run_all_kernels",
    "SELFTEST_PREFIX",
    "run_racy_kernel",
    "selftest",
    "MemChecker",
    "MemcheckFinding",
    "NanOrigin",
    "san_empty",
    "trap_value",
    "checked_cast",
    "checked_sum",
    "memcheck_selftest",
    "run_buggy_memcheck_kernel",
]
