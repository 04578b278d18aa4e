"""SimCheck: ASan/UBSan-style memory & numeric soundness sanitizer.

The substrate's kernels are index arithmetic over flat numpy arrays,
allocated uninitialized (``np.empty``) in hot paths and indexed by
values loaded from other arrays.  In a C++ reproduction that is
exactly the bug class ASan/UBSan catches — uninitialized reads,
out-of-bounds indexing, silent integer overflow — and exactly what
Python/numpy hides: ``np.empty`` hands out stale garbage without
complaint, a negative index silently wraps, and int64 arithmetic wraps
modulo 2**64.  SimCheck closes the gap with three mechanisms:

**Poisoned allocations** — :func:`san_empty` replaces ``np.empty``:
the array is filled with a *trap value* (a distinctive extreme integer
sentinel, or a payload-tagged NaN for floats) and registered with the
active :class:`MemChecker` together with its allocation site.  A read
of a cell that still holds the trap pattern — and was never written
through the recorded-access API — is an **uninitialized read** and is
reported with allocation-site attribution.

**Read/write barrier** — when a :class:`MemChecker` observes a pool,
every :class:`~repro.parallel.context.ThreadContext` gets a
``_memcheck`` hook and each recorded access (``ctx.read``,
``ctx.write``, atomic events) is checked *immediately*, in the exact
serial order the substrate executes: bounds are verified against the
registered allocation (catching negative-wrap and past-the-end
indices) and the shadow init state is updated.  The barrier never
charges the cost model, so attaching memcheck perturbs the simulated
clock by exactly 0.0 (asserted by ``benchmarks/bench_analysis.py``).

**Numeric soundness** — :func:`checked_cast` / :func:`checked_sum`
guard narrowing casts and accumulators: values outside the target
dtype's range are reported to the active checker (or raise
:class:`~repro.errors.NumericSoundnessError` when none is active)
instead of wrapping.  Score writes that pass ``value=`` to
``ctx.write`` feed **NaN-origin tracking**: the first region/phase
producing a non-finite value for each location family is recorded, so
a NaN surfacing at the end of a pipeline names the kernel that born
it (extending the ``best_finite_index`` work of PR 2).

Findings that indicate bugs (``uninit-read``, ``oob-read``,
``oob-write``, ``overflow``) live in :attr:`MemChecker.findings`;
NaN origins are *tracking*, not failures — legitimate metrics produce
NaN on zero denominators — and live in :attr:`MemChecker.nan_origins`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import MemcheckError, NumericSoundnessError
from repro.parallel.scheduler import SimulatedPool

__all__ = [
    "trap_value",
    "san_empty",
    "checked_cast",
    "checked_sum",
    "MemChecker",
    "MemcheckFinding",
    "NanOrigin",
    "run_buggy_memcheck_kernel",
    "memcheck_selftest",
]

#: Bit patterns of the trap NaNs (quiet NaN + recognizable payload, the
#: closest portable analogue of a signaling NaN): reads can distinguish
#: "still poisoned" from a legitimately computed NaN bit-exactly.
_F64_TRAP_BITS = np.uint64(0x7FF8DEADDEADDEAD)
_F32_TRAP_BITS = np.uint32(0x7FC0DEAD)

#: Offset from the integer dtype's extreme used for the int sentinel.
_INT_TRAP_OFFSET = 0xDD


def trap_value(dtype: np.dtype | type):
    """The poison written by :func:`san_empty` for ``dtype``.

    Signed integers trap near ``iinfo.min`` (an extreme negative no
    index/size computation produces legitimately), unsigned integers
    near ``iinfo.max``, floats as a payload-tagged quiet NaN whose bit
    pattern identifies it as poison.  Unsupported dtypes (bool,
    complex, ...) raise :class:`~repro.errors.MemcheckError`.
    """
    dt = np.dtype(dtype)
    if dt == np.float64:
        return _F64_TRAP_BITS.view(np.float64)
    if dt == np.float32:
        return _F32_TRAP_BITS.view(np.float32)
    if dt.kind == "i":
        info = np.iinfo(dt)
        return dt.type(info.min + _INT_TRAP_OFFSET)
    if dt.kind == "u":
        info = np.iinfo(dt)
        return dt.type(info.max - _INT_TRAP_OFFSET)
    raise MemcheckError(f"no trap value for dtype {dt!r}")


def _trap_mask(arr: np.ndarray) -> np.ndarray:
    """Boolean mask of elements still holding the trap pattern."""
    dt = arr.dtype
    if dt == np.float64:
        return arr.view(np.uint64) == _F64_TRAP_BITS
    if dt == np.float32:
        return arr.view(np.uint32) == _F32_TRAP_BITS
    return arr == trap_value(dt)


class _Allocation:
    """Shadow state of one poisoned allocation."""

    __slots__ = ("name", "site", "array", "shadow")

    def __init__(self, name: str, site: str, array: np.ndarray) -> None:
        self.name = name
        self.site = site
        self.array = array
        #: per-slot "written through the recorded API" bit; slot =
        #: first-axis index, matching the ``(name, index)`` location
        #: keys kernels record (rows count as one slot for 2-D arrays)
        self.shadow = np.zeros(array.shape[0] if array.ndim else 1, dtype=bool)

    @property
    def size(self) -> int:
        return int(self.shadow.size)

    def is_poisoned(self, index: int) -> bool:
        """Does slot ``index`` still hold the trap pattern?"""
        cell = self.array[index]
        if isinstance(cell, np.ndarray):
            return bool(_trap_mask(cell).any())
        return bool(_trap_mask(self.array[index : index + 1])[0])


@dataclass(frozen=True)
class MemcheckFinding:
    """One memory/numeric soundness violation.

    Attributes
    ----------
    kind:
        ``"uninit-read"``, ``"oob-read"``, ``"oob-write"`` or
        ``"overflow"``.
    name, index:
        The allocation name and slot involved (``index`` is ``-1``
        for whole-array findings such as overflow).
    region, phase:
        The ``parallel_for``/``serial_region`` label and the innermost
        open algorithm phase (``""`` outside any phase) at the access.
    thread:
        Virtual thread id of the access (``-1`` outside regions).
    alloc_site:
        ``file:line (function)`` of the :func:`san_empty` call, when
        the finding concerns a registered allocation.
    detail:
        Human-readable specifics (offending index, value range, ...).
    """

    kind: str
    name: str
    index: int
    region: str
    phase: str
    thread: int
    alloc_site: str | None
    detail: str

    def __str__(self) -> str:
        where = f"{self.name}[{self.index}]" if self.index >= 0 else self.name
        phase = f" phase {self.phase!r}" if self.phase else ""
        site = f" — allocated at {self.alloc_site}" if self.alloc_site else ""
        return (
            f"{self.kind.upper()} on {where} in region {self.region!r}"
            f"{phase} (thread {self.thread}): {self.detail}{site}"
        )


@dataclass(frozen=True)
class NanOrigin:
    """First producer of a non-finite value for one location family.

    Tracking, not a failure: metrics legitimately yield NaN on zero
    denominators.  The record names the kernel region and phase so a
    NaN surfacing later in the pipeline can be traced to its source.
    """

    name: str
    index: int
    region: str
    phase: str
    thread: int
    value: float

    def __str__(self) -> str:
        phase = f" phase {self.phase!r}" if self.phase else ""
        return (
            f"NAN-ORIGIN {self.name}[{self.index}] first produced "
            f"{self.value!r} in region {self.region!r}{phase} "
            f"(thread {self.thread})"
        )


def _call_site(depth: int = 2) -> str:
    frame = sys._getframe(depth)
    return f"{frame.f_code.co_filename}:{frame.f_lineno} ({frame.f_code.co_name})"


class MemChecker:
    """Region observer implementing the SimCheck memory sanitizer.

    Usage::

        checker = MemChecker()
        with checker.watch(pool):
            run_kernel(pool, ...)
        for finding in checker.findings:
            print(finding)

    ``watch`` both installs the checker as the pool's region observer
    (enabling the per-access read barrier on every
    :class:`ThreadContext`) and *activates* it, so :func:`san_empty`
    calls inside the block register their allocations here.  To
    compose with a :class:`~repro.sanitizer.detector.RaceDetector` on
    the same pool, put both behind an
    :class:`~repro.parallel.observers.ObserverFanout`.

    Findings are deduplicated per ``(kind, name, index)``; NaN origins
    are recorded once per allocation name.
    """

    #: Stack of activated checkers; ``san_empty`` registers with the top.
    _active: list["MemChecker"] = []

    def __init__(self) -> None:
        self.findings: list[MemcheckFinding] = []
        self.nan_origins: list[NanOrigin] = []
        self.regions_checked = 0
        self.events_seen = 0
        self._allocs: dict[str, _Allocation] = {}
        self._seen: set[tuple] = set()
        self._nan_named: set[str] = set()
        self._region = "<no region>"
        self._phases: list[str] = []
        self._pool: SimulatedPool | None = None

    # ------------------------------------------------------------------
    # activation / attachment
    # ------------------------------------------------------------------

    @classmethod
    def current(cls) -> "MemChecker | None":
        """The innermost active checker, or ``None``."""
        return cls._active[-1] if cls._active else None

    def activate(self) -> "MemChecker":
        """Make this checker the registration target of ``san_empty``."""
        MemChecker._active.append(self)
        return self

    def deactivate(self) -> None:
        """Undo :meth:`activate` (no-op when not active)."""
        if self in MemChecker._active:
            MemChecker._active.remove(self)

    def attach(self, pool: SimulatedPool) -> None:
        """Install as ``pool``'s region observer and activate."""
        pool.set_observer(self)
        self._pool = pool
        self.activate()

    def detach(self) -> None:
        """Remove from the pool and deactivate."""
        if self._pool is not None and self._pool.observer is self:
            self._pool.set_observer(None)
        self._pool = None
        self.deactivate()

    def watch(self, pool: SimulatedPool):
        """Context manager attaching for the duration of a block."""
        checker = self

        class _Watch:
            def __enter__(self):
                checker.attach(pool)
                return checker

            def __exit__(self, *exc):
                checker.detach()
                return False

        return _Watch()

    # ------------------------------------------------------------------
    # allocations
    # ------------------------------------------------------------------

    def register_allocation(
        self, name: str, array: np.ndarray, site: str | None = None
    ) -> None:
        """Track ``array`` under ``name`` (latest registration wins).

        ``name`` must match the first element of the ``(name, index)``
        location keys kernels record for this array.
        """
        if not isinstance(name, str) or not name:
            raise MemcheckError(f"allocation name must be a non-empty str, got {name!r}")
        self._allocs[name] = _Allocation(
            name, site or _call_site(), np.asarray(array)
        )

    @property
    def allocations(self) -> dict[str, str]:
        """Read-only view: allocation name -> allocation site."""
        return {name: a.site for name, a in self._allocs.items()}

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------

    def on_region_begin(self, label: str, contexts) -> None:
        self._region = label
        for ctx in contexts:
            ctx.set_memcheck(self)

    def on_region_end(self, label: str, contexts) -> None:
        self.regions_checked += 1
        for ctx in contexts:
            ctx.set_memcheck(None)
        self._region = "<no region>"

    def on_phase_begin(self, name: str) -> None:
        self._phases.append(str(name))

    def on_phase_end(self, name: str) -> None:
        if self._phases:
            self._phases.pop()

    # ------------------------------------------------------------------
    # the read/write barrier (called from ThreadContext; charge-free)
    # ------------------------------------------------------------------

    def _resolve(self, location: object):
        """``(allocation, index)`` for a ``(name, index)`` key, else None."""
        if (
            type(location) is tuple
            and len(location) == 2
            and isinstance(location[0], str)
        ):
            alloc = self._allocs.get(location[0])
            if alloc is not None and isinstance(location[1], (int, np.integer)):
                return alloc, int(location[1])
        return None

    def on_read_event(self, location: object, thread: int) -> None:
        """Read barrier: bounds + uninitialized-read check."""
        self.events_seen += 1
        hit = self._resolve(location)
        if hit is None:
            return
        alloc, index = hit
        if index < 0 or index >= alloc.size:
            self._report(
                "oob-read",
                alloc,
                index,
                thread,
                f"index {index} outside [0, {alloc.size})",
            )
        elif not alloc.shadow[index] and alloc.is_poisoned(index):
            self._report(
                "uninit-read",
                alloc,
                index,
                thread,
                "slot still holds the trap value and was never written",
            )

    def on_write_event(
        self, location: object, value: object, thread: int
    ) -> None:
        """Write barrier: bounds check, shadow update, NaN tracking."""
        self.events_seen += 1
        hit = self._resolve(location)
        if hit is not None:
            alloc, index = hit
            if index < 0 or index >= alloc.size:
                self._report(
                    "oob-write",
                    alloc,
                    index,
                    thread,
                    f"index {index} outside [0, {alloc.size})",
                )
            else:
                alloc.shadow[index] = True
        if value is not None:
            self._track_value(location, value, thread)

    def _track_value(self, location: object, value: object, thread: int) -> None:
        try:
            finite = bool(np.all(np.isfinite(value)))
        except TypeError:
            return
        if finite:
            return
        name, index = (
            (str(location[0]), int(location[1]))
            if type(location) is tuple
            and len(location) == 2
            and isinstance(location[1], (int, np.integer))
            else (str(location), -1)
        )
        if name in self._nan_named:
            return
        self._nan_named.add(name)
        try:
            scalar = float(np.asarray(value, dtype=np.float64).ravel()[0])
        except (TypeError, ValueError):
            scalar = float("nan")
        self.nan_origins.append(
            NanOrigin(
                name=name,
                index=index,
                region=self._region,
                phase=self._phases[-1] if self._phases else "",
                thread=thread,
                value=scalar,
            )
        )

    # ------------------------------------------------------------------
    # numeric soundness reports (checked_cast / checked_sum)
    # ------------------------------------------------------------------

    def report_overflow(self, name: str, detail: str) -> None:
        """Record an overflow finding (from a checked cast/accumulate)."""
        key = ("overflow", name, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            MemcheckFinding(
                kind="overflow",
                name=name,
                index=-1,
                region=self._region,
                phase=self._phases[-1] if self._phases else "",
                thread=-1,
                alloc_site=None,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------

    def _report(
        self,
        kind: str,
        alloc: _Allocation,
        index: int,
        thread: int,
        detail: str,
    ) -> None:
        key = (kind, alloc.name, index)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            MemcheckFinding(
                kind=kind,
                name=alloc.name,
                index=index,
                region=self._region,
                phase=self._phases[-1] if self._phases else "",
                thread=thread,
                alloc_site=alloc.site,
                detail=detail,
            )
        )

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    def summary(self) -> str:
        """One-line human summary of the watch."""
        return (
            f"{self.regions_checked} regions, {self.events_seen} events, "
            f"{len(self.findings)} finding(s), "
            f"{len(self.nan_origins)} NaN origin(s)"
        )


# ----------------------------------------------------------------------
# poisoned allocation + numeric soundness helpers
# ----------------------------------------------------------------------


def san_empty(
    shape,
    dtype: np.dtype | type = np.int64,
    name: str = "buf",
    checker: MemChecker | None = None,
) -> np.ndarray:
    """Allocate like ``np.empty`` but *poisoned* with trap values.

    The returned array is filled with :func:`trap_value` for ``dtype``
    — deterministic poison instead of stale heap garbage — and, when a
    :class:`MemChecker` is active (or passed explicitly), registered
    under ``name`` with the caller's file:line as the allocation site.
    Kernels must record accesses with ``(name, index)`` location keys
    for the checker's read barrier to attribute findings.

    The fill is not charged to the cost model (allocation never is),
    so swapping ``np.empty`` for ``san_empty`` leaves the simulated
    clock bit-identical.
    """
    arr = np.full(shape, trap_value(dtype), dtype=np.dtype(dtype))
    active = checker if checker is not None else MemChecker.current()
    if active is not None:
        active.register_allocation(name, arr, site=_call_site())
    return arr


def checked_cast(
    values,
    dtype: np.dtype | type,
    what: str = "cast",
    checker: MemChecker | None = None,
) -> np.ndarray:
    """``values.astype(dtype)`` with overflow/NaN detection.

    Values outside the target dtype's representable range — including
    non-finite floats cast to integers, the UBSan classic — are
    reported as an ``overflow`` finding to the active checker, or
    raise :class:`~repro.errors.NumericSoundnessError` when no checker
    is active (fail loudly instead of wrapping silently).  The cast is
    still performed and returned, so a checker run can keep going and
    collect every finding in one pass.
    """
    arr = np.asarray(values)
    target = np.dtype(dtype)
    bad: np.ndarray | None = None
    if target.kind in "iu":
        info = np.iinfo(target)
        if arr.dtype.kind == "f":
            finite = np.isfinite(arr)
            bad = ~finite | (arr < info.min) | (arr > info.max)
        elif arr.dtype.kind in "iu":
            # compare in python ints to avoid overflow in the comparison
            lo, hi = int(arr.min()) if arr.size else 0, int(arr.max()) if arr.size else 0
            if arr.size and (lo < info.min or hi > info.max):
                bad = (arr < info.min) | (arr > info.max)
    elif target.kind == "f" and arr.dtype.kind == "f":
        if np.dtype(arr.dtype).itemsize > target.itemsize:
            with np.errstate(over="ignore"):
                narrowed = arr.astype(target)
            bad = np.isfinite(arr) & ~np.isfinite(narrowed)
    if bad is not None and np.any(bad):
        count = int(np.count_nonzero(bad))
        offender = arr.ravel()[int(np.flatnonzero(bad.ravel())[0])]
        detail = (
            f"{what}: {count} value(s) outside {target} range, "
            f"first offender {offender!r}"
        )
        active = checker if checker is not None else MemChecker.current()
        if active is None:
            raise NumericSoundnessError(detail)
        active.report_overflow(what, detail)
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(target)


def checked_sum(
    values,
    dtype: np.dtype | type = np.int64,
    what: str = "sum",
    checker: MemChecker | None = None,
) -> int:
    """Exact integer accumulation with overflow detection.

    Sums in arbitrary-precision Python integers (no intermediate
    wrap), then verifies the total fits ``dtype``.  An out-of-range
    total is reported like :func:`checked_cast`.  Returns the exact
    Python int either way.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise MemcheckError(f"checked_sum needs an integer array, got {arr.dtype}")
    total = int(arr.sum(dtype=object)) if arr.size else 0
    info = np.iinfo(np.dtype(dtype))
    if not info.min <= total <= info.max:
        detail = f"{what}: accumulated total {total} overflows {np.dtype(dtype)}"
        active = checker if checker is not None else MemChecker.current()
        if active is None:
            raise NumericSoundnessError(detail)
        active.report_overflow(what, detail)
    return total


# ----------------------------------------------------------------------
# seeded-bug selftest
# ----------------------------------------------------------------------


def run_buggy_memcheck_kernel(threads: int = 4) -> MemChecker:
    """Run a kernel seeded with all four bug classes; return the checker.

    The regions carry the ``selftest:`` prefix, so the pytest
    ``--memcheck`` guard and CLI gates ignore these intentional
    findings when deciding pass/fail.
    """
    pool = SimulatedPool(threads=threads)
    checker = MemChecker()
    with checker.watch(pool):
        buf = san_empty(8, np.int64, name="selftest_buf")
        scores = san_empty(4, np.float64, name="selftest_scores")

        def worker(i: int, ctx) -> None:
            if i == 0:
                # bug 1: read of a never-written poisoned slot
                ctx.read(("selftest_buf", 5))
            elif i == 1:
                # bug 2: out-of-bounds store (negative wrap + past-end)
                ctx.write(("selftest_buf", -1))
                ctx.write(("selftest_buf", 8))
            elif i == 2:
                # bug 3: int32 overflow on a narrowing cast
                checked_cast(
                    np.asarray([2**40], dtype=np.int64),
                    np.int32,
                    what="selftest_cast",
                )
            else:
                # bug 4: NaN injection at a score write
                ctx.write(("selftest_scores", 0), value=float("nan"))
                scores[0] = float("nan")  # sani: ok - seeded selftest bug

        pool.parallel_for(
            list(range(max(threads, 4))), worker, label="selftest:memcheck"
        )
        # keep the arrays alive so "unused" poison isn't collected early
        assert buf.size == 8 and scores.size == 4
    return checker


def memcheck_selftest(threads: int = 4) -> tuple[bool, str]:
    """Check every seeded bug class is detected; returns (ok, message)."""
    checker = run_buggy_memcheck_kernel(threads=threads)
    kinds = {f.kind for f in checker.findings}
    missing = {"uninit-read", "oob-read", "oob-write", "overflow"} - kinds
    # oob-read is optional in the seed (both OOB directions are writes)
    missing.discard("oob-read")
    if missing:
        return (
            False,
            f"seeded bug(s) NOT detected: {', '.join(sorted(missing))} "
            f"({checker.summary()})",
        )
    uninit = next(f for f in checker.findings if f.kind == "uninit-read")
    if not uninit.alloc_site or "memcheck.py" not in uninit.alloc_site:
        return False, f"uninit-read lacks allocation-site attribution: {uninit}"
    if not checker.nan_origins:
        return False, "seeded NaN injection was not tracked to an origin"
    origin = checker.nan_origins[0]
    if origin.region != "selftest:memcheck":
        return False, f"NaN origin names the wrong region: {origin}"
    return True, (
        f"seeded memcheck bugs detected: {len(checker.findings)} finding(s) "
        f"+ NaN origin in {origin.region!r}"
    )
