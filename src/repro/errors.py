"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses distinguish the
broad failure domains: malformed input graphs, malformed or inconsistent
hierarchy indexes, misuse of the simulated-parallel scheduler, and
unknown names looked up in registries (metrics, datasets).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An input edge list or graph file is malformed or inconsistent."""


class GraphBuildError(ReproError):
    """A graph could not be assembled from the provided edges."""


class HierarchyError(ReproError):
    """An HCD index is malformed, inconsistent, or failed validation."""


class SchedulerError(ReproError):
    """The simulated-parallel scheduler was misused (e.g. nested regions)."""


class UnionFindError(ReproError, ValueError):
    """A union-find structure was configured with an invalid parameter."""


class UnknownMetricError(ReproError, KeyError):
    """A community scoring metric name is not present in the registry."""


class UnknownDatasetError(ReproError, KeyError):
    """A dataset stand-in name is not present in the registry."""


class ServeError(ReproError):
    """The HCDServe serving layer was misused or hit an invalid state."""


class SnapshotError(ServeError):
    """A serving snapshot bundle is missing, corrupted, or incompatible.

    Raised by the snapshot store (:mod:`repro.serve.snapshot`) whenever
    an on-disk index bundle cannot be trusted: a truncated or unreadable
    array file, a manifest/checksum mismatch, or a format-version skew.
    The message always names the offending file or manifest field so a
    corrupted bundle is a clean input error, never a bare numpy/zipfile
    exception escaping from deep inside the loader.
    """


class WorkloadError(ServeError):
    """A serving workload trace or query request is malformed.

    The message names the offending request field (kind, metric, k, r,
    weights, at) and, for trace files, the line it came from.
    """


class MemcheckError(ReproError):
    """The SimCheck memory sanitizer was misused (bad dtype, bad name)."""


class NumericSoundnessError(ReproError):
    """A narrowing cast or accumulation would overflow or lose values.

    Raised by :func:`repro.sanitizer.memcheck.checked_cast` /
    :func:`~repro.sanitizer.memcheck.checked_sum` when no
    :class:`~repro.sanitizer.memcheck.MemChecker` is active to collect
    the finding instead.
    """
