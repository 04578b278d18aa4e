"""The one CSR validator, for untrusted graph inputs.

Untrusted inputs — npz files from disk, snapshot bundles, any CSR
arrays that crossed a serialization boundary — get **every**
structural property verified with vectorized numpy checks, and
violations raise :class:`~repro.errors.GraphFormatError` with a
message naming the first offending vertex/offset, so a corrupted file
is a clean input error instead of an out-of-range index detonating
deep inside a kernel (or worse, a negative index silently wrapping
around).

:class:`~repro.graph.graph.Graph` runs :func:`validate_csr` whenever
it is constructed with ``validate=True`` (the default), which is how
the load paths (:func:`repro.graph.io.load_npz`, the serving
snapshot) build their graphs; ``Graph(..., validate=False)`` remains
an internal-only fast path for arrays built by code that proves the
invariants by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["MAX_VERTICES", "check_vertex_count", "validate_csr"]

#: ``indices`` may not exceed this many entries: ``2 * m`` must fit an
#: int64 and leave headroom for offset arithmetic (``indptr`` sums).
MAX_ARCS = np.iinfo(np.int64).max // 4

#: ``indptr`` may not describe more vertices than this: the symmetry
#: check encodes arc ``(u, v)`` as ``u * n + v``, which must fit an
#: int64, and ``n * n <= 2**63 - 1`` holds up to here.
MAX_VERTICES = 3_037_000_499


def check_vertex_count(n: int) -> int:
    """``n`` when it is a vertex count in ``[0, MAX_VERTICES]``; raise
    :class:`GraphFormatError` otherwise.  Graph constructors call it
    before allocating anything of size ``n``."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {n} is outside the supported range [0, {MAX_VERTICES}]"
        )
    return n


def validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Validate untrusted CSR arrays; raise :class:`GraphFormatError`.

    Checks, all vectorized:

    1. shape/dtype sanity — 1-D, integer-kind, castable to int64
       without overflow, arc count within :data:`MAX_ARCS`, vertex
       count within :data:`MAX_VERTICES` (checked before any O(n)
       allocation);
    2. ``indptr`` brackets ``indices`` (``indptr[0] == 0``,
       ``indptr[-1] == len(indices)``) and is non-decreasing;
    3. neighbor ids within ``[0, n)``;
    4. adjacency rows strictly sorted (sorted + duplicate-free);
    5. no self-loops;
    6. symmetry — every arc ``(u, v)`` has its reverse ``(v, u)``,
       which also forces the arc count to be even (``2 m``).  Each
       arc is encoded as the key ``u * n + v``; checks 2-5 make the
       forward keys strictly increasing, so one unstable sort of the
       reversed keys ``v * n + u`` must reproduce them exactly, and
       the first position where the two differ names the reported
       arc.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.ndim != 1 or indices.ndim != 1:
        raise GraphFormatError("indptr and indices must be 1-D arrays")
    for label, arr in (("indptr", indptr), ("indices", indices)):
        if arr.dtype.kind not in "iu":
            raise GraphFormatError(
                f"{label} must be an integer array, got dtype {arr.dtype}"
            )
        if arr.dtype.kind == "u" and arr.size and int(arr.max()) > np.iinfo(np.int64).max:
            raise GraphFormatError(f"{label} values overflow int64")
    if indptr.size == 0:
        raise GraphFormatError("indptr must have at least one entry")
    if indices.size > MAX_ARCS:
        raise GraphFormatError(
            f"arc count {indices.size} exceeds the supported maximum {MAX_ARCS}"
        )
    n = indptr.size - 1
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}"
        )
    indptr = indptr.astype(np.int64, copy=False)
    indices = indices.astype(np.int64, copy=False)

    if indptr[0] != 0:
        raise GraphFormatError(f"indptr[0] must be 0, got {int(indptr[0])}")
    if indptr[-1] != indices.size:
        raise GraphFormatError(
            f"indptr[-1]={int(indptr[-1])} does not match "
            f"len(indices)={indices.size}"
        )
    row_sizes = np.diff(indptr)
    bad = np.flatnonzero(row_sizes < 0)
    if bad.size:
        v = int(bad[0])
        raise GraphFormatError(
            f"indptr decreases at vertex {v}: "
            f"{int(indptr[v])} -> {int(indptr[v + 1])}"
        )
    if indices.size:
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= n:
            offender = lo if lo < 0 else hi
            at = int(np.flatnonzero(indices == offender)[0])
            raise GraphFormatError(
                f"neighbor id {offender} at indices[{at}] outside [0, {n})"
            )

    # Row owner of every arc: src[k] = vertex whose list holds indices[k].
    src = np.repeat(np.arange(n, dtype=np.int64), row_sizes)

    if indices.size:
        loops = np.flatnonzero(indices == src)
        if loops.size:
            raise GraphFormatError(
                f"self-loop at vertex {int(src[loops[0]])}"
            )
        # Strict per-row sortedness: within a row every consecutive
        # pair must increase; pairs straddling a row boundary are
        # exempt.  (Strict also rules out duplicate neighbors.)
        if indices.size > 1:
            same_row = src[1:] == src[:-1]
            nonincreasing = indices[1:] <= indices[:-1]
            bad = np.flatnonzero(same_row & nonincreasing)
            if bad.size:
                v = int(src[bad[0]])
                raise GraphFormatError(
                    f"adjacency list of vertex {v} is not strictly "
                    f"sorted (offset {int(bad[0])})"
                )
        # Symmetry: the set of (src, dst) arcs must equal the set of
        # (dst, src) arcs.  The checks above leave the forward keys
        # src * n + dst strictly increasing, so sorting the reverse
        # keys once aligns the two, and arc k is the first offender.
        reverse = np.sort(indices * n + src)
        mismatch = np.flatnonzero(src * n + indices != reverse)
        if mismatch.size:
            k = int(mismatch[0])
            raise GraphFormatError(
                f"graph is not symmetric: arc ({int(src[k])}, "
                f"{int(indices[k])}) has no reverse arc"
            )
    if indices.size % 2 != 0:
        raise GraphFormatError(
            f"arc count {indices.size} is odd; a symmetric simple graph "
            f"stores every edge twice"
        )
