"""Versioned on-disk index bundles for the HCDServe serving layer.

The paper's premise is build-once/query-many: PHCD constructs the HCD
index so that many PBKS queries can be answered against it.  A
:class:`Snapshot` is the unit of "build once": one immutable bundle
holding everything the query engine needs —

* the graph CSR (``indptr``/``indices``),
* the coreness array,
* the HCD forest (flat arrays, :meth:`repro.core.hcd.HCD.to_arrays`),
* precomputed search state: the neighbor-coreness counts
  (:class:`~repro.search.preprocessing.NeighborCorenessCounts`) and
  the vertex rank / shell ordering of Algorithm 1,

plus a JSON **manifest** recording the format version, per-array
SHA-256 checksums, build parameters, and basic shape statistics.

On disk a snapshot is a directory with exactly two files::

    <dir>/manifest.json   format, build info, array checksums
    <dir>/arrays.npz      the numpy arrays, stored (:func:`numpy.savez`);
                          bundles written deflated by older builds still load

Loading treats the bundle as *untrusted input*: the manifest is parsed
and version-checked first, every array is checksum-verified against
it, the graph CSR goes through :func:`repro.graph.checked.validate_csr`
(run by the default ``Graph(indptr, indices)`` construction), and the
HCD arrays through :meth:`HCD.from_arrays`, which range-checks every
id and checks that the members partition the vertices by ``tid``, and
:meth:`HCD.check_levels`, which checks every node's level against the
stored coreness.  Every array of a loaded snapshot is read-only.
Every failure raises a typed :class:`~repro.errors.SnapshotError`
naming the offending file or field — a truncated npz or a flipped bit
is a clean input error, never a bare ``zipfile``/``numpy`` exception
detonating inside a kernel.

Versioning, atomic publication, and staleness detection live in
:mod:`repro.serve.catalog`.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.hcd import HCD
from repro.core.vertex_rank import VertexRankResult
from repro.errors import GraphFormatError, HierarchyError, SnapshotError
from repro.graph.graph import Graph
from repro.parallel.scheduler import SimulatedPool
from repro.search.preprocessing import (
    NeighborCorenessCounts,
    preprocess_neighbor_counts,
)

__all__ = [
    "FORMAT_VERSION",
    "Snapshot",
    "build_snapshot",
    "snapshot_from_dynamic",
]

#: on-disk format identifier; loaders reject anything else
FORMAT_VERSION = "hcdserve/v1"

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"

#: every array a bundle must carry, in manifest order
ARRAY_KEYS = (
    "indptr",
    "indices",
    "coreness",
    "node_coreness",
    "parent",
    "tid",
    "member_offsets",
    "members",
    "counts_gt",
    "counts_eq",
    "rank",
    "vsort",
)


def _sha256(arr: np.ndarray) -> str:
    """Checksum of an array's raw bytes (C-order, dtype included)."""
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _shells_from_coreness(coreness: np.ndarray) -> list[np.ndarray]:
    """Rebuild the k-shells ``H_k`` (ascending-id) from coreness.

    The shell arrays are derivable state — ``H_k`` is just the sorted
    set ``{v : c(v) = k}`` — so the bundle stores only ``rank`` and
    ``vsort`` and regenerates shells on load, vectorized.
    """
    kmax = int(coreness.max()) if coreness.size else 0
    order = np.lexsort((np.arange(coreness.size), coreness))
    sizes = np.bincount(coreness, minlength=kmax + 1)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        order[bounds[k] : bounds[k + 1]].astype(np.int64)
        for k in range(kmax + 1)
    ]


class Snapshot:
    """One immutable build of the serving index (graph + HCD + search state).

    Construct via :func:`build_snapshot` (from a raw graph),
    :func:`snapshot_from_dynamic` (from a maintained
    :class:`~repro.dynamic.DynamicGraph`), or
    :meth:`Snapshot.load` (from a bundle directory).  ``name`` and
    ``version`` identify the snapshot inside a catalog; ``version`` is
    ``0`` until the catalog publishes it.
    """

    def __init__(
        self,
        graph: Graph,
        coreness: np.ndarray,
        hcd: HCD,
        counts: NeighborCorenessCounts,
        rank_result: VertexRankResult,
        name: str = "snapshot",
        version: int = 0,
        build_info: dict | None = None,
    ) -> None:
        self.graph = graph
        self.coreness = np.asarray(coreness, dtype=np.int64)
        self.hcd = hcd
        self.counts = counts
        self.rank_result = rank_result
        self.name = str(name)
        self.version = int(version)
        self.build_info = dict(build_info or {})

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def version_id(self) -> tuple[str, int]:
        """``(name, version)`` — the cache-key component identifying
        this build; result-cache entries of older versions can never
        collide with a refreshed snapshot's."""
        return (self.name, self.version)

    def decomposition(self, pool: SimulatedPool):
        """The snapshot's single shared decomposition, on ``pool``.

        Returns a :class:`~repro.pipeline.DecompositionResult` wired to
        the given pool *without recomputing anything* — this is how the
        serving executor reuses one decomposition per snapshot instead
        of re-deriving coreness per query, and it plugs straight into
        :func:`repro.pipeline.search_best_core` via its ``deco``
        parameter.
        """
        from repro.pipeline import DecompositionResult

        return DecompositionResult(
            graph=self.graph,
            coreness=self.coreness,
            hcd=self.hcd,
            rank_result=self.rank_result,
            pool=pool,
            phase_times={},
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every persisted array, keyed as in :data:`ARRAY_KEYS`."""
        out = {
            "indptr": self.graph.indptr,
            "indices": self.graph.indices,
            "coreness": self.coreness,
            "counts_gt": np.asarray(self.counts.gt, dtype=np.int64),
            "counts_eq": np.asarray(self.counts.eq, dtype=np.int64),
            "rank": np.asarray(self.rank_result.rank, dtype=np.int64),
            "vsort": np.asarray(self.rank_result.vsort, dtype=np.int64),
        }
        out.update(self.hcd.to_arrays())
        return out

    def manifest(self, arrays: dict[str, np.ndarray] | None = None) -> dict:
        """The JSON manifest of this snapshot; ``arrays`` defaults to :meth:`arrays`."""
        arrays = self.arrays() if arrays is None else arrays
        return {
            "format": FORMAT_VERSION,
            "name": self.name,
            "version": self.version,
            "build": dict(self.build_info),
            "stats": {
                "n": self.graph.num_vertices,
                "m": self.graph.num_edges,
                "kmax": int(self.coreness.max()) if self.coreness.size else 0,
                "hcd_nodes": self.hcd.num_nodes,
            },
            "arrays": {
                key: {
                    "sha256": _sha256(arr),
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                }
                for key, arr in arrays.items()
            },
        }

    def save(self, directory: str | os.PathLike[str]) -> None:
        """Write the bundle (``manifest.json`` + ``arrays.npz``) to ``directory``.

        The arrays are stored, not deflated.  The directory is created
        if needed.  Atomicity across the two files is the catalog's job
        (stage + rename); this method only guarantees each is whole.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = self.arrays()
        np.savez(directory / ARRAYS_FILE, **arrays)
        manifest = self.manifest(arrays)
        with open(directory / MANIFEST_FILE, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, directory: str | os.PathLike[str]) -> "Snapshot":
        """Load and fully validate a bundle directory.

        Raises :class:`SnapshotError` naming the offending file or
        manifest field on any corruption: unreadable/ill-formed
        manifest, format-version skew, truncated or unreadable npz,
        missing/extra arrays, checksum / dtype / shape mismatches, and
        structurally invalid graph or HCD arrays.
        """
        directory = Path(directory)
        manifest = cls._load_manifest(directory)
        raw = cls._load_arrays(directory, manifest)
        return cls._assemble(manifest, raw)

    # -- loader internals ------------------------------------------------

    @staticmethod
    def _load_manifest(directory: Path) -> dict:
        path = directory / MANIFEST_FILE
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise SnapshotError(f"snapshot bundle missing {MANIFEST_FILE} in {directory}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable {MANIFEST_FILE} in {directory}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise SnapshotError(f"{MANIFEST_FILE}: top-level value must be an object")
        fmt = manifest.get("format")
        if fmt != FORMAT_VERSION:
            raise SnapshotError(
                f"{MANIFEST_FILE}: field 'format' is {fmt!r}, this build "
                f"reads {FORMAT_VERSION!r} (format-version skew)"
            )
        for field in ("name", "version", "arrays"):
            if field not in manifest:
                raise SnapshotError(f"{MANIFEST_FILE}: missing field {field!r}")
        if not isinstance(manifest["arrays"], dict):
            raise SnapshotError(f"{MANIFEST_FILE}: field 'arrays' must be an object")
        missing = [key for key in ARRAY_KEYS if key not in manifest["arrays"]]
        if missing:
            raise SnapshotError(
                f"{MANIFEST_FILE}: field 'arrays' missing entries for {missing}"
            )
        return manifest

    @staticmethod
    def _load_arrays(directory: Path, manifest: dict) -> dict[str, np.ndarray]:
        path = directory / ARRAYS_FILE
        try:
            with np.load(path) as data:
                raw = {key: data[key] for key in data.files}
        except FileNotFoundError:
            raise SnapshotError(f"snapshot bundle missing {ARRAYS_FILE} in {directory}") from None
        except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as exc:
            raise SnapshotError(
                f"{ARRAYS_FILE} is truncated or unreadable: {exc}"
            ) from exc
        declared = manifest["arrays"]
        for key in ARRAY_KEYS:
            if key not in raw:
                raise SnapshotError(f"{ARRAYS_FILE}: missing array {key!r}")
        extra = sorted(set(raw) - set(declared))
        if extra:
            raise SnapshotError(
                f"{ARRAYS_FILE}: arrays {extra} not declared in the manifest"
            )
        for key, spec in declared.items():
            if key not in raw:
                raise SnapshotError(f"{ARRAYS_FILE}: missing array {key!r}")
            arr = raw[key]
            if str(arr.dtype) != spec.get("dtype"):
                raise SnapshotError(
                    f"array {key!r}: dtype {arr.dtype} does not match "
                    f"manifest dtype {spec.get('dtype')!r}"
                )
            if list(arr.shape) != list(spec.get("shape", [])):
                raise SnapshotError(
                    f"array {key!r}: shape {list(arr.shape)} does not match "
                    f"manifest shape {spec.get('shape')}"
                )
            if _sha256(arr) != spec.get("sha256"):
                raise SnapshotError(
                    f"array {key!r}: checksum mismatch against the manifest "
                    f"(bundle corrupted?)"
                )
        return raw

    @classmethod
    def _assemble(cls, manifest: dict, raw: dict[str, np.ndarray]) -> "Snapshot":
        # replicas may share one loaded snapshot: none may write into
        # it.  Frozen first, so that every view taken below is too
        for arr in raw.values():
            arr.setflags(write=False)
        try:
            graph = Graph(raw["indptr"], raw["indices"])
        except GraphFormatError as exc:
            raise SnapshotError(f"array 'indptr'/'indices': invalid graph CSR: {exc}") from exc
        n = graph.num_vertices
        coreness = np.asarray(raw["coreness"], dtype=np.int64)
        for key in ("coreness", "tid", "counts_gt", "counts_eq", "rank", "vsort"):
            if raw[key].size != n:
                raise SnapshotError(
                    f"array {key!r}: {raw[key].size} entries for {n} vertices"
                )
        if coreness.size and int(coreness.min()) < 0:
            raise SnapshotError("array 'coreness': negative coreness value")
        try:
            hcd = HCD.from_arrays(raw)
            # the levels a query walks must be the stored coreness
            hcd.check_levels(coreness)
        except HierarchyError as exc:
            raise SnapshotError(f"HCD arrays invalid: {exc}") from exc
        degrees = graph.degrees()
        gt = np.asarray(raw["counts_gt"], dtype=np.int64)
        eq = np.asarray(raw["counts_eq"], dtype=np.int64)
        lt = degrees - gt - eq
        if lt.size and int(lt.min()) < 0:
            v = int(np.flatnonzero(lt < 0)[0])
            raise SnapshotError(
                f"array 'counts_gt'/'counts_eq': counts at vertex {v} "
                f"exceed its degree"
            )
        counts = NeighborCorenessCounts(gt=gt, eq=eq, lt=lt)
        rank = np.asarray(raw["rank"], dtype=np.int64)
        vsort = np.asarray(raw["vsort"], dtype=np.int64)
        shells = _shells_from_coreness(coreness)
        for arr in (coreness, gt, eq, lt, rank, vsort, *shells):
            arr.setflags(write=False)
        rank_result = VertexRankResult(rank=rank, shells=shells, vsort=vsort)
        return cls(
            graph=graph,
            coreness=coreness,
            hcd=hcd,
            counts=counts,
            rank_result=rank_result,
            name=str(manifest["name"]),
            version=int(manifest["version"]),
            build_info=dict(manifest.get("build", {})),
        )

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.name!r} v{self.version}, "
            f"n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"|T|={self.hcd.num_nodes})"
        )


def build_snapshot(
    graph: Graph,
    threads: int = 4,
    pool: SimulatedPool | None = None,
    name: str = "snapshot",
    source: str = "",
) -> Snapshot:
    """Build a snapshot from a raw graph: one decomposition, shared forever.

    Runs :func:`repro.pipeline.decompose` (the parallel PKC + PHCD
    stack) plus the PBKS preprocessing pass exactly once; every query
    served against the snapshot reuses this state.
    """
    from repro.pipeline import decompose

    if pool is None:
        pool = SimulatedPool(threads=threads)
    deco = decompose(graph, parallel=True, pool=pool)
    with pool.phase("preprocessing"):
        counts = preprocess_neighbor_counts(graph, deco.coreness, pool)
    return Snapshot(
        graph=graph,
        coreness=deco.coreness,
        hcd=deco.hcd,
        counts=counts,
        rank_result=deco.rank_result,
        name=name,
        build_info={
            "threads": pool.threads,
            "algorithm": "pkc+phcd",
            "source": source,
        },
    )


def _delta_neighbor_counts(
    graph: Graph,
    coreness: np.ndarray,
    base: NeighborCorenessCounts,
    rows: list[int],
    pool: SimulatedPool,
) -> NeighborCorenessCounts:
    """Recompute the neighbor-coreness counts of ``rows`` only.

    Clean rows keep the previous snapshot's values; each dirty row is
    recounted against the *current* graph and coreness in one
    ``parallel_for`` (disjoint per-row writes).
    """
    indptr = graph.indptr
    indices = graph.indices
    gt = np.array(base.gt, dtype=np.int64)
    eq = np.array(base.eq, dtype=np.int64)

    def recount(v, ctx) -> None:
        vi = int(v)
        start = int(indptr[vi])
        end = int(indptr[vi + 1])
        cv = int(coreness[vi])
        above = 0
        equal = 0
        for j in range(start, end):
            y = int(indices[j])
            ctx.read(("coreness", y))
            cy = int(coreness[y])
            if cy > cv:
                above += 1
            elif cy == cv:
                equal += 1
        ctx.write(("counts_gt", vi))
        gt[vi] = above
        ctx.write(("counts_eq", vi))
        eq[vi] = equal

    pool.parallel_for(rows, recount, label="serve_delta_counts")
    lt = graph.degrees() - gt - eq
    return NeighborCorenessCounts(gt=gt, eq=eq, lt=lt)


def snapshot_from_dynamic(
    dyn,
    threads: int = 4,
    pool: SimulatedPool | None = None,
    name: str = "snapshot",
    previous: "Snapshot | None" = None,
) -> Snapshot:
    """Snapshot the current state of a :class:`~repro.dynamic.DynamicGraph`.

    The incremental-refresh path: the maintained coreness array is
    *reused* (the whole point of traversal maintenance — no fresh core
    decomposition), so only the HCD rebuild, the vertex rank, and the
    preprocessing pass are paid per refresh.

    With ``previous`` (the snapshot published from this same ``dyn``
    when its dirty tracking was last cleared), the refresh is a
    **delta publish**:

    * the vertex rank is reused outright when the coreness array is
      unchanged (rank depends only on coreness);
    * the neighbor-coreness counts are recomputed only for *dirty*
      rows — endpoints of mutated edges, coreness-changed vertices,
      and their current neighbors — under the SimProf phase
      ``dynamic.delta-counts``; clean rows are copied from
      ``previous``.

    Each call **consumes** the graph's dirty tracking
    (:meth:`~repro.dynamic.DynamicGraph.clear_dirty`), establishing the
    new snapshot as the baseline for the next delta.  The HCD forest is
    always rebuilt: an edge mutation can merge or split k-core
    components even when no coreness value moves.
    """
    from repro.core.phcd import phcd_build_hcd
    from repro.core.vertex_rank import compute_vertex_rank

    if pool is None:
        pool = SimulatedPool(threads=threads)
    graph = dyn.to_graph()
    coreness = np.array(dyn.coreness, dtype=np.int64)
    n = graph.num_vertices
    dirty_adj = set(dyn.dirty_adjacency)
    dirty_core = set(dyn.dirty_coreness)
    delta = previous is not None and previous.graph.num_vertices == n
    reused: list[str] = []

    rank_result = None
    if delta and np.array_equal(coreness, previous.coreness):
        rank_result = previous.rank_result
        reused.append("rank")
    with pool.phase("dynamic.hcd" if delta else "hcd"):
        if rank_result is None:
            rank_result = compute_vertex_rank(graph, coreness, pool)
        hcd = phcd_build_hcd(graph, coreness, pool, rank_result=rank_result)
    if delta:
        rows = dirty_adj | dirty_core
        for v in dirty_core:
            rows.update(int(y) for y in graph.neighbors(int(v)))
        with pool.phase("dynamic.delta-counts"):
            counts = _delta_neighbor_counts(
                graph, coreness, previous.counts, sorted(rows), pool
            )
        reused.append(f"counts(clean={n - len(rows)})")
    else:
        with pool.phase("preprocessing"):
            counts = preprocess_neighbor_counts(graph, coreness, pool)
    dyn.clear_dirty()
    return Snapshot(
        graph=graph,
        coreness=coreness,
        hcd=hcd,
        counts=counts,
        rank_result=rank_result,
        name=name,
        build_info={
            "threads": pool.threads,
            "algorithm": "dynamic+phcd",
            "source": f"dynamic(mutations={dyn.mutation_count})",
            "delta": ",".join(reused) if reused else ("full" if delta else ""),
        },
    )
