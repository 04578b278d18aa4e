"""Batched parallel traversal maintenance of the coreness array.

The one repair engine behind :class:`~repro.dynamic.maintenance.DynamicGraph`:
a batch of applied mutations (a single edge is a batch of one) is
repaired level by level, in the spirit of the level-grouped parallel
maintenance literature (Liu & Dong's parallel k-core; Shi, Dhulipala &
Shun's parallel hierarchy maintenance) and of Sarıyüce et al.'s
traversal algorithms.  Roots are grouped by level
``k = min(c(u), c(v))``, each level is repaired once for all of its
roots, and candidate collection and localized peeling run as
``parallel_for`` kernels on a
:class:`~repro.parallel.scheduler.SimulatedPool` — every access
recorded through :class:`~repro.parallel.context.ThreadContext`, so
SimTSan / SimCheck / SimFlow cover the kernels like any other in the
repo.

Algorithm (``batch_repair``)
----------------------------
Structural mutations are applied to the adjacency *before* repair.
The repair then runs two monotone phases, each one sweep over levels
that repairs every level at most once (a *round*).  A level's roots
are the mutated endpoints at their edge's level plus the vertices the
sweep moved into the level:

1. **Demotion** (only if the batch deletes edges), levels descending:
   a frontier peel from the level's roots — a vertex keeps level ``k``
   only with ``>= k`` supporters of effective level ``>= k``, and only
   the support of an evicted vertex's level-``k`` neighbors moves.
   Evicted vertices drop one level.  Coreness only decreases.
2. **Promotion** (only if the batch inserts edges), levels ascending:
   the level's candidates are the coreness-``k`` vertices reachable
   from its roots through coreness-``k`` vertices with more than ``k``
   neighbors of coreness ``>= k``; a peel evicts candidates without
   ``> k`` supporters among surviving candidates and higher cores, and
   the survivors rise one level.  Coreness only increases, and
   promotions never break the demotion phase's result (they only add
   support).

The sweep is complete: every vertex whose support at its own level
can change is a root, a vertex the same peel updates, or a root of a
level the sweep reaches later (DESIGN §12, "Locality"), so no level is
ever scanned as a whole.  At the end every vertex has ``>= c(v)``
neighbors of level ``>= c(v)`` and no set of level-``k`` vertices can
sustain ``k + 1``, so ``c`` is
the canonical coreness: bit-identical to per-edge maintenance and to
full recomputation, which ``tests/test_dynamic_oracle.py`` checks on
generated graphs and batches at several thread counts.

Determinism across thread counts comes from the same discipline as
the PKC kernel: exactly-once claims on shared frontiers, two-phase
(count then evict) peels with per-vertex slots, per-thread output
buffers merged and sorted between regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphBuildError
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool

__all__ = [
    "BatchUpdateReport",
    "normalize_batch",
    "batch_repair",
]


# ----------------------------------------------------------------------
# batch normalization / validation
# ----------------------------------------------------------------------


@dataclass
class BatchUpdateReport:
    """Outcome of one batched update (or one batch-API call).

    ``skipped`` holds ``(u, v, reason)`` triples for entries the
    documented skip policy dropped (``"self-loop"``, ``"duplicate"``,
    ``"present"``, ``"absent"``); anything *invalid* (out-of-range or
    non-integer endpoints) raises instead, before any mutation.
    """

    applied_insertions: list[tuple[int, int]] = field(default_factory=list)
    applied_deletions: list[tuple[int, int]] = field(default_factory=list)
    skipped: list[tuple[int, int, str]] = field(default_factory=list)
    changed: int = 0     # vertices whose coreness moved
    rounds: int = 0      # repair rounds run (one level each)

    @property
    def applied(self) -> int:
        """Total structural mutations applied."""
        return len(self.applied_insertions) + len(self.applied_deletions)

    def as_dict(self) -> dict:
        return {
            "applied_insertions": len(self.applied_insertions),
            "applied_deletions": len(self.applied_deletions),
            "skipped": len(self.skipped),
            "changed": self.changed,
            "rounds": self.rounds,
        }


def normalize_batch(
    edges, num_vertices: int, where: str = "batch"
) -> tuple[list[tuple[int, int]], list[tuple[int, int, str]]]:
    """Validate and canonicalize a whole edge batch **up front**.

    Every endpoint is checked before anything is applied — a bad entry
    raises :class:`~repro.errors.GraphBuildError` naming its position,
    leaving the caller's graph untouched (batch atomicity).  Edges are
    canonicalized to ``(min, max)``; self-loops and within-batch
    duplicates (including reversed ``(v, u)`` repeats) are dropped into
    the skip list, never silently.
    """
    canonical: list[tuple[int, int]] = []
    skipped: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()
    for pos, pair in enumerate(edges):
        try:
            u, v = pair
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise GraphBuildError(
                f"{where}[{pos}]: expected an edge pair, got {pair!r}"
            ) from None
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphBuildError(
                f"{where}[{pos}]: endpoint out of range: ({u}, {v}) "
                f"for {num_vertices} vertices"
            )
        if u == v:
            skipped.append((u, v, "self-loop"))
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            skipped.append((u, v, "duplicate"))
            continue
        seen.add(edge)
        canonical.append(edge)
    return canonical, skipped


# ----------------------------------------------------------------------
# parallel kernels
# ----------------------------------------------------------------------


def _merge_parts(parts: list[list[int]]) -> list[int]:
    """Deterministic (sorted) merge of per-thread output buffers."""
    return sorted(y for part in parts for y in part)


@dataclass
class _RepairState:
    """What one :func:`batch_repair` call reads, as native values.

    The adjacency does not change during a repair, so ``starts`` and
    ``lens`` are listed once per call; ``core`` mirrors ``coreness``
    and :func:`_apply_level` writes both.  The kernels keep
    candidate-sized state, apart from zeroed n-word numpy arrays (one
    per BFS, one ``supp`` per peel, one ``touched`` per peel pass), so
    the Python work of a small batch on a large graph is O(n) once per
    repair.
    """

    coreness: np.ndarray
    indices: np.ndarray
    starts: list[int]
    lens: list[int]
    core: list[int]


def _collect_subcore(
    pool: SimulatedPool,
    state: _RepairState,
    roots: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Promote candidates at level ``k``: the coreness-``k`` vertices with
    more than ``k`` neighbors of coreness ``>= k``, connected to a root
    through such vertices only.

    No path hops through a higher core, and none through a vertex that
    could not reach ``k + 1`` even if every level-``k`` neighbor rose
    with it (DESIGN §12, "Locality").  One BFS claims each visited
    vertex through a test-and-test-and-set (:meth:`AtomicArray.claim`),
    so the candidates — and the total work — are independent of how the
    pool partitions each frontier.  Each row's coreness reads and
    ``visited`` loads and CAS attempts are charged in bulk (one unit per
    entry, integers only).
    """
    indices, starts, lens, core = (
        state.indices, state.starts, state.lens, state.core
    )
    visited = AtomicArray(len(core), name="visited")
    nthreads = pool.threads
    seed_parts: list[list[int]] = [[] for _ in range(nthreads)]

    def claim_root(x, ctx) -> None:
        xi = int(x)
        ctx.read(("coreness", xi))
        if visited.compare_and_swap(ctx, xi, 0, 1):
            seed_parts[ctx.thread_id].append(xi)

    pool.parallel_for(list(roots), claim_root, label=f"dyn_seed:{tag}")
    frontier = _merge_parts(seed_parts)
    members: list[int] = []
    while frontier:
        member_parts: list[list[int]] = [[] for _ in range(nthreads)]
        next_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def expand(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            if sum(1 for y in row if core[y] >= k) <= k:
                return
            member_parts[ctx.thread_id].append(xi)
            claimed = visited.claim(ctx, [y for y in row if core[y] == k])
            next_parts[ctx.thread_id].extend(claimed)

        pool.parallel_for(frontier, expand, label=f"dyn_expand:{tag}")
        members.extend(_merge_parts(member_parts))
        frontier = _merge_parts(next_parts)
    return sorted(members)


def _peel(
    pool: SimulatedPool,
    state: _RepairState,
    active: list[int],
    k: int,
    tag: str,
    cand: list[int] | None = None,
) -> list[int]:
    """Localized peel at level ``k``; returns the sorted evicted vertices.

    A level-``k`` vertex is *live* until evicted: a member of ``cand``
    for the promote peel, any coreness-``k`` vertex for the demote peel
    (``cand`` is ``None``).  A vertex stays while it has ``need``
    supporters — neighbors of coreness ``> k`` or live — where ``need``
    is ``k + 1`` to rise and ``k`` to keep its level.  Each vertex's
    support is counted once, when it is first reached (``active`` in
    the first pass, then the uncounted live neighbors of evicted
    vertices); after that every eviction decrements its counted live
    neighbors, and a vertex is tested again only when a decrement takes
    it below ``need`` (the fetch-add handoff of PKC's peel).  Every pass
    is two-phase — support counted into per-vertex slots, then
    evictions written to the evicted vertex's own slot, then the
    decrements and the next pass's vertices claimed exactly once — so
    the result is bit-identical at any thread count.
    """
    indices, starts, lens, core = (
        state.indices, state.starts, state.lens, state.core
    )
    live = None if cand is None else dict.fromkeys(cand, 1)
    need = k if cand is None else k + 1
    status: dict[int, int] = {}  # 1: counted, 2: evicted
    supp = AtomicArray(len(core), name="supp")
    out: list[int] = []
    nthreads = pool.threads
    fresh, short = sorted(active), []
    while fresh or short:

        def count_support(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            ctx.read_row("status", row)
            s = 0
            for y in row:
                cy = core[y]
                if cy > k or (cy == k and status.get(y) != 2 and (
                        live is None or y in live)):
                    s += 1
            supp.add(ctx, xi, s)

        pool.parallel_for(fresh, count_support, label=f"dyn_support:{tag}")
        for x in fresh:
            status[x] = 1
        out_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def evict(x, ctx) -> None:
            xi = int(x)
            if supp.load(ctx, xi) < need:
                ctx.write(("status", xi))
                status[xi] = 2
                out_parts[ctx.thread_id].append(xi)

        pool.parallel_for(
            sorted(set(fresh).union(short)), evict, label=f"dyn_evict:{tag}"
        )
        gone = _merge_parts(out_parts)
        if not gone:
            break
        out.extend(gone)
        touched = AtomicArray(len(core), name="touched")
        fresh_parts: list[list[int]] = [[] for _ in range(nthreads)]
        short_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def touch(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            ctx.read_row("status", row)
            nbrs = [
                y for y in row
                if core[y] == k and status.get(y) != 2
                and (live is None or y in live)
            ]
            short_parts[ctx.thread_id].extend(supp.add_row(
                ctx, [y for y in nbrs if y in status], -1, need - 1
            ))
            fresh_parts[ctx.thread_id].extend(touched.claim(
                ctx, [y for y in nbrs if y not in status]
            ))

        pool.parallel_for(gone, touch, label=f"dyn_touch:{tag}")
        fresh, short = _merge_parts(fresh_parts), _merge_parts(short_parts)
    return sorted(out)


def _apply_level(
    pool: SimulatedPool,
    state: _RepairState,
    vertices: list[int],
    level: int,
    tag: str,
) -> None:
    """Write ``level`` into every vertex's coreness slot (disjoint)."""
    coreness = state.coreness

    def assign(x, ctx) -> None:
        xi = int(x)
        ctx.write(("coreness", xi))
        coreness[xi] = level

    pool.parallel_for(sorted(vertices), assign, label=f"dyn_apply:{tag}")
    for x in vertices:
        state.core[x] = level


# ----------------------------------------------------------------------
# phase orchestration
# ----------------------------------------------------------------------


def _repair_phase(
    pool: SimulatedPool,
    state: _RepairState,
    edges: list[tuple[int, int]],
    changed: set[int],
    step: int,
) -> int:
    """One monotone phase as a single sweep over levels; returns the
    rounds run, one per level repaired.

    ``step`` is ``-1`` for the demote phase (levels descending) and
    ``+1`` for the promote phase (levels ascending).  A level's roots
    are the endpoints of ``edges`` at their edge's level, plus the
    vertices the sweep moved into the level from the one before.  A
    repair moves vertices only one level along the sweep, and never
    changes the support of a level already repaired, so each level is
    repaired once and the sweep is complete (DESIGN §12, "Locality").
    """
    core = state.core
    phase, tag = ("demote", "d") if step < 0 else ("promote", "i")
    pending: dict[int, set[int]] = {}
    for u, v in edges:
        k = min(core[u], core[v])
        pending.setdefault(k, set()).update(x for x in (u, v) if core[x] == k)
    rounds = 0
    while pending:
        k = max(pending) if step < 0 else min(pending)
        roots = sorted(pending.pop(k))
        if k + step < 0:
            continue
        rounds += 1
        with pool.phase(f"dynamic.{phase}:level-{k}"):
            if step < 0:
                moved = _peel(pool, state, roots, k, f"{tag}{k}")
            else:
                cand = _collect_subcore(pool, state, roots, k, f"{tag}{k}")
                evicted = _peel(pool, state, cand, k, f"{tag}{k}", cand)
                moved = sorted(set(cand) - set(evicted))
            if moved:
                _apply_level(pool, state, moved, k + step, f"{tag}{k}")
        if moved:
            changed.update(moved)
            pending.setdefault(k + step, set()).update(moved)
    return rounds


def batch_repair(
    acsr,
    coreness: np.ndarray,
    inserted: list[tuple[int, int]],
    deleted: list[tuple[int, int]],
    pool: SimulatedPool,
) -> tuple[set[int], int]:
    """Repair ``coreness`` in place after a batch of applied mutations.

    ``acsr`` is the already-mutated adjacency (``DynamicCSR`` or any
    object exposing ``indptr`` / ``indices`` / ``lens``); ``inserted``
    and ``deleted`` are the canonical edge lists that were actually
    applied.  Returns ``(changed_vertices, rounds)``, one round per
    level repaired.
    """
    state = _RepairState(
        coreness,
        acsr.indices,
        acsr.indptr.tolist(),
        acsr.lens.tolist(),
        coreness.tolist(),
    )
    changed: set[int] = set()
    rounds = 0
    if deleted:
        rounds += _repair_phase(pool, state, deleted, changed, -1)
    if inserted:
        rounds += _repair_phase(pool, state, inserted, changed, +1)
    return changed, rounds
