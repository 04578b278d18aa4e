"""Batched parallel traversal maintenance of the coreness array.

Per-edge traversal maintenance (:mod:`repro.dynamic.maintenance`)
repairs one update at a time: collect the affected k-subcore, peel,
adjust.  Under a *batch* of updates that wastes work twice over — the
same subcore is re-collected for every edge that lands in it, and the
repair runs as serial Python.  This module implements the batched
alternative in the spirit of the level-grouped parallel maintenance
literature (Liu & Dong's parallel k-core; Shi, Dhulipala & Shun's
parallel hierarchy maintenance): group the pending updates by affected
level ``k = min(c(u), c(v))``, collect the **joint** candidate subcore
of all roots at that level once, and run candidate collection and
localized peeling as ``parallel_for`` kernels on a
:class:`~repro.parallel.scheduler.SimulatedPool` — every access
recorded through :class:`~repro.parallel.context.ThreadContext`, so
SimTSan / SimCheck / SimFlow cover the kernels like any other in the
repo.

Algorithm (``batch_repair``)
----------------------------
Structural mutations are applied to the adjacency *before* repair.
The repair then runs two monotone phases:

1. **Demotion** (only if the batch deletes edges): worklist rounds
   seeded by the deleted edges — per round, group seeds by current
   level, collect each level's joint subcore, run the demote peel
   (a vertex keeps level ``k`` only with ``>= k`` supporters of
   effective level ``>= k``), demote failures one level, and feed
   them back as seeds — followed by a **verification sweep** that
   re-runs the demote peel over *every* vertex of each dirty level
   until a full sweep changes nothing.  Coreness only decreases.
2. **Promotion** (only if the batch inserts edges): the mirror-image
   worklist (promote peel at ``k + 1``: a candidate survives with
   ``> k`` supporters among surviving candidates and higher cores;
   survivors rise one level) followed by the promote verification
   sweep over dirty levels.  Coreness only increases, and promotions
   can never invalidate the demotion phase's quiescence (they only
   add support).

Each phase alone terminates (monotone, bounded), and joint quiescence
of the verification sweeps certifies exact coreness: every vertex has
``>= c(v)`` neighbors of level ``>= c(v)`` (so ``c`` is a valid core
witness, hence a lower bound of nothing above the true coreness), and
no level's full peel can lift anyone (so no vertex is undervalued).
Levels never marked dirty are untouched by construction — every level
a vertex passes through, and every pending edge's current level, is
marked.  Because coreness is canonical, the result is bit-identical
to per-edge maintenance and to full recomputation; the property tests
check exactly that at several thread counts.

Determinism across thread counts comes from the same discipline as
the PKC kernel: exactly-once CAS claims on shared frontiers, two-phase
(snapshot then apply) peels with per-vertex slots, per-thread output
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
    rounds: int = 0      # repair worklist rounds run

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
    and :func:`_apply_level` writes both.  The kernels keep only
    candidate-sized state of their own, so a small batch on a large
    graph costs one O(n) listing per repair, not per kernel call.
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
    """Joint k-subcore of all roots: every coreness-``k`` vertex
    connected to a root inside the k-core (paths may hop through
    vertices of coreness ``> k`` — they glue subcore fragments of the
    same k-core together, exactly like the per-edge bridge walk).

    One BFS claims the whole ``>= k`` reachable region through an
    exactly-once CAS per vertex, so the claimed set — and the total
    work — is independent of how the pool partitions each frontier.
    Each row's coreness reads and ``visited`` CAS attempts are charged
    in bulk (one unit per entry, integers only).
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
        members.extend(x for x in frontier if core[x] == k)
        next_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def expand(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            claimed = visited.claim(ctx, [y for y in row if core[y] >= k])
            next_parts[ctx.thread_id].extend(claimed)

        pool.parallel_for(frontier, expand, label=f"dyn_expand:{tag}")
        frontier = _merge_parts(next_parts)
    return sorted(members)


def _peel_promote(
    pool: SimulatedPool,
    state: _RepairState,
    cand: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Localized promote peel at level ``k + 1`` over ``cand``.

    A candidate survives while it keeps ``> k`` neighbors among the
    surviving candidates and the vertices of coreness ``> k``.
    Returns the sorted survivors (their coreness is *not* written
    here).  Two-phase per round: support counted into per-vertex slots
    against a frozen ``alive`` snapshot, then evictions applied to
    disjoint slots — bit-identical at any thread count.
    """
    indices, starts, lens, core = (
        state.indices, state.starts, state.lens, state.core
    )
    alive_list = sorted(cand)
    alive = dict.fromkeys(alive_list, 1)
    supp: dict[int, int] = {}
    nthreads = pool.threads
    while alive_list:

        def count_support(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            ctx.read_row("alive", row)
            s = 0
            for y in row:
                if core[y] > k or alive.get(y, 0):
                    s += 1
            ctx.write(("supp", xi))
            supp[xi] = s

        pool.parallel_for(alive_list, count_support, label=f"dyn_support:{tag}")
        out_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def evict(x, ctx) -> None:
            xi = int(x)
            ctx.read(("supp", xi))
            if supp[xi] <= k:
                ctx.write(("alive", xi))
                alive[xi] = 0
                out_parts[ctx.thread_id].append(xi)

        pool.parallel_for(alive_list, evict, label=f"dyn_evict:{tag}")
        if not any(out_parts):
            break
        alive_list = [x for x in alive_list if alive[x]]
    return alive_list


def _peel_demote(
    pool: SimulatedPool,
    state: _RepairState,
    cand: list[int],
    k: int,
    tag: str,
) -> list[int]:
    """Localized demote peel at level ``k`` over ``cand``.

    A vertex keeps level ``k`` while it has ``>= k`` supporters of
    effective level ``>= k`` (coreness ``> k``, or coreness ``k`` and
    not yet dropped).  Returns the sorted dropped vertices (coreness
    not written here).  Same two-phase snapshot discipline as the
    promote peel.
    """
    indices, starts, lens, core = (
        state.indices, state.starts, state.lens, state.core
    )
    dropped: dict[int, int] = {}
    supp: dict[int, int] = {}
    active = sorted(cand)
    all_dropped: list[int] = []
    nthreads = pool.threads
    while active:

        def count_support(x, ctx) -> None:
            xi = int(x)
            ctx.read(("row_len", xi))
            base = starts[xi]
            row = indices[base : base + lens[xi]].tolist()
            ctx.read_row("coreness", row)
            ctx.read_row("dropped", row)
            s = 0
            for y in row:
                cy = core[y]
                if cy > k or (cy == k and y not in dropped):
                    s += 1
            ctx.write(("supp", xi))
            supp[xi] = s

        pool.parallel_for(active, count_support, label=f"dyn_support:{tag}")
        out_parts: list[list[int]] = [[] for _ in range(nthreads)]

        def evict(x, ctx) -> None:
            xi = int(x)
            ctx.read(("supp", xi))
            if supp[xi] < k:
                ctx.write(("dropped", xi))
                dropped[xi] = 1
                out_parts[ctx.thread_id].append(xi)

        pool.parallel_for(active, evict, label=f"dyn_evict:{tag}")
        evicted = _merge_parts(out_parts)
        if not evicted:
            break
        all_dropped.extend(evicted)
        active = [x for x in active if x not in dropped]
    return sorted(all_dropped)


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


def _group_by_level(
    core: list[int],
    edges: list[tuple[int, int]],
    seeds: set[int],
    dirty_levels: set[int],
) -> dict[int, set[int]]:
    """Map current level ``k`` to the repair roots at that level.

    Every pending edge re-registers at its *current* ``min`` level each
    round (levels move between rounds), and marks it dirty so the
    verification sweep covers it even when the worklist finds nothing.
    """
    level_roots: dict[int, set[int]] = {}
    for u, v in edges:
        k = min(core[u], core[v])
        dirty_levels.add(k)
        for x in (u, v):
            if core[x] == k:
                level_roots.setdefault(k, set()).add(x)
    for x in seeds:
        level_roots.setdefault(core[x], set()).add(x)
    return level_roots


def _demote_phase(
    pool: SimulatedPool,
    state: _RepairState,
    deleted: list[tuple[int, int]],
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Worklist demotion rounds to quiescence; returns rounds run."""
    core = state.core
    seeds: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        level_roots = _group_by_level(core, deleted, seeds, dirty_levels)
        seeds = set()
        any_change = False
        for k in sorted(level_roots, reverse=True):
            if k < 1:
                continue
            roots = sorted(x for x in level_roots[k] if core[x] == k)
            if not roots:
                continue
            with pool.phase(f"dynamic.demote:level-{k}"):
                cand = _collect_subcore(pool, state, roots, k, f"d{k}")
                droppedv = _peel_demote(pool, state, cand, k, f"d{k}")
                if droppedv:
                    _apply_level(pool, state, droppedv, k - 1, f"d{k}")
            if droppedv:
                any_change = True
                dirty_levels.update((k - 1, k))
                changed.update(droppedv)
                seeds.update(droppedv)
        if not any_change:
            return rounds


def _promote_phase(
    pool: SimulatedPool,
    state: _RepairState,
    inserted: list[tuple[int, int]],
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Worklist promotion rounds to quiescence; returns rounds run."""
    core = state.core
    seeds: set[int] = set()
    rounds = 0
    while True:
        rounds += 1
        level_roots = _group_by_level(core, inserted, seeds, dirty_levels)
        seeds = set()
        any_change = False
        for k in sorted(level_roots):
            roots = sorted(x for x in level_roots[k] if core[x] == k)
            if not roots:
                continue
            with pool.phase(f"dynamic.promote:level-{k}"):
                cand = _collect_subcore(pool, state, roots, k, f"i{k}")
                survivors = _peel_promote(pool, state, cand, k, f"i{k}")
                if survivors:
                    _apply_level(pool, state, survivors, k + 1, f"i{k}")
            if survivors:
                any_change = True
                dirty_levels.update((k, k + 1))
                changed.update(survivors)
                seeds.update(survivors)
        if not any_change:
            return rounds


def _verify_demote(
    pool: SimulatedPool,
    state: _RepairState,
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Full-level demote sweeps over dirty levels until quiescent."""
    sweeps = 0
    while True:
        sweeps += 1
        any_change = False
        for k in sorted(dirty_levels, reverse=True):
            if k < 1:
                continue
            cand = np.flatnonzero(state.coreness == k).tolist()
            if not cand:
                continue
            with pool.phase(f"dynamic.verify-demote:level-{k}"):
                droppedv = _peel_demote(pool, state, cand, k, f"v{k}")
                if droppedv:
                    _apply_level(pool, state, droppedv, k - 1, f"v{k}")
            if droppedv:
                any_change = True
                dirty_levels.add(k - 1)
                changed.update(droppedv)
        if not any_change:
            return sweeps


def _verify_promote(
    pool: SimulatedPool,
    state: _RepairState,
    changed: set[int],
    dirty_levels: set[int],
) -> int:
    """Full-level promote sweeps over dirty levels until quiescent."""
    sweeps = 0
    while True:
        sweeps += 1
        any_change = False
        for k in sorted(dirty_levels):
            cand = np.flatnonzero(state.coreness == k).tolist()
            if not cand:
                continue
            with pool.phase(f"dynamic.verify-promote:level-{k}"):
                survivors = _peel_promote(pool, state, cand, k, f"v{k}")
                if survivors:
                    _apply_level(pool, state, survivors, k + 1, f"v{k}")
            if survivors:
                any_change = True
                dirty_levels.add(k + 1)
                changed.update(survivors)
        if not any_change:
            return sweeps


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
    applied.  Returns ``(changed_vertices, worklist_rounds)``.
    """
    state = _RepairState(
        coreness,
        acsr.indices,
        acsr.indptr.tolist(),
        acsr.lens.tolist(),
        coreness.tolist(),
    )
    changed: set[int] = set()
    dirty_levels: set[int] = set()
    rounds = 0
    if deleted:
        rounds += _demote_phase(pool, state, deleted, changed, dirty_levels)
        _verify_demote(pool, state, changed, dirty_levels)
    if inserted:
        rounds += _promote_phase(pool, state, inserted, changed, dirty_levels)
        _verify_promote(pool, state, changed, dirty_levels)
    return changed, rounds
