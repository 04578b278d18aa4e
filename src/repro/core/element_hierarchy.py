"""One PHCD framework for hierarchies over motif-supported elements.

Paper Section VI: "Inspired by the framework of PHCD ... we can propose
parallel hierarchy construction algorithms ... for other cohesive
subgraph models with a hierarchical decomposition, such as k-truss";
Section VII names the nucleus hierarchy as the open gap.  Both are
(r, s)-nucleus hierarchies (Shi, Dhulipala & Shun): *elements* (edges,
triangles) supported by *motifs* (triangles, K4s).  This module holds
the part they share; :mod:`repro.truss` and :mod:`repro.nucleus` only
supply an element index.

An element index provides

* ``len(index)`` — the number of elements, with dense ids;
* ``companions(i)`` — one tuple per motif through element ``i``, of the
  motif's other elements;
* ``outer_neighbors(i)`` — the elements glued to ``i`` at the
  outermost level (shared endpoint / shared edge), so the forest roots
  follow plain connectivity.

:func:`peel_levels` is the bin-bucket peel that assigns every element
its motif support at removal; :func:`build_element_hierarchy` reruns
Algorithm 2 with elements in the role of vertices:

* shells are level classes, added in descending ``k``;
* a motif carries connectivity at level ``k`` iff all its elements have
  level >= k; at the ``floor`` level ``outer_neighbors`` glue too;
* a pivot union-find over element ids groups shell elements into tree
  nodes and finds parents — PHCD's four steps unchanged.

Every region label, sanitizer name and atomic/write key is derived from
the ``prefix`` and ``slot`` strings.  Core PHCD (:mod:`repro.core.phcd`)
keeps its own specialised loop: it runs on the wait-free union-find and
the construction hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import HierarchyError
from repro.parallel.atomics import AtomicArray, AtomicSet
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty
from repro.unionfind.pivot import PivotUnionFind

__all__ = [
    "ElementHierarchy",
    "motif_supports",
    "peel_levels",
    "build_element_hierarchy",
]


@dataclass
class ElementHierarchy:
    """Forest over motif-connected components of one element level.

    Mirrors the HCD index: ``node_level[i]`` is node i's k, ``parent[i]``
    its parent (-1 for roots), ``elem_node[e]`` the node holding element
    ``e``, and :meth:`members_of` / :meth:`reconstruct` recover node
    contents / whole components as element ids of ``index``.
    """

    index: Any
    node_level: np.ndarray
    parent: np.ndarray
    elem_node: np.ndarray
    _members: list[list[int]]
    children: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        self.children = [[] for _ in range(self.num_nodes)]
        for node in range(self.num_nodes):
            pa = int(self.parent[node])
            if pa >= 0:
                self.children[pa].append(node)

    @property
    def num_nodes(self) -> int:
        return int(self.node_level.size)

    def members_of(self, node: int) -> np.ndarray:
        """Element ids stored directly in ``node``."""
        return np.asarray(self._members[node], dtype=np.int64)

    def subtree_nodes(self, node: int) -> list[int]:
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.children[cur])
        return out

    def reconstruct(self, node: int) -> np.ndarray:
        """All element ids of the node's original component (subtree)."""
        flat = [e for i in self.subtree_nodes(node) for e in self._members[i]]
        return np.asarray(sorted(flat), dtype=np.int64)

    def canonical_form(self):
        """Order-independent content description (for equality tests)."""

        def content(node: int) -> tuple:
            if node < 0:
                return (-1, ())
            return (int(self.node_level[node]), tuple(sorted(self._members[node])))

        return sorted(
            content(node) + content(int(self.parent[node]))
            for node in range(self.num_nodes)
        )

    def validate(self, levels: np.ndarray) -> None:
        """Structural checks: partition, level classes, monotone parents."""
        n = len(self.index)
        seen = np.zeros(n, dtype=bool)
        for node in range(self.num_nodes):
            k = int(self.node_level[node])
            for e in self._members[node]:
                if seen[e]:
                    raise HierarchyError(f"element {e} in two nodes")
                seen[e] = True
                if int(levels[e]) != k:
                    raise HierarchyError(
                        f"element {e} level {levels[e]} in k={k} node"
                    )
                if int(self.elem_node[e]) != node:
                    raise HierarchyError(f"elem_node({e}) != {node}")
            pa = int(self.parent[node])
            if pa >= 0 and int(self.node_level[pa]) >= k:
                raise HierarchyError("parent level must be smaller")
        if n and not bool(seen.all()):
            missing = int(np.flatnonzero(~seen)[0])
            raise HierarchyError(f"element {missing} missing from hierarchy")


def motif_supports(index) -> np.ndarray:
    """Number of motifs through every element (by element id)."""
    return np.array(
        [len(index.companions(i)) for i in range(len(index))], dtype=np.int64
    )


def peel_levels(index, pool: SimulatedPool | None, prefix: str) -> np.ndarray:
    """Every element's motif support at its removal, by bin-bucket peeling.

    Repeatedly remove a minimum-support element and decrement the
    support of the other elements of every still-intact motif through
    it (Wang & Cheng for truss, Sariyüce & Pinar for nuclei).  The
    work — one unit per element, per initial motif incidence, and per
    companion scanned at removal — is charged to ``pool`` as one serial
    region when given.
    """
    n = len(index)
    levels = np.zeros(n, dtype=np.int64)
    if n == 0:
        return levels
    support = motif_supports(index)
    charged = int(support.sum()) + n

    alive = np.ones(n, dtype=bool)
    # bucket queue over supports with lazy entries
    buckets: list[list[int]] = [[] for _ in range(int(support.max()) + 1)]
    for i in range(n):
        buckets[int(support[i])].append(i)
    cursor = 0
    removed = 0
    while removed < n:
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        i = buckets[cursor].pop()
        if not alive[i] or support[i] != cursor:
            continue  # stale entry
        alive[i] = False
        removed += 1
        levels[i] = cursor
        for motif in index.companions(i):
            charged += len(motif)
            if not all(alive[x] for x in motif):
                continue  # this motif is already broken
            for other in motif:
                if support[other] > cursor:
                    support[other] -= 1
                    buckets[int(support[other])].append(other)
    if pool is not None:
        with pool.phase(f"{prefix}:peel"):
            with pool.serial_region(f"{prefix}_decomposition") as ctx:
                ctx.charge(charged)
    return levels


def build_element_hierarchy(
    index,
    levels: np.ndarray,
    pool: SimulatedPool,
    *,
    floor: int,
    prefix: str,
    slot: str,
) -> ElementHierarchy:
    """Build the element hierarchy with PHCD's four steps.

    ``levels`` holds one level >= ``floor`` per element of ``index``;
    anything else raises :class:`HierarchyError`.  Regions are labelled
    ``{prefix}:step{1,1b,2,2b,3,4}_k{k}``.
    """
    n = len(index)
    levels = np.asarray(levels, dtype=np.int64)
    if levels.shape != (n,) or int(levels.min(initial=floor)) < floor:
        raise HierarchyError(
            f"{prefix} levels must be {n} entries >= {floor}, got shape "
            f"{levels.shape}, min {levels.min(initial=floor)}"
        )

    kmax = int(levels.max(initial=floor))
    # element rank: (level, id) — Definition 4 transplanted to elements
    order = np.lexsort((np.arange(n), levels))
    rank = san_empty(n, np.int64, name=f"{prefix}_rank")
    rank[order] = np.arange(n)
    shells: list[list[int]] = [[] for _ in range(kmax + 1)]
    for i in range(n):
        shells[int(levels[i])].append(i)

    uf = PivotUnionFind(rank, name=f"{prefix}_uf")
    elem_node = np.full(n, -1, dtype=np.int64)
    slot_key = f"{prefix}_{slot}"
    node_arr = AtomicArray.from_array(elem_node, name=slot_key)
    node_level: list[int] = []
    node_parent: list[int] = []
    node_members: list[list[int]] = []

    def new_node(k: int) -> int:
        node_level.append(k)
        node_parent.append(-1)
        node_members.append([])
        return len(node_level) - 1

    def live_motifs(i: int, k: int, ctx):
        """Motifs through ``i`` whose elements all have level >= k."""
        ctx.charge(1)
        for motif in index.companions(i):
            ctx.charge(1)
            if all(levels[x] >= k for x in motif):
                yield motif

    for k in range(kmax, floor - 1, -1):
        shell = shells[k]
        if not shell:
            continue
        kpc_pivot = AtomicSet(name=f"{prefix}_kpc_{k}")

        # Step 1: capture pivots of higher components this shell will
        # absorb.  A motif only carries k-level connectivity when all
        # its elements have level >= k; any companion strictly above k
        # then belongs to an existing component.
        def collect(i: int, ctx) -> None:
            for motif in live_motifs(i, k, ctx):
                for other in motif:
                    if levels[other] > k:
                        kpc_pivot.add_if_absent(ctx, uf.get_pivot(other, ctx))

        pool.parallel_for(shell, collect, label=f"{prefix}:step1_k{k}")

        # At the outermost level the forest switches to outer
        # connectivity, so higher components reachable only through an
        # outer neighbour must be captured too.
        if k == floor:
            def collect_outer(i: int, ctx) -> None:
                for other in index.outer_neighbors(i):
                    ctx.charge(1)
                    if levels[other] > floor:
                        kpc_pivot.add_if_absent(ctx, uf.get_pivot(other, ctx))

            pool.parallel_for(
                shell, collect_outer, label=f"{prefix}:step1b_k{k}"
            )

        # Step 2: union along motifs wholly inside the k-level.
        def connect(i: int, ctx) -> None:
            for motif in live_motifs(i, k, ctx):
                for other in motif:
                    uf.union(i, other, ctx)

        pool.parallel_for(shell, connect, label=f"{prefix}:step2_k{k}")

        if k == floor:
            def connect_outer(i: int, ctx) -> None:
                for other in index.outer_neighbors(i):
                    ctx.charge(1)
                    uf.union(i, other, ctx)

            pool.parallel_for(
                shell, connect_outer, label=f"{prefix}:step2b_k{k}"
            )

        # Step 3: group shell elements into nodes by pivot.
        def group(i: int, ctx) -> None:
            pvt = uf.get_pivot(i, ctx)
            node = int(node_arr.load(ctx, pvt))
            if node < 0:
                # create-node race between shell elements of one
                # component: allocate, publish via CAS, loser re-reads
                fresh = new_node(k)
                ctx.atomic((f"{prefix}_nodes",), contended=False)
                if node_arr.compare_and_swap(ctx, pvt, -1, fresh):
                    node = fresh
                else:
                    node = int(node_arr.load(ctx, pvt))
            if i != pvt:
                # each shell element owns its elem_node slot this round
                ctx.write((slot_key, int(i)), 0.0)
                elem_node[i] = node
            ctx.atomic((f"{prefix}_members", node), contended=False)
            node_members[node].append(i)  # sani: ok - tail append, charged atomic above

        pool.parallel_for(shell, group, label=f"{prefix}:step3_k{k}")

        # Step 4: attach captured children under the new nodes.
        def attach(old_pivot: int, ctx) -> None:
            pvt = uf.get_pivot(old_pivot, ctx)
            child = int(node_arr.load(ctx, old_pivot))
            parent = int(node_arr.load(ctx, pvt))
            ctx.write((f"{prefix}_parent", child), 0.0)
            node_parent[child] = parent  # sani: ok - distinct old pivots, distinct children

        pool.parallel_for(list(kpc_pivot), attach, label=f"{prefix}:step4_k{k}")

    return ElementHierarchy(
        index=index,
        node_level=np.asarray(node_level, dtype=np.int64),
        parent=np.asarray(node_parent, dtype=np.int64),
        elem_node=elem_node,
        _members=node_members,
    )
