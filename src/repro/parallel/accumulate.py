"""Parallel bottom-up tree accumulation (Sevilgen, Aluru & Futamura).

PBKS (Algorithm 3, lines 6-9) sums per-tree-node primary values from the
leaves of the HCD towards the roots.  The paper notes this is "efficiently
computed by parallel tree accumulation" [36]; this module provides that
primitive on the simulated scheduler: nodes are grouped by depth and each
depth level is one ``parallel_for`` region whose workers add their node's
values into the parent's slot atomically.

The forest is given as a ``parents`` array (``-1`` marks roots).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import HierarchyError
from repro.parallel.atomics import AtomicArray
from repro.parallel.scheduler import SimulatedPool
from repro.sanitizer.memcheck import san_empty

__all__ = ["tree_depths", "tree_accumulate", "tree_accumulate_euler"]


def tree_depths(parents: Sequence[int]) -> np.ndarray:
    """Depth of each node in the forest (roots have depth 0).

    Raises :class:`HierarchyError` on cycles or out-of-range parents.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.size
    if n and parents.min() >= -1 and parents.max() < n:
        depths = _doubled_depths(parents)
        if depths is not None:
            return depths
    return _walked_depths(parents)


def _doubled_depths(parents: np.ndarray) -> np.ndarray | None:
    """Depths by pointer doubling, or ``None`` when the links have a cycle.

    ``hop[v]`` is an ancestor of ``v`` (``-1`` once past the root) and
    ``dist[v]`` the number of links from ``v`` up to it, or ``v``'s depth
    once ``hop[v]`` is ``-1``.  Every round doubles the span, so a forest
    of ``n`` nodes settles within ``ceil(log2 n)`` rounds; links still
    unsettled after one more round run in a cycle.
    """
    n = parents.size
    hop = parents.copy()
    dist = (hop != -1).astype(np.int64)
    for _ in range(int(n - 1).bit_length() + 1):
        live = np.flatnonzero(hop != -1)
        if not live.size:
            return dist
        up = hop[live]
        dist[live] += dist[up]
        hop[live] = hop[up]
    return None


def _walked_depths(parents: np.ndarray) -> np.ndarray:
    """Depths by walking each node's path up to a known depth; names the
    first out-of-range parent or cycle it meets."""
    n = parents.size
    depths = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if depths[start] != -1:
            continue
        path = []
        node = start
        while node != -1 and depths[node] == -1:
            path.append(node)
            nxt = int(parents[node])
            if nxt != -1 and not 0 <= nxt < n:
                raise HierarchyError(f"parent {nxt} of node {node} out of range")
            if len(path) > n:
                raise HierarchyError("cycle detected in parent links")
            node = nxt
        base = 0 if node == -1 else int(depths[node])
        for offset, member in enumerate(reversed(path), start=1):
            depths[member] = base + offset
        if node == -1 and path:
            # re-anchor: the last element of path is a root at depth 0
            root_depth = depths[path[-1]]
            for member in path:
                depths[member] -= root_depth
    return depths


def tree_accumulate(
    pool: SimulatedPool,
    parents: Sequence[int],
    values: np.ndarray,
    label: str = "tree_accumulate",
) -> np.ndarray:
    """Sum ``values`` up the forest; returns the accumulated copy.

    ``values`` has one row per node (or is 1-D); on return, each node's
    row holds the sum over the node's entire subtree, i.e. exactly the
    primary values of the node's *original k-core* when rows start as
    per-tree-node contributions (PBKS Example 6).

    Each depth level is a parallel region; the adds into parents are
    charged as atomics, so sibling fan-in contention is modelled.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.size
    vals = np.array(values, dtype=np.float64, copy=True)
    flat = vals.ndim == 1
    if flat:
        vals = vals.reshape(n, 1)
    if vals.shape[0] != n:
        raise HierarchyError(
            f"values has {vals.shape[0]} rows for {n} nodes"
        )
    if n == 0:
        return vals.reshape(-1) if flat else vals

    depths = tree_depths(parents)
    width = vals.shape[1]
    sink = AtomicArray(n * width, dtype=np.float64, name=label)
    sink.data = vals.reshape(-1)  # accumulate in place, with charging

    order = np.argsort(depths, kind="stable")
    max_depth = int(depths.max())
    # Process deepest level first; each level in parallel.
    level_start = np.searchsorted(depths[order], np.arange(max_depth + 2))
    for depth in range(max_depth, 0, -1):
        level_nodes = order[level_start[depth] : level_start[depth + 1]]

        def push_to_parent(node: int, ctx) -> None:
            parent = int(parents[node])
            for col in range(width):
                # plain read of the child's row (depth-d rows are only
                # written at the *next* level's region, so the read set
                # and the atomic write set never overlap within a level)
                ctx.read((label, node * width + col))
                sink.add(
                    ctx, parent * width + col, vals[node, col]
                )

        pool.parallel_for(
            [int(v) for v in level_nodes],
            push_to_parent,
            label=f"{label}:depth{depth}",
        )
        vals = sink.data.reshape(n, width)
    result = sink.data.reshape(n, width)
    return result.reshape(-1) if flat else result


def tree_accumulate_euler(
    pool: SimulatedPool,
    parents: Sequence[int],
    values: np.ndarray,
    label: str = "tree_accumulate_euler",
) -> np.ndarray:
    """Subtree sums via Euler tour + parallel prefix scan.

    The alternative Sevilgen-style accumulation with
    ``O(log n)``-round span instead of the depth-synchronous variant's
    ``O(depth)`` rounds: a preorder numbering makes every subtree a
    contiguous range, a Hillis-Steele parallel scan produces prefix
    sums in ``ceil(log2 n)`` regions, and each node's subtree total is
    one range difference.  Results are identical to
    :func:`tree_accumulate` (asserted by the tests); the ablation
    benchmark compares the two region counts on deep forests.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = parents.size
    vals = np.array(values, dtype=np.float64, copy=True)
    flat = vals.ndim == 1
    if flat:
        vals = vals.reshape(n, 1)
    if vals.shape[0] != n:
        raise HierarchyError(f"values has {vals.shape[0]} rows for {n} nodes")
    if n == 0:
        return vals.reshape(-1) if flat else vals
    tree_depths(parents)  # validates parents (cycles, range)

    # Preorder numbering + subtree extents (one serial O(n) pass).
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for node in range(n):
        pa = int(parents[node])
        if pa >= 0:
            children[pa].append(node)
        else:
            roots.append(node)
    preorder = san_empty(n, np.int64, name=f"{label}:preorder")  # position -> node
    start = san_empty(n, np.int64, name=f"{label}:start")  # node -> first position
    end = san_empty(n, np.int64, name=f"{label}:end")  # node -> one past last
    cursor = 0
    for root in roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                end[node] = cursor
                continue
            start[node] = cursor
            preorder[cursor] = node
            cursor += 1
            stack.append((node, True))
            for child in reversed(children[node]):
                stack.append((child, False))
    with pool.serial_region(f"{label}:tour") as ctx:
        ctx.charge(n)

    # Hillis-Steele inclusive scan over values in preorder, one region
    # per doubling stride.
    width = vals.shape[1]
    prefix = vals[preorder].copy()
    stride = 1
    while stride < n:
        source = prefix.copy()

        def shift_add(i: int, ctx) -> None:
            # source is a pre-region snapshot (read-only here); each
            # position owns its prefix row, so writes are disjoint
            ctx.read((f"{label}:source{stride}", int(i - stride)), 0.0)
            ctx.write((f"{label}:prefix", int(i)), width)
            prefix[i] += source[i - stride]

        pool.parallel_for(
            list(range(stride, n)),
            shift_add,
            label=f"{label}:scan{stride}",
        )
        stride *= 2

    # subtree sum of node = prefix[end-1] - prefix[start-1]
    out = san_empty(vals.shape, vals.dtype, name=f"{label}:out")

    def subtree_total(node: int, ctx) -> None:
        # prefix is frozen after the scan regions; each node owns its
        # output row.  start/end are tour positions in [0, n] by
        # construction (every node is pushed exactly once), so the
        # prefix reads stay in bounds.
        hi = prefix[end[node] - 1]  # sani: ok - tour bounds proof above
        lo = prefix[start[node] - 1] if start[node] > 0 else 0.0  # sani: ok - tour bounds
        total = hi - lo
        ctx.write((f"{label}:out", int(node)), width, value=total)
        out[node] = total

    pool.parallel_for(
        list(range(n)), subtree_total, label=f"{label}:ranges"
    )
    return out.reshape(-1) if flat else out
