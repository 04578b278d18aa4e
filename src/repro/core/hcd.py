"""The hierarchical core decomposition (HCD) index.

The HCD of a graph (Definition 3) is a forest: each *k-core tree node*
stores the vertices of coreness ``k`` inside one particular k-core
(Definition 1), and tree edges record which k-core each k'-core is
nested in (Definition 2).  :class:`HCD` is the index of Figure 2:

* ``V(T_i)``  — :meth:`vertices_of`
* ``P(T_i)``  — :attr:`parent`
* ``C(T_i)``  — :attr:`children`
* ``tid(v)``  — :attr:`tid`

Construction algorithms (:mod:`repro.core.lcps`,
:mod:`repro.core.phcd`, and the truss and nucleus hierarchies of
:mod:`repro.core.element_hierarchy`, whose elements play the role of
vertices) assemble an HCD through :class:`HCDBuilder`; the index
itself is immutable and exposes traversal, reconstruction of original
k-cores, canonicalization (for cross-algorithm equality tests), a
vectorized structural :meth:`validate_levels`, and the full
:meth:`validate` used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HierarchyError
from repro.graph.graph import Graph

__all__ = ["HCD", "HCDBuilder", "HCDStats"]

_INT64 = np.dtype(np.int64)


@dataclass(frozen=True)
class HCDStats:
    """Aggregate shape statistics of an HCD forest."""

    num_nodes: int
    num_roots: int
    max_depth: int
    kmax: int
    largest_node: int


class HCD:
    """Immutable hierarchical core decomposition index.

    Parameters mirror the paper's index overview (Section II-B).  Use
    :class:`HCDBuilder` or an algorithm in :mod:`repro.core` to create
    instances; the constructor only wires and freezes the arrays.
    """

    __slots__ = (
        "node_coreness",
        "parent",
        "children",
        "tid",
        "_node_vertices",
        "_depths",
        "_parent_coreness",
    )

    #: parent coreness recorded for roots: below every query ``k``
    ROOT_PARENT_CORENESS = int(np.iinfo(np.int64).min)

    def __init__(
        self,
        node_coreness: np.ndarray,
        parent: np.ndarray,
        tid: np.ndarray,
        node_vertices: list[np.ndarray],
    ) -> None:
        self.node_coreness = np.asarray(node_coreness, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.tid = np.asarray(tid, dtype=np.int64)
        self._node_vertices = [
            vs
            if type(vs) is np.ndarray and vs.dtype is _INT64
            else np.asarray(vs, dtype=np.int64)
            for vs in node_vertices
        ]
        # children[p]: the nodes whose parent is p, ascending — one
        # stable sort of parent groups them with roots (< 0) first
        t = self.num_nodes
        order = np.argsort(self.parent, kind="stable")
        roots = int(np.count_nonzero(self.parent < 0))
        flat = order[roots:].tolist()
        sizes = np.bincount(self.parent[order[roots:]], minlength=t)
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        self.children: list[list[int]] = [
            flat[bounds[i] : bounds[i + 1]] for i in range(t)
        ]
        self._depths: np.ndarray | None = None
        self._parent_coreness: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of k-core tree nodes, the paper's ``|T|``."""
        return int(self.node_coreness.size)

    @property
    def num_vertices(self) -> int:
        """Number of graph vertices indexed by ``tid``."""
        return int(self.tid.size)

    @property
    def kmax(self) -> int:
        """Largest coreness among tree nodes (0 for an empty forest)."""
        return int(self.node_coreness.max()) if self.num_nodes else 0

    def vertices_of(self, node: int) -> np.ndarray:
        """``V(T_node)``: vertices stored directly in the tree node."""
        return self._node_vertices[node]

    def roots(self) -> list[int]:
        """Tree nodes with no parent (one per connected component chain)."""
        return [int(i) for i in np.flatnonzero(self.parent < 0)]

    def node_of_vertex(self, v: int) -> int:
        """``tid(v)``: the tree node containing vertex ``v``."""
        return int(self.tid[v])

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def depths(self) -> np.ndarray:
        """Depth of each node (roots at 0); cached."""
        if self._depths is None:
            from repro.parallel.accumulate import tree_depths

            self._depths = tree_depths(self.parent)
        return self._depths

    def nodes_bottom_up(self) -> list[int]:
        """Node ids ordered deepest-first (children before parents)."""
        return np.argsort(self.depths(), kind="stable")[::-1].tolist()

    def nodes_top_down(self) -> list[int]:
        """Node ids ordered shallowest-first (parents before children)."""
        return list(reversed(self.nodes_bottom_up()))

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes in the subtree rooted at ``node`` (preorder)."""
        out: list[int] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(reversed(self.children[cur]))
        return out

    def reconstruct_core(self, node: int) -> np.ndarray:
        """Vertex set of the node's *original k-core* (subtree union).

        A k-core equals its tree node's vertices plus all offspring tree
        nodes' vertices (Section II-B), sorted ascending.
        """
        parts = [self._node_vertices[i] for i in self.subtree_nodes(node)]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    def core_node_containing(self, v: int, k: int) -> int:
        """Tree node whose original core is the k-core containing ``v``.

        The local k-core query of ShellStruct / CL-Tree (paper Section
        VII): walk up from ``tid(v)`` to the deepest ancestor whose
        coreness is still >= k.  Because no tree node exists between
        that ancestor and its parent, the ancestor's original core *is*
        the k-core containing ``v`` for every k in
        ``(parent coreness, node coreness]``.  Output-sensitive: the
        walk costs the hierarchy depth, not the graph size.

        Returns -1 when ``k`` exceeds ``v``'s coreness (no such core).
        """
        node = int(self.tid[v])
        if k > int(self.node_coreness[node]):
            return -1
        while True:
            pa = int(self.parent[node])
            if pa < 0 or int(self.node_coreness[pa]) < k:
                return node
            node = pa

    def k_core_containing(self, v: int, k: int) -> np.ndarray:
        """Vertex set of the k-core containing ``v`` (empty if none)."""
        node = self.core_node_containing(v, k)
        if node < 0:
            return np.empty(0, dtype=np.int64)
        return self.reconstruct_core(node)

    def maximal_core_nodes(self, k: int) -> list[int]:
        """Tree nodes whose original cores are exactly the k-cores of G.

        These are the nodes with coreness >= k whose parent sits below
        k — one per connected k-core (the k-core *set* partition).  The
        parent coreness of every node is cached on the first call (a
        root's is :attr:`ROOT_PARENT_CORENESS`), so each query is one
        vectorized mask over the |T| nodes; the ids come back
        ascending, as Python ints.
        """
        if self._parent_coreness is None:
            has_parent = self.parent >= 0
            parent_coreness = np.full(
                self.num_nodes, self.ROOT_PARENT_CORENESS, dtype=np.int64
            )
            parent_coreness[has_parent] = self.node_coreness[
                self.parent[has_parent]
            ]
            self._parent_coreness = parent_coreness
        mask = (self.node_coreness >= k) & (self._parent_coreness < k)
        return np.flatnonzero(mask).tolist()

    # ------------------------------------------------------------------
    # comparison & validation
    # ------------------------------------------------------------------

    def canonical_form(
        self,
    ) -> list[tuple[int, tuple[int, ...], int, tuple[int, ...]]]:
        """Order-independent description for equality across algorithms.

        Each entry is ``(k, vertices, parent_k, parent_vertices_min)``
        keyed purely by content; two HCDs of the same graph are equal
        iff their canonical forms are equal, regardless of node ids.
        """
        entries = []
        for node in range(self.num_nodes):
            verts = tuple(int(v) for v in np.sort(self._node_vertices[node]))
            pa = int(self.parent[node])
            if pa < 0:
                pkey: tuple[int, tuple[int, ...]] = (-1, ())
            else:
                pkey = (
                    int(self.node_coreness[pa]),
                    tuple(int(v) for v in np.sort(self._node_vertices[pa])),
                )
            entries.append(
                (int(self.node_coreness[node]), verts, pkey[0], pkey[1])
            )
        entries.sort()
        return entries

    def equivalent_to(self, other: "HCD") -> bool:
        """Content equality ignoring node numbering."""
        return self.canonical_form() == other.canonical_form()

    def stats(self) -> HCDStats:
        """Aggregate shape statistics (used by Table II's ``|T|``)."""
        depths = self.depths() if self.num_nodes else np.zeros(0, dtype=np.int64)
        return HCDStats(
            num_nodes=self.num_nodes,
            num_roots=len(self.roots()),
            max_depth=int(depths.max()) if depths.size else 0,
            kmax=self.kmax,
            largest_node=max(
                (len(vs) for vs in self._node_vertices), default=0
            ),
        )

    def validate_levels(self, levels: np.ndarray) -> None:
        """Check the forest's structure against per-id ``levels``.

        One vectorized pass raising :class:`HierarchyError` unless

        1. the node member sets partition the ids and agree with ``tid``;
        2. every node is non-empty and holds only ids of its own level;
        3. every parent's level is strictly smaller than its child's.

        Element forests (truss, nucleus) call it directly; :meth:`validate`
        runs it before its graph-reconstruction checks.  Check 1 is the
        one :meth:`from_arrays` makes; :meth:`check_levels` is the rest.
        """
        arrays = self.to_arrays()
        _check_forest(
            self.tid, self.parent, arrays["member_offsets"], arrays["members"]
        )
        self.check_levels(levels)

    def check_levels(self, levels: np.ndarray) -> None:
        """Checks 2 and 3 of :meth:`validate_levels`, on a forest whose
        members are known to partition the ids by ``tid`` (any index
        :meth:`from_arrays` returns)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != self.tid.shape:
            raise HierarchyError(
                f"levels have shape {levels.shape} for {self.num_vertices} ids"
            )
        # the members partition the ids by tid, so tid counts the sizes
        sizes = np.bincount(self.tid, minlength=self.num_nodes)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise HierarchyError(f"tree node {int(empty[0])} is empty")
        bad = np.flatnonzero(levels != self.node_coreness[self.tid])
        if bad.size:
            v = int(bad[0])
            raise HierarchyError(
                f"id {v} has level {int(levels[v])} in a "
                f"{int(self.node_coreness[self.tid[v]])}-node"
            )
        child = np.flatnonzero(self.parent >= 0)
        pk = self.node_coreness[self.parent[child]]
        bad = np.flatnonzero(pk >= self.node_coreness[child])
        if bad.size:
            node = int(child[bad[0]])
            raise HierarchyError(
                f"parent level {int(pk[bad[0]])} >= child {node}'s "
                f"{int(self.node_coreness[node])}"
            )

    def validate(self, graph: Graph, coreness: np.ndarray) -> None:
        """Check every HCD invariant; raise :class:`HierarchyError` if broken.

        Invariants checked (Definitions 1-3), the first three by
        :meth:`validate_levels` with ``coreness`` as the levels:

        1. the node vertex sets partition ``V`` and agree with ``tid``;
        2. every vertex in a node has coreness equal to the node's k;
        3. parent coreness is strictly smaller than child coreness;
        4. each reconstructed original k-core is connected in ``G``;
        5. each reconstructed k-core is exactly a maximal connected
           subgraph of ``{v : c(v) >= k}`` — i.e. a true k-core;
        6. the parent's reconstructed core strictly contains the child's.
        """
        coreness = np.asarray(coreness, dtype=np.int64)
        self.validate_levels(coreness)

        # Reconstruction checks against the direct definition.
        for node in range(self.num_nodes):
            k = int(self.node_coreness[node])
            core = self.reconstruct_core(node)
            members = set(int(v) for v in core)
            if any(int(coreness[v]) < k for v in members):
                raise HierarchyError(f"node {node}: core contains low-coreness vertex")
            # connectivity + maximality via BFS in the >=k subgraph
            start = int(core[0])
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in graph.neighbors(u):
                    w = int(w)
                    if coreness[w] >= k and w not in comp:
                        comp.add(w)
                        stack.append(w)
            if comp != members:
                raise HierarchyError(
                    f"node {node}: reconstructed {k}-core is not a maximal "
                    f"connected component of the >= {k} subgraph"
                )
            pa = int(self.parent[node])
            if pa >= 0:
                parent_members = set(int(v) for v in self.reconstruct_core(pa))
                if not members < parent_members:
                    raise HierarchyError(
                        f"node {node}: not strictly contained in parent's core"
                    )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    #: flat-array serialization keys, in :meth:`to_arrays` order
    ARRAY_KEYS = (
        "node_coreness", "parent", "tid", "member_offsets", "members"
    )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array form of the index (node vertex sets in CSR layout).

        The serving snapshot store embeds these arrays (alongside the
        graph CSR and precomputed search state) in its versioned
        bundles; :meth:`save` writes exactly this dictionary.
        """
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum([verts.size for verts in self._node_vertices], out=offsets[1:])
        flat = (
            np.concatenate(self._node_vertices)
            if self.num_nodes
            else np.empty(0, dtype=np.int64)
        )
        return {
            "node_coreness": self.node_coreness,
            "parent": self.parent,
            "tid": self.tid,
            "member_offsets": offsets,
            "members": flat,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "HCD":
        """Rebuild an index from :meth:`to_arrays` output.

        The arrays are treated as untrusted (they may come off disk):
        missing keys, a malformed member-offsets CSR, out-of-range ids
        or members that do not partition the ids by ``tid`` raise
        :class:`HierarchyError` naming the offender instead of
        detonating as a numpy indexing error (or a negative id silently
        wrapping to the last node).  Every array must hold integers
        that fit an int64 (the rule of
        :func:`~repro.graph.checked.validate_csr`).  The index is
        immutable: the int64 arrays it keeps are marked read-only, and
        so are the caller's arrays where they are already int64 (the
        index shares them).
        """
        for key in cls.ARRAY_KEYS:
            if key not in arrays:
                raise HierarchyError(f"HCD arrays missing {key!r}")
            arr = np.asarray(arrays[key])
            # validate_csr's rule: integers that fit an int64, never a
            # float whose fraction the int64 cast would drop
            if arr.dtype.kind not in "iu":
                raise HierarchyError(
                    f"{key} must be an integer array, got dtype {arr.dtype}"
                )
            if (
                arr.dtype.kind == "u"
                and arr.size
                and int(arr.max()) > np.iinfo(np.int64).max
            ):
                raise HierarchyError(f"{key} values overflow int64")
        node_coreness = np.asarray(arrays["node_coreness"], dtype=np.int64)
        parent = np.asarray(arrays["parent"], dtype=np.int64)
        tid = np.asarray(arrays["tid"], dtype=np.int64)
        offsets = np.asarray(arrays["member_offsets"], dtype=np.int64)
        members = np.asarray(arrays["members"], dtype=np.int64)
        t = node_coreness.size
        if parent.size != t:
            raise HierarchyError(
                f"parent has {parent.size} entries for {t} nodes"
            )
        if offsets.size != t + 1:
            raise HierarchyError(
                f"member_offsets has {offsets.size} entries, expected {t + 1}"
            )
        if t and (offsets[0] != 0 or offsets[-1] != members.size):
            raise HierarchyError(
                "member_offsets endpoints do not bracket members "
                f"(got [{int(offsets[0])}, {int(offsets[-1])}] for "
                f"{members.size} members)"
            )
        if np.any(np.diff(offsets) < 0):
            v = int(np.flatnonzero(np.diff(offsets) < 0)[0])
            raise HierarchyError(f"member_offsets decreases at node {v}")
        _check_forest(tid, parent, offsets, members)
        # frozen before slicing, so that every member view is too
        for arr in (node_coreness, parent, tid, members):
            arr.setflags(write=False)
        bounds = offsets.tolist()
        node_vertices = [
            members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return cls(
            node_coreness=node_coreness,
            parent=parent,
            tid=tid,
            node_vertices=node_vertices,
        )

    def save(self, path) -> None:
        """Persist the index with :func:`numpy.savez_compressed`.

        The HCD is the paper's O(n)-space subgraph index; persisting it
        lets later sessions answer core queries without re-running
        construction.  Node vertex sets are stored in CSR layout.  The
        serving layer's versioned snapshot store
        (:mod:`repro.serve.catalog`) extends this single-file form with
        manifests, checksums, and atomic publication.
        """
        np.savez_compressed(path, **self.to_arrays())

    @classmethod
    def load(cls, path) -> "HCD":
        """Reload an index stored with :meth:`save`."""
        with np.load(path) as data:
            return cls.from_arrays({key: data[key] for key in data})

    def __repr__(self) -> str:
        return (
            f"HCD(nodes={self.num_nodes}, vertices={self.num_vertices}, "
            f"kmax={self.kmax})"
        )


def _check_forest(
    tid: np.ndarray, parent: np.ndarray, offsets: np.ndarray, members: np.ndarray
) -> None:
    """Vectorized id-range and partition check of flat forest arrays.

    ``tid`` must lie in ``[0, t)``, ``parent`` in ``[-1, t)`` and the
    members in ``[0, n)``; every id must be listed exactly once, by the
    node its ``tid`` names.  ``offsets`` is the member CSR over the
    ``t = parent.size`` nodes; ``n = tid.size``.
    """
    t, n = parent.size, tid.size
    for name, arr, lo, hi in (
        ("tid", tid, 0, t),
        ("parent", parent, -1, t),
        ("member id", members, 0, n),
    ):
        if arr.ndim != 1:
            raise HierarchyError(f"{name} array must be 1-D, got {arr.shape}")
        if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
            at = int(np.flatnonzero((arr < lo) | (arr >= hi))[0])
            raise HierarchyError(
                f"{name} {int(arr[at])} at [{at}] outside [{lo}, {hi})"
            )
    counts = np.bincount(members, minlength=n)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        v = int(bad[0])
        raise HierarchyError(f"id {v} listed {int(counts[v])} times, not once")
    owner = np.repeat(np.arange(t, dtype=np.int64), np.diff(offsets))
    bad = np.flatnonzero(tid[members] != owner)
    if bad.size:
        v = int(members[bad[0]])
        raise HierarchyError(
            f"tid({v}) = {int(tid[v])} but node {int(owner[bad[0]])} lists it"
        )


class HCDBuilder:
    """Mutable assembler used by the construction algorithms."""

    def __init__(self, num_vertices: int) -> None:
        self._num_vertices = num_vertices
        self._coreness: list[int] = []
        self._parent: list[int] = []
        self._vertices: list[list[int]] = []
        self.tid = np.full(num_vertices, -1, dtype=np.int64)

    def new_node(self, k: int) -> int:
        """Create an empty tree node at coreness ``k``; return its id."""
        node = len(self._coreness)
        self._coreness.append(int(k))
        self._parent.append(-1)
        self._vertices.append([])
        return node

    def add_member(self, node: int, v: int) -> None:
        """Append ``v`` to ``node``'s member list *without* writing ``tid``.

        The parallel construction (PHCD step 3) publishes ``tid``
        itself — via CAS for pivots, per-item stores otherwise — so the
        builder must not issue a second, unrecorded write.
        """
        self._vertices[node].append(int(v))

    def add_vertex(self, node: int, v: int) -> None:
        """Place vertex ``v`` into tree node ``node`` (serial callers)."""
        self.add_member(node, v)
        self.tid[v] = node

    def set_parent(self, child: int, parent: int) -> None:
        """Record ``P(T_child) = T_parent``."""
        self._parent[child] = int(parent)

    @property
    def num_nodes(self) -> int:
        """Nodes created so far."""
        return len(self._coreness)

    def coreness_of(self, node: int) -> int:
        """Coreness of a node created earlier."""
        return self._coreness[node]

    def build(self) -> HCD:
        """Freeze into an immutable :class:`HCD`."""
        if np.any(self.tid < 0):
            missing = int(np.flatnonzero(self.tid < 0)[0])
            raise HierarchyError(f"vertex {missing} was never placed in a node")
        return HCD(
            node_coreness=np.asarray(self._coreness, dtype=np.int64),
            parent=np.asarray(self._parent, dtype=np.int64),
            tid=self.tid,
            node_vertices=[np.asarray(vs, dtype=np.int64) for vs in self._vertices],
        )
