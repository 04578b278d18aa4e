"""Deterministic synthetic graph generators.

The paper evaluates on ten real-world graphs up to 3.7 billion edges
(Table II).  Those inputs are not redistributable nor tractable here, so
:mod:`repro.analysis.datasets` builds scaled-down stand-ins from the
generator families in this module:

* :func:`erdos_renyi` — homogeneous random graphs (flat shell profile);
* :func:`barabasi_albert` — preferential attachment (social-network-like
  heavy-tailed degrees, deep cores);
* :func:`powerlaw_cluster` — BA plus triangle closure (high clustering,
  exercises the type-B motif counters);
* :func:`rmat` — Kronecker-style skewed graphs (web-crawl-like);
* :func:`planted_partition` — community structure (many k-core tree
  nodes, wide hierarchies);
* :func:`core_chain` — a composed graph whose exact HCD is known in
  closed form; the construction returns the expected hierarchy so tests
  can verify LCPS/PHCD output against ground truth.

Every generator takes an integer ``seed`` and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro.errors import GraphBuildError
from repro.graph.graph import Graph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "powerlaw_cluster",
    "rmat",
    "planted_partition",
    "complete_graph",
    "cycle_graph",
    "star_graph",
    "core_chain",
    "CoreChainSpec",
    "CoreChainResult",
    "RMAT_MAX_SAMPLES",
]

#: Largest number of directed samples :func:`rmat` will draw
#: (``edge_factor * 2**scale``).  Generation holds about 100 bytes of
#: numpy working memory per sample, so the cap keeps a call within a
#: few GiB; scale 26 stays reachable at edge factor 1.  Larger requests
#: raise :class:`~repro.errors.GraphBuildError` before any allocation.
RMAT_MAX_SAMPLES = 1 << 26


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) random graph via geometric edge skipping (O(m) expected)."""
    if not 0.0 <= p <= 1.0:
        raise GraphBuildError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise GraphBuildError("n must be non-negative")
    if n < 2 or p == 0.0:
        return Graph.empty(n)
    rng = _rng(seed)
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        picks = np.arange(total_pairs, dtype=np.int64)
    else:
        # Skip-sampling: successive gaps are geometric(p).
        expected = int(total_pairs * p)
        picks_list: list[int] = []
        pos = -1
        log1mp = np.log1p(-p)
        gaps = rng.random(max(16, expected + 4 * int(np.sqrt(expected + 1)) + 16))
        gi = 0
        while True:
            if gi >= gaps.size:
                gaps = rng.random(gaps.size)
                gi = 0
            gap = int(np.log(gaps[gi]) / log1mp) + 1
            gi += 1
            pos += gap
            if pos >= total_pairs:
                break
            picks_list.append(pos)
        picks = np.asarray(picks_list, dtype=np.int64)
    # Decode linear pair index -> (u, v) with u < v.
    u = (
        n
        - 2
        - np.floor(
            np.sqrt(-8.0 * picks + 4.0 * n * (n - 1) - 7.0) / 2.0 - 0.5
        ).astype(np.int64)
    )
    v = picks + u + 1 - (u * (2 * n - u - 1)) // 2
    return Graph.from_edges(np.column_stack([u, v]), num_vertices=n)


def barabasi_albert(n: int, m_per_vertex: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph: each new vertex links to ``m`` targets.

    Uses the repeated-endpoints trick: sampling uniformly from the edge
    endpoint list is sampling proportionally to degree.
    """
    m = int(m_per_vertex)
    if m < 1:
        raise GraphBuildError("m_per_vertex must be >= 1")
    if n < m + 1:
        raise GraphBuildError(f"need n > m_per_vertex, got n={n}, m={m}")
    rng = _rng(seed)
    # Start from a star on m+1 vertices so every early vertex has degree >= 1.
    endpoints: list[int] = []
    edges: list[tuple[int, int]] = []
    for v in range(1, m + 1):
        edges.append((0, v))
        endpoints.extend((0, v))
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            pick = endpoints[int(rng.integers(0, len(endpoints)))]
            targets.add(pick)
        for t in targets:
            edges.append((v, t))
            endpoints.extend((v, t))
    return Graph.from_edges(edges, num_vertices=n)


def powerlaw_cluster(
    n: int, m_per_vertex: int, triangle_prob: float, seed: int = 0
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like :func:`barabasi_albert`, but after each preferential link a
    triangle-closing link to a neighbor of the last target is added with
    probability ``triangle_prob``.
    """
    m = int(m_per_vertex)
    if m < 1:
        raise GraphBuildError("m_per_vertex must be >= 1")
    if n < m + 1:
        raise GraphBuildError(f"need n > m_per_vertex, got n={n}, m={m}")
    if not 0.0 <= triangle_prob <= 1.0:
        raise GraphBuildError("triangle_prob outside [0, 1]")
    rng = _rng(seed)
    endpoints: list[int] = []
    edges: list[tuple[int, int]] = []
    adj: list[set[int]] = [set() for _ in range(n)]

    def connect(a: int, b: int) -> None:
        edges.append((a, b))
        endpoints.extend((a, b))
        adj[a].add(b)
        adj[b].add(a)

    for v in range(1, m + 1):
        connect(0, v)
    for v in range(m + 1, n):
        added = 0
        last_target = -1
        mine = adj[v]
        while added < m:
            close = (
                last_target >= 0
                and adj[last_target]
                and rng.random() < triangle_prob
            )
            if close:
                candidates = [w for w in adj[last_target] if w != v and w not in mine]
                if candidates:
                    pick = candidates[int(rng.integers(0, len(candidates)))]
                    connect(v, pick)
                    added += 1
                    last_target = pick
                    continue
            pick = endpoints[int(rng.integers(0, len(endpoints)))]
            if pick != v and pick not in mine:
                connect(v, pick)
                added += 1
                last_target = pick
    return Graph.from_edges(edges, num_vertices=n)


def rmat(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """R-MAT / Kronecker-style graph with ``2**scale`` vertices.

    Generates ``edge_factor * 2**scale`` directed samples, symmetrized
    and deduplicated — the skewed, web-crawl-like family (high kmax,
    hub-dominated shells).  ``edge_factor`` must be an integer >= 1 and
    the sample count at most :data:`RMAT_MAX_SAMPLES`.
    """
    if scale < 1 or scale > 26:
        raise GraphBuildError("scale must be in [1, 26]")
    if isinstance(edge_factor, bool) or not isinstance(edge_factor, Integral):
        raise GraphBuildError(
            f"edge_factor must be an integer, got {edge_factor!r}"
        )
    factor = int(edge_factor)
    if factor < 1:
        raise GraphBuildError(f"edge_factor must be >= 1, got {factor}")
    n = 1 << scale
    num_samples = factor * n
    if num_samples > RMAT_MAX_SAMPLES:
        raise GraphBuildError(
            f"rmat({scale}, {factor}) needs {num_samples} samples, "
            f"above RMAT_MAX_SAMPLES={RMAT_MAX_SAMPLES}"
        )
    d = 1.0 - a - b - c
    if d < -1e-9 or min(a, b, c) < 0:
        raise GraphBuildError("R-MAT probabilities must be a valid distribution")
    rng = _rng(seed)
    u = np.zeros(num_samples, dtype=np.int64)
    v = np.zeros(num_samples, dtype=np.int64)
    for level in range(scale):
        r1 = rng.random(num_samples)
        r2 = rng.random(num_samples)
        bit_u = (r1 >= a + b).astype(np.int64)
        # Quadrant-conditional second bit (noise-free variant).
        p_right = np.where(bit_u == 0, b / max(a + b, 1e-12), d / max(c + d, 1e-12))
        bit_v = (r2 < p_right).astype(np.int64)
        u = (u << 1) | bit_u
        v = (v << 1) | bit_v
    return Graph.from_edges(np.column_stack([u, v]), num_vertices=n)


def planted_partition(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> Graph:
    """Planted-partition graph: dense blocks, sparse inter-block edges."""
    if num_communities < 1 or community_size < 1:
        raise GraphBuildError("need at least one community of size >= 1")
    n = num_communities * community_size
    rng = _rng(seed)
    edges: list[tuple[int, int]] = []
    for ci in range(num_communities):
        base = ci * community_size
        block = erdos_renyi(community_size, p_in, seed=int(rng.integers(1 << 30)))
        for u, v in block.edges():
            edges.append((base + u, base + v))
    # inter-community: sample bernoulli per cross pair, vectorized per block pair
    for ci in range(num_communities):
        for cj in range(ci + 1, num_communities):
            mask = rng.random((community_size, community_size)) < p_out
            us, vs = np.nonzero(mask)
            for u, v in zip(us, vs):
                edges.append((ci * community_size + int(u), cj * community_size + int(v)))
    return Graph.from_edges(edges, num_vertices=n)


def complete_graph(n: int) -> Graph:
    """K_n — every vertex has coreness n-1; HCD is a single tree node."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(edges, num_vertices=n)


def cycle_graph(n: int) -> Graph:
    """C_n — every vertex has coreness 2 (for n >= 3)."""
    if n < 3:
        raise GraphBuildError("cycle needs n >= 3")
    edges = [(v, (v + 1) % n) for v in range(n)]
    return Graph.from_edges(edges, num_vertices=n)


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} — all vertices have coreness 1."""
    edges = [(0, v) for v in range(1, leaves + 1)]
    return Graph.from_edges(edges, num_vertices=leaves + 1)


# ----------------------------------------------------------------------
# core_chain: graphs with a known, closed-form HCD
# ----------------------------------------------------------------------


@dataclass
class CoreChainSpec:
    """Specification of one branch of a :func:`core_chain` graph.

    ``corenesses`` lists the target coreness of each nested level from
    the innermost outwards; each level is realized as a clique of size
    ``coreness + 1`` whose vertices are then wired to the inner level so
    their degree stays at the clique level.
    """

    corenesses: list[int] = field(default_factory=lambda: [4, 3, 2])


@dataclass
class CoreChainResult:
    """A generated core-chain graph plus its ground-truth decomposition."""

    graph: Graph
    coreness: np.ndarray
    #: list of (k, frozenset of vertices) for every k-core tree node
    tree_nodes: list[tuple[int, frozenset[int]]]
    #: parent index into ``tree_nodes`` for every tree node (-1 for roots)
    parents: list[int]


def core_chain(
    branches: list[list[int]] | None = None,
    seed: int = 0,
) -> CoreChainResult:
    """Build a graph whose hierarchical core decomposition is known.

    Each branch is a strictly decreasing list of corenesses, e.g.
    ``[5, 3, 2]``: the innermost 5-core is a clique K_6; around it a
    ring of vertices with exactly 3 neighbors at the inner level plus
    enough peers; and so on.  Branches share the outermost level when
    their outermost coreness matches, producing genuine tree structure
    (multiple children under one node), like Figure 1 of the paper.

    The returned :class:`CoreChainResult` carries the exact expected
    coreness of every vertex and the expected tree nodes with their
    parent links, enabling oracle tests for LCPS and PHCD.
    """
    if branches is None:
        branches = [[4, 3, 2], [3, 2]]
    for branch in branches:
        if not branch:
            raise GraphBuildError("each branch needs at least one level")
        if any(k <= 0 for k in branch):
            raise GraphBuildError("corenesses must be positive")
        if any(a <= b for a, b in zip(branch, branch[1:])):
            raise GraphBuildError("branch corenesses must strictly decrease")

    edges: list[tuple[int, int]] = []
    coreness: list[int] = []
    tree_nodes: list[tuple[int, frozenset[int]]] = []
    parents: list[int] = []
    next_id = 0

    def new_vertices(count: int, k: int) -> list[int]:
        nonlocal next_id
        ids = list(range(next_id, next_id + count))
        next_id += count
        coreness.extend([k] * count)
        return ids

    def clique(vertices: list[int]) -> None:
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                edges.append((u, v))

    # Outermost level first: if several branches end with the same
    # outermost coreness, they hang off one shared outer tree node.
    outer_k = min(branch[-1] for branch in branches)
    shells_by_branch: list[list[tuple[int, list[int]]]] = []
    for branch in branches:
        shells: list[tuple[int, list[int]]] = []
        inner_vertices: list[int] = []
        for k in branch:  # innermost -> outermost within the branch
            if not inner_vertices:
                verts = new_vertices(k + 1, k)
                clique(verts)
            else:
                # A (k+1)-clique attached to the inner level by a single
                # edge: the attached vertex has degree k+1 but its k
                # clique-peers have degree exactly k, so peeling at level
                # k+1 strips the whole clique — every clique vertex has
                # coreness exactly k, and the k-core is clique + inner.
                verts = new_vertices(k + 1, k)
                clique(verts)
                edges.append((verts[0], inner_vertices[0]))
            shells.append((k, verts))
            inner_vertices = verts
        shells_by_branch.append(shells)

    # Stitch branches together at the outermost level if they share it;
    # otherwise connect the outermost shells with a path of outer_k-deg
    # filler so the whole graph is one connected component.
    outermost = [shells[-1] for shells in shells_by_branch]
    if len(outermost) > 1:
        bridge = new_vertices(max(2, outer_k + 1), outer_k)
        clique(bridge)
        for bi, (_, verts) in enumerate(outermost):
            edges.append((bridge[bi % len(bridge)], verts[0]))

    graph = Graph.from_edges(edges, num_vertices=next_id)

    # Ground truth is easiest to state via a reference decomposition of
    # the constructed graph itself (the construction keeps coreness at
    # the design values; we verify and then emit tree nodes from the
    # actual structure to avoid off-by-one wiring corner cases).
    from repro.core.decomposition import core_decomposition  # local import: avoid cycle

    actual = core_decomposition(graph)
    tree_nodes, parents = _hcd_ground_truth(graph, actual)
    return CoreChainResult(
        graph=graph,
        coreness=actual,
        tree_nodes=tree_nodes,
        parents=parents,
    )


def _hcd_ground_truth(
    graph: Graph, coreness: np.ndarray
) -> tuple[list[tuple[int, frozenset[int]]], list[int]]:
    """Direct, definitional HCD: for each k, find connected k-cores by BFS.

    Quadratic-ish and only suitable for small test graphs; serves as the
    independent oracle for LCPS and PHCD.
    """
    n = graph.num_vertices
    kmax = int(coreness.max()) if n else 0
    nodes: list[tuple[int, frozenset[int]]] = []
    node_of_core: dict[tuple[int, int], int] = {}  # (k, min vertex of k-core) -> node idx
    parents: list[int] = []
    # For parent lookup: remember for each vertex and k, which k-core contains it.
    core_id_at_level: list[dict[int, int]] = [dict() for _ in range(kmax + 2)]

    for k in range(kmax, -1, -1):
        members = np.flatnonzero(coreness >= k)
        member_set = set(int(v) for v in members)
        seen: set[int] = set()
        for start in sorted(member_set):
            if start in seen:
                continue
            # BFS over vertices with coreness >= k
            comp = [start]
            seen.add(start)
            queue = [start]
            while queue:
                u = queue.pop()
                for w in graph.neighbors(u):
                    w = int(w)
                    if w in member_set and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            rep = min(comp)
            for v in comp:
                core_id_at_level[k][v] = rep
            shell = frozenset(v for v in comp if coreness[v] == k)
            if shell:
                node_idx = len(nodes)
                nodes.append((k, shell))
                node_of_core[(k, rep)] = node_idx
                parents.append(-1)

    # Parent links: the parent of tree node (k, core rep) is the tree node of
    # the smallest k' < k whose k'-core contains the core and owns a shell.
    for idx, (k, shell) in enumerate(nodes):
        probe = next(iter(shell))
        for k2 in range(k - 1, -1, -1):
            rep2 = core_id_at_level[k2].get(probe)
            if rep2 is not None and (k2, rep2) in node_of_core:
                parents[idx] = node_of_core[(k2, rep2)]
                break
    return nodes, parents
