"""Tests for the shared PHCD element framework (truss and nucleus).

* a definitional oracle over the element-index interface, run against
  both adapters;
* malformed level arrays raise :class:`HierarchyError`;
* a byte-identity gate: digests of every region record, the simulated
  clock, the level arrays and the hierarchy arrays must equal
  ``tests/data/element_hierarchy_golden.json``, recorded from the two
  hand-written truss/nucleus builders the framework replaced.  Refresh
  it with ``PYTHONPATH=src python -m tests.test_element_hierarchy``
  only for a deliberate cost or output change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    planted_partition,
    rmat,
    star_graph,
)
from repro.graph.graph import Graph
from repro.nucleus import TriangleIndex, nucleus_decomposition, nucleus_hierarchy
from repro.parallel.scheduler import SimulatedPool
from repro.truss import EdgeIndex, truss_decomposition, truss_hierarchy

GOLDEN = Path(__file__).parent / "data" / "element_hierarchy_golden.json"

#: adapter name -> (index class, decomposition, hierarchy, floor level)
ADAPTERS = {
    "truss": (EdgeIndex, truss_decomposition, truss_hierarchy, 2),
    "nucleus": (TriangleIndex, nucleus_decomposition, nucleus_hierarchy, 0),
}

GRAPHS = {
    "k6": lambda: complete_graph(6),
    "star": lambda: star_graph(8),
    "empty": lambda: Graph.empty(3),
    "planted": lambda: planted_partition(3, 10, 0.6, 0.05, seed=5),
    "gnp": lambda: erdos_renyi(30, 0.3, seed=4),
    "rmat8": lambda: rmat(8, 8, seed=0),
}


def definitional_hierarchy(index, levels, floor):
    """Oracle: per-level motif-connectivity classes by BFS.

    At level ``k`` two elements are adjacent when they share a motif
    whose elements all have level >= k; at ``floor`` the index's outer
    neighbours are adjacent too.
    """
    kmax = int(levels.max()) if len(index) else floor
    motifs = [index.companions(e) for e in range(len(index))]
    outer = [index.outer_neighbors(e) for e in range(len(index))]
    nodes = []
    for k in range(kmax, floor - 1, -1):
        members = set(int(e) for e in np.flatnonzero(levels >= k))
        seen: set[int] = set()
        for start in sorted(members):
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            stack = [start]
            while stack:
                e = stack.pop()
                neighbors = [
                    x
                    for motif in motifs[e]
                    if all(levels[y] >= k for y in motif)
                    for x in motif
                ]
                if k == floor:
                    neighbors += outer[e]
                for other in neighbors:
                    if other in members and other not in seen:
                        seen.add(other)
                        comp.add(other)
                        stack.append(other)
            shell = frozenset(e for e in comp if levels[e] == k)
            if shell:
                nodes.append((k, shell))
    return sorted(nodes)


def hierarchy_nodes(h):
    return sorted(
        (int(h.node_level[i]), frozenset(int(e) for e in h.members_of(i)))
        for i in range(h.num_nodes)
    )


@pytest.mark.parametrize("threads", [1, 8])
@pytest.mark.parametrize("graph", ["rmat8", "planted", "gnp", "k6"])
@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_nodes_match_definitional_oracle(adapter, graph, threads):
    index_cls, decompose, build, floor = ADAPTERS[adapter]
    g = GRAPHS[graph]()
    index = index_cls(g)
    levels = decompose(g, index)
    h = build(g, levels, SimulatedPool(threads=threads), index=index)
    h.validate(levels)
    assert hierarchy_nodes(h) == definitional_hierarchy(index, levels, floor)


@pytest.mark.parametrize("bad", ["below_floor", "short", "two_d"])
@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_malformed_levels_raise(adapter, bad):
    index_cls, _, build, floor = ADAPTERS[adapter]
    g = complete_graph(5)
    index = index_cls(g)
    n = len(index)
    levels = {
        "below_floor": np.full(n, floor - 1),
        "short": np.full(n - 1, floor),
        "two_d": np.full((n, 1), floor),
    }[bad]
    with pytest.raises(HierarchyError):
        build(g, levels, SimulatedPool(), index=index)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def digest(adapter: str, graph: str, threads: int) -> dict[str, str]:
    """Decompose + build on one pool; digest everything observable."""
    index_cls, decompose, build, _ = ADAPTERS[adapter]
    g = GRAPHS[graph]()
    pool = SimulatedPool(threads=threads)
    index = index_cls(g)
    levels = decompose(g, index, pool)
    h = build(g, levels, pool, index=index)
    regions = [
        [
            r.label,
            r.threads,
            r.items,
            r.work_total,
            r.work_max,
            r.atomic_ops,
            repr(float(r.contention_penalty)),
            repr(float(r.elapsed)),
            r.kind,
        ]
        for r in pool.regions
    ]
    return {
        "clock": repr(float(pool.clock)),
        "regions": _sha(regions),
        "levels": _sha(levels.tolist()),
        "node_level": _sha(h.node_level.tolist()),
        "parent": _sha(h.parent.tolist()),
        "elem_node": _sha(h.elem_node.tolist()),
        "members": _sha([h.members_of(i).tolist() for i in range(h.num_nodes)]),
    }


def _cases():
    return [
        f"{graph}/{adapter}/{threads}"
        for graph in GRAPHS
        for adapter in ADAPTERS
        for threads in (1, 8)
    ]


@pytest.mark.parametrize("case", _cases())
def test_byte_identical_to_golden(case):
    graph, adapter, threads = case.split("/")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(adapter, graph, int(threads)) == golden[case]


if __name__ == "__main__":
    table = {}
    for case in _cases():
        graph, adapter, threads = case.split("/")
        table[case] = digest(adapter, graph, int(threads))
    GOLDEN.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN} ({len(table)} cases)")
