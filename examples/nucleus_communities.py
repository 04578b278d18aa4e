"""(3,4)-nucleus hierarchy — the paper's named open problem, running.

The paper's related work closes with: "there is no parallel solution
for the hierarchy construction of nucleus decomposition."  The PHCD
framework is motif-agnostic, so this repository provides one: elements
are triangles, adjacency is K4 co-membership, and Algorithm 2's four
pivot/union-find steps apply unchanged.

This example decomposes a graph with planted dense blocks and walks
the nucleus communities it finds — the densest-of-the-dense regions
that even k-truss cannot separate.

Run:  python examples/nucleus_communities.py
"""

import numpy as np

from repro import SimulatedPool
from repro.graph.generators import planted_partition
from repro.nucleus import (
    TriangleIndex,
    nucleus_decomposition,
    nucleus_hierarchy,
    vertices_of_nucleus,
)


def main() -> None:
    graph = planted_partition(3, 18, 0.6, 0.03, seed=11)
    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}")

    index = TriangleIndex(graph)
    print(f"triangles: {len(index)}")

    pool = SimulatedPool(threads=4)
    theta = nucleus_decomposition(graph, index, pool)
    print(f"nucleus numbers: 0..{int(theta.max())}")
    print("triangles per theta level:")
    for k, count in enumerate(np.bincount(theta)):
        if count:
            print(f"  theta={k:3d}: {count}")

    hierarchy = nucleus_hierarchy(graph, theta, pool, index=index)
    print(f"\nnucleus hierarchy: {hierarchy.num_nodes} nodes")
    print(f"total simulated time: {pool.clock:.0f}")

    deepest = int(np.argmax(hierarchy.node_coreness))
    k = int(hierarchy.node_coreness[deepest])
    members = vertices_of_nucleus(index, hierarchy, deepest)
    tris = hierarchy.reconstruct_core(deepest)
    print(
        f"\ndeepest community: a {k}-(3,4)-nucleus with {tris.size} "
        f"triangles over {members.size} vertices"
    )
    print(f"vertices: {members[:15].tolist()}" + (" ..." if members.size > 15 else ""))
    print(
        f"every triangle inside it participates in at least {k} K4s "
        "within the community — a strictly tighter notion than k-core "
        "degree or k-truss triangle support."
    )


if __name__ == "__main__":
    main()
