"""k-truss hierarchy via the PHCD framework (Section VI extension).

The paper closes by noting the PHCD/PBKS framework carries over to
other hierarchical cohesive models, naming k-truss first.  This
example decomposes a clustered graph into its trussness classes and
builds the truss hierarchy with the transplanted Algorithm 2 —
union-find over *edges*, shells in descending trussness, pivots and
all — then inspects the communities it finds.

Run:  python examples/truss_communities.py
"""

import numpy as np

from repro import SimulatedPool
from repro.graph.generators import powerlaw_cluster
from repro.truss import EdgeIndex, truss_decomposition, truss_hierarchy


def main() -> None:
    graph = powerlaw_cluster(300, 4, 0.7, seed=3)
    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}")

    index = EdgeIndex(graph)
    pool = SimulatedPool(threads=4)
    trussness = truss_decomposition(graph, index, pool)
    print(f"trussness range: 2..{int(trussness.max())}")
    print("edges per trussness level:")
    for k, count in enumerate(np.bincount(trussness)):
        if count:
            print(f"  k={k:3d}: {count}")

    hierarchy = truss_hierarchy(graph, trussness, pool, index=index)
    print(f"\ntruss hierarchy: {hierarchy.num_nodes} nodes")
    print(f"total simulated time: {pool.clock:.0f}")

    # the deepest community: a tightly knit triangle-rich group
    deepest = int(np.argmax(hierarchy.node_level))
    k = int(hierarchy.node_level[deepest])
    edge_ids = hierarchy.reconstruct(deepest)
    vertices = sorted(
        {int(x) for e in edge_ids for x in index.edges[e]}
    )
    print(
        f"\ndeepest community: a {k}-truss with {edge_ids.size} edges over "
        f"{len(vertices)} vertices: {vertices[:12]}"
        + (" ..." if len(vertices) > 12 else "")
    )
    print(
        "every edge inside it closes at least "
        f"{k - 2} triangles within the community."
    )


if __name__ == "__main__":
    main()
