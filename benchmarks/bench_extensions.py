"""Extension benchmarks (paper Section VI & related-work claims).

* **truss hierarchy scaling** — the PHCD framework transplanted to
  k-truss must scale with threads like PHCD does (the Section VI
  claim, quantified);
* **CD engines** — PKC must beat ParK at every thread count ("PKC adds
  more optimization techniques and has a lower synchronization
  overhead", Section VII), with Batagelj-Zaversnik as the serial
  reference;
* **influential-community index** — construction is one cheap pass and
  queries are index-only (the "Efficient Subgraph Index" extension).
"""

from __future__ import annotations

import numpy as np

from common import THREADS, emit, paper_table, sim_seconds
from repro.core.pkc import park_core_decomposition, pkc_core_decomposition
from repro.parallel.scheduler import SimulatedPool
from repro.search.influential import InfluentialCommunityIndex
from repro.truss.decomposition import EdgeIndex, truss_decomposition
from repro.truss.hierarchy import truss_hierarchy


def test_extension_truss_hierarchy_scaling(lab, benchmark):
    """Truss-hierarchy construction scales with simulated threads."""
    b = lab.bundle("H")  # dense, triangle-rich stand-in
    index = EdgeIndex(b.graph)
    trussness = truss_decomposition(b.graph, index)

    def sweep():
        clocks = {}
        reference = None
        for p in THREADS:
            pool = SimulatedPool(threads=p)
            th = truss_hierarchy(b.graph, trussness, pool, index=index)
            clocks[p] = pool.clock
            if reference is None:
                reference = th.canonical_form()
            else:
                assert th.canonical_form() == reference
        return clocks

    clocks = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [f"p={p}", f"{sim_seconds(clocks[p]):.4f}", f"{clocks[1] / clocks[p]:.2f}x"]
        for p in THREADS
    ]
    text = paper_table(
        ["threads", "time (s)", "speedup"],
        rows,
        title="Extension — truss hierarchy via the PHCD framework (H)",
    )
    emit("extension_truss_scaling", text)
    assert clocks[40] < clocks[1] / 2


def test_extension_cd_engines(lab, benchmark):
    """The full engine family: BZ (serial reference), ParK, PKC,
    Julienne/GBBS bucketing, and the MPM distributed iteration.
    Claims: PKC beats ParK everywhere (Sec. VII), Julienne's
    work-efficiency beats PKC's O(n*kmax+m) scans, and every engine's
    output is bit-identical to BZ's (checked in the test suite).
    """
    import numpy as np

    from repro.core.distributed import mpm_core_decomposition
    from repro.core.pkc import julienne_core_decomposition

    b = lab.bundle("LJ")

    def sweep():
        rows = []
        bz = lab.bz_time("LJ")
        for p in THREADS:
            pool_pkc = SimulatedPool(threads=p)
            pkc_core_decomposition(b.graph, pool_pkc)
            pool_park = SimulatedPool(threads=p)
            park_core_decomposition(b.graph, pool_park)
            pool_jln = SimulatedPool(threads=p)
            out = julienne_core_decomposition(b.graph, pool_jln)
            assert np.array_equal(out, b.coreness)
            pool_mpm = SimulatedPool(threads=p)
            mpm_out, _ = mpm_core_decomposition(b.graph, pool_mpm)
            assert np.array_equal(mpm_out, b.coreness)
            rows.append(
                (p, bz, pool_pkc.clock, pool_park.clock, pool_jln.clock, pool_mpm.clock)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = [
        [
            f"p={p}",
            f"{bz / pkc:.2f}x",
            f"{bz / park:.2f}x",
            f"{bz / jln:.2f}x",
            f"{bz / mpm:.2f}x",
        ]
        for (p, bz, pkc, park, jln, mpm) in rows
    ]
    text = paper_table(
        ["threads", "PKC", "ParK", "Julienne", "MPM"],
        rendered,
        title="Extension — CD engines, speedup over serial BZ (LJ)",
    )
    emit("extension_cd_engines", text)
    for (p, bz, pkc, park, jln, mpm) in rows:
        assert pkc < park, f"PKC must beat ParK at p={p}"


def test_extension_influential_index(lab, benchmark):
    """Index construction is cheap; (k, r) queries are index-only."""
    b = lab.bundle("LJ")
    rng = np.random.default_rng(3)
    weights = rng.random(b.graph.num_vertices)

    def build():
        pool = SimulatedPool(threads=40)
        index = InfluentialCommunityIndex(b.hcd, weights, pool)
        return index, pool.clock

    index, build_clock = benchmark.pedantic(build, rounds=1, iterations=1)
    phcd40 = lab.phcd_time("LJ", 40)
    answers = index.top_r(4, 3)
    rows = [
        ["index build", f"{sim_seconds(build_clock):.4f}"],
        ["PHCD(40) for reference", f"{sim_seconds(phcd40):.4f}"],
        [f"top-3 4-cores found", str(len(answers))],
    ]
    text = paper_table(
        ["quantity", "value"],
        rows,
        title="Extension — influential-community index on the HCD (LJ)",
    )
    emit("extension_influential", text)
    assert build_clock < phcd40  # strictly cheaper than building the HCD
    assert answers and answers[0].influence >= answers[-1].influence


def test_extension_nucleus_hierarchy(lab, benchmark):
    """The paper's named open problem, closed and measured.

    Section VII: "there is no parallel solution for the hierarchy
    construction of nucleus decomposition."  The PHCD framework over
    triangles/K4s provides one; this harness measures its thread
    scaling on a dense stand-in fragment and checks thread invariance.
    """
    from repro.graph.generators import planted_partition
    from repro.nucleus import (
        TriangleIndex,
        nucleus_decomposition,
        nucleus_hierarchy,
    )

    graph = planted_partition(4, 24, 0.55, 0.02, seed=17)
    index = TriangleIndex(graph)
    theta = nucleus_decomposition(graph, index)

    def sweep():
        clocks = {}
        reference = None
        for p in THREADS:
            pool = SimulatedPool(threads=p)
            h = nucleus_hierarchy(graph, theta, pool, index=index)
            clocks[p] = pool.clock
            if reference is None:
                reference = h.canonical_form()
            else:
                assert h.canonical_form() == reference
        return clocks

    clocks = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [f"p={p}", f"{sim_seconds(clocks[p]):.4f}", f"{clocks[1] / clocks[p]:.2f}x"]
        for p in THREADS
    ]
    text = paper_table(
        ["threads", "time (s)", "speedup"],
        rows,
        title=(
            "Extension — parallel (3,4)-nucleus hierarchy "
            f"(planted blocks, {len(index)} triangles)"
        ),
    )
    emit("extension_nucleus_scaling", text)
    assert clocks[40] < clocks[1] / 2
