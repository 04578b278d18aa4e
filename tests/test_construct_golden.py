"""Construction pipeline: bit-identical to a recorded golden.

PKC -> vertex rank -> PHCD on both union-find engines -> preprocessing
-> PBKS on one pool, for ``rmat(10, 8)`` at two seeds and 1 and 8
threads, and for ``rmat(13, 8)`` at two seeds and 8 threads, whose
slices are long enough to take the vectorized paths of the slice
operations.  Each case digests the pool clock (its ``repr``), every region
record and every output, so a change to the work charged, to its
float64 summation order, or to an output fails here in tier-1 rather
than only in the end-to-end benchmark.

``tests/data/construct_golden.json`` was recorded from the per-element
kernels that the row operations of ``ThreadContext``, ``AtomicArray``,
``AtomicSet`` and both union-find engines replaced; the ``rmat13``
cases from the row operations, before the slice operations replaced
them.  Refresh it with
``PYTHONPATH=src python -m tests.test_construct_golden`` only for a
deliberate cost or output change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.phcd import phcd_build_hcd
from repro.core.pkc import pkc_core_decomposition
from repro.core.vertex_rank import compute_vertex_rank
from repro.graph.generators import rmat
from repro.parallel.scheduler import SimulatedPool
from repro.search.pbks import pbks_search
from repro.search.preprocessing import preprocess_neighbor_counts

GOLDEN = Path(__file__).parent / "data" / "construct_golden.json"

#: (scale, seed, threads) of every case
CASES = tuple(
    [(10, seed, threads) for seed in (0, 1) for threads in (1, 8)]
    + [(13, seed, 8) for seed in (0, 1)]
)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def digest(scale: int, seed: int, threads: int) -> dict[str, str]:
    """Run the pipeline on one pool; digest everything observable."""
    graph = rmat(scale, 8, seed=seed)
    pool = SimulatedPool(threads=threads)
    coreness = pkc_core_decomposition(graph, pool)
    rank = compute_vertex_rank(graph, coreness, pool)
    hcds = {
        engine: phcd_build_hcd(
            graph, coreness, pool, rank_result=rank,
            use_waitfree=engine == "waitfree", cas_failure_rate=0.1, seed=seed,
        )
        for engine in ("waitfree", "pivot")
    }
    counts = preprocess_neighbor_counts(graph, coreness, pool)
    result = pbks_search(
        graph, coreness, hcds["waitfree"], "conductance", pool,
        counts=counts, rank_result=rank,
    )
    regions = [
        [
            r.label,
            r.threads,
            r.items,
            repr(float(r.work_total)),
            repr(float(r.work_max)),
            r.atomic_ops,
            repr(float(r.contention_penalty)),
            repr(float(r.elapsed)),
            r.kind,
        ]
        for r in pool.regions
    ]
    out = {
        "clock": repr(float(pool.clock)),
        "regions": _sha(regions),
        "coreness": _sha(coreness.tolist()),
        "rank": _sha(rank.rank.tolist()),
        "vsort": _sha(rank.vsort.tolist()),
        "counts": _sha([counts.gt.tolist(), counts.eq.tolist(), counts.lt.tolist()]),
        "pbks": _sha(
            [result.best_node, repr(float(result.best_score)), result.best_k,
             [repr(float(s)) for s in result.scores.tolist()]]
        ),
    }
    for engine, hcd in hcds.items():
        out[f"hcd_{engine}"] = _sha(
            {name: arr.tolist() for name, arr in sorted(hcd.to_arrays().items())}
        )
    return out


def _cases():
    return [f"rmat{scale}-s{seed}/{threads}" for scale, seed, threads in CASES]


def _parse(case: str) -> tuple[int, int, int]:
    graph, threads = case.split("/")
    scale, seed = graph.removeprefix("rmat").split("-s")
    return int(scale), int(seed), int(threads)


@pytest.mark.parametrize("case", _cases())
def test_byte_identical_to_golden(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(*_parse(case)) == golden[case]


if __name__ == "__main__":
    table = {case: digest(*_parse(case)) for case in _cases()}
    GOLDEN.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN} ({len(table)} cases)")
