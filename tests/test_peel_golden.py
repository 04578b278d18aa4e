"""ParK and Julienne core decomposition: bit-identical to a recorded golden.

Each engine runs on its own pool for ``rmat(10, 8)`` at two seeds and
1 and 8 threads, and for ``rmat(13, 8)`` at two seeds and 8 threads,
whose slices are long enough to take the vectorized paths of the slice
operations.  Each case digests the pool clock (its ``repr``), every
region record and the coreness, with the fields
``tests/test_construct_golden.py`` digests, so a change to the work
charged, to its float64 summation order, to a region label or to the
frontier order fails here in tier-1.  PKC is covered by the
construction golden.

``tests/data/peel_golden.json`` was recorded from the per-element
``parallel_for`` kernels of ParK and Julienne, before the three peels
shared one level loop and one settle kernel.  Refresh it with
``PYTHONPATH=src python -m tests.test_peel_golden`` only for a
deliberate cost or output change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import julienne_core_decomposition, park_core_decomposition
from repro.graph.generators import rmat
from repro.parallel.scheduler import SimulatedPool

GOLDEN = Path(__file__).parent / "data" / "peel_golden.json"

ENGINES = {
    "park": park_core_decomposition,
    "julienne": julienne_core_decomposition,
}

#: (scale, seed, threads) of every case
CASES = tuple(
    [(10, seed, threads) for seed in (0, 1) for threads in (1, 8)]
    + [(13, seed, 8) for seed in (0, 1)]
)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def digest(engine: str, scale: int, seed: int, threads: int) -> dict[str, str]:
    """Run one engine on a fresh pool; digest everything observable."""
    graph = rmat(scale, 8, seed=seed)
    pool = SimulatedPool(threads=threads)
    coreness = ENGINES[engine](graph, pool)
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
    return {
        "pool": repr(pool),
        "clock": repr(float(pool.clock)),
        "regions": _sha(regions),
        "coreness": _sha(coreness.tolist()),
    }


def _cases():
    return [
        f"{engine}/rmat{scale}-s{seed}/{threads}"
        for engine in ENGINES
        for scale, seed, threads in CASES
    ]


def _parse(case: str) -> tuple[str, int, int, int]:
    engine, graph, threads = case.split("/")
    scale, seed = graph.removeprefix("rmat").split("-s")
    return engine, int(scale), int(seed), int(threads)


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
