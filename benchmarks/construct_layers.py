"""Per-layer two-clock breakdown of the construct workload.

Runs ``benchmarks/e2e/run.py --workload construct --trace 1`` on one
seed in a child process and prints, per layer (PKC, vertex rank, PHCD,
preprocessing, PBKS), the wall time in calibrated seconds next to the
sim clock and the work charged, then the region-level counters.  The
wall column says where an optimization should aim; the sim and work
columns must not move unless a change means to re-baseline the cost
model.

Usage::

    python benchmarks/construct_layers.py --seed 41
    make construct-layers SEED=41

Writes nothing: ``run.py --workload`` without ``--out`` only prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parent / "e2e" / "run.py"

#: (layer, metric prefix), in pipeline order
LAYERS = (
    ("PKC", "core.pkc"),
    ("vertex rank", "core.rank"),
    ("PHCD", "core.phcd"),
    ("preprocessing", "search.preprocess"),
    ("PBKS", "search.pbks"),
)
COUNTERS = (
    "parallel.regions",
    "parallel.items",
    "parallel.work_units",
    "parallel.atomic_ops",
    "parallel.contention",
    "sim_clock",
)


def layer_table(metrics: dict) -> list[str]:
    """The breakdown as printable lines, from ``run.py``'s metrics."""

    def value(name: str) -> float | None:
        entry = metrics.get(name)
        return None if entry is None else entry["value"]

    def cell(number: float | None, fmt: str) -> str:
        return "-" if number is None else format(number, fmt)

    lines = [f"{'layer':<14} {'wall s':>8} {'sim':>14} {'work':>14}"]
    for layer, prefix in LAYERS:
        lines.append(
            f"{layer:<14} {cell(value(prefix + '_s'), '8.3f')} "
            f"{cell(value(prefix + '_sim'), '14.1f')} "
            f"{cell(value(prefix + '_work'), '14.1f')}"
        )
    lines.append("")
    for name in COUNTERS:
        lines.append(f"{name:<22} {cell(value(name), '.10g')}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "construct",
         "--seed", str(args.seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"construct, seed {args.seed}, correct={result['correct']}")
    print("\n".join(layer_table(result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
