"""Per-layer two-clock breakdown of one e2e workload.

Runs ``benchmarks/e2e/run.py --workload <workload> --trace 1`` on one
seed in a child process and prints, per layer, the wall time in
calibrated seconds next to the sim clock and the work charged, then the
workload's counters.  Two tables:

* ``construct``: PKC, vertex rank, PHCD, preprocessing, PBKS, then the
  region-level counters;
* ``cluster``: label-propagation sharding, the snapshot build and
  publish, the distributed decomposition and the sharded serving
  calls, then the cluster's compute and comms clocks and its network
  counters (the cluster layers report wall time only; their sim time
  is in ``cluster.compute_clock``/``comms_clock``);
* ``serve``: the snapshot build, publish, open and warm-up, then the
  median hit and miss call in milliseconds, then the serving counters
  and the sim time of each request stage;
* ``dynamic``: the batched repair, the delta publish and the reader's
  refresh, then the time from a batch's submission to its first answer
  (``visible``), then the repair counters and two ratios: the share of
  the sim clock that is atomic contention, and the repair's wall time
  against a from-scratch ``decompose`` of the final graph.

The wall column says where an optimization should aim; the sim and
work columns and the counters must not move unless a change means to
re-baseline the cost model.

Usage::

    python benchmarks/construct_layers.py --seed 41
    python benchmarks/construct_layers.py --workload cluster --seed 41
    make construct-layers SEED=41
    make cluster-layers SEED=41
    make serve-layers SEED=41
    make dynamic-layers SEED=41

Writes nothing: ``run.py --workload`` without ``--out`` only prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parent / "e2e" / "run.py"

#: per workload: the (layer, metric prefix[, wall unit]) rows in pipeline
#: order, then the counters printed below them; the wall column reads
#: ``<prefix>_<unit>``, seconds unless the row names another unit
TABLES = {
    "construct": (
        (
            ("PKC", "core.pkc"),
            ("vertex rank", "core.rank"),
            ("PHCD", "core.phcd"),
            ("preprocessing", "search.preprocess"),
            ("PBKS", "search.pbks"),
        ),
        (
            "parallel.regions",
            "parallel.items",
            "parallel.work_units",
            "parallel.atomic_ops",
            "parallel.contention",
            "sim_clock",
        ),
    ),
    "cluster": (
        (
            ("shard (lp)", "cluster.shard"),
            ("serve build", "serve.build"),
            ("serve publish", "serve.publish"),
            ("decompose", "cluster.decompose"),
            ("serve", "cluster.serve"),
        ),
        (
            "cluster.compute_clock",
            "cluster.comms_clock",
            "cluster.supersteps",
            "cluster.local_rounds",
            "cluster.messages",
            "cluster.bytes",
            "cluster.edge_cut",
            "sim_clock",
        ),
    ),
    "serve": (
        (
            ("build", "serve.build"),
            ("publish", "serve.publish"),
            ("open", "serve.open"),
            ("warm", "serve.warm"),
            ("hit call", "serve.hit_call", "ms"),
            ("miss call", "serve.miss_call", "ms"),
        ),
        (
            "serve.hit_rate",
            "serve.computed",
            "serve.coalesced",
            "serve.batches",
            "serve.admit_sim",
            "serve.plan_sim",
            "serve.cache_sim",
            "serve.execute_sim",
            "sim_clock",
        ),
    ),
    "dynamic": (
        (
            ("apply", "dynamic.apply"),
            ("publish", "serve.publish"),
            ("refresh", "serve.refresh"),
            ("visible", "visible"),
        ),
        (
            "dynamic.changed",
            "dynamic.rounds",
            "dynamic.recompute_s",
            "mutations_per_s",
            "parallel.regions",
            "parallel.work_units",
            "parallel.atomic_ops",
            "parallel.contention",
            "sim_clock",
        ),
    ),
}


#: per workload: (label, numerator, denominator) ratios of two metrics,
#: printed below the counters
RATIOS = {
    "dynamic": (
        ("contention share", "parallel.contention", "sim_clock"),
        ("repair/recompute", "dynamic.apply_s", "dynamic.recompute_s"),
    ),
}


def layer_table(metrics: dict, workload: str = "construct") -> list[str]:
    """The breakdown as printable lines, from ``run.py``'s metrics."""
    layers, counters = TABLES[workload]

    def value(name: str) -> float | None:
        entry = metrics.get(name)
        return None if entry is None else entry["value"]

    def cell(number: float | None, spec: str, width: int = 0) -> str:
        text = "-" if number is None else format(number, spec)
        return text.rjust(width)

    lines = [f"{'layer':<14} {'wall':>8}    {'sim':>14} {'work':>14}"]
    for layer, prefix, *unit in layers:
        unit = unit[0] if unit else "s"
        lines.append(
            f"{layer:<14} {cell(value(f'{prefix}_{unit}'), '.3f', 8)} "
            f"{unit:<2} {cell(value(prefix + '_sim'), '.1f', 14)} "
            f"{cell(value(prefix + '_work'), '.1f', 14)}"
        )
    lines.append("")
    for name in counters:
        lines.append(f"{name:<22} {cell(value(name), '.10g')}")
    for label, num, den in RATIOS.get(workload, ()):
        top, bottom = value(num), value(den)
        ratio = None if top is None or not bottom else top / bottom
        lines.append(f"{label:<22} {cell(ratio, '.4f')}  ({num} / {den})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TABLES), default="construct")
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{args.workload}, seed {args.seed}, correct={result['correct']}")
    print("\n".join(layer_table(result["metrics"], args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
