"""Alternating A/B pairs of one e2e workload: a parent checkout against this one.

Runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once in
each checkout per pair, in a fresh child process each time, for
``BENCHMARK.json``'s ``run_seconds``, and swaps which side goes first
from one pair to the next, so drift in the machine's speed lands on
both sides alike.  Each run writes its ``bench/v1`` record into a
temporary directory; the two sides' records are then judged by
``benchmarks/e2e/compare.py``, the repository's own regression gate
(bounds, the ``unresolved`` verdict, exact sim clocks, the failure
share).  On top of that gate this tool adds, for every end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the
number of pairs the change won, and whether a gain would count as
claimed: at least ten pairs were run, the change wins at least nine
pairs in ten, the two medians lie further apart than the parent's
quartiles do, and the change fails no larger share of its requests
than the parent.

Usage::

    git archive PARENT_COMMIT | tar -x -C /tmp/parent
    python benchmarks/ab_pairs.py --parent /tmp/parent --workload serve --seed 23 --pairs 10
    make ab-pairs PARENT=/tmp/parent WORKLOAD=serve SEED=23 PAIRS=10

Writes nothing in either checkout (``run.py --workload`` with ``--out``
and ``--trace 0`` appends to no trajectory; its scratch catalogs are
removed on exit).  Exits 1 when ``compare.py`` would: a metric worse
than its bound, an exact metric that moved the wrong way, or a higher
failure share.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402

#: share of the pairs a claimed gain must win, and the fewest pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One ``run.py --workload`` in ``checkout``; its ``bench/v1`` record."""
    cmd = [
        sys.executable, str(checkout / RUN),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--out", str(out),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0 or not out.is_file():
        raise SystemExit(
            f"{checkout}: run.py exited with status {done.returncode}\n{done.stderr}"
        )
    doc = json.loads(out.read_text())
    if not doc["workloads"][workload]["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed verification")
    return doc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`compare.spread` measures them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / RUN).is_file():
        parser.error(f"{parent} has no {RUN}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    seconds = spec["run_seconds"]
    sides = {"parent": parent, "change": ROOT}
    docs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = Path(scratch) / f"{side}-{pair}.json"
                docs[side].append(run_once(sides[side], args.workload, args.seed, seconds, out))
            shown = "  ".join(
                f"{side} {docs[side][-1]['workloads'][args.workload]['metrics']['wall_s']['value']:.4g}"
                for side in order
            )
            print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): wall_s {shown}", flush=True)

    rows, failed = compare.compare(docs["parent"], docs["change"], spec)
    by_metric = {row["metric"]: row for row in rows}
    fail = by_metric["fail_frac"]
    fails_more = fail["verdict"] == "worse"
    print(
        f"\n{args.workload} seed {args.seed}, {args.pairs} alternating pairs, "
        f"{seconds:g} s each: median [q1, q3], parent -> change"
    )
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {
            side: [doc["workloads"][args.workload]["metrics"][name]["value"] for doc in docs[side]]
            for side in docs
        }
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(values["parent"]), quartiles(values["change"])
        wins = sum(
            compare.beats(c, p, better) for p, c in zip(values["parent"], values["change"])
        )
        row = by_metric[name]
        # a relative gain beyond the parent's relative spread puts the
        # medians further apart than the parent's quartiles
        claim = (
            args.pairs >= MIN_PAIRS
            and wins >= math.ceil(WIN_SHARE * args.pairs)
            and row["change"] < -row["spread"]
            and not fails_more
        )
        print(
            f"  {name:<12} {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] -> "
            f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] {metric['unit']}  "
            f"{row['change']:+.1%} (parent spread {row['spread']:.1%}, bound {row['bound']:.0%}: "
            f"{row['verdict']})  won {wins}/{args.pairs}  "
            f"claim {'holds' if claim else 'does not hold'}"
        )
    bounded = {metric["name"] for metric in spec["end_to_end"]} | {"fail_frac"}
    moved = [row for row in rows if row["metric"] not in bounded and row["verdict"] != "same"]
    print(
        f"  fail share   {fail['base']:.4g} -> {fail['new']:.4g}"
        f"{'  (higher: no gain counts)' if fails_more else ''}"
    )
    for row in moved:
        print(f"  exact {row['metric']} {row['base']:.6g} -> {row['new']:.6g}: {row['verdict']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
