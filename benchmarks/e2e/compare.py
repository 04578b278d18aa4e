"""Regression gate over ``bench/v1`` records of the end-to-end benchmark.

Usage::

    python benchmarks/e2e/compare.py BASE.json [BASE.json ...] --new NEW.json [NEW.json ...]

For every workload and every end-to-end metric of ``BENCHMARK.json``
(bounds and directions are read from there) the verdict is one of:

* ``same`` / ``better`` / ``worse`` — the change of the new median
  against the base median, measured against the metric's bound;
* ``unresolved`` — the base runs' own spread (distance between their
  quartiles, as a share of their median) exceeds the bound, so a change
  that small cannot be told from noise; it resolves to ``better`` only
  when every new run beats every base run.  One base run has no spread:
  give several runs per side (with different seeds, as the benchmark's
  own acceptance does) to be protected from noise.

Metrics a record marks ``exact`` (the sim clock) are deterministic for a
seed and compared exactly, seed by seed.  The share of failed requests
may never rise.  Exits 1 on any ``worse`` or a higher failure share,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive means worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict_exact(base: list[tuple], new: list[tuple], better: str) -> str:
    """Seed-by-seed exact comparison of deterministic values."""
    base_by_seed = dict(base)
    pairs = [(base_by_seed[seed], value) for seed, value in new if seed in base_by_seed]
    if not pairs:
        return "unresolved"
    if any(b != n and not beats(n, b, better) for b, n in pairs):
        return "worse"
    return "better" if any(b != n for b, n in pairs) else "same"


def verdict_noisy(base: list[float], new: list[float], better: str, bound: float,
                  base_spread: float) -> str:
    change = worse_by(statistics.median(base), statistics.median(new), better)
    if base_spread > bound:
        if all(beats(n, b, better) for n in new for b in base):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base_docs: list[dict], new_docs: list[dict], spec: dict) -> tuple[list, bool]:
    rows = []
    failed = False
    workloads = [w for w in base_docs[0]["workloads"] if all(w in d["workloads"] for d in base_docs + new_docs)]
    for workload in workloads:
        base_recs = [(d["seed"], d["workloads"][workload]) for d in base_docs]
        new_recs = [(d["seed"], d["workloads"][workload]) for d in new_docs]
        # the bounded metrics, then the exact ones BENCHMARK.json leaves out
        entries = list(spec["end_to_end"])
        listed = {e["name"] for e in entries}
        entries += [
            {"name": name, "bound": 0.0, "better": m["better"]}
            for name, m in base_recs[0][1]["metrics"].items()
            if m.get("exact") and name not in listed and name != "fail_frac"
        ]
        for entry in entries:
            name, bound, better = entry["name"], entry["bound"], entry["better"]
            base = [(seed, rec["metrics"][name]) for seed, rec in base_recs]
            new = [(seed, rec["metrics"][name]) for seed, rec in new_recs]
            base_values = [m["value"] for _, m in base]
            new_values = [m["value"] for _, m in new]
            if base[0][1].get("exact"):
                verdict = verdict_exact(
                    [(s, m["value"]) for s, m in base], [(s, m["value"]) for s, m in new], better
                )
                base_spread = 0.0
            else:
                base_spread = spread(base_values)
                verdict = verdict_noisy(base_values, new_values, better, bound, base_spread)
            failed |= verdict == "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": base[0][1]["unit"],
                    "base": statistics.median(base_values),
                    "new": statistics.median(new_values),
                    "change": worse_by(statistics.median(base_values), statistics.median(new_values), better),
                    "spread": base_spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
        base_fail = max(rec["failed"] / rec["attempted"] for _, rec in base_recs)
        new_fail = max(rec["failed"] / rec["attempted"] for _, rec in new_recs)
        fail_verdict = "worse" if new_fail > base_fail else "same"
        failed |= fail_verdict == "worse"
        rows.append(
            {
                "workload": workload, "metric": "fail_frac", "unit": "ratio",
                "base": base_fail, "new": new_fail, "change": new_fail - base_fail,
                "spread": 0.0, "bound": 0.0, "verdict": fail_verdict,
            }
        )
    return rows, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+", help="bench/v1 records of the base code")
    parser.add_argument("--new", nargs="+", required=True, help="bench/v1 records of the new code")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    docs = {}
    for path in args.base + args.new:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != "bench/v1":
            parser.error(f"{path}: not a bench/v1 record")
        if not all(rec["correct"] for rec in doc["workloads"].values()):
            parser.error(f"{path}: holds an incorrect run")
        docs[path] = doc
    rows, failed = compare([docs[p] for p in args.base], [docs[p] for p in args.new], spec)
    print(f"base: {len(args.base)} run(s), new: {len(args.new)} run(s)")
    print(f"{'workload':<10} {'metric':<12} {'base':>12} {'new':>12} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<10} {row['metric']:<12} {row['base']:>12.6g} {row['new']:>12.6g} "
            f"{row['change']:>+8.2%} {row['spread']:>7.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
