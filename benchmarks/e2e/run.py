"""Two-clock end-to-end benchmark: construct, search, serve, dynamic, cluster.

Usage::

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--quick] [--out PATH]

Without ``--workload`` every workload runs, one at a time, each in a
fresh child process; the merged ``bench/v1`` record goes to ``--out``
(default ``benchmarks/e2e/results/latest.json``) and a full-size run
appends one line to ``results/trajectory.jsonl``.  With ``--workload``
the workload runs in this process, and the last line printed is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

Each workload sets up three times (``setup_s`` is the median), then
runs whole iterations until ``--seconds`` is spent, and at least the
workload's minimum.  ``--trace`` adds a separate traced pass: a fresh
set-up and one iteration with layer spans and SimProf attached, whose
sim clock must equal the untraced first iteration's.  It writes
``results/trace-<workload>.json``, a Chrome trace carrying both clocks.

Every output is checked before anything is reported; a mismatch exits
with status 2, and a checkout without ``src/repro`` exits with status 1.
Inputs come from ``--seed`` alone, so one seed gives the same graphs,
requests and mutations on every run.  Times are calibrated seconds (see
``measure.py``).
"""

from __future__ import annotations

import os

# one OS thread: the simulated threads are virtual, and BLAS pools
# would only add noise to the wall clock
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
EXIT_MISMATCH = 2

# the program under test is this checkout's src/ and nothing else
sys.path.insert(0, str(SRC))
try:
    import repro  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"error: cannot import the program from {SRC}: {exc}")
if Path(repro.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"error: repro resolved to {repro.__file__}, not under {SRC}")

from measure import (  # noqa: E402
    END_TO_END,
    LAYERS,
    MORE_END_TO_END,
    Meter,
    percentile,
    summary,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    VerificationError,
    check,
    check_repeatable,
)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def end_to_end(workload, setups: list[tuple], iterations: list) -> dict:
    """End-to-end metrics of the untraced iterations, with units and spread.

    ``setups`` holds ``(calibrated, raw)`` seconds per set-up.
    """
    calls = [c for it in iterations for c in it.calls]
    p99 = percentile(calls, 99)
    # rounds of a non-repeatable workload differ: average the fixed prefix
    sims = [it.sim for it in iterations[: workload.min_iters]]
    values = {
        "setup_s": dict(summary([s for s, _ in setups]), raw=statistics.median(r for _, r in setups)),
        "wall_s": dict(
            summary([it.wall for it in iterations]),
            raw=statistics.median(it.raw_wall for it in iterations),
        ),
        "lat_p50_ms": summary(calls, 1000.0),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "sim_clock": {
            "value": sims[0] if workload.repeatable else statistics.fmean(sims),
            "n": len(sims),
        },
        "lat_p99_ms": {
            "value": p99 * 1000.0,
            "n": len(calls),
            "beyond": sum(c > p99 for c in calls),
        },
    }
    requests = sum(it.requests for it in iterations)
    if requests:
        values["req_per_s"] = {"value": requests / sum(calls)}
        values["fail_frac"] = {"value": sum(it.failed for it in iterations) / requests}
    mutations = sum(it.mutations for it in iterations)
    if mutations:
        values["mutations_per_s"] = {"value": mutations / sum(it.mutate_s for it in iterations)}
        values["visible_s"] = summary([it.visible_s for it in iterations])
    table = dict(END_TO_END, **MORE_END_TO_END)
    for name, entry in values.items():
        unit, better, exact = table[name]
        entry.update(unit=unit, better=better, exact=exact)
    return values


def layer_values(meter, traced, iterations: list, e2e: dict) -> dict:
    """Every per-layer metric; layers the workload never calls read 0."""
    values = meter.layer_metrics()
    values.update({name: e2e[name]["value"] for name in MORE_END_TO_END if name in e2e})
    values["trace.overhead"] = traced.wall / iterations[0].wall
    work = values["parallel.work_units"]
    median_wall = statistics.median(it.wall for it in iterations)
    values["parallel.ns_per_work_unit"] = median_wall * 1e9 / work if work else 0.0
    hits = [c for it in iterations for c in it.hit_calls]
    misses = [c for it in iterations for c in it.miss_calls]
    if hits:
        values["serve.hit_call_ms"] = statistics.median(hits) * 1000.0
    if misses:
        values["serve.miss_call_ms"] = statistics.median(misses) * 1000.0
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit, "better": better}
        for name, (unit, better) in LAYERS.items()
    }


def check_expected(name: str, seed: int, quick: bool, digests: dict, update: bool) -> str:
    """Compare output digests with ``expected.json`` (or record them)."""
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    slot = data.setdefault("quick" if quick else "full", {}).setdefault(str(seed), {})
    if update:
        slot[name] = digests
        EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        return "recorded"
    if name not in slot:
        return "unrecorded"
    for key, value in digests.items():
        if slot[name].get(key) != value:
            raise VerificationError(f"{name} {key} digest {value} != expected {slot[name].get(key)}")
    return "matched"


def run_workload(args) -> tuple[dict, dict]:
    """Set up, measure, trace and verify one workload.

    Returns ``(record, final)``: the ``bench/v1`` workload record and the
    one-line result printed last.
    """
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    try:
        meter = Meter()
        setups = []
        for _ in range(SETUP_REPEATS):
            with meter.time("setup") as t:
                workload.setup(meter)
            setups.append((t.seconds, t.raw))
        iterations = []
        start = time.perf_counter()
        while True:
            it = workload.iterate(len(iterations), meter)
            iterations.append(it)
            elapsed = time.perf_counter() - start
            if len(iterations) >= workload.min_iters and elapsed + it.raw_wall > args.seconds:
                break
        if workload.repeatable:
            check_repeatable(iterations)
        e2e = end_to_end(workload, setups, iterations)
        layers = None
        if args.trace:
            meter = Meter(trace=True)
            with meter.time("setup"):
                workload.setup(meter)
            traced = workload.iterate(0, meter)
            meter.detach()
        digests = workload.verify(iterations, meter)
        if args.trace:
            check(
                traced.sim == iterations[0].sim,
                f"traced sim clock {traced.sim} != untraced {iterations[0].sim}",
            )
            layers = layer_values(meter, traced, iterations, e2e)
            RESULTS.mkdir(exist_ok=True)
            trace_path = RESULTS / f"trace-{workload.name}.json"
            meta = {
                "workload": workload.name,
                "seed": args.seed,
                "params": workload.params(),
                "sim_clock": traced.sim,
                "untraced_sim_clock": iterations[0].sim,
                "wall_s": traced.wall,
                "untraced_wall_s": iterations[0].wall,
            }
            trace_path.write_text(json.dumps(meter.chrome_trace(meta)) + "\n")
        status = check_expected(workload.name, args.seed, args.quick, digests, args.update_expected)
        params = workload.params()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_if_empty(WORK)

    requests = sum(it.requests for it in iterations)
    record = {
        "correct": True,
        "attempted": requests or len(iterations),
        "failed": sum(it.failed for it in iterations),
        "why": workload.why,
        "params": params,
        "iterations": len(iterations),
        "setups": len(setups),
        "metrics": e2e,
        "digests": digests,
        "digest_check": status,
    }
    if layers is not None:
        record["layers"] = layers
    shown = layers if layers is not None else {name: e2e[name] for name in END_TO_END}
    final = {
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in shown.items()},
    }
    return record, final


def print_record(name: str, record: dict) -> None:
    params = record["params"]
    print(
        f"[{name}] {params['graph']} n={params['n']} m={params['m']} p={params['threads']}: "
        f"{record['setups']} set-ups, {record['iterations']} iterations, "
        f"{record['attempted']} attempted, {record['failed']} failed, "
        f"digests {record['digest_check']}"
    )
    for metric, entry in record["metrics"].items():
        spread = ""
        if "q1" in entry:
            spread = f"  (n={entry['n']}, q1={entry['q1']:.6g}, q3={entry['q3']:.6g})"
        elif "n" in entry:
            spread = f"  (n={entry['n']})"
        if "raw" in entry:
            spread += f"  raw {entry['raw']:.6g} s"
        print(f"  {metric:<18} {entry['value']:>14.6g} {entry['unit']}{spread}")
    for metric, entry in record.get("layers", {}).items():
        print(f"  {metric:<26} {entry['value']:>14.6g} {entry['unit']}")


def single(args) -> int:
    try:
        record, final = run_workload(args)
    except VerificationError as exc:
        print(f"[{args.workload}] VERIFICATION FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return EXIT_MISMATCH
    print_record(args.workload, record)
    if args.out:
        write_doc(Path(args.out), args, {args.workload: record})
    print(json.dumps(final))
    return 0


# ----------------------------------------------------------------------
# every workload, one child process each
# ----------------------------------------------------------------------


def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_doc(path: Path, args, workloads: dict) -> dict:
    doc = {
        "schema": "bench/v1",
        "commit": commit(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # absent, or in use by another run


def run_children(args) -> tuple[dict, int]:
    """Run every workload in its own child process, one at a time.

    Returns the workload records and the first non-zero child status (0
    when every child succeeded; the records then hold every workload).
    """
    records = {}
    for name in WORKLOADS:
        part = WORK / f"record-{name}-{os.getpid()}.json"
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0",
            "--out", str(part),
        ]
        cmd += ["--quick"] if args.quick else []
        cmd += ["--update-expected"] if args.update_expected else []
        code = subprocess.run(cmd).returncode
        if code != 0:
            print(f"workload {name} exited with status {code}", file=sys.stderr)
            part.unlink(missing_ok=True)
            return records, code
        records[name] = json.loads(part.read_text())["workloads"][name]
        part.unlink()
    return records, 0


def run_all(args) -> int:
    WORK.mkdir(exist_ok=True)
    try:
        records, code = run_children(args)
    finally:
        remove_if_empty(WORK)
    if code != 0:
        return code
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    doc = write_doc(out, args, records)
    print(f"wrote {out}")
    if not args.quick:
        line = {
            "commit": doc["commit"],
            "created": doc["created"],
            "seed": args.seed,
            "trace": doc["trace"],
            "metrics": {
                name: {m: e["value"] for m, e in rec["metrics"].items()}
                for name, rec in records.items()
            },
        }
        with open(RESULTS / "trajectory.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended {RESULTS / 'trajectory.jsonl'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="rmat scales 8-10, for the self-test")
    parser.add_argument("--out", help="write the bench/v1 record here")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="record this run's output digests in expected.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.workload:
        return single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
