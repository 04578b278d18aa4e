"""Self-test of the end-to-end benchmark on quick graphs (R-MAT scales 8-10).

Run with ``pytest benchmarks/e2e``; tier-1 collects ``tests/`` only.
Two traced quick runs of every workload back all checks: every metric
``BENCHMARK.json`` lists is emitted with its unit, sim-clock and count
metrics repeat exactly, and the traced pass ran on the same sim clock
as the untraced one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC_UNITS = {"sim", "count", "wu", "B"}

sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def quick_run(out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--seconds", "0.1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=300,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return quick_run(tmp / "first.json"), quick_run(tmp / "second.json")


def test_every_listed_metric_is_emitted_with_its_unit(runs):
    whys = {name: record["why"] for name, record in runs[0]["workloads"].items()}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == whys
    for doc in runs:
        for name, record in doc["workloads"].items():
            assert record["correct"] and record["failed"] == 0, name
            for entry in SPEC["end_to_end"]:
                metric = record["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"], (name, entry["name"])
                assert metric["better"] == entry["better"], (name, entry["name"])
                assert metric["value"] > 0, (name, entry["name"])
            for entry in SPEC["per_layer"]:
                metric = record["layers"][entry["name"]]
                assert metric["unit"] == entry["unit"], (name, entry["name"])


def test_sim_and_count_metrics_repeat_exactly(runs):
    first, second = runs
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        assert a["digests"] == b["digests"], name
        for metric, entry in a["metrics"].items():
            if entry["exact"]:
                assert entry["value"] == b["metrics"][metric]["value"], (name, metric)
        for metric, entry in a["layers"].items():
            if entry["unit"] in DETERMINISTIC_UNITS:
                assert entry["value"] == b["layers"][metric]["value"], (name, metric)


def test_traced_sim_clock_equals_untraced(runs):
    for name, record in runs[1]["workloads"].items():
        trace = json.loads((HERE / "results" / f"trace-{name}.json").read_text())
        meta = trace["otherData"]
        assert meta["sim_clock"] == meta["untraced_sim_clock"], name
        assert record["layers"]["trace.overhead"]["value"] > 0
        lanes = {e["pid"] for e in trace["traceEvents"]}
        assert 0 in lanes and len(lanes) > 1, "both clocks must be in the trace"


def test_compare_holds_exact_metrics(runs):
    rows, _ = compare.compare([runs[0]], [runs[1]], SPEC)
    exact = [r for r in rows if r["metric"] in ("sim_clock", "fail_frac")]
    assert exact and all(r["verdict"] == "same" for r in exact)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "construct", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
