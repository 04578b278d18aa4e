"""benchmarks/ab_pairs.py: the verdicts it prints over synthetic runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def ab_pairs():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "benchmarks" / "ab_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(workload: str, wall: float, sim: float, failed: int) -> dict:
    metrics = {
        m["name"]: {"value": 1.0, "unit": m["unit"], "better": m["better"], "exact": False}
        for m in SPEC["end_to_end"]
    }
    metrics["wall_s"]["value"] = wall
    metrics["sim_clock"] = {"value": sim, "unit": "sim", "better": "lower", "exact": True}
    record = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
    return {"schema": "bench/v1", "seed": 7, "workloads": {workload: record}}


def _run(ab_pairs, monkeypatch, tmp_path, capsys, pairs, parent, change):
    """``main`` with every run replaced by the next ``(wall, sim, failed)`` of its side."""
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "benchmarks" / "e2e" / "run.py").touch()
    sides = {tmp_path.resolve(): iter(parent), ab_pairs.ROOT: iter(change)}
    seconds_seen = set()

    def fake_run_once(checkout, workload, seed, seconds, out):
        seconds_seen.add(seconds)
        return _doc(workload, *next(sides[checkout]))

    monkeypatch.setattr(ab_pairs, "run_once", fake_run_once)
    code = ab_pairs.main(
        ["--parent", str(tmp_path), "--workload", "serve", "--seed", "7", "--pairs", str(pairs)]
    )
    assert seconds_seen == {SPEC["run_seconds"]}
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.strip()}
    return code, lines


def test_consistent_gain_is_claimed(ab_pairs, monkeypatch, tmp_path, capsys):
    parent = [(0.150 + 0.001 * (i % 3), 5.0, 0) for i in range(10)]
    change = [(0.110 + 0.001 * (i % 3), 5.0, 0) for i in range(10)]
    code, lines = _run(ab_pairs, monkeypatch, tmp_path, capsys, 10, parent, change)
    assert code == 0
    assert "won 10/10" in lines["wall_s"] and "claim holds" in lines["wall_s"]
    assert ": better)" in lines["wall_s"]
    assert "claim does not hold" in lines["setup_s"]  # no gain, equal values
    assert "exact" not in lines


def test_higher_failure_share_voids_every_claim(ab_pairs, monkeypatch, tmp_path, capsys):
    parent = [(0.150, 5.0, 0)] * 10
    change = [(0.110, 5.0, 1)] * 10
    code, lines = _run(ab_pairs, monkeypatch, tmp_path, capsys, 10, parent, change)
    assert code == 1
    assert "won 10/10" in lines["wall_s"] and "claim does not hold" in lines["wall_s"]
    assert "no gain counts" in lines["fail"]


def test_noisy_parent_reads_unresolved(ab_pairs, monkeypatch, tmp_path, capsys):
    # the parent's quartiles lie 100% of its median apart, beyond the
    # 25% bound, and not every change run beats every parent run
    parent = [(0.1 if i % 2 else 0.3, 5.0, 0) for i in range(10)]
    change = [(0.25, 5.0, 0)] * 10
    code, lines = _run(ab_pairs, monkeypatch, tmp_path, capsys, 10, parent, change)
    assert code == 0
    assert ": unresolved)" in lines["wall_s"]
    assert "claim does not hold" in lines["wall_s"]


def test_too_few_pairs_claim_nothing(ab_pairs, monkeypatch, tmp_path, capsys):
    parent = [(0.150, 5.0, 0)] * 5
    change = [(0.110, 5.0, 0)] * 5
    code, lines = _run(ab_pairs, monkeypatch, tmp_path, capsys, 5, parent, change)
    assert code == 0
    assert "won 5/5" in lines["wall_s"] and "claim does not hold" in lines["wall_s"]


def test_moved_sim_clock_is_reported(ab_pairs, monkeypatch, tmp_path, capsys):
    parent = [(0.150, 5.0, 0)] * 10
    change = [(0.150, 6.0, 0)] * 10
    code, lines = _run(ab_pairs, monkeypatch, tmp_path, capsys, 10, parent, change)
    assert code == 1
    assert "sim_clock" in lines["exact"] and lines["exact"].endswith("worse")
