"""`scripts/bench_trajectory.py` keeps every measured commit's figures in one BENCH file."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_trajectory  # noqa: E402

SEEDS = ["1", "2", "3"]


def _measure(monkeypatch, checkout: Path, commit: str, command_s: float, number: int = 6) -> dict:
    """Record one commit whose runs read ``command_s`` times their seed, and return the file."""
    monkeypatch.setattr(bench_trajectory, "commit_of", lambda _checkout: (commit, False))
    monkeypatch.setattr(
        bench_trajectory, "run_once",
        lambda _checkout, _name, seed, _seconds: {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"command_s": {"value": command_s * seed, "unit": "s"}},
        },
    )
    monkeypatch.setattr(bench_trajectory, "engine_rate", lambda _checkout, seed: 100.0 * seed)
    assert bench_trajectory.main([str(number), "--seeds", *SEEDS, "--checkout", str(checkout)]) == 0
    return json.loads((checkout / f"BENCH_{number}.json").read_text())


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "run-a"}, {"name": "sweep-b"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    return tmp_path


def test_two_commits_share_one_file(checkout, monkeypatch):
    _measure(monkeypatch, checkout, "parent", 0.2)
    record = _measure(monkeypatch, checkout, "change", 0.1)
    assert record["commit"] == "change"
    assert set(record["workloads"]) == set(record["engine_lines"]) == {"parent", "change"}
    parent, change = record["workloads"]["parent"], record["workloads"]["change"]
    assert set(parent) == set(change) == {"run-a", "sweep-b"}
    assert parent["run-a"]["metrics"]["command_s"]["median"] == pytest.approx(0.4)
    assert change["sweep-b"]["metrics"]["command_s"]["median"] == pytest.approx(0.2)
    assert parent["run-a"]["seeds"] == [1, 2, 3]
    assert record["engine_lines"]["parent"]["rounds_per_s"]["median"] == pytest.approx(200.0)


def test_workloads_of_one_commit_file_are_kept(checkout, monkeypatch):
    # a file from before the keying holds one commit's workloads at the top level
    old = {"commit": "old", "dirty": False, "workloads": {"run-a": {"metrics": {}}}, "engine_lines": {}}
    (checkout / "BENCH_6.json").write_text(json.dumps(old))
    record = _measure(monkeypatch, checkout, "new", 0.1)
    assert set(record["workloads"]) == {"old", "new"}
    assert record["workloads"]["old"] == {"run-a": {"metrics": {}}}
