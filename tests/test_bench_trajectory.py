"""`scripts/bench_trajectory.py` keeps every measured commit's figures in one BENCH file."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_trajectory  # noqa: E402

SEEDS = ["1", "2", "3"]
REAL_LONG_RUN = bench_trajectory.long_run


def _long_run(_checkout, name, seed):
    """A long run that reads ``seed`` seconds and 100 MB plus its seed (chsh8) or 50 MB (mermin3)."""
    return {"exit": 0, "seconds": float(seed), "peak_rss_mb": (100.0 if name.startswith("chsh") else 50.0) + seed}


@pytest.fixture(autouse=True)
def no_long_runs(monkeypatch):
    # a real long run plays 10^6 rounds in a fresh interpreter
    monkeypatch.setattr(bench_trajectory, "long_run", _long_run)


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


def test_other_top_level_keys_survive_a_run(checkout, monkeypatch):
    _measure(monkeypatch, checkout, "parent", 0.2)
    path = checkout / "BENCH_6.json"
    tier1 = {"command": "pytest -q", "runs": {"parent": {"passed": 3, "pytest_s": 1.5}}}
    path.write_text(json.dumps({**json.loads(path.read_text()), "tier1": tier1}))
    record = _measure(monkeypatch, checkout, "change", 0.1)
    assert record["tier1"] == tier1
    assert set(record["workloads"]) == {"parent", "change"}


def test_parent_and_checkout_run_in_alternating_pairs(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    spec = {"run_seconds": 1, "workloads": [{"name": "run-a"}, {"name": "sweep-b"}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(bench_trajectory, "commit_of", lambda tree: (tree.name, False))
    calls = []

    def run_once(tree, name, seed, _seconds):
        calls.append((tree.name, name, seed))
        factor = 0.2 if tree == parent else 0.1
        return {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"command_s": {"value": factor * seed, "unit": "s"}},
        }

    def engine_rate(tree, seed):
        calls.append((tree.name, "engine", seed))
        return (100.0 if tree == parent else 300.0) * seed

    def long_run(tree, name, seed):
        calls.append((tree.name, name, seed))
        return _long_run(tree, name, seed)

    monkeypatch.setattr(bench_trajectory, "run_once", run_once)
    monkeypatch.setattr(bench_trajectory, "engine_rate", engine_rate)
    monkeypatch.setattr(bench_trajectory, "long_run", long_run)
    argv = ["7", "--seeds", "1", "2", "3", "--checkout", str(change), "--parent", str(parent)]
    assert bench_trajectory.main(argv) == 0

    def pairs(first, second, seed):
        steps = ("run-a", "sweep-b", "engine", *bench_trajectory.LONG_RUNS)
        return [(tree, step, seed) for step in steps for tree in (first, second)]

    assert calls == pairs("parent", "change", 1) + pairs("change", "parent", 2) + pairs("parent", "change", 3)
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (record["commit"], record["dirty"]) == ("change", False)
    assert set(record["workloads"]) == set(record["engine_lines"]) == {"parent", "change"}
    assert record["workloads"]["parent"]["run-a"]["metrics"]["command_s"]["median"] == pytest.approx(0.4)
    assert record["workloads"]["change"]["sweep-b"]["metrics"]["command_s"]["median"] == pytest.approx(0.2)
    assert record["engine_lines"]["parent"]["rounds_per_s"]["median"] == pytest.approx(200.0)
    assert record["engine_lines"]["change"]["rounds_per_s"]["median"] == pytest.approx(600.0)


def test_long_run_line_records_seconds_and_peak_rss(checkout, monkeypatch):
    _measure(monkeypatch, checkout, "parent", 0.2)
    record = _measure(monkeypatch, checkout, "change", 0.1)
    assert set(record["long_run_lines"]) == {"parent", "change"}
    lines = record["long_run_lines"]["change"]
    assert set(lines) == set(bench_trajectory.LONG_RUNS) == {"chsh8-noisy", "mermin3"}
    chsh = lines["chsh8-noisy"]
    assert chsh["argv"][-2:] == ["--rounds", "1000000"] and "--parties" in chsh["argv"]
    assert chsh["seeds"] == [1, 2, 3] and chsh["exit_codes"] == [0, 0, 0]
    assert chsh["seconds"]["median"] == pytest.approx(2.0)
    assert chsh["peak_rss_mb"]["median"] == pytest.approx(102.0)
    assert lines["mermin3"]["peak_rss_mb"]["q1"] < lines["mermin3"]["peak_rss_mb"]["q3"]


def test_long_run_measures_a_command_in_a_fresh_interpreter(monkeypatch):
    # the command prints its summary first, then the program its measurement
    monkeypatch.setattr(bench_trajectory, "LONG_RUN_ROUNDS", 200)
    result = REAL_LONG_RUN(bench_trajectory.ROOT, "mermin3", 1)
    assert result["exit"] in (0, 2, 3)
    assert result["seconds"] > 0 and result["peak_rss_mb"] > 1


def test_engine_line_imports_numpy_random_before_its_clock():
    # numpy loads numpy.random lazily, which would fall inside the timed run
    body = ast.parse(bench_trajectory.ENGINE_PROGRAM).body
    imports = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.Import) and "numpy.random" in [alias.name for alias in node.names]
    ]
    clocks = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.Assign) and "perf_counter" in ast.unparse(node.value)
    ]
    assert imports and clocks and imports[0] < clocks[0]



def test_parent_pass_compiles_both_trees_before_measuring(tmp_path, monkeypatch):
    # a tree holding bytecode imports without compiling, and reads a lower peak RSS
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "workloads": [{"name": "run-a"}]}))
    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(bench_trajectory, "commit_of", lambda tree: (tree.name, False))
    compiled = []

    def run_once(_tree, _name, seed, _seconds):
        if not compiled:
            compiled.extend(sorted(p.parents[3].name for p in tmp_path.glob("*/src/pkg/__pycache__/mod.*.pyc")))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"command_s": {"value": 0.1, "unit": "s"}}}

    monkeypatch.setattr(bench_trajectory, "run_once", run_once)
    monkeypatch.setattr(bench_trajectory, "engine_rate", lambda _tree, seed: 100.0)
    argv = ["9", "--seeds", "1", "--checkout", str(change), "--parent", str(parent)]
    assert bench_trajectory.main(argv) == 0
    assert compiled == ["change", "parent"]
