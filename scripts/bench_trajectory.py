"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 scripts/bench_trajectory.py 2 --seeds 1 2 3 4 5
    python3 scripts/bench_trajectory.py 1 --seeds 1 2 3 4 5 --checkout ../parent-clone

Runs the checkout's `bench/run.py --trace 0` once for every workload in
BENCHMARK.json and every seed, each run lasting the benchmark's
`run_seconds`, and writes BENCH_<n>.json beside this directory.  Under
`workloads`, keyed by commit, the file holds each workload's end-to-end
metrics as median and quartiles over the seeds, with the seeds and the
failed and attempted command counts.  Beside them it names what the last
numbers rest on: its seeds, `nproc`, the Python and numpy versions and the
measured commit (`dirty` when tracked files differ from it).  A run that is not
correct stays in the figures and is listed under `failed_runs` with its
seed and the end of its standard error, which names the cause.  Seeds,
workloads and run length are the benchmark's own, so two files compare
when their seeds match.

Beside the workloads it records an engine line, wider than any workload:
`run_protocol` on mermin N=12 (D=4096, 400 rounds, masked, no Eve), timed
once per seed in a fresh interpreter of the measured checkout, as raw
rounds/s with median and quartiles under `engine_lines`, keyed by commit.
An existing BENCH_<n>.json keeps the workloads and engine lines of other
commits, so a first run with `--checkout` on the parent's tree leaves the
parent's medians beside the change's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: lines of a failed run's standard error kept in the record
STDERR_LINES = 12


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if not done.stdout.strip():
        sys.exit(f"{workload} seed {seed}: bench/run.py printed no result\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        result["seed"] = seed
        result["stderr_tail"] = done.stderr.splitlines()[-STDERR_LINES:]
    return result


ENGINE_LINE = "run_protocol, mermin N=12, 400 rounds, masked, no Eve"
ENGINE_PROGRAM = """
import sys, time
from contextkey import protocol
config = protocol.ProtocolConfig("mermin", 12, 400, seed=int(sys.argv[1]))
start = time.perf_counter()
protocol.run_protocol(config)
print(config.rounds / (time.perf_counter() - start))
"""


def engine_rate(checkout: Path, seed: int) -> float:
    """Rounds/s of the engine line in a fresh interpreter of the checkout."""
    done = subprocess.run(
        [sys.executable, "-c", ENGINE_PROGRAM, str(seed)], cwd=checkout,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, timeout=600, check=True,
    )
    return float(done.stdout)


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], seeds: list[int]) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"], **quartiles(values)}
    return {
        "seeds": seeds,
        "runs": len(runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "failed_runs": [
            {"seed": run["seed"], "failed": run["failed"], "stderr_tail": run["stderr_tail"]}
            for run in runs if not run["correct"]
        ],
        "metrics": metrics,
    }


def commit_of(checkout: Path) -> tuple[str, bool]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout

    return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain", "--untracked-files=no").strip())


def carried(out: Path) -> tuple[dict, dict]:
    """The workloads and engine lines, keyed by commit, that an existing BENCH_<n>.json holds."""
    if not out.exists():
        return {}, {}
    old = json.loads(out.read_text())
    workloads = old["workloads"]
    if any("metrics" in entry for entry in workloads.values()):
        # written before workloads were keyed by commit: they are its one commit's
        workloads = {old["commit"] + ("-dirty" if old["dirty"] else ""): workloads}
    return workloads, old.get("engine_lines", {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the tree to measure (default: this one)")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    commit, dirty = commit_of(checkout)
    runs = {name: [] for name in workloads}
    rates = []
    for seed in args.seeds:
        for name in workloads:
            runs[name].append(run_once(checkout, name, seed, spec["run_seconds"]))
            print(f"{name} seed {seed}: {json.dumps(runs[name][-1])}", file=sys.stderr)
        rates.append(engine_rate(checkout, seed))
        print(f"engine seed {seed}: {rates[-1]:.1f} rounds/s", file=sys.stderr)
    # A tree that changed while it was measured is not the commit it names.
    dirty = dirty or commit_of(checkout) != (commit, False)
    key = commit + ("-dirty" if dirty else "")
    out = ROOT / f"BENCH_{args.number}.json"
    measured, lines = carried(out)
    measured[key] = {name: summarize(runs[name], args.seeds) for name in workloads}
    lines[key] = {
        "line": ENGINE_LINE, "seeds": args.seeds,
        "rounds_per_s": {"unit": "rounds/s", **quartiles(rates)},
    }
    record = {
        "commit": commit,
        "dirty": dirty,
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": measured,
        "engine_lines": lines,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
