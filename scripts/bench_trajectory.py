"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 scripts/bench_trajectory.py 2 --seeds 1 2 3 4 5
    python3 scripts/bench_trajectory.py 2 --seeds 1 2 3 4 5 --parent ../parent-clone

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
once per seed in a fresh interpreter of the measured checkout, with
`numpy.random` imported before the clock starts, as raw rounds/s with
median and quartiles under `engine_lines`, keyed by commit.
Beside it, a long-run line watches time and memory as `--rounds` grows:
`cli.main` on each of `LONG_RUNS` (noisy chsh N=8 and mermin N=3 `run`
commands) at 10^6 rounds, each once per seed in a fresh interpreter of the
measured checkout, writing its artifacts to a temporary directory.  It
records the command's seconds and the interpreter's peak RSS
(`ru_maxrss`), with median and quartiles, and the exit codes, under
`long_run_lines`, keyed by commit.
With `--parent` a second tree, the parent commit's, is measured beside the
checkout: for each seed, every workload, then the engine line and then
each long run runs on both trees back to back, the parent first on the
1st, 3rd, ... seed of `--seeds` and the checkout first on the others, so
the host's drift falls on both sides alike.  Both commits' figures are written.  Before measuring,
every tree's `src` is compiled to bytecode, so no tree's first run compiles
while the others import cached bytecode: with the same code, a tree holding
bytecode read about 0.8 MB less `peak_rss_mb` on run-mermin3 (43.5 against
44.3 MB, two pairs of 8 s runs, 2 cores).

An existing BENCH_<n>.json keeps the workloads, engine and long-run lines of
other commits and every top-level key this script does not write (a hand-added
`tier1` record, say), so a run with `--checkout` on the parent's tree and a
later one on the change's also leave both commits' medians side by side.
"""

from __future__ import annotations

import argparse
import compileall
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
# numpy loads numpy.random lazily; importing it first keeps that import off the clock
ENGINE_PROGRAM = """
import sys, time
import numpy.random
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


LONG_RUN_ROUNDS = 1_000_000
#: the long-run line's commands, without rounds, seed and output directory
LONG_RUNS = {
    "chsh8-noisy": [
        "run", "--kind", "chsh", "--parties", "8", "--prep-noise", "flip:0.1,0.1", "--detector-noise", "loss:0.7",
    ],
    "mermin3": ["run", "--kind", "mermin", "--parties", "3"],
}
# the command prints its summary first; the last line is the measurement
LONG_RUN_PROGRAM = """
import json, resource, sys, tempfile, time
import numpy.random
from contextkey import cli
argv = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as outdir:
    start = time.perf_counter()
    code = cli.main([*argv, "--outdir", outdir])
    seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "seconds": seconds, "peak_rss_mb": peak}))
"""


def long_run(checkout: Path, name: str, seed: int) -> dict:
    """Exit code, seconds and peak RSS (MB) of one long run in a fresh interpreter of the checkout."""
    argv = [*LONG_RUNS[name], "--rounds", str(LONG_RUN_ROUNDS), "--seed", str(seed)]
    done = subprocess.run(
        [sys.executable, "-c", LONG_RUN_PROGRAM, json.dumps(argv)], cwd=checkout,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def carried(out: Path) -> dict:
    """What an existing BENCH_<n>.json holds, with its workloads keyed by commit."""
    if not out.exists():
        return {"workloads": {}}
    old = json.loads(out.read_text())
    workloads = old["workloads"]
    if any("metrics" in entry for entry in workloads.values()):
        # written before workloads were keyed by commit: they are its one commit's
        old["workloads"] = {old["commit"] + ("-dirty" if old["dirty"] else ""): workloads}
    return old


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the tree to measure (default: this one)")
    parser.add_argument("--parent", type=Path, help="the parent commit's tree, measured in pairs with the checkout")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    trees = [args.parent.resolve(), checkout] if args.parent else [checkout]
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for tree in trees:
        compileall.compile_dir(tree / "src", quiet=1)
    commits = {tree: commit_of(tree) for tree in trees}
    runs = {tree: {name: [] for name in workloads} for tree in trees}
    rates = {tree: [] for tree in trees}
    long_runs = {tree: {name: [] for name in LONG_RUNS} for tree in trees}
    for i, seed in enumerate(args.seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        for name in workloads:
            for tree in order:
                runs[tree][name].append(run_once(tree, name, seed, spec["run_seconds"]))
                print(f"{tree} {name} seed {seed}: {json.dumps(runs[tree][name][-1])}", file=sys.stderr)
        for tree in order:
            rates[tree].append(engine_rate(tree, seed))
            print(f"{tree} engine seed {seed}: {rates[tree][-1]:.1f} rounds/s", file=sys.stderr)
        for name in LONG_RUNS:
            for tree in order:
                long_runs[tree][name].append(long_run(tree, name, seed))
                print(f"{tree} {name} seed {seed}: {json.dumps(long_runs[tree][name][-1])}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.number}.json"
    old = carried(out)
    measured, lines, long_lines = old["workloads"], old.get("engine_lines", {}), old.get("long_run_lines", {})
    for tree, (commit, dirty) in commits.items():
        # A tree that changed while it was measured is not the commit it names.
        dirty = dirty or commit_of(tree) != (commit, False)
        commits[tree] = commit, dirty
        key = commit + ("-dirty" if dirty else "")
        measured[key] = {name: summarize(runs[tree][name], args.seeds) for name in workloads}
        lines[key] = {
            "line": ENGINE_LINE, "seeds": args.seeds,
            "rounds_per_s": {"unit": "rounds/s", **quartiles(rates[tree])},
        }
        long_lines[key] = {
            name: {
                "argv": [*argv, "--rounds", str(LONG_RUN_ROUNDS)], "seeds": args.seeds,
                "exit_codes": [run["exit"] for run in long_runs[tree][name]],
                "seconds": {"unit": "s", **quartiles([run["seconds"] for run in long_runs[tree][name]])},
                "peak_rss_mb": {"unit": "MB", **quartiles([run["peak_rss_mb"] for run in long_runs[tree][name]])},
            }
            for name, argv in LONG_RUNS.items()
        }
    record = {
        "commit": commits[checkout][0],
        "dirty": commits[checkout][1],
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": measured,
        "engine_lines": lines,
        "long_run_lines": long_lines,
    }
    record.update({name: value for name, value in old.items() if name not in record})
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
