"""Run workloads repeatedly, one seed per run, and print each metric's median and quartiles.

    python3 bench/steady.py                          # every workload, seeds 1-10
    python3 bench/steady.py --workloads attack-mermin6 --seeds 1-5
    python3 bench/steady.py --trace 1 --seeds 1-3    # per-layer metrics

Each run is a separate `bench/run.py` process lasting BENCHMARK.json's
`run_seconds` unless `--seconds` says otherwise.  The spread is the
distance between the first and third quartiles as a share of the median;
for end-to-end metrics it is printed next to the metric's bound.  Every
run's full result goes to standard error as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    if not done.stdout.strip():
        sys.exit(f"{workload} seed {seed}: run.py printed no result")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11-13")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {failed}/{attempted} commands failed, correct={correct}")
        print(f"  {'metric':36s} {'unit':9s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = f"{bounds[name]:6.2f}" if name in bounds else ""
            print(
                f"  {name:36s} {first['unit']:9s} {q1:12.5g} {median:12.5g} {q3:12.5g} "
                f"{spread:8.4f} {bound}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
