"""Benchmark one workload of the contextkey command line, end to end or layer by layer.

    python3 bench/run.py --workload run-mermin3 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The program is imported from `src/`
and driven in-process through `contextkey.cli.main(argv)`.  For
`--seconds` the same command (same workload, same seed) runs again and
again; every run's artifacts must match the first run's byte for byte, and
the first run's outputs pass the workload's checks (see workloads.py).

While each command runs, a probe samples the host's speed
(speed.py).  Times are reported in reference seconds: the time spent
outside the probe, scaled to the reference machine at its usual speed,
which takes out the host's changes of speed (see README.md).

With `--trace 0` the last line of standard output reports the end-to-end
metrics; with `--trace 1` traced and untraced commands alternate and it
reports the per-layer self times, counts and the tracing overhead.  Spans
are written to `.bench_out/spans/` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from spans import TRACED, LayerTotals, Tracer
from speed import Probe
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import contextkey.cli; "
    "print(time.perf_counter() - start)"
)
SETUP_REPEATS = 12
#: speed samples taken before each timed import (about 0.2 s)
SETUP_SAMPLES = 60
MB = 2**20


def import_program():
    if not (SRC / "contextkey" / "cli.py").is_file():
        sys.exit(f"bench: no contextkey sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from contextkey import adversary, cli, inequality, noise, protocol, qmath

    modules = {
        "cli": cli, "protocol": protocol, "inequality": inequality,
        "adversary": adversary, "noise": noise, "qmath": qmath,
    }
    return cli, modules


def setup_seconds() -> float:
    """Reference seconds to import contextkey.cli in a fresh interpreter, the mean of several."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        return float(done.stdout)

    once()  # compiles the sources to bytecode once, as an installed package has
    # The import runs in another interpreter, which a probe cannot enter
    # before numpy is imported, so the speed is sampled just before each import.
    probe = Probe()
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        times.append(once())
    return statistics.fmean(times) * probe.factor()


def digests(outdir: Path) -> dict[str, str]:
    """Hashes of the artifacts a seed fixes; the manifest records wall time."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
        if not path.name.endswith("-manifest.json")
    }


def run_command(cli, argv: list[str], probe: Probe, scope):
    """(exit code or None if it raised, seconds outside the probe, root span id or None).

    The speed probe runs throughout the call.  `scope` is entered inside it:
    a tracer's root span, or a null context for an untraced command.
    """
    sink = io.StringIO()
    root = None
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink), probe, scope as root:
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start - probe.spent, root


def measure(cli, modules, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"{workload.name}-{os.getpid()}"
    first, again = work / "first", work / "again"
    tracer = Tracer() if trace else None
    walls: list[float] = []
    #: each command's time in reference seconds
    ref_s: dict[bool, list[float]] = {False: [], True: []}
    factors: list[float] = []
    roots: list[int] = []
    commands: list[tuple[bool, dict[str, str]]] = []
    deadline = time.perf_counter() + seconds
    # Start a command only while it is expected to end by the deadline.
    while len(commands) < (2 if trace else 1) or (
        time.perf_counter() + statistics.median(walls) <= deadline
    ):
        traced = trace and len(commands) % 2 == 1
        outdir = again if commands else first
        shutil.rmtree(outdir, ignore_errors=True)
        # Start every command from a collected heap, as a fresh process
        # would; without this, repeats of run-mermin3 ran near 3.0 s where
        # repeats after a collection ran near 2.1 s.
        gc.collect()
        probe = Probe()
        scope = nullcontext()
        if traced:
            tracer.clock = probe.clock  # no span times the probe
            scope = tracer.root(modules, "cli.main")
        started = time.perf_counter()
        code, elapsed, root = run_command(cli, workload.argv(seed, outdir), probe, scope)
        walls.append(time.perf_counter() - started)
        if traced:
            roots.append(root)
            factors.append(probe.factor())
        ref_s[traced].append(elapsed * probe.factor())
        commands.append((code in workload.exit_codes, digests(outdir) if outdir.is_dir() else {}))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    check_root = None
    if trace:
        tracer.clock = time.perf_counter
    if commands[0][0]:
        try:
            with tracer.root(modules, "check") if trace else nullcontext() as check_root:
                problems = workload.check(first, cli)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"check raised {exc!r}"]
    else:
        problems = ["the first command failed"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    reference = commands[0][1]
    failed = sum(1 for ok, found in commands if not (ok and not problems and found == reference))
    transcript_mb = sum(p.stat().st_size for p in first.glob("*-transcript.jsonl")) / MB
    shutil.rmtree(work, ignore_errors=True)

    # The mean, so that the statistic does not depend on how many commands
    # fit in the run; the host's changes of speed, which made raw per-run
    # figures jump by a third, are taken out by the probe (speed.py).
    command_s = statistics.fmean(ref_s[False])
    print("wall seconds: " + " ".join(f"{t:.4f}" for t in walls))
    print("reference seconds: " + " ".join(f"{t:.4f}" for t in ref_s[False]))
    if not trace:
        metrics = {
            "setup_s": (setup_seconds(), "s"),
            "command_s": (command_s, "s"),
            "rounds_per_s": (workload.rounds / command_s, "rounds/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(OUT / "spans" / f"{workload.name}-seed{seed}.jsonl")
        metrics = layer_metrics(tracer, roots, check_root, workload, transcript_mb, factors)
        # Untraced and traced commands alternate, so each traced command is
        # compared with the untraced one just before it.
        pairs = zip(ref_s[False], ref_s[True])
        metrics["trace.command_s"] = (statistics.fmean(ref_s[True]), "s")
        metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
        print_layers(metrics, statistics.median(ref_s[True]))
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(
    tracer: Tracer, roots: list[int], check_root, workload: Workload, transcript_mb: float,
    factors: list[float],
):
    """Per-command medians, over the traced commands, of each layer's figures.

    Times are in reference seconds: each traced command's are scaled by its
    own speed factor (`factors`, in the order of `roots`); the check, which
    runs without the probe, by their mean.
    """
    summaries = [(tracer.summary(root), f) for root, f in zip(roots, factors)]
    none = LayerTotals()

    def median(figure) -> float:
        return statistics.median(figure(summary, f) for summary, f in summaries)

    metrics = {}
    for _, _, name in TRACED:
        if name == "cli.read_transcript":
            continue  # the commands never read a transcript; the check does
        metrics[f"{name}_s"] = (median(lambda s, f: s.get(name, none).self_s * f), "s")
        metrics[f"{name}_calls"] = (median(lambda s, f: s.get(name, none).calls), "count")
    metrics["cli.self_s"] = (median(lambda s, f: s["cli.main"].self_s * f), "s")

    def engine_rate(summary, f) -> float:
        engine_s = summary.get("protocol.run_protocol", none).total_s
        return workload.rounds / (engine_s * f) if engine_s else 0.0

    metrics["protocol.engine_rounds_per_s"] = (median(engine_rate), "rounds/s")
    read = tracer.summary(check_root).get("cli.read_transcript", none) if check_root is not None else none
    metrics["cli.read_transcript_s"] = (read.self_s * statistics.fmean(factors), "s")
    metrics["cli.transcript_mb"] = (transcript_mb, "MB")
    return metrics


def print_layers(metrics: dict, traced_s: float):
    """Self times, as shares of the median traced command, in reference seconds."""
    print(f"median traced command {traced_s:.4f} s; median self times:")
    timed = [
        (name, value) for name, (value, unit) in metrics.items()
        if unit == "s" and not name.startswith("trace.")
    ]
    for name, value in sorted(timed, key=lambda item: -item[1]):
        print(f"  {name:36s} {value:10.4f} s  {100 * value / traced_s:5.1f}%")
    print(f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli, modules = import_program()
    result = measure(cli, modules, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
