"""Tabulate how often each verdict comes out over a fixed seed range, and write CALIBRATION.json.

    PYTHONPATH=src python3 scripts/verdict_calibration.py

Every cell of the grid is one protocol configuration at one round count,
run once per seed of ``SEEDS``, a range fixed here before any run.  A cell records the share of runs that end in each exit code, read from
``Transcript.verdict`` through ``cli.VERDICTS`` as the command line reads it
(0: violated, 2: eavesdropping indicated, 3: insufficient data), and, for
an attack, the quartiles of Eve's mutual information with the key
(``adversary.leakage_analysis``) over the runs where she saw a key round.

An honest noiseless Mermin run has every term's product fixed at ±1, so its
estimate is 2^(N−1) with standard error 0 once every term has a sample, and
otherwise it has insufficient data: its share of exit 0 is exactly the
chance that each of the 2^(N−1) terms, one setting string of probability
3^-N a round, is drawn at least once.  Those cells carry that chance beside
the Monte-Carlo share, and ``agrees`` says whether the two lie within three
binomial standard errors of each other.

Every configuration shares one ``EnginePlan`` across its seeds and round
counts.  The whole grid takes 11-15 s on two cores and runs outside
Tier-1; the JSON records its wall time.  After the table, the
script prints README's table of the rounds each configuration needs for
its verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from contextkey import adversary, cli, noise, protocol
from contextkey.adversary import EveConfig

ROOT = Path(__file__).resolve().parent.parent

#: The seed range every cell runs, fixed before any run.
SEEDS = range(1, 201)
ROUNDS = (100, 300, 1_000, 3_000, 10_000)
FLIP = noise.NoiseConfig(prep=noise.FlipPrep(0.05, 0.05))
#: name -> (config at one round, the exit code its verdict should reach)
CONFIGS = {
    "mermin3-honest": (protocol.ProtocolConfig("mermin", 3, 1), cli.EXIT_OK),
    "mermin3-flip": (protocol.ProtocolConfig("mermin", 3, 1, noise=FLIP), cli.EXIT_OK),
    "mermin4-honest": (protocol.ProtocolConfig("mermin", 4, 1), cli.EXIT_OK),
    "mermin4-flip": (protocol.ProtocolConfig("mermin", 4, 1, noise=FLIP), cli.EXIT_OK),
    "chsh3-honest": (protocol.ProtocolConfig("chsh", 3, 1), cli.EXIT_OK),
    "chsh3-flip": (protocol.ProtocolConfig("chsh", 3, 1, noise=FLIP), cli.EXIT_OK),
    "chsh4-honest": (protocol.ProtocolConfig("chsh", 4, 1), cli.EXIT_OK),
    "chsh4-flip": (protocol.ProtocolConfig("chsh", 4, 1, noise=FLIP), cli.EXIT_OK),
    # acceptance criterion 8: X3 at link 2 does not commute with party 3's Z3 and Y3
    "mermin3-x3-link2-attack": (
        protocol.ProtocolConfig("mermin", 3, 1, eve=EveConfig(2, "X3", "noncommuting-measure")),
        cli.EXIT_NO_VIOLATION,
    ),
    # acceptance criterion 9's attack: Z1 at link 2 of the pairwise chain
    "chsh4-z1-link2-attack": (
        protocol.ProtocolConfig("chsh", 4, 1, eve=EveConfig(2, "Z1", "noncommuting-measure")),
        cli.EXIT_NO_VIOLATION,
    ),
}
EXITS = (cli.EXIT_OK, cli.EXIT_NO_VIOLATION, cli.EXIT_INSUFFICIENT_DATA)
#: share of seeds a round count must bring to the expected exit for README's table
NEEDED_SHARE = 0.95


def all_terms_sampled(num_parties: int, rounds: int) -> float:
    """The chance that each Mermin term's setting string is drawn in at least one of ``rounds`` rounds.

    Inclusion-exclusion over the T = 2^(N−1) disjoint strings of probability q = 3^-N each:
    the sum over j of (−1)^j · C(T, j) · (1 − j·q)^rounds.
    """
    terms, q = 2 ** (num_parties - 1), 3.0**-num_parties
    return math.fsum((-1) ** j * math.comb(terms, j) * (1.0 - j * q) ** rounds for j in range(terms + 1))


def quartiles(values: list[float]) -> list[float] | None:
    return None if not values else [float(x) for x in np.percentile(values, [25, 50, 75])]


def run_cell(name: str, base: protocol.ProtocolConfig, plan: protocol.EnginePlan, rounds: int, seeds) -> dict:
    exits, mis = [], []
    for seed in seeds:
        transcript = protocol.run_protocol(dataclasses.replace(base, rounds=rounds, seed=seed), plan)
        exits.append(cli.VERDICTS[transcript.verdict.violated][1])
        if base.eve is not None:
            mi = adversary.leakage_analysis(transcript).eve_key_mutual_information
            if mi is not None:
                mis.append(mi)
    counts = {code: exits.count(code) for code in EXITS}
    cell = {
        "name": name,
        "rounds": rounds,
        "runs": len(exits),
        "exit_shares": {str(code): counts[code] / len(exits) for code in EXITS},
        "exact_exit0": None,
        "agrees": None,
        "eve_mi_quartiles": quartiles(mis) if base.eve is not None else None,
        "eve_mi_runs": len(mis) if base.eve is not None else None,
    }
    if base.kind == "mermin" and base.noise is None and base.eve is None:
        exact = all_terms_sampled(base.num_parties, rounds)
        share = cell["exit_shares"][str(cli.EXIT_OK)]
        error = math.sqrt(exact * (1.0 - exact) / len(exits))
        cell["exact_exit0"] = exact
        cell["agrees"] = abs(share - exact) <= 3.0 * error + 1e-12
    return cell


def needed_rounds(cells: list[dict]) -> dict[str, int | None]:
    """Per configuration, the fewest rounds of the grid whose runs reach its expected exit in
    ``NEEDED_SHARE`` of the seeds, or None when no round count of the grid does."""
    needed = {}
    for name, (_, expected) in CONFIGS.items():
        reached = [cell["rounds"] for cell in cells
                   if cell["name"] == name and cell["exit_shares"][str(expected)] >= NEEDED_SHARE]
        needed[name] = min(reached) if reached else None
    return needed


def readme_table(cells: list[dict]) -> str:
    shares = {(cell["name"], cell["rounds"]): cell["exit_shares"] for cell in cells}
    lines = [
        "| configuration | expected exit | " + " | ".join(f"{r:,}" for r in ROUNDS) + " | rounds needed |",
        "| --- | --- | " + " | ".join("---" for _ in ROUNDS) + " | --- |",
    ]
    needed = needed_rounds(cells)
    for name, (_, expected) in CONFIGS.items():
        row = [f"{shares[name, r][str(expected)]:.2f}" for r in ROUNDS]
        rounds = needed[name]
        lines.append(f"| {name} | {expected} | " + " | ".join(row)
                     + f" | {'> ' + format(ROUNDS[-1], ',') if rounds is None else format(rounds, ',')} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", type=Path, default=ROOT / "CALIBRATION.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    cells = []
    for name, (base, _) in CONFIGS.items():
        plan = protocol.EnginePlan(base)
        for rounds in ROUNDS:
            cells.append(run_cell(name, base, plan, rounds, SEEDS))
    wall = time.perf_counter() - start
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record = {
        "rule": "InequalityEstimate.violated (value - 3 stderr > classical bound) through protocol.verdict",
        "seeds": [SEEDS[0], SEEDS[-1]],
        "rounds": list(ROUNDS),
        "exits": {str(code): text for text, code in cli.VERDICTS.values()},
        "needed_share": NEEDED_SHARE,
        "needed_rounds": needed_rounds(cells),
        "configs": {name: {"kind": base.kind, "parties": base.num_parties,
                           "noise": None if base.noise is None else repr(base.noise),
                           "eve": None if base.eve is None else dataclasses.asdict(base.eve),
                           "expected_exit": expected}
                    for name, (base, expected) in CONFIGS.items()},
        "cells": cells,
        "commit": commit.stdout.strip() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_time_s": round(wall, 1),
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    disagree = [f"{cell['name']}@{cell['rounds']}" for cell in cells if cell["agrees"] is False]
    print(readme_table(cells))
    print(f"\n{len(cells)} cells x {len(SEEDS)} seeds in {wall:.1f} s -> {args.output}")
    if disagree:
        print("exact and Monte-Carlo shares disagree at: " + ", ".join(disagree))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
