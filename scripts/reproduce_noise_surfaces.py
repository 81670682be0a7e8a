#!/usr/bin/env python3
"""Regenerate every analytic key-rate surface as CSV.

Covers the five noise models at their reference settings: preparation
flips, white noise, misreading detectors, flips+misreads at eta=0.1, and
flips+lossy detectors at eta=0.7 (emitted under both erasure-accounting
conventions).  Add --empirical-rounds to append simulated surfaces on a
coarse grid.  A model with no key rounds at some empirical point (exit 3)
does not stop the others: every model runs, and the script exits 3 at the
end.  A usage or internal error (64, 70) stops it at once.
"""

import argparse
import sys

from contextkey import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="surfaces")
    parser.add_argument("--kind", choices=("mermin", "chsh"), default="mermin")
    parser.add_argument("--grid", type=int, default=None, help="points per axis (default: the CLI's 51 / 101)")
    parser.add_argument("--empirical-rounds", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    jobs = [
        ["--model", "flip"],
        ["--model", "white"],
        ["--model", "detector"],
        ["--model", "model1", "--eta", "0.1"],
        ["--model", "model2", "--eta", "0.7"],
    ]
    result = cli.EXIT_OK
    for job in jobs:
        argv = ["sweep", *job, "--kind", args.kind, "--outdir", args.outdir]
        if args.grid is not None:
            argv += ["--grid", str(args.grid)]
        if args.empirical_rounds:
            argv += ["--empirical-rounds", str(args.empirical_rounds), "--seed", str(args.seed)]
        code = cli.main(argv)
        if code == cli.EXIT_INSUFFICIENT_DATA:
            result = code
        elif code != cli.EXIT_OK:
            return code
    return result


if __name__ == "__main__":
    sys.exit(main())
