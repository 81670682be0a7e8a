"""Plant each catalogued fault in a copy of the tree and check that its tests catch it.

    python3 scripts/mutants.py                          # every entry
    python3 scripts/mutants.py hop-post-columns-swapped # the named entries only

An entry names a file, an exact old text, its replacement and the tests
that must fail once the replacement is made.  For each entry the script
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
makes the replacement there, and runs pytest on the entry's tests with
that copy's `src` first on the path: the mutant is caught when they fail.
The checkout itself is never written.  It prints one line per entry and
caught/total, and exits 1 if a mutant survives, if its tests could not
run, or if an old text does not occur exactly once in its file (a
refactor that moves the text updates the entry).  A control run first
checks that an unmutated copy passes every chosen test (exit 2 if not).
The catalogue runs outside Tier-1, since some entries run the oracle;
`tests/test_mutants.py` checks in Tier-1 that every old text still occurs
exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


PROTOCOL = "src/contextkey/protocol.py"
CLI = "src/contextkey/cli.py"

MUTANTS = (
    # -- the hop tables --
    Mutant(
        "hop-post-columns-swapped", PROTOCOL,
        "for row, p in ((0, p_plus), (1, 1.0 - p_plus))",
        "for row, p in ((1, 1.0 - p_plus), (0, p_plus))",
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    Mutant(
        "hop-cap-one-hop-late", PROTOCOL,
        "if columns is None or reached or 3 * columns.shape[1] > cap:",
        "if columns is None or reached or columns.shape[1] > cap:",
        ("tests/test_protocol.py::TestHopTables",),
    ),
    Mutant(
        "hop-table-at-eves-link", PROTOCOL,
        "reached = eve_link <= bob - 1 if",
        "reached = eve_link < bob - 1 if",
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "white-basis-code-offset", PROTOCOL,
        "np.copyto(code, 6 + v.white_idx[:, slot], where=white)",
        "np.copyto(code, 5 + v.white_idx[:, slot], where=white)",
        ("tests/test_digests.py", "tests/test_oracle.py", "tests/test_noise.py::TestNoisyPreparation"),
    ),
    # -- the engine plan and long blocks --
    Mutant(
        "plan-shape-without-white-flag", PROTOCOL,
        "return (config.kind, config.num_parties, config.masking_include_key, config.eve, isinstance(prep, WhitePrep))",
        "return (config.kind, config.num_parties, config.masking_include_key, config.eve)",
        ("tests/test_protocol.py::TestEnginePlan",),
    ),
    Mutant(
        "long-blocks-when-some-hop-is-dense", PROTOCOL,
        "self.fully_tabled = all(hop is not None for hop in self.hops[1:])",
        "self.fully_tabled = any(hop is not None for hop in self.hops[1:])",
        ("tests/test_protocol.py::TestBlockSeams",),
    ),
    # -- noise --
    Mutant(
        "xpz-preparations-noiseless", PROTOCOL,
        "_read_only(np.array([p in KEY_PREFIXES[self.kind] for p, _ in ps])) for ps in self.parsed",
        '_read_only(np.array([p == "Z" for p, _ in ps])) for ps in self.parsed',
        ("tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "flip-eps-swapped", PROTOCOL,
        "== 0, prep.eps1, prep.eps2)",
        "== 0, prep.eps2, prep.eps1)",
        ("tests/test_digests.py", "tests/test_oracle.py", "tests/test_noise.py::TestNoisyPreparation"),
    ),
    Mutant(
        "noise-rows-not-offset-per-block", PROTOCOL,
        "noise_u=None if self._noise_u is None else self._noise_u[rows],",
        "noise_u=None if self._noise_u is None else self._noise_u[:size],",
        ("tests/test_protocol.py::TestBlockSeams", "tests/test_digests.py"),
    ),
    # -- Eve's mask --
    Mutant(
        "mask-conjugates-dropped", PROTOCOL,
        "return np.stack([w0 * a - w1 * np.conj(b), w0 * b + w1 * np.conj(a)], axis=1)",
        "return np.stack([w0 * a - w1 * b, w0 * b + w1 * a], axis=1)",
        ("tests/test_oracle.py", "tests/test_digests.py"),
    ),
    # -- round kinds and the writer --
    Mutant(
        "last-party-dropped-from-all-picked", PROTOCOL,
        "        for k in range(1, n):\n            out &= picked(k, allowed)",
        "        for k in range(1, n - 1):\n            out &= picked(k, allowed)",
        ("tests/test_protocol.py::TestLabels", "tests/test_digests.py"),
    ),
    Mutant(
        "csv-numbers-deduplicated-by-value", CLI,
        "distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)",
        "distinct, inverse = np.unique(column, return_inverse=True)",
        ("tests/test_cli.py::TestCsvRows",),
    ),
    Mutant(
        "round-number-digit-boundary", CLI,
        "high = min(stop, 10**digits)",
        "high = min(stop, 10**digits + 1)",
        ("tests/test_digests.py",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text().count(mutant.old)


def run(mutant: Mutant, workdir: Path) -> tuple[str, str]:
    """Plant ``mutant`` in a copy under ``workdir`` and run its tests there.

    Returns ``caught``, ``survived`` or ``error`` (the tests did not run),
    and pytest's first ``FAILED`` line, or its last line.
    """
    tree = workdir / mutant.name
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
    target = tree / mutant.path
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines() or [""]
    detail = next((line for line in lines if line.startswith("FAILED")), lines[-1])
    # pytest exits 1 when tests failed and 0 when all passed; anything else means they did not run
    return {0: "survived", 1: "caught"}.get(done.returncode, "error"), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = sorted(set(args.names) - set(by_name))
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    misplaced = [mutant.name for mutant in chosen if occurrences(mutant) != 1]
    for name in misplaced:
        print(f"{name}: old text does not occur exactly once", file=sys.stderr)
    results = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        # the unmutated copy must pass every chosen test, or a failure proves nothing
        tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        control, detail = run(Mutant("control", chosen[0].path, "", "", tests), Path(workdir))
        if control != "survived":
            print(f"the unmutated copy does not pass the tests: {detail}", file=sys.stderr)
            return 2
        for mutant in chosen:
            if mutant.name in misplaced:
                continue
            start = time.perf_counter()
            results[mutant.name], detail = run(mutant, Path(workdir))
            seconds = time.perf_counter() - start
            print(f"{mutant.name}: {results[mutant.name]} ({seconds:.1f} s) {detail}", flush=True)
    caught = sum(result == "caught" for result in results.values())
    print(f"caught {caught}/{len(chosen)}")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
