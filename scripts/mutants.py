"""Plant each catalogued fault in a copy of the tree and check that its tests catch it.

    python3 scripts/mutants.py                          # every entry
    python3 scripts/mutants.py hop-post-columns-swapped # the named entries only

An entry names a file, one or more exact old texts, each with its
replacement, and the tests that must fail once the replacements are made.
For each entry the script copies `src/`, `tests/` and `pyproject.toml` into
a temporary directory, makes the replacements there in order, and runs
pytest on the entry's tests with
that copy's `src` first on the path: the mutant is caught when they fail.
The checkout itself is never written.  It prints one line per entry and
caught/total, and exits 1 if a mutant survives, if its tests could not
run, or if one of its old texts does not occur exactly once in its file (a
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
    edits: tuple[tuple[str, str], ...]  # (old, new) replacements, made in order
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


PROTOCOL = "src/contextkey/protocol.py"
CLI = "src/contextkey/cli.py"
INEQUALITY = "src/contextkey/inequality.py"
ADVERSARY = "src/contextkey/adversary.py"
NOISE = "src/contextkey/noise.py"

MUTANTS = (
    # -- the hop tables --
    Mutant(
        "hop-post-columns-swapped", PROTOCOL,
        (("for row, p in ((0, p_plus), (1, 1.0 - p_plus))",
          "for row, p in ((1, 1.0 - p_plus), (0, p_plus))"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    Mutant(
        "hop-cap-one-hop-late", PROTOCOL,
        (("if columns is None or 3 * columns.shape[1] > cap:",
          "if columns is None or columns.shape[1] > cap:"),),
        ("tests/test_protocol.py::TestHopTables",),
    ),
    Mutant(
        "hop-table-at-eves-link", PROTOCOL,
        (("columns = None if eve_hop is None else eve_hop.post",
          "columns = columns if eve_hop is None else eve_hop.post"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "white-basis-code-offset", PROTOCOL,
        (("np.copyto(code, 6 + v.white_idx[:, slot], where=white)",
          "np.copyto(code, 5 + v.white_idx[:, slot], where=white)"),),
        ("tests/test_digests.py", "tests/test_oracle.py", "tests/test_noise.py::TestNoisyPreparation"),
    ),
    Mutant(
        # one CHSH table per parity whether or not Eve is at the link before the party
        "chsh-hop-shared-across-eves-link", PROTOCOL,
        (("key = (bob % 2, at_eve) if", "key = bob % 2 if"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    # -- Eve's table --
    Mutant(
        "eve-table-despite-her-mask", PROTOCOL,
        (("if self.eve_masked or 3 * k > cap:", "if 3 * k > cap:"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    Mutant(
        "eve-skipped-rounds-given-post-codes", PROTOCOL,
        (("code = np.where(active, plan.eve_hop.p_plus.size + 2 * code + (hit < 0), code)",
          "code = plan.eve_hop.p_plus.size + 2 * code + (hit < 0)"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    Mutant(
        "eve-post-columns-outcome-swapped", PROTOCOL,
        (("_read_only(np.hstack([columns, post]))",
          "_read_only(np.hstack([columns, post.reshape(len(post), k, 2)[:, :, ::-1].reshape(len(post), 2 * k)]))"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py"),
    ),
    Mutant(
        "fresh-reference-not-tiled-per-code", PROTOCOL,
        (("np.tile(self.eve_reference.post, k)", "np.repeat(self.eve_reference.post, k, axis=1)"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_oracle.py"),
    ),
    Mutant(
        "eve-masked-ignores-masking-enabled", PROTOCOL,
        (("if not config.masking_enabled or config.eve is None:", "if config.eve is None:"),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_digests.py", "tests/test_oracle.py"),
    ),
    # -- the reference tables --
    Mutant(
        # each preparing party's v+ and v− rows swapped: its prepared columns in swapped outcome order
        "reference-outcome-columns-swapped", PROTOCOL,
        (("self.setting_basis[k], self.qudit[k], True)", "self.setting_basis[k][::-1], self.qudit[k], True)"),),
        ("tests/test_protocol.py::TestReferenceProjections", "tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        # the next prefix's basis in ``LOCAL_MATRICES`` order, which is never Eve's own
        "eve-reference-in-the-wrong-basis", PROTOCOL,
        (("self._table(kernels, reference, self.eve_basis, self.eve_parsed[1], True)",
          "self._table(kernels, reference, _BASIS[(_PREFIX_INDEX[self.eve_parsed[0]] + 1) % len(_BASIS), :, :, None],"
          " self.eve_parsed[1], True)"),),
        ("tests/test_protocol.py::TestReferenceProjections", "tests/test_oracle.py"),
    ),
    # -- the engine plan and long blocks --
    Mutant(
        "plan-shape-without-white-flag", PROTOCOL,
        (("return (config.kind, config.num_parties, config.masking_enabled, config.masking_include_key, config.eve,\n"
          "            isinstance(prep, WhitePrep))",
          "return (config.kind, config.num_parties, config.masking_enabled, config.masking_include_key, config.eve)"),),
        ("tests/test_protocol.py::TestEnginePlan",),
    ),
    Mutant(
        "long-blocks-when-some-hop-is-dense", PROTOCOL,
        (("self.fully_tabled = all(hop is not None for hop in self.hops[1:])",
          "self.fully_tabled = any(hop is not None for hop in self.hops[1:])"),),
        ("tests/test_protocol.py::TestBlockSeams",),
    ),
    # -- noise --
    Mutant(
        "xpz-preparations-noiseless", PROTOCOL,
        (("_read_only(np.array([p in KEY_PREFIXES[self.kind] for p, _ in ps])) for ps in self.parsed",
          '_read_only(np.array([p == "Z" for p, _ in ps])) for ps in self.parsed'),),
        ("tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        "flip-eps-swapped", PROTOCOL,
        (("== 0, prep.eps1, prep.eps2)", "== 0, prep.eps2, prep.eps1)"),),
        ("tests/test_digests.py", "tests/test_oracle.py", "tests/test_noise.py::TestNoisyPreparation"),
    ),
    Mutant(
        # the white-noise integers read from inside the uniforms: the receivers' columns not skipped
        "white-advance-without-receivers-columns", PROTOCOL,
        (("g_white.bit_generator.advance(rounds * self._noise_cols)",
          "g_white.bit_generator.advance(rounds * self._noise_preparers)"),),
        ("tests/test_digests.py",),
    ),
    # -- Eve's mask --
    Mutant(
        "mask-conjugates-dropped", PROTOCOL,
        (("return np.stack([w0 * a - w1 * np.conj(b), w0 * b + w1 * np.conj(a)], axis=1)",
          "return np.stack([w0 * a - w1 * b, w0 * b + w1 * a], axis=1)"),),
        ("tests/test_oracle.py", "tests/test_digests.py"),
    ),
    Mutant(
        # a CHSH sender's masked qudit of the wrong parity: Eve reads the other qudit's mask
        "chsh-mask-qudit-parity-flipped", PROTOCOL,
        (("if party == 2 - link % 2 else []", "if party == 1 + link % 2 else []"),),
        ("tests/test_protocol.py::TestMaskingUnitary", "tests/test_digests.py"),
    ),
    Mutant(
        "mermin-eve-misses-the-sender-at-her-link", PROTOCOL,
        (("if party <= s <= link]", "if party <= s < link]"),),
        ("tests/test_protocol.py::TestMaskingUnitary", "tests/test_digests.py"),
    ),
    Mutant(
        # each block reads the masking rows drawn for the block before it (the first its own)
        "masking-stream-read-one-block-late", PROTOCOL,
        (("else self._g_mask.random(size=(size, self.plan._mask_angle_count)) * TWO_PI",
          "else self._late_angles(size)"),
         ("    # -- per-party steps ---",
          "    def _late_angles(self, size):\n"
          "        late = getattr(self, '_late', None)\n"
          "        self._late = self._g_mask.random(size=(size, self.plan._mask_angle_count)) * TWO_PI\n"
          "        return self._late if late is None else late[:size]\n\n"
          "    # -- per-party steps ---")),
        ("tests/test_protocol.py::TestDeterminism", "tests/test_protocol.py::TestBlockSeams", "tests/test_digests.py"),
    ),
    Mutant(
        # each sender's Z factor, and each later sender's pair, composed on the wrong side:
        # (a, b)·(a1, b1) instead of (a1, b1)·(a, b)
        "su2-pairs-composed-in-reverse", PROTOCOL,
        (("np.multiply(cos[2::width] + 1j * sin[2::width], senders, out=senders)",
          "np.multiply(cos[2::width] + 1j * sin[2::width], senders[0], out=senders[0]);"
          " np.multiply(cos[2::width] - 1j * sin[2::width], senders[1], out=senders[1])"),
         ("a, b = a1 * a - b1 * np.conj(b), a1 * b + b1 * np.conj(a)",
          "a, b = a * a1 - b * np.conj(b1), a * b1 + b * np.conj(a1)")),
        ("tests/test_protocol.py::TestMaskingUnitary", "tests/test_oracle.py", "tests/test_digests.py"),
    ),
    # -- a masked Eve's Gram table and her steps --
    Mutant(
        "gram-cross-term-without-factor-2", PROTOCOL,
        (("p_plus += 2.0 * (cross.real * h01.real - cross.imag * h01.imag)",
          "p_plus += cross.real * h01.real - cross.imag * h01.imag"),),
        ("tests/test_protocol.py::TestEveGram", "tests/test_digests.py"),
    ),
    Mutant(
        "gram-cross-term-without-conjugate", PROTOCOL,
        (("cross, h01 = np.conj(a0) * a1, self.h01[code]", "cross, h01 = a0 * a1, self.h01[code]"),),
        ("tests/test_protocol.py::TestEveGram", "tests/test_digests.py"),
    ),
    Mutant(
        # S0 and S1 trade places: the Gram diagonal swaps and the cross term is conjugated
        "gram-halves-swapped", PROTOCOL,
        (("s0, s1 = columns.reshape(pre, 2, post, k)", "s1, s0 = columns.reshape(pre, 2, post, k)"),),
        ("tests/test_protocol.py::TestEveGram", "tests/test_digests.py", "tests/test_oracle.py"),
    ),
    Mutant(
        # her step forwards the incoming state, not the fresh reference's column
        "eve-hook-ignores-fresh-reference", PROTOCOL,
        (("        if fresh:\n            states[:, active] =", "        if False:\n            states[:, active] ="),),
        ("tests/test_protocol.py::TestEveGram", "tests/test_oracle.py"),
    ),
    Mutant(
        "dense-eve-skipped-rounds-not-restored", PROTOCOL,
        (("        elif skipped is not None:\n            states[:, ~active] = skipped\n", ""),),
        ("tests/test_protocol.py::TestHopTables", "tests/test_protocol.py::TestEveGram", "tests/test_adversary.py"),
    ),
    # -- round kinds and the writer --
    Mutant(
        "last-party-dropped-from-all-picked", PROTOCOL,
        (("        for k in range(1, n):\n            out &= picked(k, allowed)",
          "        for k in range(1, n - 1):\n            out &= picked(k, allowed)"),),
        ("tests/test_protocol.py::TestLabels", "tests/test_digests.py"),
    ),
    Mutant(
        # the same bytes, written once at the end
        "writer-holds-every-chunk", CLI,
        (('    with path.open("wb") as handle:\n        for start in range(0, rounds, TRANSCRIPT_CHUNK):',
          '    texts = []\n    with path.open("wb") as handle:\n        for start in range(0, rounds, TRANSCRIPT_CHUNK):'),
         ('handle.write(b"".join(grid.ravel().tolist()))', 'texts.append(b"".join(grid.ravel().tolist()))'),
         ("            del grid  # before the next chunk's grid is built\n",
          "            del grid  # before the next chunk's grid is built\n        handle.write(b\"\".join(texts))\n")),
        ("tests/test_cli.py::TestTranscriptFormat",),
    ),
    Mutant(
        "csv-numbers-deduplicated-by-value", CLI,
        (("distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)",
          "distinct, inverse = np.unique(column, return_inverse=True)"),),
        ("tests/test_cli.py::TestCsvRows",),
    ),
    Mutant(
        "round-number-digit-boundary", CLI,
        (("high = min(stop, 10**digits)", "high = min(stop, 10**digits + 1)"),),
        ("tests/test_digests.py",),
    ),
    # -- the one run/attack pipeline --
    Mutant(
        "eve-section-only-for-mermin", CLI,
        (("    if config.eve is not None:\n        eve, leakage",
          '    if config.eve is not None and config.kind == "mermin":\n        eve, leakage'),),
        ("tests/test_cli.py::TestAttack", "tests/test_digests.py"),
    ),
    Mutant(
        "localization-lines-dropped", CLI,
        (('    if "localized_links" in eve:', '    if "localization" in eve:'),),
        ("tests/test_cli.py::TestAttack", "tests/test_digests.py"),
    ),
    Mutant(
        # a noncommuting observable under ``auto`` is refused instead of measured
        "auto-does-not-fall-back", CLI,
        (("        if not auto:\n            raise UsageError(str(exc)) from exc\n",
          "        raise UsageError(str(exc)) from exc\n"),),
        ("tests/test_cli.py::TestAttack", "tests/test_digests.py"),
    ),
    Mutant(
        "attack-files-named-run", CLI,
        (("prefix = args.prefix or args.command", 'prefix = args.prefix or "run"'),),
        ("tests/test_cli.py::TestAttack",),
    ),
    # -- the statistics layer --
    # (n₊ and n₋ swapped is an equivalent mutant: it negates every mean, and
    # ``estimate`` takes the value's absolute value and squares the means)
    Mutant(
        "sign-counts-erased-column-read-as-minus", INEQUALITY,
        (("counts, sums = signs[:, 2] + signs[:, 0], signs[:, 2] - signs[:, 0]",
          "counts, sums = signs[:, 2] + signs[:, 1], signs[:, 2] - signs[:, 1]"),),
        ("tests/test_inequality.py::TestSignCounts", "tests/test_inequality.py::TestEstimatorMatchesLoop"),
    ),
    Mutant(
        "sign-counts-cell-offset-dropped", INEQUALITY,
        (("        cells += products\n        cells += 1\n", "        cells += products\n"),),
        ("tests/test_inequality.py::TestSignCounts", "tests/test_inequality.py::TestEstimatorMatchesLoop"),
    ),
    Mutant(
        "term-variance-from-abs-mean", INEQUALITY,
        (("variances = np.clip(1.0 - means**2, 0.0, None)", "variances = np.clip(1.0 - np.abs(means), 0.0, None)"),),
        ("tests/test_acceptance.py::TestCriterion9Localization", "tests/test_inequality.py::TestEstimatorMatchesLoop"),
    ),
    Mutant(
        "two-sigma-violation-rule", INEQUALITY,
        (("VIOLATION_SIGMAS = 3.0", "VIOLATION_SIGMAS = 2.0"),),
        ("tests/test_inequality.py::TestDecisionRule",),
    ),
    Mutant(
        "violation-at-the-three-sigma-boundary", INEQUALITY,
        (("* self.standard_error > self.classical_bound", "* self.standard_error >= self.classical_bound"),),
        ("tests/test_inequality.py::TestDecisionRule",),
    ),
    Mutant(
        "leakage-counts-rounds-eve-skipped", ADVERSARY,
        (("seen = (eve != 0) & (bits != ERASED_BIT)", "seen = bits != ERASED_BIT"),),
        ("tests/test_adversary.py::TestLeakage",),
    ),
    Mutant(
        "key-rate-erasures-folded-into-bit-1", NOISE,
        (("bits = sifting.key_bits  # symbols 0, 1 and erased (2)", "bits = np.minimum(sifting.key_bits, 1)"),),
        ("tests/test_noise.py::TestEmpiricalKeyRate",),
    ),
)


def occurrences(mutant: Mutant) -> list[int]:
    """How often each of ``mutant``'s old texts occurs in its file."""
    text = (ROOT / mutant.path).read_text()
    return [text.count(old) for old, _ in mutant.edits]


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
    text = target.read_text()
    for old, new in mutant.edits:
        text = text.replace(old, new)
    target.write_text(text)
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
    misplaced = [mutant.name for mutant in chosen if set(occurrences(mutant)) != {1}]
    for name in misplaced:
        print(f"{name}: an old text does not occur exactly once", file=sys.stderr)
    results = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        # the unmutated copy must pass every chosen test, or a failure proves nothing
        tests = tuple(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        control, detail = run(Mutant("control", chosen[0].path, (), tests), Path(workdir))
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
