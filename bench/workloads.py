"""The four benchmark workloads: how each calls the CLI and how its outputs are checked.

Every check compares an output with a closed form or a property the
protocol must have, never with a stored copy of earlier output.  The
statistical checks allow K_SIGMA standard errors, so one check fails by
chance with probability about 6e-7 (two-sided normal tail at 5 sigma).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

K_SIGMA = 5.0
EXACT = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    exit_codes: frozenset[int]
    #: protocol rounds one command simulates
    rounds: int
    #: names the problems found in one command's outputs; it takes the
    #: output directory and the `contextkey.cli` module, and reaches the
    #: program through that module so that a traced run sees its calls
    check: Callable[[Path, ModuleType], list[str]]


def _expect(problems: list[str], ok: bool, message: str):
    if not ok:
        problems.append(message)


def _near(value: float | None, target: float, sigma: float | None) -> bool:
    if value is None or sigma is None:
        return False
    return abs(value - target) <= K_SIGMA * sigma + EXACT


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# --- shared checks -----------------------------------------------------------


def _check_keys(problems: list[str], outdir: Path, prefix: str, report: dict):
    """Noiseless keys: every party holds the same string, with no erasures."""
    texts = [
        (outdir / f"{prefix}-key-party{party}.txt").read_text()
        for party in range(1, report["parties"] + 1)
    ]
    _expect(problems, len(set(texts)) == 1, "the parties' key files differ")
    _expect(problems, "e" not in texts[0], "a key file holds an erasure")
    _expect(
        problems,
        len(texts[0].strip()) == report["sifting"]["key_rounds"],
        "key length differs from the key-round count",
    )
    _expect(problems, report["key_agreement"] == 1.0, f"key agreement {report['key_agreement']}")


def _mermin_estimate_near_max(problems: list[str], report: dict):
    """A noiseless or commuting-attacked chain reaches 2^(N-1)."""
    est = report["estimates"]["mermin"]
    target = 2.0 ** (report["parties"] - 1)
    _expect(
        problems,
        _near(est["value"], target, est["standard_error"]),
        f"mermin {est['value']} ± {est['standard_error']} is not within "
        f"{K_SIGMA:g} sigma of {target:g}",
    )


# --- run-mermin3 -------------------------------------------------------------

RUN_MERMIN3_ROUNDS = 20_000


def _run_mermin3_argv(seed: int, outdir: Path) -> list[str]:
    return [
        "run", "--kind", "mermin", "--parties", "3",
        "--rounds", str(RUN_MERMIN3_ROUNDS), "--seed", str(seed), "--outdir", str(outdir),
    ]


def _parse_counts(transcript_path: Path) -> dict[str, int]:
    """Sift a mermin JSONL transcript without the program's reader."""
    counts = {"key_rounds": 0, "check_rounds": 0, "discarded": 0}
    with transcript_path.open() as handle:
        for line in handle:
            prefixes = {label.rstrip("0123456789") for label in json.loads(line)["labels"]}
            if prefixes == {"Z"}:
                counts["key_rounds"] += 1
            elif prefixes <= {"X", "Y"}:
                counts["check_rounds"] += 1
            else:
                counts["discarded"] += 1
    return counts


def _check_run_mermin3(outdir: Path, cli: ModuleType) -> list[str]:
    problems: list[str] = []
    report = json.loads((outdir / "run-report.json").read_text())
    _mermin_estimate_near_max(problems, report)
    rounds = report["rounds"]
    p = 1.0 / 27.0
    fraction = report["key_fraction"]
    _expect(
        problems,
        abs(fraction - p) <= K_SIGMA * math.sqrt(p * (1 - p) / rounds),
        f"key fraction {fraction} is not within {K_SIGMA:g} binomial sigma of 1/27",
    )
    _check_keys(problems, outdir, "run", report)
    transcript_path = outdir / "run-transcript.jsonl"
    _expect(
        problems,
        _parse_counts(transcript_path) == report["sifting"],
        "the transcript's settings do not sift to the report's counts",
    )
    config = cli.protocol.ProtocolConfig(
        kind="mermin", num_parties=3, rounds=rounds, seed=report["seed"],
        masking_enabled=report["masking"],
    )
    sifting = cli.protocol.sift(cli.read_transcript(transcript_path, config))
    resifted = {
        "key_rounds": len(sifting.key_rounds),
        "check_rounds": len(sifting.check_rounds),
        "discarded": len(sifting.discarded),
    }
    _expect(problems, resifted == report["sifting"], "the re-read transcript re-sifts differently")
    return problems


# --- attack-mermin6 ----------------------------------------------------------

# Each of the 32 Mermin terms is one setting string of probability 3^-6;
# with 12k rounds a term goes unsampled with probability e^-16.5, and all
# 32 are sampled except on about 2 seeds in a million (an unsampled term
# crashes the run summary, see README).
ATTACK_MERMIN6_ROUNDS = 12_000


def _attack_mermin6_argv(seed: int, outdir: Path) -> list[str]:
    return [
        "attack", "--kind", "mermin", "--parties", "6",
        "--rounds", str(ATTACK_MERMIN6_ROUNDS), "--seed", str(seed),
        "--eve-link", "3", "--eve-obs", "Z1", "--outdir", str(outdir),
    ]


def _check_attack_mermin6(outdir: Path, cli: ModuleType) -> list[str]:
    problems: list[str] = []
    report = json.loads((outdir / "attack-report.json").read_text())
    _mermin_estimate_near_max(problems, report)
    _check_keys(problems, outdir, "attack", report)
    eve = report["eve"]
    _expect(problems, eve["strategy"] == "commuting-measure", f"strategy {eve['strategy']}")
    _expect(
        problems,
        eve["attacked_key_rounds"] == report["sifting"]["key_rounds"],
        "Eve did not attack every key round",
    )
    return problems


# --- attack-chsh4 ------------------------------------------------------------

ATTACK_CHSH4_ROUNDS = 8_000


def _attack_chsh4_argv(seed: int, outdir: Path) -> list[str]:
    return [
        "attack", "--kind", "chsh", "--parties", "4",
        "--rounds", str(ATTACK_CHSH4_ROUNDS), "--seed", str(seed),
        "--eve-link", "2", "--eve-obs", "Z1", "--outdir", str(outdir),
    ]


def _check_attack_chsh4(outdir: Path, cli: ModuleType) -> list[str]:
    problems: list[str] = []
    report = json.loads((outdir / "attack-report.json").read_text())
    eve = report["eve"]
    _expect(problems, eve["strategy"] == "noncommuting-measure", f"strategy {eve['strategy']}")
    _expect(problems, eve.get("localized_links") == [2], f"localized {eve.get('localized_links')}")
    # Pairs off the attacked link keep the singlet value 2; on link 2 a Z
    # measurement removes <XX> and keeps <ZZ>, leaving 1.
    for pair, target in (("pair_1", 2.0), ("pair_2", 1.0), ("pair_3", 2.0)):
        est = report["estimates"][pair]
        _expect(
            problems,
            _near(est["value"], target, est["standard_error"]),
            f"{pair} {est['value']} ± {est['standard_error']} is not within "
            f"{K_SIGMA:g} sigma of {target:g}",
        )
    return problems


# --- sweep-model2 ------------------------------------------------------------

SWEEP_ETA = 0.7
SWEEP_GRID = 51
SWEEP_EMPIRICAL_GRID = 3
SWEEP_EMPIRICAL_ROUNDS = 6_000
_PAIRS = ((1, 2), (1, 3), (2, 3))


def _sweep_model2_argv(seed: int, outdir: Path) -> list[str]:
    return [
        "sweep", "--model", "model2", "--kind", "mermin", "--eta", str(SWEEP_ETA),
        "--empirical-rounds", str(SWEEP_EMPIRICAL_ROUNDS),
        "--empirical-grid", str(SWEEP_EMPIRICAL_GRID),
        "--seed", str(seed), "--outdir", str(outdir),
    ]


def _model2_records(eps1: float, eps2: float, eta: float) -> dict[tuple, float]:
    """Joint law of the three key records of one mermin key round.

    Party 1 holds a fair bit b; the state it emits carries b, flipped with
    probability eps1 (b = 0) or eps2 (b = 1); parties 2 and 3 each read
    that value with probability eta and record an erasure "e" otherwise.
    """
    law: dict[tuple, float] = {}
    for bit in (0, 1):
        flip = eps1 if bit == 0 else eps2
        for value, p_value in ((bit, 1.0 - flip), (1 - bit, flip)):
            for r2, p2 in ((value, eta), ("e", 1.0 - eta)):
                for r3, p3 in ((value, eta), ("e", 1.0 - eta)):
                    p = 0.5 * p_value * p2 * p3
                    if p > 0.0:
                        law[(bit, r2, r3)] = law.get((bit, r2, r3), 0.0) + p
    return law


def _pair_information(law: dict[tuple, float], i: int, j: int) -> tuple[float, float, int]:
    """Mutual information (bits) of records i and j with the erasure as a
    symbol, the variance of its pointwise information (the plug-in
    estimate's variance is this over the sample count), and the degrees of
    freedom of the plug-in estimate's chi-square law at zero information.
    """
    joint: dict[tuple, float] = {}
    for records, p in law.items():
        key = (records[i - 1], records[j - 1])
        joint[key] = joint.get(key, 0.0) + p
    px: dict = {}
    py: dict = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    point = {k: math.log2(p / (px[k[0]] * py[k[1]])) for k, p in joint.items()}
    info = sum(p * point[k] for k, p in joint.items())
    variance = sum(p * (point[k] - info) ** 2 for k, p in joint.items())
    return max(info, 0.0), variance, (len(px) - 1) * (len(py) - 1)


def _plug_in_slack(variance: float, dof: int, key_rounds: float) -> tuple[float, float]:
    """How far below and above the information a plug-in estimate from
    `key_rounds` samples may fall, except with probability about 3e-7.

    To second order the estimate minus the information is a normal term of
    variance `variance / key_rounds` plus a nonnegative term that
    2 n ln2 turns into a chi-square law with `dof` degrees; that law
    exceeds dof + 2 sqrt(15 dof) + 30 with probability at most e^-15
    (Laurent and Massart 2000).
    """
    normal = K_SIGMA * math.sqrt(variance / key_rounds)
    chi2 = dof + 2.0 * math.sqrt(15.0 * dof) + 30.0
    return normal, normal + chi2 / (2.0 * key_rounds * math.log(2.0))


def _check_sweep_model2(outdir: Path, cli: ModuleType) -> list[str]:
    problems: list[str] = []
    with (outdir / f"sweep-model2-mermin-eta{SWEEP_ETA:g}.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    _expect(problems, len(rows) == SWEEP_GRID**2, f"{len(rows)} analytic rows")
    for row in rows:
        eps1, eps2 = float(row["eps1"]), float(row["eps2"])
        for conv in ("conditional", "throughput"):
            pair_mi = [float(row[f"mi_{i}{j}_{conv}"]) for i, j in _PAIRS]
            rate = float(row[f"key_rate_{conv}"])
            _expect(
                problems,
                all(0.0 <= v <= 1.0 for v in [*pair_mi, rate]),
                f"{conv} rate outside [0, 1] at ({eps1}, {eps2})",
            )
            _expect(
                problems, rate == min(pair_mi), f"{conv} key rate is not the pair minimum at ({eps1}, {eps2})"
            )
        if eps1 == eps2:
            # Party 1 to 2 is a binary symmetric channel, and 2 and 3 read
            # the same emitted value whenever both click.
            capacity = 1.0 - _binary_entropy(eps1)
            for column, expected in (
                ("mi_12_conditional", capacity),
                ("mi_12_throughput", SWEEP_ETA * capacity),
                ("mi_23_throughput", SWEEP_ETA**2),
            ):
                _expect(
                    problems,
                    abs(float(row[column]) - expected) <= EXACT,
                    f"{column} {row[column]} at eps={eps1} is not {expected}",
                )
    by_point = {(float(r["eps1"]), float(r["eps2"])): r for r in rows}
    rounds = SWEEP_EMPIRICAL_ROUNDS
    p_key = 1.0 / 27.0
    # Fewest key rounds a point has, but with probability about 3e-7.
    key_rounds = rounds * p_key - K_SIGMA * math.sqrt(rounds * p_key * (1 - p_key))
    with (outdir / f"sweep-model2-mermin-eta{SWEEP_ETA:g}-empirical.csv").open() as handle:
        empirical = list(csv.DictReader(handle))
    _expect(problems, len(empirical) == SWEEP_EMPIRICAL_GRID**2, f"{len(empirical)} empirical rows")
    for row in empirical:
        eps1, eps2 = float(row["eps1"]), float(row["eps2"])
        law = _model2_records(eps1, eps2, SWEEP_ETA)
        infos = [_pair_information(law, i, j) for i, j in _PAIRS]
        rate = min(info for info, _, _ in infos)
        # Each pair estimate lies in its own interval, so their minimum lies
        # between the least lower end and the least upper end.
        ends = []
        for info, var, dof in infos:
            below, above = _plug_in_slack(var, dof, key_rounds)
            ends.append((info - below, info + above))
        low = min(lower for lower, _ in ends)
        high = min(upper for _, upper in ends)
        measured = float(row["key_rate_empirical"])
        _expect(
            problems,
            low <= measured <= high,
            f"empirical key rate {measured} at ({eps1}, {eps2}) is outside [{low:.4f}, {high:.4f}]",
        )
        analytic = by_point.get((eps1, eps2))
        _expect(
            problems,
            analytic is not None and abs(float(analytic["key_rate_throughput"]) - rate) <= EXACT,
            f"analytic throughput key rate at ({eps1}, {eps2}) is not {rate}",
        )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-mermin3", _run_mermin3_argv, frozenset({0}), RUN_MERMIN3_ROUNDS, _check_run_mermin3),
        # The verdict bit is left unchecked: a finite-sample rule may rightly
        # withhold it at this size, which changes the exit code to 2.
        Workload(
            "attack-mermin6", _attack_mermin6_argv, frozenset({0, 2}), ATTACK_MERMIN6_ROUNDS,
            _check_attack_mermin6,
        ),
        Workload("attack-chsh4", _attack_chsh4_argv, frozenset({2}), ATTACK_CHSH4_ROUNDS, _check_attack_chsh4),
        Workload(
            "sweep-model2", _sweep_model2_argv, frozenset({0}),
            SWEEP_EMPIRICAL_GRID**2 * SWEEP_EMPIRICAL_ROUNDS, _check_sweep_model2,
        ),
    )
}
