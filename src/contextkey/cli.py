"""Command-line front end: run, attack, sweep.

Exit codes: 0 success (inequality violated), 2 inequality not violated
(eavesdropping indicated), 3 insufficient data (no check with data fails,
but an inequality term has no samples; or an empirical sweep point has no
key rounds), 64 usage error, 70 internal invariant failure or an
allocation the machine cannot satisfy (say, a whole-run array for a huge
``--rounds``).  ``run`` and ``attack`` take 0, 2 or 3 from the one owner of
the overall status, ``Transcript.verdict``, through ``VERDICTS``.

All artifacts are deterministic functions of the seed and flags: the
transcript (one JSON record per round), the machine report, the key files,
and the sweep CSVs are byte-identical across reruns.  ``--threads`` is
accepted for compatibility and ignored; rounds run on one thread.
Wall-clock timing lives only in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily, which would fall inside the first command)

from . import __version__, adversary, inequality, noise, protocol
from .qmath import InvariantViolation

EXIT_OK = 0
EXIT_NO_VIOLATION = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

#: Each overall status of ``Transcript.verdict``: its summary text and its exit code.
VERDICTS = {
    True: ("inequality violated (no eavesdropping indicated)", EXIT_OK),
    False: ("NO violation (presence of eavesdropping is indicated)", EXIT_NO_VIOLATION),
    None: ("insufficient data", EXIT_INSUFFICIENT_DATA),
}

OUTDIR_ENV = "CONTEXTKEY_OUTDIR"

#: Most points (grid^axes) an analytic sweep surface, or an empirical one
#: (empirical grid^axes), may have.  At this limit (model2, grid 500) an
#: analytic sweep peaked at 272-309 MB in three runs.
MAX_SWEEP_POINTS = 250_000

OBSERVABLE_HELP = """\
Observable labels (prefix + qudit-party digit):
  Xk, Yk, Zk     Pauli observables of party k (Mermin settings; any k <= N)
  XpZk           (X_k + Z_k)/sqrt(2)
  ZmXk           (Z_k - X_k)/sqrt(2)
Setting sets:
  Mermin party k:        Xk, Yk, Zk          (key setting: Zk)
  CHSH odd parties:      X1, XpZ1, Z1        (key settings: XpZ1, Z1)
  CHSH even parties:     XpZ2, Z2, ZmX2      (key settings: XpZ2, Z2)
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_run_flags(parser):
    parser.add_argument("--kind", choices=("mermin", "chsh"), required=True)
    parser.add_argument("--parties", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: randomized, printed")
    parser.add_argument("--no-masking", action="store_true")
    parser.add_argument(
        "--masking-exclude-key",
        action="store_true",
        help="drop the key observable from the masking generators",
    )
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("--outdir", default=None)
    parser.add_argument("--prefix", default=None, help="output file prefix")
    parser.add_argument("--config", default=None, help="key = value file mirroring these flags")
    parser.add_argument("--prep-noise", default=None, help="flip:EPS1,EPS2 or white:EPS")
    parser.add_argument("--detector-noise", default=None, help="misread:ETA or loss:ETA")


def build_parser() -> _Parser:
    parser = _Parser(prog="contextkey", description=__doc__)
    parser.add_argument("--list-observables", action="store_true", help="print label table and exit")
    parser.add_argument("--version", action="version", version=f"contextkey {__version__}")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a protocol and sift a key")
    _add_run_flags(run_p)

    attack_p = sub.add_parser("attack", help="run with an eavesdropper and report leakage")
    _add_run_flags(attack_p)
    attack_p.add_argument("--eve-link", type=int, required=True)
    attack_p.add_argument("--eve-obs", required=True, help="observable label, see --list-observables")
    attack_p.add_argument(
        "--eve-strategy",
        choices=("auto", "commuting-measure", "noncommuting-measure", "measure-resend"),
        default="auto",
    )
    attack_p.add_argument("--eve-activity", type=float, default=1.0)
    attack_p.add_argument("--eve-resend", choices=("post-state", "fresh-reference"), default="post-state")

    sweep_p = sub.add_parser("sweep", help="emit analytic key-rate surfaces as CSV")
    sweep_p.add_argument("--model", choices=noise.MODELS, required=True)
    sweep_p.add_argument("--kind", choices=("mermin", "chsh"), default="mermin")
    sweep_p.add_argument("--grid", type=int, default=None, help="points per axis (default 51 / 101)")
    sweep_p.add_argument("--eta", type=float, default=None, help="detector parameter for model1/model2")
    sweep_p.add_argument("--outdir", default=None)
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--empirical-rounds", type=int, default=None)
    sweep_p.add_argument("--empirical-grid", type=int, default=6)
    sweep_p.add_argument("--seed", type=int, default=None)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert flags from a key = value file right after the subcommand."""
    if "--config" not in argv:
        return argv
    position = argv.index("--config") + 1
    if position == len(argv):
        raise UsageError("--config needs a file path")
    try:
        text = Path(argv[position]).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            tokens.extend([flag, value])
    return argv[:1] + tokens + argv[1:]


def _parse_noise(flag: str, spec: str | None, kinds: dict):
    """The noise ``KIND:P1,P2,...`` names, ``kinds[KIND](P1, P2, ...)``; None without a spec."""
    if spec is None:
        return None
    kind, _, params = spec.partition(":")
    if kind not in kinds:
        raise UsageError(f"unknown {flag} kind {kind!r}")
    names = [field.name.upper() for field in dataclasses.fields(kinds[kind])]
    try:
        values = [float(x) for x in params.split(",")]
        if len(values) != len(names):
            raise ValueError(f"expected {kind}:{','.join(names)}")
        return kinds[kind](*values)
    except ValueError as exc:
        raise UsageError(f"bad {flag} {spec!r}: {exc}") from exc


def _resolve_outdir(flag_value: str | None) -> Path:
    outdir = Path(flag_value or os.environ.get(OUTDIR_ENV) or "contextkey-out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {outdir}: {exc.strerror}") from exc
    return outdir


def _resolve_output(args) -> tuple[Path, str]:
    """The output directory, created, and the file prefix of a run."""
    prefix = args.prefix or args.command
    if "/" in prefix or os.sep in prefix:
        raise UsageError(f"--prefix {prefix!r} must not contain a path separator")
    return _resolve_outdir(args.outdir), prefix


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        if flag_value < 0:
            raise UsageError("--seed must be non-negative")
        return flag_value
    return int(np.random.SeedSequence().entropy % (2**63))


def _build_config(args, eve=None) -> protocol.ProtocolConfig:
    prep = _parse_noise("--prep-noise", args.prep_noise, noise.PREP_NOISE)
    detector = _parse_noise("--detector-noise", args.detector_noise, noise.DETECTOR_NOISE)
    noise_cfg = None if prep is None and detector is None else noise.NoiseConfig(prep, detector)
    try:
        return protocol.ProtocolConfig(
            kind=args.kind,
            num_parties=args.parties,
            rounds=args.rounds,
            seed=args.seed,
            masking_enabled=not args.no_masking,
            masking_include_key=not args.masking_exclude_key,
            noise=noise_cfg,
            eve=eve,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _estimate_dict(est: inequality.InequalityEstimate) -> dict:
    return {
        "value": est.value if math.isfinite(est.value) else None,
        "standard_error": est.standard_error if math.isfinite(est.standard_error) else None,
        "classical_bound": est.classical_bound,
        "violated": est.violated,
        "usable": est.usable,
        "samples_per_term": est.samples_per_term,
    }


#: Rounds formatted per write, so no copy of a whole transcript's text is held.
TRANSCRIPT_CHUNK = 4096


def _token_tables(transcript: protocol.Transcript) -> tuple[np.ndarray, list[np.ndarray]]:
    """Radix weights (columns × tables) and byte-string token tables of a run's lines.

    A line's columns are Eve's outcome, the key flag, each party's setting,
    each party's outcome and the revealed flag, coded from 0 (an outcome
    plus one).  A table joins adjacent columns while their tokens combine
    to at most 3^5 pieces; the columns' mixed-radix code indexes it.
    """
    eve = json.dumps(transcript.config.eve.observable) if transcript.config.eve is not None else "null"
    eves = ((eve, -1), ("null", "null"), (eve, 1))
    columns = [
        [f'{{"eve_label": {label}, "eve_outcome": {outcome}, ' for label, outcome in eves],
        [f'"key_round": {flag}, "labels": [' for flag in ("false", "true")],
        *([(", " if k else "") + json.dumps(label) for label in labels]
          for k, labels in enumerate(transcript.setting_labels)),
        *([(", " if k else '], "outcomes": [') + o for o in ("-1", "null", "1")]
          for k in range(transcript.config.num_parties)),
        [f'], "revealed": {flag}, "round": ' for flag in ("false", "true")],
    ]
    weights, tables = np.zeros((len(columns), 0), dtype=np.int16), []
    for k, column in enumerate(columns):
        if not tables or len(tables[-1]) * len(column) > 3**5:
            weights, tables = np.column_stack([weights, np.zeros(len(columns), np.int16)]), [*tables, [""]]
        weights[: k + 1, -1] *= len(column)  # the table's earlier columns move up a digit
        weights[k, -1] = 1
        tables[-1] = [head + tail for head, tail in itertools.product(tables[-1], column)]
    return weights, [np.array([piece.encode() for piece in table], dtype=object) for table in tables]


def _round_ends(start: int, stop: int) -> np.ndarray:
    """The round number, ``}`` and newline ending each line of rounds [start, stop), null-padded."""
    width = len(str(stop - 1))
    ends = np.zeros((stop - start, width + 2), dtype=np.uint8)
    low = start
    for digits in range(len(str(start)), width + 1):  # one part per digit count
        high = min(stop, 10**digits)
        part, rest = ends[low - start : high - start], np.arange(low, high)
        for place in range(digits - 1, -1, -1):
            rest, part[:, place] = np.divmod(rest, 10)
        part[:, :digits] += ord("0")
        part[:, digits : digits + 2] = (ord("}"), ord("\n"))
        low = high
    return ends.view(f"S{width + 2}").ravel()


def write_transcript(transcript: protocol.Transcript, path: Path):
    """One JSON object per round, in ``json.dumps(..., sort_keys=True)`` form.

    Erased outcomes are written as null, and so are Eve's label and outcome
    in rounds she did not measure.  Rounds are written a chunk at a time:
    each token table (``_token_tables``), indexed by its columns' codes,
    fills one column of a (chunk, tables + 1) object grid and the round ends
    the last, and the grid is joined row by row, so a chunk holds its int16
    codes, one grid of references to shared bytes and its own text.  The
    codes are multiply-adds of the int8 columns, each product taken in
    int16 whatever numpy's scalar promotion: a weight reaches 81, which an
    int8 product would wrap.
    """
    kinds, rounds, n = transcript.kinds, transcript.config.rounds, transcript.config.num_parties
    weights, tables = _token_tables(transcript)
    # the line's columns in ``_token_tables`` order; the outcomes are coded from 0
    columns = [transcript.eve_outcomes, kinds.key, *transcript.picks.T, *transcript.outcomes.T, kinds.revealed]
    offsets = weights[0] + weights[2 + n : 2 + 2 * n].sum(axis=0)
    terms = [(columns[c], table, w) for (c, table), w in np.ndenumerate(weights) if w]
    with path.open("wb") as handle:
        for start in range(0, rounds, TRANSCRIPT_CHUNK):
            rows = slice(start, min(start + TRANSCRIPT_CHUNK, rounds))
            codes = np.empty((len(tables), rows.stop - rows.start), dtype=np.int16)
            codes[:] = offsets[:, None]
            for column, table, w in terms:
                codes[table] += np.multiply(column[rows], w, dtype=np.int16)
            grid = np.empty((rows.stop - rows.start, len(tables) + 1), dtype=object)
            for column, (table, code) in enumerate(zip(tables, codes)):
                grid[:, column] = table.take(code)
            grid[:, -1] = _round_ends(rows.start, rows.stop)
            handle.write(b"".join(grid.ravel().tolist()))
            del grid  # before the next chunk's grid is built


def read_transcript(path: Path, config: protocol.ProtocolConfig) -> protocol.Transcript:
    """Parse a transcript written by ``write_transcript`` for ``config``.

    Raises ValueError on a line whose labels are not the parties' settings,
    whose outcomes are not ±1 or null, or whose round number is out of order.
    Numbers must be JSON integers: ``true`` and ``1.0`` equal 1 in Python,
    but no written line holds them.
    """
    picks_of = [
        {label: pick for pick, label in enumerate(labels)}
        for labels in protocol.party_labels(config.kind, config.num_parties)
    ]
    picks, outcomes, eve_outcomes = [], [], []
    with path.open() as handle:
        for expected, line in enumerate(handle):
            raw = json.loads(line)
            if type(raw["round"]) is not int or raw["round"] != expected:
                raise ValueError(f"line {expected + 1} holds round {raw['round']}, expected {expected}")
            labels = raw["labels"]
            if len(labels) != config.num_parties or any(
                label not in party for label, party in zip(labels, picks_of)
            ):
                raise ValueError(f"round {expected}: labels {labels} are not the parties' settings")
            recorded = [*raw["outcomes"], raw["eve_outcome"]]
            if any(o is not None and (type(o) is not int or o not in (1, -1)) for o in recorded):
                raise ValueError(f"round {expected}: outcomes {recorded} are not ±1 or null")
            picks.append([party[label] for label, party in zip(labels, picks_of)])
            outcomes.append([o or 0 for o in recorded[:-1]])
            eve_outcomes.append(recorded[-1] or 0)
    return protocol.Transcript(config, picks, outcomes, eve_outcomes)


def _write_json(payload: dict, path: Path):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _manifest(args, outdir: Path, seed: int, outputs: list[Path], rounds: int, started: float) -> dict:
    """The run's record; ``config`` holds the parsed flags, outdir resolved.

    It names the Python and numpy that ran the command: byte-identity rests
    on numpy's generator streams, which a numpy release may change.
    """
    return {
        "command": args.command,
        "config": vars(args) | {"outdir": str(outdir)},
        "seed": seed,
        "artifact_version": __version__,
        "schema_version": 1,
        "outputs": [str(p) for p in outputs],
        "rounds": rounds,
        "wall_clock_s": round(time.monotonic() - started, 3),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
    }


def _key_rate_section(transcript) -> dict | None:
    if transcript.config.noise is None:
        return None
    try:
        report = noise.empirical_key_rate(transcript)
    except noise.InsufficientKeyRounds as exc:
        return {"error": str(exc)}
    return {
        "pairwise_mi": {f"{i}-{j}": mi for (i, j), mi in sorted(report.pairwise_mi.items())},
        "key_rate": report.key_rate,
        "min_pair": f"{report.min_pair[0]}-{report.min_pair[1]}",
    }


def _run_report(transcript) -> dict:
    config, sifting, verdict = transcript.config, transcript.sifting, transcript.verdict
    key = protocol.extract_key(sifting)
    expected_fraction = len(protocol.KEY_PREFIXES[config.kind]) / 3.0**config.num_parties
    return {
        "kind": config.kind,
        "parties": config.num_parties,
        "rounds": config.rounds,
        "seed": config.seed,
        "masking": config.masking_enabled,
        "sifting": {
            "key_rounds": len(sifting.key_rounds),
            "check_rounds": len(sifting.check_rounds),
            "discarded": len(sifting.discarded),
        },
        "key_fraction": len(sifting.key_rounds) / config.rounds,
        "expected_key_fraction": expected_fraction,
        "key_agreement": key.agreement_fraction,
        "complete_key_rounds": key.num_complete,
        "estimates": {name: _estimate_dict(est) for name, est in sorted(transcript.estimates.items())},
        "violated": verdict.violated,
        "insufficient_data": verdict.empty_terms,
        "empirical_key_rate": _key_rate_section(transcript),
    }


# Key-file characters of the key-bit symbols 0, 1 and ERASED_BIT.
_KEY_CHARS = np.frombuffer(b"01e", dtype=np.uint8)


def _write_artifacts(args, outdir: Path, prefix: str, transcript, report: dict, started: float):
    """Write the transcript, report, key files and manifest; print the summary."""
    config = transcript.config
    transcript_path = outdir / f"{prefix}-transcript.jsonl"
    write_transcript(transcript, transcript_path)
    report_path = outdir / f"{prefix}-report.json"
    _write_json(report, report_path)
    outputs = [transcript_path, report_path]
    for party, bits in enumerate(transcript.sifting.key_bits, start=1):
        path = outdir / f"{prefix}-key-party{party}.txt"
        path.write_text(_KEY_CHARS[bits].tobytes().decode("ascii") + "\n")
        outputs.append(path)
    manifest = _manifest(args, outdir, config.seed, outputs, config.rounds, started)
    _write_json(manifest, outdir / f"{prefix}-manifest.json")
    _print_run_summary(report, transcript.verdict.violated)


def _print_run_summary(report: dict, status: bool | None):
    print(f"kind={report['kind']} parties={report['parties']} rounds={report['rounds']} seed={report['seed']}")
    sift_line = report["sifting"]
    print(
        f"sifted: key={sift_line['key_rounds']} check={sift_line['check_rounds']} "
        f"discarded={sift_line['discarded']} (key fraction {report['key_fraction']:.5f}, "
        f"expected {report['expected_key_fraction']:.5f})"
    )
    for name, est in report["estimates"].items():
        if not est["usable"]:
            print(f"{name}: insufficient data")
            continue
        print(
            f"{name}: value={est['value']:.4f} ± {est['standard_error']:.4f} "
            f"bound={est['classical_bound']:.4f} violated={est['violated']}"
        )
    agreement = report["key_agreement"]
    print(f"key agreement: {'n/a' if agreement is None else f'{agreement:.4f}'}")
    print(f"verdict: {VERDICTS[status][0]}")


def cmd_run(args) -> int:
    started = time.monotonic()
    args.seed = _resolve_seed(args.seed)
    config = _build_config(args)
    outdir, prefix = _resolve_output(args)
    transcript = protocol.run_protocol(config)
    report = _run_report(transcript)
    _write_artifacts(args, outdir, prefix, transcript, report, started)
    return VERDICTS[transcript.verdict.violated][1]


def cmd_attack(args) -> int:
    started = time.monotonic()
    args.seed = _resolve_seed(args.seed)
    auto = args.eve_strategy == "auto"
    try:
        eve = adversary.EveConfig(
            position=args.eve_link,
            observable=args.eve_obs,
            strategy="commuting-measure" if auto else args.eve_strategy,
            activity_rate=args.eve_activity,
            resend=args.eve_resend,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config = _build_config(args, eve=eve)
    # surface bad labels / wrong commuting claims as usage errors; under
    # auto, an observable that fails to commute is measured anyway
    try:
        protocol.check_eve(config)
    except InvariantViolation as exc:
        if not auto:
            raise UsageError(str(exc)) from exc
        eve = dataclasses.replace(eve, strategy="noncommuting-measure")
        config = dataclasses.replace(config, eve=eve)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir, prefix = _resolve_output(args)
    transcript = protocol.run_protocol(config)
    report = _run_report(transcript)
    leakage = adversary.leakage_analysis(transcript)
    report["eve"] = {
        "link": eve.position,
        "observable": eve.observable,
        "strategy": eve.strategy,
        "activity_rate": eve.activity_rate,
        "mutual_information_bits": leakage.eve_key_mutual_information,
        "attacked_key_rounds": leakage.attacked_key_rounds,
        "detected": leakage.detected,
        "sufficient_data": leakage.sufficient_data,
    }
    if config.kind == "chsh":
        try:
            report["eve"]["localized_links"] = sorted(adversary.localize_eve(protocol.chsh_pair_estimates(transcript)))
        except adversary.InsufficientCheckData as exc:
            report["eve"]["localized_links"] = None
            report["eve"]["localization_error"] = str(exc)
    _write_artifacts(args, outdir, prefix, transcript, report, started)
    mi = leakage.eve_key_mutual_information
    print(f"eve: strategy={eve.strategy} MI={'n/a' if mi is None else f'{mi:.4f}'} bits "
          f"over {leakage.attacked_key_rounds} attacked key rounds; "
          f"detected={'n/a' if leakage.detected is None else leakage.detected}")
    if config.kind == "chsh":
        localized = report["eve"]["localized_links"]
        if localized is None:
            print("localization: insufficient check data")
        else:
            print(f"localization: {'links ' + str(localized) if localized else 'no failing link'}")
    return VERDICTS[transcript.verdict.violated][1]


#: A CSV number: ``%`` gives the text of ``format(value, ".10g")``.
_FLOAT = "%.10g"


def _write_csv(path: Path, header: list[str], lines: list[str]):
    path.write_text("\n".join([",".join(header), *lines, ""]))


def _sweep_axes(model: str) -> tuple[list[str], float]:
    """The parameters a model's sweep varies, and the upper end of their range.

    A model sweeps its preparation noise, or its detector if it has no
    preparation noise; a model with both takes the detector's parameter
    from ``--eta``.
    """
    prep, detector = noise.MODELS[model]
    swept = noise.PREP_NOISE[prep] if prep else noise.DETECTOR_NOISE[detector]
    # a white-noise weight runs to 1; flip and misread probabilities to 1/2
    return [field.name for field in dataclasses.fields(swept)], 1.0 if swept is noise.WhitePrep else 0.5


def _noise_at(model: str, point, eta: float | None) -> noise.NoiseConfig:
    """The noise of one sweep point: the swept kind at ``point``, a detector beside it at ``eta``."""
    prep, detector = noise.MODELS[model]
    if prep is None:
        return noise.NoiseConfig(detector=noise.DETECTOR_NOISE[detector](*point))
    return noise.NoiseConfig(
        prep=noise.PREP_NOISE[prep](*point),
        detector=noise.DETECTOR_NOISE[detector](eta) if detector else None,
    )


def _sweep_rows(model: str, kind: str, grid: int, eta: float | None):
    """(header, rows) of the analytic surface for one model.

    Each row holds the grid point, then under each convention the pair
    MIs, the key rate and the minimizing pair.  Only a model with erasures
    has more than one convention.
    """
    names, end = _sweep_axes(model)
    axis = np.linspace(0.0, end, grid)
    mesh = np.meshgrid(*[axis] * len(names), indexing="ij")
    params = {name: values.ravel() for name, values in zip(names, mesh)}
    if eta is not None:
        params["eta"] = eta
    erasures = noise.has_erasures(model)
    conventions = noise.CONVENTIONS if erasures else ("conditional",)
    header = list(names)
    for conv in conventions:
        tag = f"_{conv}" if erasures else ""
        header += [f"mi_12{tag}", f"mi_13{tag}", f"mi_23{tag}", f"key_rate{tag}", f"min_pair{tag}"]

    floats, minimizers = [params[name] for name in names], []
    pair_labels = [f"{i}-{j}" for i, j in noise.PAIRS]
    for surface in noise.analytic_key_rate_surfaces(model, kind, conventions=conventions, **params):
        floats += [*(surface.pairwise_mi[pair] for pair in noise.PAIRS), surface.key_rate]
        minimizers.append([pair_labels[k] for k in surface.min_pair.tolist()])
    texts = _formatted_columns(floats)
    columns = texts[: len(names)]
    for c, labels in enumerate(minimizers):
        columns += [*texts[len(names) + 4 * c : len(names) + 4 * c + 4], labels]
    return header, list(map(",".join, zip(*columns)))


def _formatted_columns(columns) -> list[list[str]]:
    """``_FLOAT % value`` of every entry of each float64 column, a list per column.

    Equal numbers recur within and across a surface's columns, so each
    distinct value is formatted once, into a table shared by the columns.
    Values are told apart by their bits, not compared as floats: −0.0 and
    0.0 print differently, and nan equals nothing, not even itself.  The
    columns are deduplicated one at a time, so no array longer than a
    column is made: ``np.unique`` over all the columns at once was about
    1 ms faster, but raised the benchmark's sweep-model2 peak RSS by
    0.3-0.9 MB.
    """
    texts, out = {}, []  # float64 bits → text
    for column in columns:
        distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        keys = distinct.tolist()
        for bits, value in zip(keys, distinct.view(np.float64).tolist()):
            if bits not in texts:
                texts[bits] = _FLOAT % value
        out.append(np.array([texts[bits] for bits in keys], dtype=object)[inverse].tolist())
    return out


def _validate_sweep(model: str, kind: str):
    """Endpoint and symmetry sanity on the analytic surfaces."""
    # a lossy detector is noiseless when it always clicks
    zero_noise = {"eta": 1.0} if noise.has_erasures(model) else {}
    report = noise.analytic_key_rate(model, kind, **zero_noise)
    if abs(report.key_rate - 1.0) > 1e-12:
        raise InvariantViolation(f"{model}: zero-noise key rate is {report.key_rate}, not 1")
    if model == "flip":
        a = noise.analytic_key_rate(model, kind, eps1=0.1, eps2=0.3).key_rate
        b = noise.analytic_key_rate(model, kind, eps1=0.3, eps2=0.1).key_rate
        if abs(a - b) > 1e-12:
            raise InvariantViolation("flip: key rate is not symmetric in (eps1, eps2)")


def _empirical_sweep(model, kind, grid, eta, rounds, seed):
    """(header, rows, points without key rounds); such a point's rate cell is empty.

    The points differ only in their noise parameters, so they share one
    engine plan, built from the first.
    """
    names, _ = _sweep_axes(model)
    header = (names if len(names) > 1 else ["param"]) + ["key_rate_empirical"]
    row = ",".join([_FLOAT] * len(names) + ["%s"])
    rows, empty, plan = [], 0, None
    for point in itertools.product(np.linspace(0.0, 0.5, grid), repeat=len(names)):
        config = protocol.ProtocolConfig(kind=kind, num_parties=3, rounds=rounds, seed=seed,
                                         masking_enabled=False, noise=_noise_at(model, point, eta))
        plan = plan or protocol.EnginePlan(config)
        transcript = protocol.run_protocol(config, plan)
        try:
            rate = _FLOAT % noise.empirical_key_rate(transcript, min_key_rounds=1).key_rate
        except noise.InsufficientKeyRounds:
            rate, empty = "", empty + 1
        rows.append(row % (*point, rate))
    return header, rows, empty


def cmd_sweep(args) -> int:
    started = time.monotonic()
    names, _ = _sweep_axes(args.model)
    if args.grid is None:
        args.grid = 51 if len(names) == 2 else 101
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    if args.grid ** len(names) > MAX_SWEEP_POINTS:
        raise UsageError(f"--grid {args.grid} gives more than {MAX_SWEEP_POINTS:,} surface points")
    takes_eta = None not in noise.MODELS[args.model]
    if (args.eta is not None) != takes_eta:
        raise UsageError(f"--eta is {'required for' if takes_eta else 'not taken by'} {args.model}")
    if args.eta is not None and not 0.0 <= args.eta <= 1.0:
        raise UsageError(f"--eta {args.eta:g} outside [0, 1]")
    if args.empirical_rounds is not None and args.empirical_rounds < 0:
        raise UsageError("--empirical-rounds must not be negative")
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.empirical_grid < 1:
        raise UsageError("--empirical-grid must be at least 1")
    if args.empirical_grid ** len(names) > MAX_SWEEP_POINTS:
        raise UsageError(f"--empirical-grid {args.empirical_grid} gives more than {MAX_SWEEP_POINTS:,} points")
    _validate_sweep(args.model, args.kind)
    header, rows = _sweep_rows(args.model, args.kind, args.grid, args.eta)
    outdir = _resolve_outdir(args.outdir)
    stem = f"sweep-{args.model}-{args.kind}" + (f"-eta{args.eta:g}" if takes_eta else "")
    csv_path = outdir / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
    outputs = [csv_path]
    seed, emp_rows, empty = args.seed or 0, [], 0
    if args.empirical_rounds:
        seed = args.seed = _resolve_seed(args.seed)
        emp_header, emp_rows, empty = _empirical_sweep(
            args.model, args.kind, args.empirical_grid, args.eta, args.empirical_rounds, seed
        )
        emp_path = outdir / f"{stem}-empirical.csv"
        _write_csv(emp_path, emp_header, emp_rows)
        outputs.append(emp_path)
    _write_json(_manifest(args, outdir, seed, outputs, 0, started), outdir / f"{stem}-manifest.json")
    print(f"wrote {csv_path}")
    if empty:
        print(f"insufficient data: no key rounds at {empty} of {len(emp_rows)} empirical points; "
              "their key_rate_empirical cells are empty", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.list_observables:
            print(OBSERVABLE_HELP, end="")
            return EXIT_OK
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        handler = {
            "run": cmd_run,
            "attack": cmd_attack,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        print(f"internal failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
