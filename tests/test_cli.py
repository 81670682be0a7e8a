import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
import test_inequality
import test_protocol
from contextkey import cli, inequality, noise, protocol, qmath
from contextkey.adversary import EveConfig

ROOT = Path(__file__).resolve().parent.parent


ROUND_TRIPS = {
    "chsh-run": (
        ["run", "--kind", "chsh", "--parties", "3", "--rounds", "500", "--seed", "11"],
        protocol.ProtocolConfig("chsh", 3, 500, seed=11),
    ),
    "chsh-attack-lossy-half-eve": (
        ["attack", "--kind", "chsh", "--parties", "3", "--rounds", "500", "--seed", "12",
         "--detector-noise", "loss:0.6", "--eve-link", "1", "--eve-obs", "Z1", "--eve-activity", "0.5"],
        protocol.ProtocolConfig(
            "chsh", 3, 500, seed=12,
            noise=noise.NoiseConfig(detector=noise.LossDetector(0.6)),
            eve=EveConfig(1, "Z1", "commuting-measure", activity_rate=0.5),
        ),
    ),
}


def reference_transcript(transcript: protocol.Transcript) -> bytes:
    """Each round as ``json.dumps(record, sort_keys=True)``, the form ``write_transcript`` promises."""
    config, kinds = transcript.config, transcript.kinds
    lines = []
    for r, (picks, outcomes, eve) in enumerate(zip(
        transcript.picks.tolist(), transcript.outcomes.tolist(), transcript.eve_outcomes.tolist(),
    )):
        record = {
            "round": r,
            "labels": [labels[p] for labels, p in zip(transcript.setting_labels, picks)],
            "outcomes": [o or None for o in outcomes],
            "key_round": bool(kinds.key[r]),
            "revealed": bool(kinds.revealed[r]),
            "eve_label": config.eve.observable if eve else None,
            "eve_outcome": eve or None,
        }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode()


LOSSY = noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1), detector=noise.LossDetector(0.7))
HALF_EVE = EveConfig(1, "Z1", "commuting-measure", activity_rate=0.5)

# Round counts at and across the writer's chunk seams and digit widths,
# labels of different lengths, erasures, and Eve absent, active or skipping.
WRITER_CASES = {
    "mermin3-1-round": protocol.ProtocolConfig("mermin", 3, 1, seed=1),
    "mermin3-10-rounds": protocol.ProtocolConfig("mermin", 3, 10, seed=2),
    "mermin3-chunk-less-1": protocol.ProtocolConfig("mermin", 3, cli.TRANSCRIPT_CHUNK - 1, seed=3),
    "mermin3-chunk-plus-1-eve-active": protocol.ProtocolConfig(
        "mermin", 3, cli.TRANSCRIPT_CHUNK + 1, seed=4, eve=EveConfig(2, "X3", "noncommuting-measure"),
    ),
    "mermin4-10001-rounds-eve-skipping": protocol.ProtocolConfig("mermin", 4, 10_001, seed=5, eve=HALF_EVE),
    "chsh40": protocol.ProtocolConfig("chsh", 40, 300, seed=6),
    "chsh3-erasures": protocol.ProtocolConfig("chsh", 3, 2000, seed=7, noise=LOSSY),
    "chsh4-erasures-eve-skipping": protocol.ProtocolConfig("chsh", 4, 3000, seed=8, noise=LOSSY, eve=HALF_EVE),
    # two-digit party labels, Eve's among them
    "mermin10-eve-z10": protocol.ProtocolConfig(
        "mermin", 10, 300, seed=9, eve=EveConfig(9, "Z10", "noncommuting-measure"),
    ),
}


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "default-out"))
    return cli.main(args)


class TestUsage:
    def test_zero_rounds_is_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "zero"
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "0",
             "--seed", "1", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_USAGE
        assert not (out.exists() and any(out.iterdir()))

    def test_unknown_flag(self, tmp_path, monkeypatch):
        assert run_cli(["run", "--flux-capacitor"], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_missing_command_prints_help(self, tmp_path, monkeypatch, capsys):
        assert run_cli([], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_list_observables(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["--list-observables"], tmp_path, monkeypatch) == cli.EXIT_OK
        output = capsys.readouterr().out
        assert "XpZ" in output and "ZmX" in output and "Z1" in output

    def test_bad_noise_spec(self, tmp_path, monkeypatch):
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "10",
             "--prep-noise", "fuzz:0.1"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_USAGE

    ATTACK3 = ["attack", "--kind", "mermin", "--parties", "3", "--rounds", "5", "--seed", "1"]
    RUN3 = ["run", "--kind", "mermin", "--parties", "3", "--rounds", "5", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--kind", "mermin", "--parties", "13", "--rounds", "5", "--seed", "1"],
             "13 parties exceed the 2^12 size guard"),
            (["run", "--kind", "mermin", "--parties", "3", "--rounds", "5", "--seed", "-1"],
             "--seed must be non-negative"),
            (["sweep", "--model", "model1", "--eta", "2", "--grid", "3"], "--eta 2 outside [0, 1]"),
            (["sweep", "--model", "flip", "--grid", "3", "--empirical-rounds", "-5"],
             "--empirical-rounds must not be negative"),
            (["sweep", "--model", "flip", "--grid", "3", "--empirical-rounds", "100",
              "--empirical-grid", "-1"], "--empirical-grid must be at least 1"),
            (["sweep", "--model", "flip", "--grid", "3", "--empirical-rounds", "100", "--seed", "-1"],
             "--seed must be non-negative"),
            (["run", "--config", "{tmp}/missing.conf"], "cannot read config file: "),
            (["run", "--config"], "--config needs a file path"),
            (ATTACK3 + ["--eve-link", "1", "--eve-obs", "Q1"], "malformed observable label 'Q1'"),
            (ATTACK3 + ["--eve-link", "2", "--eve-obs", "X3", "--eve-strategy", "commuting-measure"],
             "eve observable X3 does not commute with Y3; use the noncommuting-measure strategy"),
            (RUN3 + ["--outdir", "{tmp}/file"], "cannot create output directory {tmp}/file: "),
            (RUN3 + ["--outdir", "{tmp}/file/sub"], "cannot create output directory {tmp}/file/sub: "),
            (RUN3 + ["--prefix", "a/b"], "--prefix 'a/b' must not contain a path separator"),
            (["sweep", "--model", "flip", "--grid", "3", "--outdir", "{tmp}/file"],
             "cannot create output directory {tmp}/file: "),
            (["sweep", "--model", "detector", "--eta", "0.3", "--grid", "3"], "--eta is not taken by detector"),
            (["sweep", "--model", "flip", "--grid", "0"], "--grid must be at least 2"),
            (["sweep", "--model", "flip", "--grid", "100000000"],
             "--grid 100000000 gives more than 250,000 surface points"),
            (["verify"], "invalid choice: 'verify'"),
            (["sweep", "--model", "flip", "--grid", "3", "--seed", "-7"], "--seed must be non-negative"),
            (["sweep", "--model", "model2", "--eta", "0.5", "--grid", "3", "--empirical-rounds", "10",
              "--empirical-grid", "501"], "--empirical-grid 501 gives more than 250,000 points"),
            (["run", "--config", "{tmp}/malformed.conf"], "malformed config line: 'parties 3'"),
            (RUN3 + ["--prep-noise", "flip:0.1"], "bad --prep-noise 'flip:0.1': expected flip:EPS1,EPS2"),
            (ATTACK3 + ["--eve-link", "0", "--eve-obs", "Z1"], "position is a 1-based link index"),
        ],
        ids=["parties-13", "negative-seed", "eta-2", "negative-empirical-rounds",
             "negative-empirical-grid", "sweep-negative-seed", "missing-config",
             "config-without-path", "bad-eve-label", "false-commuting-claim",
             "outdir-is-a-file", "outdir-under-a-file", "prefix-with-separator",
             "sweep-outdir-is-a-file", "eta-on-a-model-without-it", "grid-0",
             "grid-too-large", "verify-is-unknown", "sweep-negative-seed-analytic-only",
             "empirical-grid-too-large", "malformed-config-line", "noise-parameter-count",
             "eve-link-0"],
    )
    def test_bad_input_is_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "malformed.conf").write_text("kind = mermin\nparties 3\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code = run_cli(argv, tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: ")
        assert message.replace("{tmp}", str(tmp_path)) in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestTranscriptFormat:
    @pytest.mark.parametrize("config", WRITER_CASES.values(), ids=list(WRITER_CASES))
    def test_writer_matches_json_dumps(self, config, tmp_path):
        transcript = protocol.run_protocol(config)
        path = tmp_path / "t.jsonl"
        cli.write_transcript(transcript, path)
        assert path.read_bytes() == reference_transcript(transcript)

    def test_cases_cover_erasures_and_eve(self):
        runs = {name: protocol.run_protocol(config) for name, config in WRITER_CASES.items()}
        assert (runs["chsh3-erasures"].outcomes == 0).any()
        assert (runs["chsh4-erasures-eve-skipping"].outcomes == 0).any()
        assert (runs["mermin3-chunk-plus-1-eve-active"].eve_outcomes != 0).all()
        for name in ("mermin4-10001-rounds-eve-skipping", "chsh4-erasures-eve-skipping"):
            eve = runs[name].eve_outcomes
            assert (eve == 0).any() and (eve != 0).any(), name
        assert (runs["mermin3-10-rounds"].eve_outcomes == 0).all()
        assert (runs["mermin10-eve-z10"].eve_outcomes != 0).all()

    def test_writer_holds_a_chunk_not_the_transcript(self, tmp_path):
        # the writer's peak allocation must not grow with the run's length
        peaks = []
        for chunks in (3, 12):
            transcript = protocol.run_protocol(
                protocol.ProtocolConfig("mermin", 3, chunks * cli.TRANSCRIPT_CHUNK, seed=10)
            )
            transcript.kinds  # cached before tracing, so only the writer's allocations count
            tracemalloc.start()
            try:
                cli.write_transcript(transcript, tmp_path / "t.jsonl")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6, peaks


class TestRun:
    def test_insufficient_data_summary(self, tmp_path, monkeypatch, capsys):
        # 20 rounds leave Mermin terms without samples: the summary says so
        # and the run ends with the insufficient-data code, not the
        # eavesdropping one.
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "20",
             "--seed", "1", "--outdir", str(tmp_path / "out")],
            tmp_path, monkeypatch,
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INSUFFICIENT_DATA
        lines = captured.out.splitlines()
        assert "mermin: insufficient data" in lines
        assert "verdict: insufficient data" in lines
        assert not any("eavesdropping" in line for line in lines)
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "out" / "run-report.json").read_text())
        assert report["estimates"]["mermin"]["usable"] is False
        assert report["violated"] is None
        samples = report["estimates"]["mermin"]["samples_per_term"]
        assert report["insufficient_data"] == sorted(f"mermin:{t}" for t, n in samples.items() if n == 0)
        assert report["insufficient_data"]

    def test_unallocatable_run_is_internal_failure(self, tmp_path, monkeypatch, capsys):
        # The int64 picks of 10^15 rounds would take 24 PB: numpy refuses the
        # allocation at once, and the run ends with one line, no traceback.
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", str(10**15),
             "--seed", "1", "--outdir", str(tmp_path / "out")],
            tmp_path, monkeypatch,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INTERNAL
        assert err.startswith("internal failure: out of memory")
        assert len(err.strip().splitlines()) == 1

    def test_writes_all_artifacts(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runout"
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "3000",
             "--seed", "9", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "run-report.json").read_text())
        assert report["violated"] is True
        assert report["key_agreement"] == 1.0
        assert (out / "run-transcript.jsonl").exists()
        for party in (1, 2, 3):
            assert (out / f"run-key-party{party}.txt").exists()
        keys = {p: (out / f"run-key-party{p}.txt").read_text().strip() for p in (1, 2, 3)}
        assert keys[1] == keys[2] == keys[3]
        assert len(keys[1]) == report["sifting"]["key_rounds"]
        summary = capsys.readouterr().out
        assert "violated=True" in summary

    def test_manifest_config_is_the_flags(self, tmp_path, monkeypatch):
        out = tmp_path / "mf"
        run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "300", "--seed", "4",
             "--prep-noise", "flip:0.1,0.1", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        config = json.loads((out / "run-manifest.json").read_text())["config"]
        assert config["prep_noise"] == "flip:0.1,0.1"
        assert config["detector_noise"] is None
        assert config["rounds"] == 300
        assert config["outdir"] == str(out)

    def test_manifest_records_the_versions(self, tmp_path, monkeypatch):
        out = tmp_path / "mv"
        run_cli(["run", "--kind", "chsh", "--parties", "2", "--rounds", "50", "--outdir", str(out)],
                tmp_path, monkeypatch)
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    @pytest.mark.parametrize("argv,config", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
    def test_transcript_round_trip(self, argv, config, tmp_path, monkeypatch):
        out = tmp_path / "rt"
        run_cli([*argv, "--outdir", str(out)], tmp_path, monkeypatch)
        path = next(out.glob("*-transcript.jsonl"))
        transcript = cli.read_transcript(path, config)
        direct = protocol.run_protocol(config)
        for name in ("picks", "outcomes", "eve_outcomes"):
            assert np.array_equal(getattr(transcript, name), getattr(direct, name)), name
        if config.eve is not None:  # erasures, written as null, and rounds with and without Eve
            assert (direct.outcomes == 0).any()
            assert re.search(r'"outcomes": \[[^\]]*null', path.read_text())
            assert (direct.eve_outcomes == 0).any() and (direct.eve_outcomes != 0).any()

    def test_read_rejects_foreign_label(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("chsh", 3, 2, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        lines = path.read_text().splitlines()
        # Y1 is a Mermin setting; no CHSH party measures it
        labels = json.loads(lines[1])["labels"]
        lines[1] = lines[1].replace(json.dumps(labels), json.dumps(["Y1", *labels[1:]]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="settings"):
            cli.read_transcript(path, config)

    def test_read_rejects_foreign_outcome(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 2, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        raw[1]["outcomes"][2] = 300
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in raw))
        with pytest.raises(ValueError, match="outcomes"):
            cli.read_transcript(path, config)

    @pytest.mark.parametrize("field, value", [
        ("outcomes", True), ("outcomes", 1.0), ("eve_outcome", True),
    ], ids=["outcome-true", "outcome-float", "eve-outcome-true"])
    def test_read_rejects_outcome_that_only_equals_one(self, tmp_path, field, value):
        # True == 1.0 == 1 in Python, but a transcript writes its outcomes as the ints ±1
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 2, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        if field == "outcomes":
            raw[1]["outcomes"][0] = value
        else:
            raw[1]["eve_outcome"] = value
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in raw))
        with pytest.raises(ValueError, match="outcomes"):
            cli.read_transcript(path, config)

    def test_read_rejects_boolean_round(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 2, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith('"round": 1}')
        lines[1] = lines[1].removesuffix('"round": 1}') + '"round": true}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="holds round True"):
            cli.read_transcript(path, config)

    def test_read_rejects_out_of_order_round(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 3, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
        with pytest.raises(ValueError, match="round"):
            cli.read_transcript(path, config)

    def test_read_accepts_noncanonical_line(self, tmp_path):
        # Reordered keys and other spacing are parsed whole, to the same columns.
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 3, seed=1)
        direct = protocol.run_protocol(config)
        cli.write_transcript(direct, path)
        lines = path.read_text().splitlines()
        raw = json.loads(lines[1])
        lines[1] = json.dumps(dict(reversed(raw.items())), separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        transcript = cli.read_transcript(path, config)
        for name in ("picks", "outcomes", "eve_outcomes"):
            assert np.array_equal(getattr(transcript, name), getattr(direct, name)), name

    def test_read_rejects_wrong_round_in_canonical_form(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = protocol.ProtocolConfig("mermin", 3, 3, seed=1)
        cli.write_transcript(protocol.run_protocol(config), path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith('"round": 1}')
        lines[1] = lines[1].removesuffix('"round": 1}') + '"round": 7}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="holds round 7"):
            cli.read_transcript(path, config)

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        code = run_cli(
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "200", "--seed", "2"],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "default-out" / "run-report.json").exists()

    def test_config_file_mirrors_flags(self, tmp_path, monkeypatch):
        out = tmp_path / "cfg"
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            "kind = mermin\nparties = 3\nrounds = 400\nseed = 5\n"
            f"outdir = {out}\n# comment line\nno-masking = true\nmasking-exclude-key = off\n"
        )
        code = run_cli(["run", "--config", str(config_file)], tmp_path, monkeypatch)
        assert code == cli.EXIT_OK
        report = json.loads((out / "run-report.json").read_text())
        assert report["rounds"] == 400
        assert report["masking"] is False
        # a false value leaves its flag out
        assert json.loads((out / "run-manifest.json").read_text())["config"]["masking_exclude_key"] is False

    def test_cli_flags_override_config_file(self, tmp_path, monkeypatch):
        out = tmp_path / "cfg2"
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"kind = mermin\nparties = 3\nrounds = 400\nseed = 5\noutdir = {out}\n")
        code = run_cli(["run", "--config", str(config_file), "--rounds", "150"], tmp_path, monkeypatch)
        assert code == cli.EXIT_OK
        report = json.loads((out / "run-report.json").read_text())
        assert report["rounds"] == 150


class TestAttack:
    def test_commuting_attack_exit_zero(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "atk"
        code = run_cli(
            ["attack", "--kind", "mermin", "--parties", "3", "--rounds", "30000",
             "--seed", "13", "--no-masking", "--eve-link", "1", "--eve-obs", "Z1",
             "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "attack-report.json").read_text())
        assert report["eve"]["strategy"] == "commuting-measure"
        assert report["eve"]["detected"] is False
        assert report["eve"]["mutual_information_bits"] > 0.99

    def test_noncommuting_attack_signals_no_violation(self, tmp_path, monkeypatch):
        out = tmp_path / "atk2"
        code = run_cli(
            ["attack", "--kind", "mermin", "--parties", "3", "--rounds", "30000",
             "--seed", "14", "--eve-link", "2", "--eve-obs", "X3", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_NO_VIOLATION
        report = json.loads((out / "attack-report.json").read_text())
        assert report["eve"]["strategy"] == "noncommuting-measure"
        assert report["eve"]["detected"] is True

    def test_commuting_attack_without_data_is_not_detected(self, tmp_path, monkeypatch, capsys):
        # Two of the 32 six-party terms get no samples in 3000 rounds; a
        # commuting attack cannot disturb the statistics, and missing data
        # must not read as eavesdropping.
        out = tmp_path / "atk4"
        code = run_cli(
            ["attack", "--kind", "mermin", "--parties", "6", "--rounds", "3000",
             "--seed", "1", "--eve-link", "3", "--eve-obs", "Z1", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_INSUFFICIENT_DATA
        summary = capsys.readouterr().out
        assert "detected=True" not in summary
        assert "verdict: insufficient data" in summary.splitlines()
        report = json.loads((out / "attack-report.json").read_text())
        assert report["eve"]["detected"] is None
        assert report["insufficient_data"] == ["mermin:X1X2Y3X4X5X6", "mermin:X1Y2Y3Y4Y5Y6"]

    def test_chsh_attack_reports_localization(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "atk3"
        code = run_cli(
            ["attack", "--kind", "chsh", "--parties", "4", "--rounds", "30000",
             "--seed", "15", "--eve-link", "2", "--eve-obs", "Z1", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_NO_VIOLATION
        report = json.loads((out / "attack-report.json").read_text())
        assert report["eve"]["localized_links"] == [2]
        assert "localization" in capsys.readouterr().out


class TestSiftsOnce:
    """A command sifts its transcript once, however many analyses read it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--kind", "mermin", "--parties", "3", "--rounds", "3000", "--seed", "21",
             "--prep-noise", "flip:0.1,0.1"],
            ["attack", "--kind", "chsh", "--parties", "3", "--rounds", "3000", "--seed", "22",
             "--eve-link", "1", "--eve-obs", "Z1", "--detector-noise", "loss:0.7"],
        ],
        ids=["noisy-run", "noisy-chsh-attack"],
    )
    def test_noisy_command_sifts_once(self, argv, tmp_path, monkeypatch, capsys):
        calls = []
        original = protocol.sift

        def counted(transcript):
            calls.append(transcript)
            return original(transcript)

        monkeypatch.setattr(protocol, "sift", counted)
        run_cli(argv + ["--outdir", str(tmp_path / "out")], tmp_path, monkeypatch)
        assert len(calls) == 1


class TestSweep:
    def test_flip_surface_has_ideal_origin(self, tmp_path, monkeypatch):
        out = tmp_path / "sw"
        code = run_cli(
            ["sweep", "--model", "flip", "--grid", "11", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_OK
        lines = (out / "sweep-flip-mermin.csv").read_text().splitlines()
        assert lines[0].startswith("eps1,eps2,mi_12")
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(first[5]) == pytest.approx(1.0, abs=1e-12)

    def test_detector_surface_contains_reference_point(self, tmp_path, monkeypatch):
        out = tmp_path / "sw2"
        run_cli(["sweep", "--model", "detector", "--grid", "101", "--outdir", str(out)],
                tmp_path, monkeypatch)
        rows = [line.split(",") for line in (out / "sweep-detector-mermin.csv").read_text().splitlines()[1:]]
        by_eta = {float(r[0]): float(r[4]) for r in rows}
        assert by_eta[0.1] == pytest.approx(0.3199, abs=1e-4)

    def test_model1_surface_switches_argmin(self, tmp_path, monkeypatch):
        out = tmp_path / "sw3"
        run_cli(["sweep", "--model", "model1", "--eta", "0.1", "--grid", "11",
                 "--outdir", str(out)], tmp_path, monkeypatch)
        rows = (out / "sweep-model1-mermin-eta0.1.csv").read_text().splitlines()[1:]
        argmins = {row.split(",")[6] for row in rows}
        assert {"2-3", "1-2"} <= argmins

    def test_model2_emits_both_conventions(self, tmp_path, monkeypatch):
        out = tmp_path / "sw4"
        run_cli(["sweep", "--model", "model2", "--eta", "0.7", "--grid", "6",
                 "--outdir", str(out)], tmp_path, monkeypatch)
        header = (out / "sweep-model2-mermin-eta0.7.csv").read_text().splitlines()[0]
        assert "key_rate_conditional" in header and "key_rate_throughput" in header

    def test_model_requires_eta(self, tmp_path, monkeypatch):
        assert run_cli(["sweep", "--model", "model1"], tmp_path, monkeypatch) == cli.EXIT_USAGE

    def test_empirical_column(self, tmp_path, monkeypatch):
        out = tmp_path / "sw5"
        code = run_cli(
            ["sweep", "--model", "white", "--grid", "3", "--empirical-rounds", "8000",
             "--empirical-grid", "2", "--seed", "3", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_OK
        emp = (out / "sweep-white-mermin-empirical.csv").read_text().splitlines()
        assert emp[0] == "param,key_rate_empirical"
        assert len(emp) == 3

    def test_empirical_points_without_key_rounds(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sw6"
        code = run_cli(
            ["sweep", "--model", "white", "--grid", "3", "--empirical-rounds", "5",
             "--empirical-grid", "2", "--seed", "1", "--outdir", str(out)],
            tmp_path, monkeypatch,
        )
        assert code == cli.EXIT_INSUFFICIENT_DATA
        err = capsys.readouterr().err
        assert err.startswith("insufficient data: no key rounds at 2 of 2 empirical points")
        assert len(err.strip().splitlines()) == 1
        emp = (out / "sweep-white-mermin-empirical.csv").read_text().splitlines()
        assert emp == ["param,key_rate_empirical", "0,", "0.5,"]
        assert (out / "sweep-white-mermin-manifest.json").exists()

    def test_manifest_seed_reproduces_empirical_csv(self, tmp_path, monkeypatch):
        argv = ["sweep", "--model", "white", "--grid", "3", "--empirical-rounds", "2000", "--empirical-grid", "2"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(argv + ["--outdir", str(first)], tmp_path, monkeypatch) == cli.EXIT_OK
        seed = json.loads((first / "sweep-white-mermin-manifest.json").read_text())["seed"]
        assert run_cli(argv + ["--seed", str(seed), "--outdir", str(second)], tmp_path, monkeypatch) == cli.EXIT_OK
        name = "sweep-white-mermin-empirical.csv"
        assert (second / name).read_bytes() == (first / name).read_bytes()


#: Floats whose shortest text, exponent form or rounding to 10 digits is easy to get wrong.
AWKWARD_FLOATS = [0.0, 1.0, 0.5, 1e-05, 1.5e-10, 0.1 + 0.2, 123456789.123, 5e-324]


def _per_row_rows(model: str, kind: str, grid: int, eta: float | None) -> list[str]:
    """An analytic sweep's lines as one ``%`` format per row, every number formatted where it stands."""
    names, end = cli._sweep_axes(model)
    axis = np.linspace(0.0, end, grid)
    params = {name: values.ravel() for name, values in zip(names, np.meshgrid(*[axis] * len(names), indexing="ij"))}
    if eta is not None:
        params["eta"] = eta
    conventions = noise.CONVENTIONS if noise.has_erasures(model) else ("conditional",)
    row = ",".join(["%.10g"] * len(names) + (["%.10g"] * 4 + ["%s"]) * len(conventions))
    columns = [params[name].tolist() for name in names]
    labels = [f"{i}-{j}" for i, j in noise.PAIRS]
    for surface in noise.analytic_key_rate_surfaces(model, kind, conventions=conventions, **params):
        columns += [surface.pairwise_mi[pair].tolist() for pair in noise.PAIRS]
        columns += [surface.key_rate.tolist(), [labels[k] for k in surface.min_pair.tolist()]]
    return [row % values for values in zip(*columns)]


class TestCsvRows:
    """Each CSV cell is the text of ``format(v, ".10g")``, and the cells are joined by commas."""

    def test_each_distinct_value_is_formatted_once_by_its_bits(self, monkeypatch):
        tenth, next_tenth = 0.1, float(np.nextafter(0.1, 1.0))  # equal to 10 digits, other bits
        payload_nan = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
        values = np.array([
            [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, tenth, next_tenth],
            [0.0, -0.0, -math.nan, payload_nan, math.inf, 1e16, 5e-324, next_tenth, tenth],
            [1e16, 1e16, 0.0, 0.0, math.nan, tenth, tenth, -0.0, -0.0],
        ])

        class Counting(str):
            calls = 0

            def __mod__(self, value):
                Counting.calls += 1
                return str.__mod__(self, value)

        monkeypatch.setattr(cli, "_FLOAT", Counting("%.10g"))
        texts = cli._formatted_columns(values)
        assert texts == [["%.10g" % value for value in column] for column in values.tolist()]
        assert texts[0][:2] == ["-0", "0"] and texts[0][7:] == ["0.1", "0.1"]
        assert Counting.calls == len(set(values.view(np.uint64).ravel().tolist())) == 11

    @pytest.mark.parametrize("kind", ["mermin", "chsh"])
    @pytest.mark.parametrize("model", sorted(noise.MODELS))
    def test_rows_equal_a_per_row_format(self, model, kind):
        eta = 0.7 if None not in noise.MODELS[model] else None
        header, rows = cli._sweep_rows(model, kind, 7, eta)
        assert rows == _per_row_rows(model, kind, 7, eta)
        assert len(rows) == 7 ** len(cli._sweep_axes(model)[0])

    def test_analytic_rows(self, monkeypatch):
        values = np.array(AWKWARD_FLOATS + [0.25])  # the 9 points of a 3×3 grid
        per_convention = {"conditional": values, "throughput": values[::-1].copy()}
        min_pair = np.arange(9) % 3

        def surfaces(model, kind, conventions, **params):
            return [
                noise.KeyRateSurface(conv, {pair: per_convention[conv] for pair in noise.PAIRS},
                                     per_convention[conv], min_pair)
                for conv in conventions
            ]

        monkeypatch.setattr(noise, "analytic_key_rate_surfaces", surfaces)
        header, rows = cli._sweep_rows("model2", "mermin", 3, 0.7)
        assert len(header) == 12 and len(rows) == 9
        axis = [0.0, 0.25, 0.5]
        labels = ["1-2", "1-3", "2-3"]
        for k, row in enumerate(rows):
            numbers = [axis[k // 3], axis[k % 3]]
            cells = [format(v, ".10g") for v in numbers]
            for conv in ("conditional", "throughput"):
                cells += [format(float(per_convention[conv][k]), ".10g")] * 4 + [labels[min_pair[k]]]
            assert row == ",".join(cells)

    def test_empirical_rows_with_an_empty_cell(self, monkeypatch):
        rates = iter([*AWKWARD_FLOATS, None])

        def empirical_key_rate(transcript, min_key_rounds):
            rate = next(rates)
            if rate is None:
                raise noise.InsufficientKeyRounds("no key rounds")
            return noise.KeyRateReport("empirical", "mermin", "throughput", {(1, 2): rate}, rate, (1, 2))

        monkeypatch.setattr(protocol, "run_protocol", lambda config, plan=None: None)
        monkeypatch.setattr(noise, "empirical_key_rate", empirical_key_rate)
        header, rows, empty = cli._empirical_sweep("white", "mermin", 9, None, 10, 1)
        assert header == ["param", "key_rate_empirical"] and empty == 1
        points = np.linspace(0.0, 0.5, 9).tolist()
        cells = [format(rate, ".10g") for rate in AWKWARD_FLOATS] + [""]
        assert rows == [f"{format(p, '.10g')},{cell}" for p, cell in zip(points, cells)]


class TestVerify:
    """The suite holds the checks ``contextkey verify`` ran: a mutation that
    one of them named must fail the test that now asserts it, and only under
    the mutation."""

    def test_mutated_bound_is_named(self, monkeypatch):
        check = test_inequality.TestMerminSpec().test_four_party_size_and_bound
        check()
        monkeypatch.setattr(inequality, "mermin_classical_bound", lambda n: 1.5)
        with pytest.raises(AssertionError):
            check()

    def test_leaking_masking_generator_is_named(self, monkeypatch):
        check = test_protocol.TestMaskingUnitary().test_commutes_with_later_party_observables
        check()
        true_masking = dense.masking_unitary

        def leaking(k, spec, rng, indexing=None):
            widened = dense.MaskingSpec(spec.num_parties, spec.generator_labels + ("X3",))
            return true_masking(k + 10, widened, rng, indexing)

        monkeypatch.setattr(dense, "masking_unitary", leaking)
        with pytest.raises(AssertionError):
            check()


class TestDeterminism:
    def test_byte_identical_reruns_and_thread_counts(self, tmp_path, monkeypatch):
        outputs = {}
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / tag
            code = run_cli(
                ["run", "--kind", "chsh", "--parties", "3", "--rounds", "4000",
                 "--seed", "77", "--threads", threads, "--outdir", str(out)],
                tmp_path, monkeypatch,
            )
            assert code == cli.EXIT_OK
            outputs[tag] = {
                name: (out / name).read_bytes()
                for name in ("run-transcript.jsonl", "run-report.json",
                             "run-key-party1.txt", "run-key-party2.txt", "run-key-party3.txt")
            }
        assert outputs["a"] == outputs["b"] == outputs["c"]

    def test_sweep_csv_reruns_identical(self, tmp_path, monkeypatch):
        blobs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            run_cli(["sweep", "--model", "flip", "--grid", "7", "--outdir", str(out)],
                    tmp_path, monkeypatch)
            blobs.append((out / "sweep-flip-mermin.csv").read_bytes())
        assert blobs[0] == blobs[1]


def _optional(flag: str, values) -> st.SearchStrategy:
    """No argument, or ``flag`` followed by one drawn value."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, str(value)]))


_SEEDS = st.integers(-1, 2**32)
# Mostly valid values with a few bad ones mixed in, so that most examples
# get past the parser into the simulation.
_PROTOCOL_FLAGS = st.tuples(
    st.sampled_from(["mermin", "mermin", "chsh", "chsh", "e91"]).map(lambda kind: ["--kind", kind]),
    # within the size guard, so no generated run holds more than 2^12 amplitudes a round
    st.integers(2, qmath.MAX_QUBIT_EQUIVALENT).map(lambda n: ["--parties", str(n)]),
    st.integers(0, 50).map(lambda rounds: ["--rounds", str(rounds)]),
    _SEEDS.map(lambda seed: ["--seed", str(seed)]),
    st.sampled_from([[], [], [], ["--no-masking"], ["--threads", "3"], ["--flux-capacitor"]]),
    _optional("--prep-noise", st.sampled_from(["flip:0.1,0.2", "white:0.3", "flip:2,0", "fuzz:0.1"])),
    _optional("--detector-noise", st.sampled_from(["misread:0.1", "loss:0.7", "loss:1.5", "misread:x"])),
)
_EVE_FLAGS = st.tuples(
    st.integers(1, 12).map(lambda link: ["--eve-link", str(link)]),
    st.sampled_from(["Z1", "X3", "XpZ2", "ZmX1", "Y2", "Q1"]).map(lambda label: ["--eve-obs", label]),
    _optional("--eve-strategy", st.sampled_from(
        ["auto", "commuting-measure", "noncommuting-measure", "measure-resend"]
    )),
    _optional("--eve-activity", st.floats(0.0, 1.2)),
    _optional("--eve-resend", st.sampled_from(["post-state", "fresh-reference"])),
)
_ARGV = st.one_of(
    _PROTOCOL_FLAGS.map(lambda flags: (["run"], *flags)),
    st.tuples(_PROTOCOL_FLAGS, _EVE_FLAGS).map(lambda both: (["attack"], *both[0], *both[1])),
    st.tuples(
        st.just(["sweep"]),
        st.sampled_from([*noise.MODELS, "bogus"]).map(lambda model: ["--model", model]),
        _optional("--kind", st.sampled_from(["mermin", "chsh"])),
        st.integers(1, 6).map(lambda grid: ["--grid", str(grid)]),
        _optional("--eta", st.floats(-0.5, 1.5)),
        _optional("--empirical-rounds", st.integers(-1, 20)),
        _optional("--empirical-grid", st.integers(0, 3)),
        _optional("--seed", _SEEDS),
    ),
)


class TestArgvProperty:
    @settings(max_examples=50, deadline=None)
    @given(parts=_ARGV)
    def test_exit_code_is_documented_and_no_traceback(self, parts):
        argv = [arg for part in parts for arg in part]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as outdir:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--outdir", outdir])
        assert code in (cli.EXIT_OK, cli.EXIT_NO_VIOLATION, cli.EXIT_INSUFFICIENT_DATA,
                        cli.EXIT_USAGE, cli.EXIT_INTERNAL), argv
        assert "Traceback" not in err.getvalue(), argv


class TestSurfaceScript:
    def test_runs_every_model_past_insufficient_data(self, tmp_path):
        # 5 rounds leave some empirical points without key rounds (exit 3);
        # every model still writes its surfaces, and the script ends with 3.
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reproduce_noise_surfaces.py"),
             "--outdir", str(tmp_path), "--grid", "3", "--empirical-rounds", "5"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == cli.EXIT_INSUFFICIENT_DATA, done.stderr
        assert "Traceback" not in done.stderr
        stems = ["flip-mermin", "white-mermin", "detector-mermin", "model1-mermin-eta0.1", "model2-mermin-eta0.7"]
        for stem in stems:
            assert (tmp_path / f"sweep-{stem}.csv").is_file(), stem
            assert (tmp_path / f"sweep-{stem}-empirical.csv").is_file(), stem
