"""Pinned SHA-256 digests of the artifacts a fixed seed produces.

Each transcript case hashes the bytes ``cli.write_transcript`` writes for
one configuration; each sweep case hashes one CSV that ``contextkey sweep``
writes; each command case pins what one ``run`` or ``attack`` command line
leaves behind: its exit code and the digests of its report, its key files
and its stdout summary.  A change that moves a digest changes what a seed
produces, and must name the case and say why it moved.

Every pin here was made on numpy 2.4.6 (``PINNED_ON_NUMPY``), and
byte-identity is checked on that version only: the artifacts rest on
numpy's ``Generator`` streams, which NEP 19 leaves free to change between
releases.  The stream fingerprints come first, so a numpy that draws
differently fails one test that names its version before the artifact
digests fail.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from contextkey import cli, noise, protocol
from contextkey.adversary import EveConfig

#: The numpy version every pin in this file was made on.
PINNED_ON_NUMPY = "2.4.6"

SEED = 2024
ROUNDS = 2000  # unless a case names its own

NOISE = {
    "flip": noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.2)),
    "white": noise.NoiseConfig(prep=noise.WhitePrep(0.3)),
    "detector": noise.NoiseConfig(detector=noise.MisreadDetector(0.1)),
    "model1": noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1), detector=noise.MisreadDetector(0.1)),
    "model2": noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1), detector=noise.LossDetector(0.7)),
}


def _transcript_cases() -> dict[str, dict]:
    cases = {}
    for kind, sizes in (("mermin", (3, 5, 8)), ("chsh", (3, 4))):
        for n in sizes:
            for masking in (True, False):
                tag = "masked" if masking else "unmasked"
                cases[f"{kind}{n}-{tag}"] = dict(kind=kind, num_parties=n, masking_enabled=masking)
    for n in (3, 5):
        cases[f"mermin{n}-exclude-key"] = dict(kind="mermin", num_parties=n, masking_include_key=False)
    for kind in ("mermin", "chsh"):
        for model, config in NOISE.items():
            cases[f"{kind}3-{model}"] = dict(kind=kind, num_parties=3, noise=config)
    eves = {
        "mermin3-eve-commuting-z1": ("mermin", 3, EveConfig(1, "Z1", "commuting-measure")),
        "mermin3-eve-noncommuting-x3": ("mermin", 3, EveConfig(2, "X3", "noncommuting-measure")),
        "mermin3-eve-fresh-reference": (
            "mermin", 3, EveConfig(1, "X1", "measure-resend", resend="fresh-reference"),
        ),
        "mermin3-eve-activity-half": (
            "mermin", 3, EveConfig(1, "Z1", "commuting-measure", activity_rate=0.5),
        ),
        "chsh4-eve-z1-link2": ("chsh", 4, EveConfig(2, "Z1", "noncommuting-measure")),
    }
    for name, (kind, n, eve) in eves.items():
        cases[name] = dict(kind=kind, num_parties=n, eve=eve)
    # Long enough to cross the writer's chunk seams and reach five-digit rounds.
    cases["mermin3-masked-12000"] = dict(kind="mermin", num_parties=3, rounds=12_000)
    # The widest attacked state (D=64), across five 128-round blocks.
    for name, rate in (("mermin6-eve-commuting-z1-640", 1.0), ("mermin6-eve-activity-half-640", 0.5)):
        cases[name] = dict(
            kind="mermin", num_parties=6, rounds=640,
            eve=EveConfig(3, "Z1", "commuting-measure", activity_rate=rate),
        )
    cases["chsh4-model2-eve-half-10500"] = dict(
        kind="chsh", num_parties=4, rounds=10_500, noise=NOISE["model2"],
        eve=EveConfig(2, "Z1", "noncommuting-measure", activity_rate=0.5),
    )
    return cases


TRANSCRIPT_CASES = _transcript_cases()

# A 2-point-per-axis empirical surface beside a 3-point analytic one.  Its
# CSV pins the noise configuration each model runs at each grid point.
EMPIRICAL = ["--grid", "3", "--empirical-rounds", "1500", "--empirical-grid", "2", "--seed", "5"]

SWEEP_CASES = {
    "sweep-flip": (["--model", "flip", "--grid", "5"], "sweep-flip-mermin.csv"),
    "sweep-white": (["--model", "white", "--grid", "5"], "sweep-white-mermin.csv"),
    "sweep-detector": (["--model", "detector", "--grid", "5"], "sweep-detector-mermin.csv"),
    "sweep-model1": (["--model", "model1", "--eta", "0.1", "--grid", "5"], "sweep-model1-mermin-eta0.1.csv"),
    "sweep-model2": (["--model", "model2", "--eta", "0.7", "--grid", "5"], "sweep-model2-mermin-eta0.7.csv"),
    "sweep-flip-empirical": (["--model", "flip", *EMPIRICAL], "sweep-flip-mermin-empirical.csv"),
    "sweep-white-empirical": (["--model", "white", *EMPIRICAL], "sweep-white-mermin-empirical.csv"),
    "sweep-detector-empirical": (["--model", "detector", *EMPIRICAL], "sweep-detector-mermin-empirical.csv"),
    "sweep-model1-empirical": (
        ["--model", "model1", "--eta", "0.1", *EMPIRICAL], "sweep-model1-mermin-eta0.1-empirical.csv",
    ),
    "sweep-model2-empirical": (
        ["--model", "model2", "--eta", "0.7", *EMPIRICAL], "sweep-model2-mermin-eta0.7-empirical.csv",
    ),
    "sweep-chsh-flip": (["--model", "flip", "--kind", "chsh", "--grid", "5"], "sweep-flip-chsh.csv"),
    "sweep-chsh-white": (["--model", "white", "--kind", "chsh", "--grid", "5"], "sweep-white-chsh.csv"),
    "sweep-chsh-detector": (["--model", "detector", "--kind", "chsh", "--grid", "5"], "sweep-detector-chsh.csv"),
    "sweep-chsh-model1": (
        ["--model", "model1", "--kind", "chsh", "--eta", "0.1", "--grid", "5"], "sweep-model1-chsh-eta0.1.csv",
    ),
    "sweep-chsh-model2": (
        ["--model", "model2", "--kind", "chsh", "--eta", "0.7", "--grid", "5"], "sweep-model2-chsh-eta0.7.csv",
    ),
    "sweep-chsh-model2-empirical": (
        ["--model", "model2", "--kind", "chsh", "--eta", "0.7", *EMPIRICAL],
        "sweep-model2-chsh-eta0.7-empirical.csv",
    ),
    # The benchmark's own surface, at the default 51-point grid.
    "sweep-model2-grid51": (["--model", "model2", "--eta", "0.7"], "sweep-model2-mermin-eta0.7.csv"),
}

# The chsh3 flip, white, model1 and model2 digests cover preparation noise
# on both key settings, XpZ as well as Z.
DIGESTS = {
    "chsh3-detector": "df35871b536843d0039a39afde70680ea7b9ef69d2e72ef21775f69018d98a2b",
    "chsh3-flip": "1851ab9bd975e5a1aee9502e995f5290a07d826e616d7f3969475dfbaa7d9517",
    "chsh3-masked": "83eed802059592cc9393ee5cce8153b6feab25c8661db3c9f7bbadff678408d9",
    "chsh3-model1": "c13f8267ae81d012f8e98fafe17feff48665f83d4fcdae09222587e4a4848d2b",
    "chsh3-model2": "17b9125634a824f529b729bd34cd706d57dd68707c79272a3c5b6e22b285d6c1",
    "chsh3-unmasked": "83eed802059592cc9393ee5cce8153b6feab25c8661db3c9f7bbadff678408d9",
    "chsh3-white": "1b8743fee1991958a59b320adabb7f2cdd7e1762781d9beeb69baac567575234",
    "chsh4-eve-z1-link2": "dedca1a414548d96cd0e536efa1fecba8ef8b07b783b9fcc7326cd1535807e67",
    "chsh4-masked": "6253ca6b447df5657879480241120c162f3469da5dda156848a4b12f114ca364",
    "chsh4-model2-eve-half-10500": "7c688e712331d4eeba051c22151adffb62314b616e4eb5bff9d415d5235f53ae",
    "chsh4-unmasked": "6253ca6b447df5657879480241120c162f3469da5dda156848a4b12f114ca364",
    "mermin3-detector": "d7da6e3b6718945fbcfd54c87045e4f718c3c63513ed401b66acd52bf80e748d",
    "mermin3-eve-activity-half": "0cae2ff6d861ac979702af52a9ecbf5e3590f43298460e63903c8ca4cb80f485",
    "mermin3-eve-commuting-z1": "9ef76f1175bec60b36fba0d8a741e12741866f92b8e8fbe642104fb4f87c293c",
    "mermin3-eve-fresh-reference": "38982139b6195fe09b0df106e40beec95fc66975aaf6a4c2d71ddde900f00ccd",
    "mermin3-eve-noncommuting-x3": "d6ae03c40670c582eea87769bf742e9554f0cba700aa1e364e9ed3bd6435f128",
    "mermin3-exclude-key": "6f577cb347fe888d9d096a15c56433e301c2d0e582e65fc3587831504a2aeaec",
    "mermin3-flip": "19e4e4e6ee5c3f1814a241c539207f8b4fc73ec791f843769cf933dd5e41756f",
    "mermin3-masked": "6f577cb347fe888d9d096a15c56433e301c2d0e582e65fc3587831504a2aeaec",
    "mermin3-masked-12000": "43714fd90e3fbb6ab6f889619ef555add27f8dca7f1f41283cfbfdfc2bc49ede",
    "mermin3-model1": "22d1e1a0ba6fbe40dc77ab18b20c64e43d59e8af1898dfdde209df73f52cd2f5",
    "mermin3-model2": "452a931a6c25c104e0b7e75d62732593e789e21e02601be9d81e4417100621f6",
    "mermin3-unmasked": "6f577cb347fe888d9d096a15c56433e301c2d0e582e65fc3587831504a2aeaec",
    "mermin3-white": "90c4a2bb49ef59e9d9d5dc922cd8772570c0536050bee13e64df9d9a81ae1d68",
    "mermin5-exclude-key": "840a7d9bd03b9e49b09c8d22d12bd3bd79252d689d82a0c92aa42d6f5ba5d53b",
    "mermin5-masked": "840a7d9bd03b9e49b09c8d22d12bd3bd79252d689d82a0c92aa42d6f5ba5d53b",
    "mermin5-unmasked": "840a7d9bd03b9e49b09c8d22d12bd3bd79252d689d82a0c92aa42d6f5ba5d53b",
    "mermin6-eve-activity-half-640": "3acd2c9fece7f6e49293f15a26076724ce96a38df3b32541e28e2566e7cc2734",
    "mermin6-eve-commuting-z1-640": "33fe2165408aa222e0648f38133ffcc6852e9e3ada638615759fa7f41d1bf21c",
    "mermin8-masked": "75da31177d295711e9291940ea9d67382b9c606462a940f1d4b2d2ae02613b51",
    "mermin8-unmasked": "75da31177d295711e9291940ea9d67382b9c606462a940f1d4b2d2ae02613b51",
    "sweep-chsh-detector": "c11354f6316b23c2a952475e22858124612e2b380d80138512ea7656612a6c9a",
    "sweep-chsh-flip": "582fe98edc0a7b3743ca5cb5495352017215f769b0748a03e937db4748c6626a",
    "sweep-chsh-model1": "a95b50ff487f4920dc3daaa1d41f4a65fa7e7c1759a2488b87b02dba94b7ecc9",
    "sweep-chsh-model2": "037979296d120406a1c139167782f66cb35f3d5089cef3af7b9a4e05dc2b04f4",
    "sweep-chsh-model2-empirical": "1fd7c5917e968ebbd3f7f0250e5e405aabdff96a3fad0a91c3a26009ddd002de",
    "sweep-chsh-white": "d5aeffbbc2170bb42483a6c503ee4b82cd7ce92ff58b2f412362c45605cedfd3",
    "sweep-detector": "0e0dcfc69bf2d85dff9ed019d21fa3247731ecfe8cb1971a0964cf5e2666558a",
    "sweep-detector-empirical": "525b1b7f3d50d0dfa6004fa7b31db77136654909ecc1073116abb8857664f32c",
    "sweep-flip": "86988c41b5855f39a4745362b95465765f1e3a81a69ecb09760ff52d58564583",
    "sweep-flip-empirical": "cf8cfedb0e065818c8cdf585cf301c60deddddddfaa8d04e784bed091f4b357a",
    "sweep-model1": "3a6a9912fdaf368512f7d687ef333d24830a14c81dcf7e8cf537a5e2247e1df9",
    "sweep-model1-empirical": "3d07aa320816d14c5033629e64158c47986c1c16e973451b48238c07f40b3353",
    "sweep-model2": "0a98c5f8d4d3af71e9edd469f8e8a1dfd504761c397c9b0b52e70f3c7961ceaf",
    "sweep-model2-empirical": "c02c2f2d9a6c401e3939fc5a2c0e0b13e3a7c3a89aec0abcd93885893d84c865",
    "sweep-model2-grid51": "f9e8be6d283de0ec80a29f3661f03040f89bd25b7d0da6f26ed55705201b8542",
    "sweep-white": "169b4052a95ae8bb665d24bef3cc1a7a2a1dc118f9d194bdc673c6713d82bdff",
    "sweep-white-empirical": "e5eb2eb9fb3b915b71d87f149e10712012daf69e0285f7246516fbf4eff5f5dd",
}


# The draw calls ``protocol._Engine`` makes on each named stream at seed 1,
# in order, for one 64-round block of a masked mermin N=3 run with Eve at
# link 1, white preparation noise and a misreading detector: method,
# arguments and shape.  The picks are drawn as int64 and then cast.
FINGERPRINT_ROUNDS = 64
STREAM_CALLS = {
    "round": (("integers", (0, 3), (64, 3)), ("random", (), (64, 3))),  # picks, then Born variates
    "masking": (("random", (), (64, 9)),),  # nine angles a round, times 2π
    "eve": (("random", (), (64, 2)),),  # activity, then her Born variate
    "noise": (("random", (), (64, 3)), ("integers", (0, 8), (64, 1))),  # uniforms, then white basis states
}
STREAM_DIGESTS = {
    "eve": "d24dbe49d91e5eefcc9837332c980f6260b42f9bad187b21ed9a0b920c29a00c",
    "masking": "728b3c661a0a4461d9f9edb11361fc8254a4c0e6446f72b14d02ca94a0ed9e1f",
    "noise": "3bfa2b3f9e6270fa71a081bfc72d0756ca34ae7c97a95198f2580c15455b9265",
    "round": "e183932a7b0d0d3f51a5d0e9e08fb2861488578ff6d9eedc645e474d00869ea3",
}


def _stream_draws(name: str) -> list[np.ndarray]:
    generator = protocol.stream_generator(1, name)
    return [getattr(generator, method)(*args, size=shape) for method, args, shape in STREAM_CALLS[name]]


@pytest.mark.parametrize("name", sorted(STREAM_CALLS))
def test_stream_fingerprint(name):
    digest = hashlib.sha256(b"".join(draw.tobytes() for draw in _stream_draws(name))).hexdigest()
    assert digest == STREAM_DIGESTS[name], (
        f"numpy {np.__version__} draws the {name!r} stream differently from numpy {PINNED_ON_NUMPY}, "
        "on which every digest in this file was pinned"
    )


def test_stream_calls_are_the_engines():
    config = protocol.ProtocolConfig(
        "mermin", 3, FINGERPRINT_ROUNDS, seed=1, eve=EveConfig(1, "Z1", "noncommuting-measure"),
        noise=noise.NoiseConfig(prep=noise.WhitePrep(0.3), detector=noise.MisreadDetector(0.1)),
    )
    engine = protocol._Engine(config)
    variates = engine._draw(FINGERPRINT_ROUNDS)
    (picks, born), (angles,), (eve_u,), (noise_u, white_idx) = (
        _stream_draws(name) for name in ("round", "masking", "eve", "noise")
    )
    assert np.array_equal(engine.picks, picks.astype(np.int8))
    assert np.array_equal(variates.born, born)
    assert np.array_equal(variates.angles, angles * protocol.TWO_PI)
    assert np.array_equal(variates.eve_u, eve_u)
    assert np.array_equal(variates.noise_u, noise_u)
    assert variates.white_idx.dtype == white_idx.dtype and np.array_equal(variates.white_idx, white_idx)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_CASES))
def test_transcript_digest(name, tmp_path):
    config = protocol.ProtocolConfig(**{"rounds": ROUNDS, "seed": SEED, **TRANSCRIPT_CASES[name]})
    path = tmp_path / "transcript.jsonl"
    cli.write_transcript(protocol.run_protocol(config), path)
    assert _sha256(path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_digest(name, tmp_path, capsys):
    argv, csv_name = SWEEP_CASES[name]
    assert cli.main(["sweep", *argv, "--outdir", str(tmp_path)]) == cli.EXIT_OK
    assert _sha256(tmp_path / csv_name) == DIGESTS[name]


NOISY = ["--prep-noise", "flip:0.1,0.2", "--detector-noise", "loss:0.7"]

# Command lines covering the three verdicts (exit 0, 2 and 3), an empirical
# key-rate section and its error, a check failing beside an empty one, and
# localization.
COMMAND_CASES = {
    "run-mermin3-2000": ["run", "--kind", "mermin", "--parties", "3", "--rounds", "2000", "--seed", "1"],
    "run-mermin3-20": ["run", "--kind", "mermin", "--parties", "3", "--rounds", "20", "--seed", "1"],
    "run-mermin3-noisy-40000": [
        "run", "--kind", "mermin", "--parties", "3", "--rounds", "40000", "--seed", "2", *NOISY,
    ],
    # 71 key rounds: the key-rate section holds the error
    "run-chsh4-noisy-3000": ["run", "--kind", "chsh", "--parties", "4", "--rounds", "3000", "--seed", "2", *NOISY],
    # 6 check rounds, violated on a zero standard error
    "run-mermin3-30": ["run", "--kind", "mermin", "--parties", "3", "--rounds", "30", "--seed", "4"],
    "attack-mermin6-z1": [
        "attack", "--kind", "mermin", "--parties", "6", "--rounds", "3000", "--seed", "1",
        "--eve-link", "3", "--eve-obs", "Z1",
    ],
    "attack-mermin3-x3": [
        "attack", "--kind", "mermin", "--parties", "3", "--rounds", "4000", "--seed", "1",
        "--eve-link", "2", "--eve-obs", "X3",
    ],
    "attack-chsh4-8000": [
        "attack", "--kind", "chsh", "--parties", "4", "--rounds", "8000", "--seed", "1",
        "--eve-link", "2", "--eve-obs", "Z1",
    ],
    # a failing check beside empty ones: exit 2, with a localization error
    "attack-chsh4-10": [
        "attack", "--kind", "chsh", "--parties", "4", "--rounds", "10", "--seed", "1",
        "--eve-link", "2", "--eve-obs", "Z1",
    ],
}

COMMAND_DIGESTS = {
    "attack-chsh4-10": {
        "exit": 2,
        "report": "cb260d686ee71de38741928bc93e6539cf240c39ead22d7611cfbb334bfdd84e",
        "keys": "545c38b0922de19734fbffde62792c37c2aef6a3216cfa472449173165220f7d",
        "stdout": "2addcfb01d53dbb7f37fa1a8e208b0ac1584fdfdea5b001088f4dbd11b5cee70",
    },
    "attack-chsh4-8000": {
        "exit": 2,
        "report": "a041eca6fad95ae8d585ad77daef07a5d5241f4d9bcc2a679cd9383cbf8f95d1",
        "keys": "895c66bbe003c4ed466de031afa1f200cbb094e63d228207304e0e52a72ffe14",
        "stdout": "b358a176b3ab66ddf4e561011aa4352dd4c940c6e53673dde205465265cc12bc",
    },
    "attack-mermin3-x3": {
        "exit": 2,
        "report": "514468bb508043a64af6b493a47f89d25a452dda0cdeddb151681e346fe6d5b6",
        "keys": "357dafb2e1678e39e9f09626fb7ac20736d3a89a5fd8b4d5010c69826136c4a2",
        "stdout": "5358c76061d452a1db663aec759db5ef5ed6746cfd7bf09e0a9aea32f38a06d5",
    },
    "attack-mermin6-z1": {
        "exit": 3,
        "report": "baac55ef4708bb140c5d3e2bb83241b02c54c4a094b4418818bd560998cd5a73",
        "keys": "c415c9bf2d35d840bccaa4bdc2618f0c5e4d303ea7bcb4ebce6095288ae6bd0e",
        "stdout": "f9c3a93641d96adea1c4429b5328796019b0f3e155fab341103047049d24e13c",
    },
    "run-chsh4-noisy-3000": {
        "exit": 0,
        "report": "5d8ff1fb7c586ffd7abe2341f92368715153d206fe9befb6346fda60723f305f",
        "keys": "ebe54ce255c764c5847843559aa08b6e5f7da02c4478c04ec56aeaa24ab9a76c",
        "stdout": "cf7945113e21d33049509067c47be711bda1c58b9234be1753567b143b78877e",
    },
    "run-mermin3-20": {
        "exit": 3,
        "report": "e3c45ff3ec93513c2bc05060e11462184f17b473a2372a64dda1bfa5b402a54a",
        "keys": "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
        "stdout": "fbac135221c31dbebab165cc3dba9b0cdb0712111787a5b2c0a6e999c3b248f5",
    },
    "run-mermin3-2000": {
        "exit": 0,
        "report": "4f5b4a87284cd156746da37fe3b69bb699ae064e57aec99c778808a76a3dcf41",
        "keys": "3586cd850f7281c13aed18d7eddb493d850fa5d3393e5d2234546a3e174a360f",
        "stdout": "f9373ccc6d3dd31b8402a44af5d6722094aaafa3dfdfe6002038a4a3fbb14c19",
    },
    "run-mermin3-30": {
        "exit": 0,
        "report": "1f4ef146b962a014b244541d9144e9b677557c47370e03a6995bec669b59aa53",
        "keys": "398c62950ad52e0af0479a7c85b1808ed3e19aa4b850f936a9f62978a33c6cf2",
        "stdout": "35dda8e530bb3223e1ab60d98dd16a1b02363e9245d2af191cee0e5b57b556bd",
    },
    "run-mermin3-noisy-40000": {
        "exit": 0,
        "report": "69f2ce259623ba9895f2f7e8d2987dd5829d242ff111e9a3680fb690b295b4c2",
        "keys": "8499d9cee9539f04cfbcc9d6d0155824bb4615c44b1ecc0f4e500cd0bffc37dc",
        "stdout": "6c0be2a2265a9d114f5849ccc01f77e5c863e9c8bbf039775ffad5a2c25971c8",
    },
}


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_digest(name, tmp_path, capsys):
    argv = COMMAND_CASES[name]
    code = cli.main([*argv, "--outdir", str(tmp_path)])
    keys = sorted(tmp_path.glob(f"{argv[0]}-key-party*.txt"))
    pinned = {
        "exit": code,
        "report": _sha256(tmp_path / f"{argv[0]}-report.json"),
        "keys": hashlib.sha256(b"".join(path.read_bytes() for path in keys)).hexdigest(),
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert pinned == COMMAND_DIGESTS[name]
