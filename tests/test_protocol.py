import dataclasses
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from contextkey import cli, inequality, noise, protocol, qmath
from contextkey.adversary import EveConfig
from conftest import pair_mutual_information, seam_rounds


def label_columns(transcript) -> np.ndarray:
    """(rounds × N) array of the setting label each party picked."""
    return np.array(transcript.setting_labels)[np.arange(transcript.config.num_parties), transcript.picks]


def same_rounds(a, b, rows=slice(None)) -> bool:
    """Whether two transcripts hold the same columns in ``rows``."""
    return all(
        np.array_equal(getattr(a, name)[rows], getattr(b, name)[rows])
        for name in ("picks", "outcomes", "eve_outcomes")
    )


class TestConfigValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("mermin", 3, 0)

    def test_rejects_small_party_counts(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("mermin", 2, 10)
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("chsh", 1, 10)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("e91", 3, 10)

    def test_rejects_bad_eve_position(self):
        eve = EveConfig(position=3, observable="Z1")
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("mermin", 3, 10, eve=eve)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("mermin", 3, 10, seed=-1)

    def test_rejects_parties_beyond_size_guard(self):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig("mermin", qmath.MAX_QUBIT_EQUIVALENT + 1, 10)
        protocol.ProtocolConfig("chsh", qmath.MAX_QUBIT_EQUIVALENT + 1, 10)  # D = 4 always

    def test_dimension(self):
        assert protocol.ProtocolConfig("mermin", 4, 1).dim == 16
        assert protocol.ProtocolConfig("chsh", 5, 1).dim == 4


# Prefix sets each round's parties are steered toward where they can, so
# that random picks hold key, revealed and check rounds at every N.
_STEERS = [("Z",), ("XpZ",), ("X", "Y"), ("X", "Z"), ("XpZ", "ZmX"), ("X", "Y", "Z", "XpZ", "ZmX")]


def _steered_picks(kind: str, n: int, rounds: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    party_settings = protocol.party_labels(kind, n)
    prefixes = [[inequality.split_label(label)[0] for label in labels] for labels in party_settings]
    picks = np.empty((rounds, n), dtype=np.int8)
    for r in range(rounds):
        steer = _STEERS[rng.integers(len(_STEERS))]
        for k, party in enumerate(prefixes):
            picks[r, k] = rng.choice([i for i, p in enumerate(party) if p in steer] or [0, 1, 2])
    return picks


def _reference_kinds(kind: str, labels: list[str]) -> tuple[bool, bool, bool]:
    """(key, revealed, check) of one round, read from its setting labels."""
    prefixes = [inequality.split_label(label)[0] for label in labels]
    if kind == "mermin":
        revealed = all(p in ("X", "Y") for p in prefixes)
        return all(p == "Z" for p in prefixes), revealed, revealed
    key = prefixes in (["Z"] * len(prefixes), ["XpZ"] * len(prefixes))
    check = False
    for k in range(len(prefixes) - 1):  # party k + 1 is odd when k is even
        odd, even = (prefixes[k], prefixes[k + 1]) if k % 2 == 0 else (prefixes[k + 1], prefixes[k])
        check |= odd in ("X", "Z") and even in ("XpZ", "ZmX")
    return key, not key, check


class TestLabels:
    def test_mermin_labels(self):
        sets = protocol.party_labels("mermin", 3)
        assert sets[0] == ("X1", "Y1", "Z1")
        assert sets[2] == ("X3", "Y3", "Z3")

    def test_chsh_labels_alternate(self):
        sets = protocol.party_labels("chsh", 4)
        assert sets[0] == ("X1", "XpZ1", "Z1")
        assert sets[1] == ("XpZ2", "Z2", "ZmX2")
        assert sets[2] == sets[0]
        assert sets[3] == sets[1]

    @staticmethod
    def _kinds(kind, *rounds):
        """(key, revealed, check) of each round given by its labels."""
        settings = protocol.party_labels(kind, len(rounds[0]))
        picks = np.array([[labs.index(label) for labs, label in zip(settings, labels)] for labels in rounds])
        kinds = protocol.round_kinds(kind, picks)
        return [tuple(bool(column[r]) for column in kinds) for r in range(len(rounds))]

    def test_round_classification_mermin(self):
        assert self._kinds("mermin", ("Z1", "Z2", "Z3"), ("X1", "Y2", "X3"), ("X1", "Z2", "X3")) == [
            (True, False, False), (False, True, True), (False, False, False),
        ]

    def test_round_classification_chsh(self):
        kinds = self._kinds(
            "chsh", ("Z1", "Z2", "Z1"), ("XpZ1", "XpZ2", "XpZ1"), ("Z1", "XpZ2", "Z1"), ("XpZ1", "Z2", "XpZ1"),
        )
        assert [key for key, _, _ in kinds] == [True, True, False, False]
        # every other round is revealed, but only combination-bearing ones are checks
        assert [revealed for _, revealed, _ in kinds] == [False, False, True, True]
        assert [check for _, _, check in kinds] == [False, False, True, False]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind,fewest,most", [("mermin", 3, 12), ("chsh", 2, 40)])
    def test_round_kinds_match_per_round_reference(self, kind, fewest, most, data):
        n = data.draw(st.integers(fewest, most), label="parties")
        picks = _steered_picks(kind, n, 60, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kinds = protocol.round_kinds(kind, picks)
        for column in kinds:
            assert column.dtype == bool and column.shape == (60,)
        setting_labels = protocol.party_labels(kind, n)
        for r, row in enumerate(picks.tolist()):
            labels = [labs[p] for labs, p in zip(setting_labels, row)]
            assert tuple(bool(column[r]) for column in kinds) == _reference_kinds(kind, labels), labels

    def test_key_bit_parity_convention(self):
        assert protocol.key_bit("mermin", 2, +1) == 0
        assert protocol.key_bit("chsh", 1, +1) == 0
        assert protocol.key_bit("chsh", 2, -1) == 0
        assert protocol.key_bit("chsh", 3, +1) == 0
        assert protocol.key_bit("chsh", 2, 0) == protocol.ERASED_BIT


class _ZeroRng:
    def uniform(self, low, high, size=None):
        return np.zeros(size) if size is not None else 0.0


class _RowRng:
    """Hands out a fixed sequence of angles, one per uniform draw."""

    def __init__(self, angles):
        self.angles = iter(angles)

    def uniform(self, low, high, size=None):
        return next(self.angles)


class TestMaskingUnitary:
    def test_zero_angles_give_identity(self):
        spec = dense.MaskingSpec(3, ("X1", "Y1", "Z1"))
        u = dense.masking_unitary(1, spec, _ZeroRng())
        assert np.allclose(u.matrix, np.eye(8))

    def test_generator_leak_is_rejected(self):
        spec = dense.MaskingSpec(3, ("X1", "X2"))
        with pytest.raises(qmath.InvariantViolation):
            dense.masking_unitary(1, spec, np.random.default_rng(0))

    def test_commutes_with_later_party_observables(self):
        rng = np.random.default_rng(1)
        indexing = qmath.PartyIndexing(3)
        spec = dense.MaskingSpec(3, ("X1", "Y1", "Z1", "X2", "Y2", "Z2"))
        for _ in range(20):
            u = dense.masking_unitary(2, spec, rng, indexing)
            for axis in "XYZ":
                assert qmath.commutator_norm(u.matrix, qmath.lift_matrix(qmath.PAULI[axis], 3, indexing)) < 1e-10

    @pytest.mark.parametrize("kind,parties,include_key", [
        ("mermin", 3, True), ("mermin", 3, False), ("mermin", 4, True), ("chsh", 4, True),
    ])
    def test_matches_engine_masking(self, kind, parties, include_key):
        # The verified masking is the executed one: fed the same angles,
        # masking_unitary of every mask sent by a link, in sender order, is
        # the product of the engine's per-qudit masks at that link, lifted.
        # The engine draws angles only where Eve reads them, so they come
        # from the masking stream itself.
        config = protocol.ProtocolConfig(kind, parties, 3, seed=8, masking_include_key=include_key)
        engine = protocol._Engine(config)
        dim, indexing = engine.dim, qmath.PartyIndexing(engine.qudits)
        masking = protocol.stream_generator(config.seed, "masking")
        angles = masking.random(size=(config.rounds, engine._mask_angle_count)) * protocol.TWO_PI
        for round_id in range(config.rounds):
            for link in engine.mask_plan:
                senders = range(1, link + 1) if kind == "mermin" else (link,)
                hops = [hop for sender in senders for hop in engine.mask_plan[sender]]
                labels = tuple(f"{axis}{party}" for party, _ in hops for axis in engine.mask_axes)
                row = np.concatenate([angles[round_id, chunk] for _, chunk in hops])
                spec = dense.MaskingSpec(engine.qudits, labels)
                u = dense.masking_unitary(link, spec, _RowRng(row), indexing)
                executed = np.eye(dim, dtype=complex)
                for party in range(1, engine.qudits + 1):
                    # the identity's rows, masked: M itself, or the identity where nothing masked
                    identity = np.eye(2, dtype=complex)[:, :, None]
                    mask = engine._mask(identity, angles[round_id : round_id + 1], link, party)
                    executed = qmath.lift_matrix(mask[:, :, 0], party, indexing) @ executed
                assert np.max(np.abs(u.matrix - executed)) < 1e-12

    def test_single_generator_masking_hides_key_basis(self):
        # Interceptor Z statistics on masked |0⟩ / |7⟩ carry < 0.01 bit:
        # the ensemble mean of cos(2θ) over uniform angles vanishes.
        rng = np.random.default_rng(2)
        indexing = qmath.PartyIndexing(3)
        spec = dense.MaskingSpec(3, ("X1",))
        z1 = dense.pauli("Z", 1, indexing)
        pairs = []
        for _ in range(10_000):
            bit = int(rng.random() < 0.5)
            state = dense.StateVector.basis(8, 7 if bit else 0)
            u = dense.masking_unitary(1, spec, rng, indexing)
            outcome, _ = dense.measure_projective(dense.apply_unitary(state, u), z1, rng)
            pairs.append((bit, (1 - outcome) // 2))
        assert pair_mutual_information(pairs) < 0.01


class TestSu2Product:
    def test_matches_generator_exponential(self):
        rng = np.random.default_rng(3)
        for axis in "XYZ":
            theta = float(rng.uniform(0, 2 * math.pi))
            direct = dense._su2_product((axis,), [theta])
            expm = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * inequality.LOCAL_MATRICES[axis]
            assert np.max(np.abs(direct - expm)) < 1e-12

    def test_composition_order(self):
        thetas = [0.3, 1.1]
        composed = dense._su2_product(("X", "Y"), thetas)
        first = dense._su2_product(("X",), thetas[:1])
        second = dense._su2_product(("Y",), thetas[1:])
        assert np.max(np.abs(composed - second @ first)) < 1e-12

    def test_scrambles_every_bloch_direction(self):
        # Ensemble-averaged Bloch image vanishes for the composed rotations.
        rng = np.random.default_rng(4)
        directions = {
            "Z": np.array([1.0, 0.0], dtype=complex),
            "XpZ": np.linalg.eigh(inequality.LOCAL_MATRICES["XpZ"])[1][:, 1],
        }
        n = 20_000
        for name, ket in directions.items():
            # one row of three angles per draw, the doubles in the order of one draw at a time
            rotated = dense._su2_product(("X", "Y", "Z"), rng.uniform(0, 2 * math.pi, (n, 3))) @ ket
            bloch = np.einsum("na,ab,nb->n", rotated.conj(), inequality.LOCAL_MATRICES[name], rotated).real
            assert abs(bloch.mean()) < 4 / math.sqrt(n) + 0.02


class TestMerminRounds:
    def test_all_z_rounds_are_branch_symmetric(self, mermin3_run):
        keyed = mermin3_run.outcomes[mermin3_run.kinds.key]
        assert len(keyed) > 2000
        for outcomes in keyed[:500]:
            assert len(set(outcomes)) == 1  # perfectly correlated chain
        plus_fraction = np.mean(keyed[:, 0] == 1)
        assert abs(plus_fraction - 0.5) < 3 * 0.5 / math.sqrt(len(keyed))

    def test_appendix_context_y1_then_z_chain(self, mermin3_run):
        y, z = protocol.MERMIN_PREFIXES.index("Y"), protocol.MERMIN_PREFIXES.index("Z")
        rounds = mermin3_run.outcomes[(mermin3_run.picks == [y, z, z]).all(axis=1)]
        assert len(rounds) > 1000
        for outcomes in rounds:
            assert outcomes[1] == outcomes[2]
        z2_plus = np.mean(rounds[:, 1] == 1)
        assert abs(z2_plus - 0.5) < 3 * 0.5 / math.sqrt(len(rounds))
        # independent of the first party's outcome
        by_first = {sign: rounds[rounds[:, 0] == sign, 1] for sign in (1, -1)}
        for sign, z2s in by_first.items():
            assert abs(np.mean(np.array(z2s) == 1) - 0.5) < 4 * 0.5 / math.sqrt(len(z2s))

    def test_masking_toggle_preserves_distributions(self):
        base = dict(kind="mermin", num_parties=3, rounds=40_000, seed=71)
        on = protocol.run_protocol(protocol.ProtocolConfig(masking_enabled=True, **base))
        off = protocol.run_protocol(protocol.ProtocolConfig(masking_enabled=False, **base))
        assert np.array_equal(on.picks, off.picks)
        est_on = protocol.mermin_check_estimate(on)
        est_off = protocol.mermin_check_estimate(off)
        tolerance = 3 * math.hypot(est_on.standard_error, est_off.standard_error) + 1e-9
        assert abs(est_on.value - est_off.value) <= tolerance
        key_on = np.mean(on.outcomes[on.kinds.key, 0] == 1)
        key_off = np.mean(off.outcomes[off.kinds.key, 0] == 1)
        assert abs(key_on - 0.5) < 0.03 and abs(key_off - 0.5) < 0.03


class TestChshRounds:
    def test_aligned_z_pairs_anticorrelate(self, chsh3_run):
        labels, outcomes = label_columns(chsh3_run), chsh3_run.outcomes.astype(int)
        for k in range(2):
            # adjacent parties alternate odd and even, so these are {Z1, Z2}
            z = np.isin(labels[:, k], ("Z1", "Z2")) & np.isin(labels[:, k + 1], ("Z1", "Z2"))
            assert np.all(outcomes[z, k] * outcomes[z, k + 1] == -1)

    def test_aligned_xpz_pairs_anticorrelate(self, chsh3_run):
        labels, outcomes = label_columns(chsh3_run), chsh3_run.outcomes.astype(int)
        seen = 0
        for k in range(2):
            xpz = np.char.startswith(labels[:, k], "XpZ") & np.char.startswith(labels[:, k + 1], "XpZ")
            assert np.all(outcomes[xpz, k] * outcomes[xpz, k + 1] == -1)
            seen += int(xpz.sum())
        assert seen > 5000

    def test_z_versus_zmx_pair_statistics(self, chsh3_run):
        # P(product = −1) = cos²(π/8) for the (Z, (Z−X)/√2) setting pair.
        labels, outcomes = label_columns(chsh3_run), chsh3_run.outcomes.astype(int)
        pair = (labels[:, 0] == "Z1") & (labels[:, 1] == "ZmX2")
        products = outcomes[pair, 0] * outcomes[pair, 1]
        assert len(products) > 5000
        fraction = np.mean(products == -1)
        expected = math.cos(math.pi / 8) ** 2
        assert abs(fraction - expected) < 3 * math.sqrt(expected * (1 - expected) / len(products))

    def test_pair_estimates_noiseless(self, chsh3_run):
        for estimate in protocol.chsh_pair_estimates(chsh3_run).values():
            assert estimate.usable
            assert abs(estimate.value - 2.0) <= 3 * estimate.standard_error + 1e-9
            assert estimate.violated


class TestSifting:
    def test_partition_is_exact(self, mermin3_run):
        sifting = protocol.sift(mermin3_run)
        total = len(sifting.key_rounds) + len(sifting.check_rounds) + len(sifting.discarded)
        assert total == mermin3_run.config.rounds
        assert set(sifting.key_rounds).isdisjoint(sifting.check_rounds)

    def test_key_and_revealed_exclusive(self, mermin3_run):
        kinds = mermin3_run.kinds
        assert not (kinds.key & kinds.revealed).any()

    def test_mermin_key_fraction(self, mermin3_run):
        sifting = protocol.sift(mermin3_run)
        expected = 1 / 27
        sigma = math.sqrt(expected * (1 - expected) / mermin3_run.config.rounds)
        assert abs(len(sifting.key_rounds) / mermin3_run.config.rounds - expected) < 3 * sigma

    def test_chsh_key_fraction(self, chsh3_run):
        sifting = protocol.sift(chsh3_run)
        expected = 2 / 27
        sigma = math.sqrt(expected * (1 - expected) / chsh3_run.config.rounds)
        assert abs(len(sifting.key_rounds) / chsh3_run.config.rounds - expected) < 3 * sigma

    def test_empty_partitions_allowed(self):
        config = protocol.ProtocolConfig("mermin", 3, 2, seed=1)
        x, z = protocol.MERMIN_PREFIXES.index("X"), protocol.MERMIN_PREFIXES.index("Z")
        picks = [[x, z, z], [z, x, z]]  # X1 Z2 Z3 and Z1 X2 Z3
        sifting = protocol.sift(protocol.Transcript(config, picks, np.ones((2, 3)), np.zeros(2)))
        assert len(sifting.key_rounds) == 0
        assert len(sifting.check_rounds) == 0
        assert len(sifting.discarded) == 2
        key = protocol.extract_key(sifting)
        assert key.num_key_rounds == 0
        assert key.agreement_fraction is None


class TestKeyAgreement:
    def test_noiseless_agreement_with_masking(self, mermin3_agreement_run, chsh3_agreement_run):
        for transcript in (mermin3_agreement_run, chsh3_agreement_run):
            sifting = protocol.sift(transcript)
            assert len(sifting.key_rounds) >= 10_000
            key = protocol.extract_key(sifting)
            assert key.num_complete == key.num_key_rounds
            assert key.agreement_fraction == 1.0

    def test_prep_flip_degrades_first_link_only(self):
        cfg = protocol.ProtocolConfig(
            "mermin", 3, 120_000, seed=88, masking_enabled=False,
            noise=noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1)),
        )
        sifting = protocol.sift(protocol.run_protocol(cfg))
        bits = sifting.key_bits
        n = len(sifting.key_rounds)
        assert n > 3000
        agree_12 = np.mean(bits[0] == bits[1])
        agree_23 = np.mean(bits[1] == bits[2])
        assert abs(agree_12 - 0.9) < 3 * math.sqrt(0.9 * 0.1 / n)
        assert agree_23 == 1.0


class TestDeterminism:
    def test_transcripts_reproducible(self):
        config = protocol.ProtocolConfig("chsh", 3, 3000, seed=5)
        assert same_rounds(protocol.run_protocol(config), protocol.run_protocol(config))

    def test_thread_count_invariance(self, tmp_path, capsys):
        # --threads is accepted and ignored: the transcript is the sequential one.
        config = protocol.ProtocolConfig("mermin", 3, 3000, seed=6)
        argv = ["run", "--kind", "mermin", "--parties", "3", "--rounds", "3000", "--seed", "6",
                "--threads", "4", "--outdir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        threaded = cli.read_transcript(tmp_path / "run-transcript.jsonl", config)
        assert same_rounds(threaded, protocol.run_protocol(config))

    def test_substreams_are_independent(self):
        a = protocol.stream_generator(9, "round").random(4)
        b = protocol.stream_generator(9, "masking").random(4)
        assert not np.allclose(a, b)

    def test_masked_run_without_eve_opens_no_masking_stream(self):
        # only Eve reads masks, so a run without her draws no angles
        engine = protocol._Engine(protocol.ProtocolConfig("mermin", 3, 10, seed=9))
        assert engine._g_mask is None
        assert engine._draw(10).angles is None

    def test_eve_reads_the_masking_stream_block_by_block(self):
        config = protocol.ProtocolConfig("chsh", 3, 40, seed=9, eve=EveConfig(1, "Z1", "commuting-measure"))
        engine = protocol._Engine(config)
        whole = protocol.stream_generator(9, "masking").random(size=(40, engine._mask_angle_count))
        assert np.array_equal(engine._draw(25).angles, whole[:25] * protocol.TWO_PI)
        assert np.array_equal(engine._draw(15).angles, whole[25:] * protocol.TWO_PI)


class TestSingleRoundOps:
    """A round is the same whatever block it falls in."""

    def test_run_mermin_round(self, monkeypatch):
        config = protocol.ProtocolConfig("mermin", 3, 5, seed=91)
        whole = protocol.run_protocol(config)
        monkeypatch.setattr(protocol, "block_rounds", lambda dim: 1)
        blocked = protocol.run_protocol(config)
        assert blocked.picks.shape[1] == 3
        assert same_rounds(blocked, whole, 2)

    def test_run_chsh_round(self, monkeypatch):
        config = protocol.ProtocolConfig("chsh", 4, 5, seed=92)
        whole = protocol.run_protocol(config)
        monkeypatch.setattr(protocol, "block_rounds", lambda dim: 1)
        assert same_rounds(protocol.run_protocol(config), whole, 0)


SEAM_CONFIGS = {
    "mermin5-model2-commuting-half": protocol.ProtocolConfig(
        "mermin", 5, seam_rounds(32), seed=97,
        noise=noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1), detector=noise.LossDetector(0.7)),
        eve=EveConfig(2, "Z1", "commuting-measure", activity_rate=0.5),
    ),
    "chsh4-white-fresh-reference": protocol.ProtocolConfig(
        "chsh", 4, seam_rounds(4), seed=98, noise=noise.NoiseConfig(prep=noise.WhitePrep(0.3)),
        eve=EveConfig(2, "XpZ2", "measure-resend", resend="fresh-reference"),
    ),
    # D=64: Eve's masks are folded into her measurement
    "mermin6-masked-commuting-z1": protocol.ProtocolConfig(
        "mermin", 6, seam_rounds(64), seed=99, eve=EveConfig(3, "Z1", "commuting-measure"),
    ),
    # D=2048: the default blocks hold 16 rounds
    "mermin11-masked-commuting-z1": protocol.ProtocolConfig(
        "mermin", 11, seam_rounds(2048), seed=100, eve=EveConfig(3, "Z1", "commuting-measure"),
    ),
}


def _long_seam_config(kind: str, n: int, seed: int, prep=None) -> protocol.ProtocolConfig:
    """A fully tabled run that fills one long block and spills 50 rounds into the next."""
    rounds = protocol.tabled_block_rounds(protocol.ProtocolConfig(kind, n, 1).dim, n) + 50
    return protocol.ProtocolConfig(kind, n, rounds, seed=seed, noise=prep and noise.NoiseConfig(prep=prep))


LONG_SEAM_CONFIGS = {
    "mermin3-noiseless": _long_seam_config("mermin", 3, 101),
    "mermin3-white": _long_seam_config("mermin", 3, 102, noise.WhitePrep(0.3)),
    "chsh4-flip": _long_seam_config("chsh", 4, 103, noise.FlipPrep(0.1, 0.2)),
}


class TestBlockRule:
    def test_every_config_width(self):
        dims = {protocol.ProtocolConfig("chsh", 2, 1).dim} | {
            protocol.ProtocolConfig("mermin", n, 1).dim
            for n in range(3, qmath.MAX_QUBIT_EQUIVALENT + 1)
        }
        assert dims == {4} | {2**n for n in range(3, 13)}
        for dim in dims:
            block = protocol.block_rounds(dim)
            assert 8 <= block and block * dim <= 32768, dim
        # the narrow states keep the blocks they had under the 8,192-amplitude budget
        assert (protocol.block_rounds(4), protocol.block_rounds(8)) == (2048, 1024)


class TestBlockSeams:
    """Where the block boundaries fall never changes a transcript byte."""

    @pytest.mark.parametrize("rounds_per_block", [1, 7])
    @pytest.mark.parametrize("name", list(SEAM_CONFIGS))
    def test_block_size_invariance(self, name, rounds_per_block, tmp_path, monkeypatch):
        config = SEAM_CONFIGS[name]
        default_block = protocol.block_rounds(config.dim)
        assert config.rounds > default_block  # crosses a default seam
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "default.jsonl")
        monkeypatch.setattr(protocol, "block_rounds", lambda dim: rounds_per_block)
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "seams.jsonl")
        assert (tmp_path / "seams.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()

    def test_configs_reach_eve_and_erasures(self):
        for config in SEAM_CONFIGS.values():
            assert (protocol.run_protocol(config).eve_outcomes != 0).any()
        half = protocol.run_protocol(SEAM_CONFIGS["mermin5-model2-commuting-half"])
        assert (half.eve_outcomes == 0).any()  # rounds she skips
        assert (half.outcomes == 0).any()  # erasures

    @pytest.mark.parametrize("name", list(LONG_SEAM_CONFIGS))
    def test_long_block_invariance(self, name, tmp_path, monkeypatch):
        # only the tabled block size is patched, so every hop keeps its table
        config = LONG_SEAM_CONFIGS[name]
        long_block = protocol.tabled_block_rounds(config.dim, config.num_parties)
        assert long_block > protocol.block_rounds(config.dim)
        assert config.rounds > long_block  # crosses a long seam
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "default.jsonl")
        monkeypatch.setattr(protocol, "tabled_block_rounds", lambda dim, num_parties: 7)
        assert tabled_parties(config) == list(range(2, config.num_parties + 1))
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "seams.jsonl")
        assert (tmp_path / "seams.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()

    @pytest.mark.parametrize("name", list(LONG_SEAM_CONFIGS))
    def test_fully_tabled_blocks_are_long_and_hold_no_state(self, name, monkeypatch):
        config = LONG_SEAM_CONFIGS[name]
        sizes = []
        play_block = protocol._Engine.play_block

        def recorded(engine, size):
            sizes.append(size)
            return play_block(engine, size)

        def no_dense_state(*args, **kwargs):
            raise AssertionError("a fully tabled block gathered a (D, B) array")

        monkeypatch.setattr(protocol._Engine, "play_block", recorded)
        monkeypatch.setattr(protocol._Engine, "_gather", no_dense_state)
        protocol.run_protocol(config)
        assert sizes == [protocol.tabled_block_rounds(config.dim, config.num_parties), 50]

    def test_which_runs_are_fully_tabled(self):
        def tabled(kind, n, eve=None, prep=None):
            config = protocol.ProtocolConfig(kind, n, 1, eve=eve, noise=prep and noise.NoiseConfig(prep=prep))
            return protocol.EnginePlan(config).fully_tabled

        assert tabled("mermin", 3) and tabled("mermin", 3, prep=noise.WhitePrep(0.3))
        assert tabled("mermin", 3, prep=noise.FlipPrep(0.1, 0.2))
        assert all(tabled("chsh", n) for n in range(2, 9))
        assert not tabled("mermin", 4)  # party 4 would need 648 pairs, past a 512-round block
        assert not tabled("mermin", 3, eve=EveConfig(2, "Z1", "commuting-measure"))
        # the benchmark's attack-chsh4: party 3 measures dense states behind Eve at link 2
        assert not tabled("chsh", 4, eve=EveConfig(2, "Z1", "noncommuting-measure"))
        # blocks of 16,384 party-rounds, never shorter than the dense rule's
        assert [protocol.tabled_block_rounds(4, n) for n in (2, 4, 8, 12)] == [8192, 4096, 2048, 2048]
        assert protocol.tabled_block_rounds(8, 3) == 5461


HOP_NOISE = {
    "noiseless": None,
    "flip": noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.2)),
    "white": noise.NoiseConfig(prep=noise.WhitePrep(0.3)),
}
HOP_CONFIGS = {
    f"{kind}{n}-{tag}": protocol.ProtocolConfig(kind, n, 1, noise=config)
    for kind, sizes in (("mermin", range(3, 7)), ("chsh", range(2, 6)))
    for n in sizes
    for tag, config in HOP_NOISE.items()
}
# P(+1) of a table against the block player's dense value: numpy's vector and
# scalar loops may round the same sum one ulp apart
HOP_P_TOLERANCE = 4.5e-16


def tabled_parties(config: protocol.ProtocolConfig) -> list[int]:
    """The parties (from 1) whose hops have tables."""
    return [bob for bob, hop in enumerate(protocol._Engine(config).hops, 1) if hop is not None]


class TestHopTables:
    """Each (incoming column, pick) pair measured once per run, against the dense kernels."""

    @pytest.mark.parametrize("name", sorted(HOP_CONFIGS))
    def test_tables_match_the_dense_measurement(self, name):
        # every pair as one round of a shuffled dense block, as the block player would hold it
        config = HOP_CONFIGS[name]
        engine = protocol._Engine(config)
        white = engine.dim if name.endswith("white") else 0
        rng = np.random.default_rng(len(name))
        checked = 0
        for bob in range(2, config.num_parties + 1):
            if config.kind == "chsh" or bob == 2:  # what party bob − 1 prepares
                columns = np.hstack([engine.setting_prepared[bob - 2], np.eye(engine.dim, white)])
            hop = engine.hops[bob - 1]
            if hop is None:
                continue
            pairs = rng.permutation(3 * columns.shape[1])
            assert hop.p_plus.shape == pairs.shape
            code, pick = np.divmod(pairs, 3)
            states = np.ascontiguousarray(columns[:, code])
            bases = np.take(engine.setting_basis[bob - 1], pick, axis=-1)
            party = engine.qudit[bob - 1]
            p = hop.p_plus[pairs]
            plus, minus = p >= qmath.PROB_FLOOR, 1.0 - p >= qmath.PROB_FLOOR
            # P(+1) pinned by the dense outcome on either side of the table's value
            for shift, expected in ((-HOP_P_TOLERANCE, 1), (HOP_P_TOLERANCE, -1)):
                outcome, _ = engine._measure(states, bases, party, p + shift)
                assert (outcome[plus & minus] == expected).all(), (bob, shift)
            outcome, _ = engine._measure(states, bases, party, np.full(pairs.shape, 0.5))
            assert (outcome[~plus] == -1).all() and (outcome[~minus] == 1).all()
            if hop.post is not None:
                assert hop.post.shape == (engine.dim, 2 * pairs.size)
                for u, row, reachable in ((0.0, 0, plus), (1.0, 1, minus)):
                    work = states.copy()
                    engine._measure(work, bases, party, np.full(pairs.shape, u), out=work)
                    post = hop.post[:, 2 * pairs + row]
                    assert np.max(np.abs(work - post)[:, reachable]) < 1e-15, (bob, row)
                columns = hop.post
            checked += 1
        assert checked == len(tabled_parties(config)) > 0

    def test_tables_stop_at_eve_and_at_the_cap(self):
        def config(kind, n, link=None, prep=None):
            eve = None if link is None else EveConfig(link, "Z1", "noncommuting-measure")
            return protocol.ProtocolConfig(kind, n, 1, eve=eve, noise=prep and noise.NoiseConfig(prep=prep))

        assert tabled_parties(config("mermin", 3)) == [2, 3]
        # party 4 would measure 6³ columns under 3 picks: 648 pairs, past a 512-round block
        assert tabled_parties(config("mermin", 6)) == [2, 3]
        assert tabled_parties(config("mermin", 12)) == []  # 8-round blocks
        # Eve at a link stops every later Mermin table; CHSH tables resume after the re-preparation
        assert tabled_parties(config("mermin", 5, link=2)) == [2]
        assert tabled_parties(config("mermin", 5, link=1)) == []
        assert tabled_parties(config("chsh", 5, link=2)) == [2, 4, 5]
        assert tabled_parties(config("chsh", 2, link=1)) == []
        # white noise adds the D basis states to the first party's 6 columns
        assert tabled_parties(config("mermin", 3, prep=noise.WhitePrep(0.3))) == [2, 3]
        assert tabled_parties(config("mermin", 5, prep=noise.WhitePrep(0.3))) == [2]
        assert tabled_parties(config("mermin", 7, prep=noise.WhitePrep(0.3))) == []

    @pytest.mark.parametrize("name", sorted(HOP_CONFIGS))
    def test_no_table_holds_more_than_two_blocks(self, name):
        engine = protocol._Engine(HOP_CONFIGS[name])
        block = protocol.block_rounds(engine.dim)
        for hop in engine.hops:
            if hop is not None:
                assert hop.p_plus.size <= block
                assert hop.post is None or hop.post.size <= 2 * block * engine.dim
                assert not hop.p_plus.flags.writeable
                assert hop.post is None or not hop.post.flags.writeable

    @pytest.mark.parametrize("name", [
        "mermin3-white", "mermin4-flip", "mermin6-noiseless", "chsh3-white", "chsh5-flip",
    ])
    def test_tables_move_no_outcome(self, name, monkeypatch):
        config = dataclasses.replace(HOP_CONFIGS[name], rounds=3000, seed=31)
        tabled = protocol.run_protocol(config)
        assert tabled_parties(config)
        monkeypatch.setattr(
            protocol.EnginePlan, "_hop_tables", lambda plan, kernels, eve, white: (None,) * plan.num_parties
        )
        assert tabled_parties(config) == []
        assert same_rounds(protocol.run_protocol(config), tabled)


def _plan_values(value):
    """Every leaf of a plan attribute: tuples, named tuples and mapping proxies are walked."""
    if isinstance(value, (tuple, MappingProxyType)):
        for item in (value.values() if isinstance(value, MappingProxyType) else value):
            yield from _plan_values(item)
    else:
        yield value


SHARED_PLAN_NOISE = {
    "flip": [noise.FlipPrep(0.0, 0.0), noise.FlipPrep(0.1, 0.3), noise.FlipPrep(0.5, 0.2)],
    "white": [noise.WhitePrep(0.0), noise.WhitePrep(0.3), noise.WhitePrep(1.0)],
    "misread": [noise.MisreadDetector(0.0), noise.MisreadDetector(0.2), noise.MisreadDetector(0.5)],
    "loss": [noise.LossDetector(1.0), noise.LossDetector(0.7), noise.LossDetector(0.3)],
}


class TestEnginePlan:
    """What the run's shape decides is built once and shared; what a run owns is not in it."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        built = []

        class Counted(protocol.EnginePlan):
            def __init__(self, config):
                built.append(config)
                super().__init__(config)

        monkeypatch.setattr(protocol, "EnginePlan", Counted)
        return built

    def test_a_sweep_builds_one_plan(self, tmp_path, monkeypatch):
        built = self._counted(monkeypatch)
        _, rows, _ = cli._empirical_sweep("flip", "mermin", 3, None, 60, 1)
        assert len(rows) == 9 and len(built) == 1
        argv = ["sweep", "--model", "flip", "--grid", "3", "--empirical-rounds", "60",
                "--empirical-grid", "3", "--seed", "1", "--outdir", str(tmp_path)]
        built.clear()
        for _ in range(2):
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INSUFFICIENT_DATA)
        assert len(built) == 2  # no plan outlives its command

    def test_a_plan_of_another_shape_raises(self):
        base = protocol.ProtocolConfig("mermin", 3, 20, noise=noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1)))
        plan = protocol.EnginePlan(base)
        same_shape = [
            dataclasses.replace(base, seed=4, rounds=7, masking_enabled=False),
            dataclasses.replace(base, noise=noise.NoiseConfig(noise.FlipPrep(0.3, 0.0), noise.LossDetector(0.5))),
            dataclasses.replace(base, noise=None),
        ]
        for config in same_shape:
            assert same_rounds(protocol.run_protocol(config, plan), protocol.run_protocol(config))
        other_shapes = [
            dataclasses.replace(base, noise=noise.NoiseConfig(prep=noise.WhitePrep(0.1))),
            dataclasses.replace(base, num_parties=4),
            dataclasses.replace(base, kind="chsh"),
            dataclasses.replace(base, masking_include_key=False),
            dataclasses.replace(base, eve=EveConfig(2, "Z1", "commuting-measure")),
        ]
        for config in other_shapes:
            with pytest.raises(ValueError, match="shape"):
                protocol.run_protocol(config, plan)

    @pytest.mark.parametrize("name", ["mermin3-white", "mermin5-flip", "chsh4-noiseless", "mermin4-eve", "chsh3-eve"])
    def test_plans_are_read_only(self, name):
        eve = EveConfig(1, "XpZ1", "measure-resend", resend="fresh-reference")
        configs = {**HOP_CONFIGS, "mermin4-eve": protocol.ProtocolConfig("mermin", 4, 1, eve=eve),
                   "chsh3-eve": protocol.ProtocolConfig("chsh", 3, 1, eve=eve)}
        plan = protocol.EnginePlan(configs[name])
        arrays = 0
        for attribute, value in vars(plan).items():
            for leaf in _plan_values(value):
                assert not isinstance(leaf, (list, dict, set)), attribute
                if isinstance(leaf, np.ndarray):
                    arrays += 1
                    assert not leaf.flags.writeable, attribute
                    with pytest.raises(ValueError):
                        leaf.flat[0] = 0
        assert arrays > 3 * plan.num_parties

    def test_the_engine_reads_its_plan_through(self):
        config = HOP_CONFIGS["mermin3-white"]
        plan = protocol.EnginePlan(config)
        engine = protocol._Engine(dataclasses.replace(config, seed=3), plan)
        assert engine.plan is plan
        for name in ("hops", "qudits", "dim", "labels", "projected", "setting_prepared", "mask_plan"):
            assert getattr(engine, name) is getattr(plan, name), name
        assert protocol._Engine(config).plan is not plan
        with pytest.raises(AttributeError):
            engine.no_such_attribute

    @pytest.mark.parametrize("tag", sorted(SHARED_PLAN_NOISE))
    @pytest.mark.parametrize("kind, parties", [("mermin", 3), ("chsh", 4)])
    def test_shared_plan_transcripts_equal_fresh_plans(self, kind, parties, tag):
        configs = [
            protocol.ProtocolConfig(kind, parties, 6000, seed=40 + k, masking_enabled=False,
                                    noise=noise.NoiseConfig(prep=model) if tag in ("flip", "white")
                                    else noise.NoiseConfig(detector=model))
            for k, model in enumerate(SHARED_PLAN_NOISE[tag])
        ]
        plan = protocol.EnginePlan(configs[0])
        for config in configs:
            assert same_rounds(protocol.run_protocol(config, plan), protocol.run_protocol(config)), config.noise


REFERENCE_CONFIGS = {
    **{
        # Eve reads qudit 1 at the last link, in a basis no Mermin party uses
        f"mermin{n}-eve-XpZ1": protocol.ProtocolConfig(
            "mermin", n, 1, eve=EveConfig(n - 1, "XpZ1", "measure-resend", resend="fresh-reference"),
        )
        for n in range(3, 7)
    },
    **{f"chsh{n}": protocol.ProtocolConfig("chsh", n, 1) for n in range(2, 6)},
}


class TestReferenceProjections:
    """The engine's per-run tables against the dense reference state's projections."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_tables_match_dense_projections(self, name):
        config = REFERENCE_CONFIGS[name]
        engine = protocol._Engine(config)
        qudits = engine.qudits
        indexing = qmath.PartyIndexing(qudits)
        reference = dense.reference_state(config.kind, qudits)
        labels = [label for labels in engine.labels for label in labels]
        if config.eve is not None:
            labels.append(config.eve.observable)
        assert {inequality.split_label(label) for label in labels} <= set(engine.projected)
        for (prefix, party), columns in engine.projected.items():
            obs = dense.dichotomic_from_local(inequality.LOCAL_MATRICES[prefix], party, indexing)
            assert columns.shape == (engine.dim, 2)
            assert not columns.flags.writeable
            for column, outcome in zip(columns.T, (1, -1)):
                branch = obs.projector(outcome) @ reference.amplitudes
                assert np.max(np.abs(column - branch / np.linalg.norm(branch))) < 1e-12, (prefix, party, outcome)
        for bob, party_labels in enumerate(engine.labels):
            for pick, label in enumerate(party_labels):
                prefix, party = inequality.split_label(label)
                obs = dense.dichotomic_from_local(inequality.LOCAL_MATRICES[prefix], party, indexing)
                p_plus, _ = dense.branch_probabilities(reference, obs)
                assert engine.setting_p_plus[bob][pick] == pytest.approx(p_plus, abs=1e-12), label
                prepared = engine.setting_prepared[bob][:, 2 * pick:2 * pick + 2]
                assert np.array_equal(prepared, engine.projected[prefix, party])

    def test_basis_table_is_one_read_only_constant(self):
        engines = [protocol._Engine(config) for config in REFERENCE_CONFIGS.values()]
        assert all(engine.basis is protocol._BASIS for engine in engines)
        assert not protocol._BASIS.flags.writeable
        with pytest.raises(ValueError):
            protocol._BASIS[0, 0, 0] = 0.0


class TestMeasurementKernel:
    """The engine's eigenbasis measurement against dense lifted projectors."""

    def test_basis_rows_are_orthonormal_eigenvectors(self):
        engine = protocol._Engine(protocol.ProtocolConfig("mermin", 3, 1))
        for i, (prefix, local) in enumerate(inequality.LOCAL_MATRICES.items()):
            basis = protocol.eigenbasis(local)
            assert np.array_equal(engine.basis[i], basis), prefix
            for row, sign in zip(basis, (1, -1)):
                assert abs(np.vdot(row, row) - 1) < 1e-12
                assert np.max(np.abs(local @ row - sign * row)) < 1e-12
            assert abs(np.vdot(basis[0], basis[1])) < 1e-12

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("parties", [3, 6])
    def test_measure_matches_lifted_projectors(self, parties, masked):
        # P(+1) is pinned by the outcome on either side of the dense value,
        # and each post state by forcing its outcome with u = 0 or u = 1.
        rng = np.random.default_rng(parties + 10 * masked)
        engine = protocol._Engine(protocol.ProtocolConfig("mermin", parties, 1))
        indexing = qmath.PartyIndexing(engine.qudits)
        prefixes = list(inequality.LOCAL_MATRICES)
        rounds = 12
        for party in range(1, parties + 1):
            states = rng.normal(size=(rounds, engine.dim)) + 1j * rng.normal(size=(rounds, engine.dim))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            picked = rng.integers(0, len(prefixes), size=rounds)
            mask = (
                dense._su2_product(("X", "Y", "Z"), rng.uniform(0, 2 * math.pi, size=(rounds, 3)))
                if masked else None
            )
            p_dense, post_dense = [], {+1: [], -1: []}
            for r in range(rounds):
                obs = dense.dichotomic_from_local(
                    inequality.LOCAL_MATRICES[prefixes[picked[r]]], party, indexing
                )
                seen = states[r]
                if mask is not None:
                    seen = qmath.lift_matrix(mask[r], party, indexing) @ seen
                p_dense.append(np.vdot(seen, obs.plus_projector @ seen).real)
                for outcome in (+1, -1):
                    branch = obs.projector(outcome) @ seen
                    post_dense[outcome].append(branch / np.linalg.norm(branch))
            p_dense = np.array(p_dense)

            # the engine's block is (D, rounds), its bases (row, component, round), its bras v†·M
            bases = engine.basis[picked].transpose(1, 2, 0)
            bras = None if mask is None else (engine.basis[picked].conj() @ mask).transpose(1, 2, 0)
            for shift, expected in ((-1e-12, +1), (1e-12, -1)):
                outcome, post = engine._measure(states.T, bases, party, p_dense + shift, bras=bras)
                assert post is None and (outcome == expected).all()
            for u, outcome in ((np.zeros(rounds), +1), (np.ones(rounds), -1)):
                work = states.T.copy()  # collapsed in place, as the block player does
                chosen, _ = engine._measure(work, bases, party, u, out=work, bras=bras)
                assert (chosen == outcome).all()
                assert np.max(np.abs(work.T - np.array(post_dense[outcome]))) < 1e-12


class TestChoose:
    """``_choose``: +1 where u < P(+1), with P(+1) or P(−1) under PROB_FLOOR taken as 0."""

    U = np.array([0.0, 1e-13, 0.25, 0.5, 0.75, 1.0 - 1e-13, 1.0])

    @pytest.mark.parametrize("p_plus", [0.0, 1e-13, 0.5 * qmath.PROB_FLOOR])
    def test_p_under_the_floor_gives_minus_for_every_u(self, p_plus):
        assert (protocol._choose(np.full(self.U.shape, p_plus), self.U) == -1).all()

    @pytest.mark.parametrize("p_plus", [1.0, 1.0 - 0.5 * qmath.PROB_FLOOR])
    def test_p_minus_under_the_floor_gives_plus_for_every_u(self, p_plus):
        assert (protocol._choose(np.full(self.U.shape, p_plus), self.U) == 1).all()

    def test_u_equal_to_p_gives_minus(self):
        p_plus = np.array([0.1, 0.25, 0.5, 0.9])
        assert (protocol._choose(p_plus, p_plus.copy()) == -1).all()
        assert (protocol._choose(p_plus, np.nextafter(p_plus, 0.0)) == 1).all()

    def test_int64_in_the_shape_of_u(self):
        u = np.linspace(0.0, 1.0, 12)
        outcome = protocol._choose(np.full(12, 0.5), u)
        assert outcome.dtype == np.int64 and outcome.shape == u.shape
        assert outcome.tolist() == [1] * 6 + [-1] * 6


class TestFourPartyChsh:
    def test_key_fraction_and_pairs(self):
        config = protocol.ProtocolConfig("chsh", 4, 40_000, seed=93)
        transcript = protocol.run_protocol(config)
        sifting = protocol.sift(transcript)
        expected = 2 / 81
        sigma = math.sqrt(expected * (1 - expected) / config.rounds)
        assert abs(len(sifting.key_rounds) / config.rounds - expected) < 3 * sigma
        for estimate in protocol.chsh_pair_estimates(transcript).values():
            assert abs(estimate.value - 2.0) <= 3 * estimate.standard_error + 1e-9
        assert protocol.extract_key(sifting).agreement_fraction == 1.0


class TestMaskingVariant:
    def test_check_only_generators_still_work(self):
        # Dropping the key observable from the masking generators (the
        # two-generator variant) keeps agreement perfect, the estimate
        # intact, and the key hidden from a commuting interceptor.
        from contextkey.adversary import EveConfig as _Eve
        from contextkey import adversary as _adversary

        eve = _Eve(position=1, observable="Z1", strategy="commuting-measure")
        config = protocol.ProtocolConfig(
            "mermin", 3, 40_000, seed=96, masking_include_key=False, eve=eve
        )
        transcript = protocol.run_protocol(config)
        leak = _adversary.leakage_analysis(transcript)
        key = protocol.extract_key(protocol.sift(transcript))
        assert key.agreement_fraction == 1.0
        assert not leak.detected
        assert leak.eve_key_mutual_information < 0.01


class TestVerdict:
    @staticmethod
    def _estimate(value, counts):
        usable = all(n > 0 for n in counts.values())
        return inequality.InequalityEstimate(
            value if usable else 0.0, 0.01 if usable else math.inf, counts, 2.0, usable=usable
        )

    def test_missing_data_is_not_a_failed_check(self):
        ok = self._estimate(2.8, {"X1X2": 5, "Z1Z2": 5})
        failing = self._estimate(1.0, {"X1X2": 5, "Z1Z2": 5})
        empty = self._estimate(0.0, {"X1X2": 0, "Z1Z2": 3})
        assert protocol.verdict({"pair_1": ok, "pair_2": ok}).violated is True
        assert protocol.verdict({"pair_1": ok, "pair_2": empty}).violated is None
        # a check with data that fails still indicates eavesdropping
        assert protocol.verdict({"pair_1": failing, "pair_2": empty}).violated is False
        assert protocol.verdict({"pair_1": ok, "pair_2": empty}).empty_terms == ["pair_2:X1X2"]
