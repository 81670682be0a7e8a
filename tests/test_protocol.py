import math

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
        # The verified masking is the executed one: fed the engine's angles,
        # masking_unitary of every mask sent by a link, in sender order, is
        # the product of the engine's per-qudit masks at that link, lifted.
        config = protocol.ProtocolConfig(kind, parties, 3, seed=8, masking_include_key=include_key)
        engine = protocol._Engine(config)
        dim = engine.dim
        angles = engine._draw(config.rounds).angles
        for round_id in range(config.rounds):
            for link in engine.mask_plan:
                senders = range(1, link + 1) if kind == "mermin" else (link,)
                hops = [hop for sender in senders for hop in engine.mask_plan[sender]]
                labels = tuple(f"{axis}{party}" for party, _ in hops for axis in engine.mask_axes)
                row = np.concatenate([angles[round_id, chunk] for _, chunk in hops])
                spec = dense.MaskingSpec(engine.indexing.num_parties, labels)
                u = dense.masking_unitary(link, spec, _RowRng(row), engine.indexing)
                executed = np.eye(dim, dtype=complex)
                for party in range(1, engine.indexing.num_parties + 1):
                    # the identity's rows, masked: M itself, or the identity where nothing masked
                    identity = np.eye(2, dtype=complex)[:, :, None]
                    mask = engine._mask(identity, angles[round_id : round_id + 1], link, party)
                    executed = qmath.lift_matrix(mask[:, :, 0], party, engine.indexing) @ executed
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
        for name, ket in directions.items():
            total = 0.0
            n = 20_000
            for _ in range(n):
                u = dense._su2_product(("X", "Y", "Z"), rng.uniform(0, 2 * math.pi, 3))
                rotated = u @ ket
                total += (np.conj(rotated) @ inequality.LOCAL_MATRICES[name] @ rotated).real
            assert abs(total / n) < 4 / math.sqrt(n) + 0.02


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


class TestSingleRoundOps:
    """A round is the same whatever block it falls in."""

    def test_run_mermin_round(self, monkeypatch):
        config = protocol.ProtocolConfig("mermin", 3, 5, seed=91)
        whole = protocol.run_protocol(config)
        monkeypatch.setattr(protocol, "AMPLITUDE_BUDGET", config.dim)  # one round a block
        monkeypatch.setattr(protocol, "MIN_BLOCK_ROUNDS", 1)
        blocked = protocol.run_protocol(config)
        assert blocked.picks.shape[1] == 3
        assert same_rounds(blocked, whole, 2)

    def test_run_chsh_round(self, monkeypatch):
        config = protocol.ProtocolConfig("chsh", 4, 5, seed=92)
        whole = protocol.run_protocol(config)
        monkeypatch.setattr(protocol, "AMPLITUDE_BUDGET", config.dim)
        monkeypatch.setattr(protocol, "MIN_BLOCK_ROUNDS", 1)
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
    # D=2048: the default blocks hold MIN_BLOCK_ROUNDS rounds, more than the budget's 4
    "mermin11-masked-commuting-z1": protocol.ProtocolConfig(
        "mermin", 11, seam_rounds(2048), seed=100, eve=EveConfig(3, "Z1", "commuting-measure"),
    ),
}


class TestBlockSeams:
    """Where the block boundaries fall never changes a transcript byte."""

    @pytest.mark.parametrize("rounds_per_block", [1, 7])
    @pytest.mark.parametrize("name", list(SEAM_CONFIGS))
    def test_block_size_invariance(self, name, rounds_per_block, tmp_path, monkeypatch):
        config = SEAM_CONFIGS[name]
        default_block = max(protocol.MIN_BLOCK_ROUNDS, protocol.AMPLITUDE_BUDGET // config.dim)
        assert config.rounds > default_block  # crosses a default seam
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "default.jsonl")
        monkeypatch.setattr(protocol, "AMPLITUDE_BUDGET", rounds_per_block * config.dim)
        monkeypatch.setattr(protocol, "MIN_BLOCK_ROUNDS", 1)
        cli.write_transcript(protocol.run_protocol(config), tmp_path / "seams.jsonl")
        assert (tmp_path / "seams.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()

    def test_configs_reach_eve_and_erasures(self):
        for config in SEAM_CONFIGS.values():
            assert (protocol.run_protocol(config).eve_outcomes != 0).any()
        half = protocol.run_protocol(SEAM_CONFIGS["mermin5-model2-commuting-half"])
        assert (half.eve_outcomes == 0).any()  # rounds she skips
        assert (half.outcomes == 0).any()  # erasures


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
                    inequality.LOCAL_MATRICES[prefixes[picked[r]]], party, engine.indexing
                )
                seen = states[r]
                if mask is not None:
                    seen = qmath.lift_matrix(mask[r], party, engine.indexing) @ seen
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
        assert protocol.all_checks_violated({"pair_1": ok, "pair_2": ok}) is True
        assert protocol.all_checks_violated({"pair_1": ok, "pair_2": empty}) is None
        # a check with data that fails still indicates eavesdropping
        assert protocol.all_checks_violated({"pair_1": failing, "pair_2": empty}) is False
        assert protocol.insufficient_terms({"pair_1": ok, "pair_2": empty}) == ["pair_2:X1X2"]
