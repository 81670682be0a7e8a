import math
import time

import numpy as np
import pytest

import dense
from contextkey import adversary, inequality, protocol, qmath
from contextkey.adversary import EveConfig
from conftest import pair_mutual_information


class TestEveConfigValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            EveConfig(position=1, observable="Z1", strategy="entangling")

    def test_rejects_bad_activity(self):
        with pytest.raises(ValueError):
            EveConfig(position=1, observable="Z1", activity_rate=1.5)

    def test_requires_observable(self):
        with pytest.raises(ValueError):
            EveConfig(position=1)

    def test_commuting_claim_is_checked(self):
        # X3 touches the third party's settings, so the commuting strategy
        # must be rejected on a link before that party.
        eve = EveConfig(position=2, observable="X3", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 10, eve=eve)
        with pytest.raises(qmath.InvariantViolation):
            protocol.run_protocol(config)

    @pytest.mark.parametrize("kind,label,qudits", [("mermin", "Z4", 3), ("chsh", "Z3", 2)])
    def test_observable_off_the_state_is_rejected(self, kind, label, qudits):
        # a CHSH state holds the pair's two qudits, whatever N is
        config = protocol.ProtocolConfig(kind, 3, 10, eve=EveConfig(position=1, observable=label))
        with pytest.raises(ValueError, match=rf"^party {label[1]} out of range 1\.\.{qudits}$"):
            protocol.check_eve(config)

    def test_commuting_earlier_party_accepted(self):
        eve = EveConfig(position=2, observable="X1", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 10, seed=1, eve=eve)
        protocol.run_protocol(config)

    def test_commutation_check_at_twelve_parties_is_fast(self):
        # Lifting to 4096×4096 took minutes; the check needs only 2×2 matrices.
        eve = EveConfig(position=2, observable="Z1", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 12, 10, eve=eve)
        started = time.perf_counter()
        protocol.check_eve(config)
        assert time.perf_counter() - started < 1.0

    def test_noncommuting_claim_rejected_at_twelve_parties(self):
        eve = EveConfig(position=2, observable="X3", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 12, 10, eve=eve)
        with pytest.raises(qmath.InvariantViolation):
            protocol.check_eve(config)

    @pytest.mark.parametrize("kind", ["mermin", "chsh"])
    def test_commutation_decisions_match_lifted_matrices(self, kind):
        config = protocol.ProtocolConfig(kind, 4, 10)
        indexing = qmath.PartyIndexing(protocol._Engine(config).plan.qudits)
        labels = {label for labs in protocol.party_labels(kind, 4) for label in labs}

        def lifted(label):
            prefix, party = inequality.split_label(label)
            return qmath.lift_matrix(inequality.LOCAL_MATRICES[prefix], party, indexing)

        for link in range(1, 4):
            for label in sorted(labels):
                eve = EveConfig(position=link, observable=label, strategy="commuting-measure")
                commutes = all(
                    qmath.commutator_norm(lifted(label), lifted(later)) <= 1e-10
                    for later in protocol._future_labels(config, link)
                )
                config_eve = protocol.ProtocolConfig(kind, 4, 10, eve=eve)
                if commutes:
                    protocol.check_eve(config_eve)
                else:
                    with pytest.raises(qmath.InvariantViolation):
                        protocol.check_eve(config_eve)


def _eve_engine(eve: EveConfig, rounds: int = 12) -> protocol._Engine:
    """The round engine of a three-party mermin run with the given eavesdropper.

    Masking is off, so Eve's step measures exactly the states it is given
    (the oracle checks her step on masked states).
    """
    config = protocol.ProtocolConfig("mermin", 3, rounds, seed=7, masking_enabled=False, eve=eve)
    return protocol._Engine(config)


def _basis(index: int, rounds: int = 1) -> np.ndarray:
    """A (D, rounds) block, as the engine holds one, of ``rounds`` copies of one basis state."""
    return np.repeat(dense.StateVector.basis(8, index).amplitudes[:, None], rounds, axis=1)


class TestEveIntercept:
    """The engine's batched Eve step on fixed transiting states."""

    def test_x1_interception_fixture(self):
        # |0⟩ of three qubit-parties: X1 gives ±1 evenly, the post state is
        # (|0⟩ ± |4⟩)/√2, and the third party's Z outcome stays +1.
        indexing = qmath.PartyIndexing(3)
        engine = _eve_engine(EveConfig(position=2, observable="X1", strategy="commuting-measure"))
        posts, outcomes = engine._eve_hook(_basis(0, 12), engine._draw(12))
        seen = set()
        for post, outcome in zip(posts.T, outcomes.tolist()):
            seen.add(outcome)
            expected = np.zeros(8, dtype=complex)
            expected[0], expected[4] = 1 / math.sqrt(2), outcome / math.sqrt(2)
            assert np.max(np.abs(post - expected)) < 1e-10
            z3_plus, _ = dense.branch_probabilities(dense.StateVector(post), dense.pauli("Z", 3, indexing))
            assert z3_plus == pytest.approx(1.0, abs=1e-12)
        assert seen == {1, -1}

    def test_z1_interception_reads_key_without_disturbance(self):
        engine = _eve_engine(EveConfig(position=1, observable="Z1", strategy="commuting-measure"))
        post, outcome = engine._eve_hook(_basis(0), engine._draw(1))
        assert outcome.tolist() == [+1]
        assert np.allclose(post, _basis(0))

    def test_x3_interception_randomizes_downstream_key(self):
        indexing = qmath.PartyIndexing(3)
        engine = _eve_engine(EveConfig(position=2, observable="X3", strategy="noncommuting-measure"))
        post, _ = engine._eve_hook(_basis(0), engine._draw(1))
        z3_plus, z3_minus = dense.branch_probabilities(dense.StateVector(post[:, 0]), dense.pauli("Z", 3, indexing))
        assert z3_plus == pytest.approx(0.5, abs=1e-12)
        assert z3_minus == pytest.approx(0.5, abs=1e-12)

    def test_inactive_rounds_pass_through(self):
        engine = _eve_engine(EveConfig(position=1, observable="Z1", activity_rate=0.0))
        state = _basis(3, 12)
        post, outcome = engine._eve_hook(state, engine._draw(12))
        assert outcome is None
        assert post is state


@pytest.fixture(scope="module")
def unmasked_attack():
    eve = EveConfig(position=1, observable="Z1", strategy="commuting-measure")
    config = protocol.ProtocolConfig("mermin", 3, 60_000, seed=21, masking_enabled=False, eve=eve)
    return adversary.leakage_analysis(protocol.run_protocol(config))


@pytest.fixture(scope="module")
def masked_attack():
    eve = EveConfig(position=1, observable="Z1", strategy="commuting-measure")
    config = protocol.ProtocolConfig("mermin", 3, 60_000, seed=22, masking_enabled=True, eve=eve)
    return adversary.leakage_analysis(protocol.run_protocol(config))


class TestLeakage:
    def test_commuting_attack_is_invisible(self, unmasked_attack, masked_attack):
        for report in (unmasked_attack, masked_attack):
            assert not report.detected
            estimate = report.observed["mermin"]
            assert abs(estimate.value - 4.0) <= 3 * estimate.standard_error + 1e-9

    def test_unmasked_leak_is_total(self, unmasked_attack):
        assert unmasked_attack.sufficient_data
        assert unmasked_attack.eve_key_mutual_information > 0.99

    def test_masking_denies_the_key(self, masked_attack):
        assert masked_attack.eve_key_mutual_information < 0.01

    def test_noncommuting_attack_detected(self):
        eve = EveConfig(position=2, observable="X3", strategy="noncommuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 60_000, seed=23, eve=eve)
        report = adversary.leakage_analysis(protocol.run_protocol(config))
        estimate = report.observed["mermin"]
        assert report.detected
        assert abs(estimate.value - 2.0) <= 3 * estimate.standard_error + 1e-9
        assert not estimate.violated

    def test_inactive_eve_insufficient_data(self):
        eve = EveConfig(position=1, observable="Z1", activity_rate=0.0)
        config = protocol.ProtocolConfig("mermin", 3, 5_000, seed=24, eve=eve)
        report = adversary.leakage_analysis(protocol.run_protocol(config))
        assert not report.sufficient_data
        assert report.eve_key_mutual_information is None
        assert not report.detected

    def test_partial_activity_attacks_a_fraction(self):
        eve = EveConfig(position=1, observable="Z1", strategy="commuting-measure", activity_rate=0.3)
        config = protocol.ProtocolConfig("mermin", 3, 30_000, seed=25, masking_enabled=False, eve=eve)
        transcript = protocol.run_protocol(config)
        attacked = int((transcript.eve_outcomes != 0).sum())
        sigma = math.sqrt(0.3 * 0.7 * config.rounds)
        assert abs(attacked - 0.3 * config.rounds) < 4 * sigma


class TestSubProtocolSecrecyGap:
    def test_downstream_parties_cannot_certify_alone(self):
        # Eve reads a later party's key observable on an early link: the
        # downstream parties' key stays internally perfect and she holds
        # all of it, while the full-chain check collapses.
        eve = EveConfig(position=1, observable="Z2", strategy="noncommuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 60_000, seed=26, eve=eve)
        transcript = protocol.run_protocol(config)
        sifting = protocol.sift(transcript)
        eve = transcript.eve_outcomes[sifting.key_rounds]
        assert (eve != 0).all()
        bits = sifting.key_bits
        assert pair_mutual_information(zip((1 - eve) // 2, bits[1])) > 0.99
        assert (bits[1] == bits[2]).all()
        report = adversary.leakage_analysis(transcript)
        assert report.detected  # the full-party check does catch her


class TestMaskingEfficacy:
    """Ensemble masking defeats every commuting single-setting strategy.

    Measured on the key-round channel directly: prepared key state,
    masking rotations of the sending party, then Eve's measurement of
    any observable on the masked party's factor.
    """

    @pytest.mark.parametrize(
        "kind,basis_states,party,eve_prefix",
        [
            ("mermin", (0, 7), 1, "Z"),
            ("mermin", (0, 7), 1, "X"),
            ("mermin", (0, 7), 1, "Y"),
            ("chsh", (1, 2), 1, "Z"),
            ("chsh", (1, 2), 1, "XpZ"),
            ("chsh", (1, 2), 2, "Z"),
            ("chsh", (1, 2), 2, "XpZ"),
        ],
    )
    def test_key_round_channel_mutual_information(self, kind, basis_states, party, eve_prefix):
        from contextkey.inequality import LOCAL_MATRICES

        dim = 8 if kind == "mermin" else 4
        pre = 2 ** (party - 1)
        post = dim // 2**party
        plus_local = (np.eye(2) + LOCAL_MATRICES[eve_prefix]) / 2
        rng = np.random.default_rng(27)
        bits = rng.random(40_000) < 0.5
        born = rng.random(40_000)
        # one row of three angles per draw, the doubles in the order of one draw at a time
        su2 = dense._su2_product(("X", "Y", "Z"), rng.uniform(0, 2 * math.pi, size=(40_000, 3)))
        states = np.zeros((40_000, dim), dtype=complex)
        states[np.arange(40_000), np.array(basis_states)[bits.astype(int)]] = 1.0
        s3 = states.reshape(-1, pre, 2, post)
        masked = np.einsum("nab,npbq->npaq", su2, s3)
        branch = np.einsum("ab,npbq->npaq", plus_local, masked)
        p_plus = np.einsum("npaq,npaq->n", branch.conj(), branch).real
        outcome = np.where(born < p_plus, 1, -1)
        assert pair_mutual_information(zip(bits.astype(int), (1 - outcome) // 2)) < 0.01


class TestLocalization:
    def _estimate(self, value, stderr=0.01, usable=True):
        from contextkey.inequality import InequalityEstimate

        return InequalityEstimate(
            value=value,
            standard_error=stderr if usable else math.inf,
            samples_per_term={},
            classical_bound=math.sqrt(2),
            usable=usable,
        )

    def test_all_passing_gives_empty_set(self):
        estimates = {k: self._estimate(2.0) for k in (1, 2, 3)}
        assert adversary.localize_eve(estimates) == frozenset()

    def test_single_failure_located(self):
        estimates = {1: self._estimate(2.0), 2: self._estimate(1.0), 3: self._estimate(2.0)}
        assert adversary.localize_eve(estimates) == frozenset({2})

    def test_overlapping_failures_all_returned(self):
        estimates = {1: self._estimate(1.0), 2: self._estimate(1.0), 3: self._estimate(2.0)}
        assert adversary.localize_eve(estimates) == frozenset({1, 2})

    def test_unusable_estimates_raise(self):
        estimates = {1: self._estimate(2.0), 2: self._estimate(0.0, usable=False)}
        with pytest.raises(adversary.InsufficientCheckData):
            adversary.localize_eve(estimates)

    def test_four_party_chain_attack(self):
        eve = EveConfig(position=2, observable="Z1", strategy="noncommuting-measure")
        config = protocol.ProtocolConfig("chsh", 4, 60_000, seed=28, eve=eve)
        transcript = protocol.run_protocol(config)
        estimates = protocol.chsh_pair_estimates(transcript)
        assert abs(estimates[1].value - 2.0) <= 3 * estimates[1].standard_error + 1e-9
        assert abs(estimates[2].value - 1.0) <= 3 * estimates[2].standard_error + 1e-9
        assert abs(estimates[3].value - 2.0) <= 3 * estimates[3].standard_error + 1e-9
        assert adversary.localize_eve(estimates) == frozenset({2})


class TestMeasureResend:
    def test_fresh_reference_resend(self):
        engine = _eve_engine(
            EveConfig(position=2, observable="Z1", strategy="measure-resend", resend="fresh-reference")
        )
        post, outcome = engine._eve_hook(_basis(1), engine._draw(1))
        assert outcome.tolist() == [+1]
        # she forwards the reference's projection, (|0⟩ + i|7⟩)/√2 → |0⟩,
        # not the measured |1⟩
        assert np.allclose(post, _basis(0))

    def test_engine_accepts_measure_resend(self):
        eve = EveConfig(position=1, observable="X1", strategy="measure-resend", resend="fresh-reference")
        config = protocol.ProtocolConfig("mermin", 3, 2000, seed=95, eve=eve)
        transcript = protocol.run_protocol(config)
        assert (transcript.eve_outcomes != 0).any()
