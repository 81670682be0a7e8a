import math

import numpy as np
import pytest

import dense
from contextkey import inequality, noise, protocol, qmath
from contextkey.adversary import EveConfig
from conftest import ghz_state, singlet_state


class TestMerminSpec:
    def test_three_party_terms(self):
        spec = inequality.mermin_spec(3)
        terms = {labels: coeff for coeff, labels in spec.terms}
        assert terms == {
            ("Y1", "X2", "X3"): 1.0,
            ("X1", "Y2", "X3"): 1.0,
            ("X1", "X2", "Y3"): 1.0,
            ("Y1", "Y2", "Y3"): -1.0,
        }
        assert spec.classical_bound == 2.0

    def test_two_party_terms(self):
        spec = inequality.mermin_spec(2)
        assert {labels for _, labels in spec.terms} == {("X1", "Y2"), ("Y1", "X2")}
        assert spec.classical_bound == 2.0

    def test_four_party_size_and_bound(self):
        spec = inequality.mermin_spec(4)
        assert len(spec.terms) == 8
        assert spec.classical_bound == 4.0
        bounds = [inequality.mermin_spec(n).classical_bound for n in (2, 3, 4, 5)]
        assert bounds == [2.0, 2.0, 4.0, 4.0]

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            inequality.mermin_spec(1)

    @pytest.mark.parametrize("num_parties", [2, 3, 4])
    def test_expansion_matches_direct_operator(self, num_parties):
        indexing = qmath.PartyIndexing(num_parties)
        assembled = dense.assemble_operator(inequality.mermin_spec(num_parties), indexing)
        direct = dense.mermin_operator_direct(num_parties)
        assert np.max(np.abs(assembled - direct)) < 1e-10


class TestMerminValue:
    @pytest.mark.parametrize("num_parties", [2, 3, 4, 5])
    def test_reference_state_value(self, num_parties):
        value = dense.mermin_value(ghz_state(num_parties))
        assert value == pytest.approx(2.0 ** (num_parties - 1), abs=1e-10)

    @pytest.mark.parametrize("num_parties", [2, 3])
    def test_reference_value_confirmed_by_tensor_oracle(self, num_parties):
        spec = inequality.mermin_spec(num_parties)
        total = 0.0
        for coeff, labels in spec.terms:
            locals_ = [qmath.PAULI[inequality.split_label(lab)[0]] for lab in labels]
            total += coeff * dense.oracle_expectation(ghz_state(num_parties), locals_)
        assert abs(total) == pytest.approx(2.0 ** (num_parties - 1), abs=1e-10)

    def test_computational_basis_state_gives_zero(self):
        assert dense.mermin_value(dense.StateVector.basis(8, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        # the value on the maximally mixed state 1/8 is |trace(M)| / 8
        operator = dense.assemble_operator(inequality.mermin_spec(3), qmath.PartyIndexing(3))
        assert abs(np.trace(operator)) / 8 == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(qmath.DimensionMismatch):
            dense.mermin_value(ghz_state(3), inequality.mermin_spec(4))


class TestChshValue:
    def test_singlet_violates(self):
        value = dense.chsh_value(singlet_state())
        assert value == pytest.approx(2.0, abs=1e-10)
        assert value > math.sqrt(2)

    def test_basis_state(self):
        assert dense.chsh_value(dense.StateVector.basis(4, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        operator = dense.assemble_operator(dense.chsh_spec(), qmath.PartyIndexing(2))
        assert abs(np.trace(operator)) / 4 == pytest.approx(0.0, abs=1e-12)

    def test_requires_dimension_four(self):
        with pytest.raises(qmath.DimensionMismatch):
            dense.chsh_value(ghz_state(3))

    def test_quantum_bound_over_random_states(self):
        # The operator X1X2 + Z1Z2 has norm 2, so no state exceeds 2.
        indexing = qmath.PartyIndexing(2)
        operator = dense.assemble_operator(dense.chsh_spec(), indexing)
        eigenvalues = np.linalg.eigvalsh(operator)
        assert np.max(np.abs(eigenvalues)) == pytest.approx(2.0, abs=1e-12)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = dense.StateVector(amps / np.linalg.norm(amps))
            assert dense.chsh_value(state) <= 2.0 + 1e-10


def synthetic_transcript(products_by_term, spec):
    """A transcript of check rounds whose per-term products follow given streams."""
    settings = protocol.party_labels("mermin", len(spec.parties))
    picks, outcomes = [], []
    for (_, labels), products in zip(spec.terms, products_by_term):
        picks.append(np.tile([labs.index(label) for labs, label in zip(settings, labels)], (len(products), 1)))
        block = np.ones((len(products), len(labels)))
        block[:, 0] = products
        outcomes.append(block)
    picks, outcomes = np.concatenate(picks), np.concatenate(outcomes)
    config = protocol.ProtocolConfig("mermin", len(spec.parties), len(picks))
    return protocol.Transcript(config, picks, outcomes, np.zeros(len(picks)))


class TestEstimator:
    def test_fair_coin_transcript_estimates_zero(self):
        spec = inequality.mermin_spec(3)
        rng = np.random.default_rng(10)
        products = [rng.choice([-1, 1], size=5000) for _ in spec.terms]
        estimate = inequality.estimate_from_transcript(synthetic_transcript(products, spec), spec)
        assert estimate.usable
        assert estimate.value < 4 * estimate.standard_error + 0.05
        assert not estimate.violated

    def test_consistency_at_one_million_rounds(self):
        # Biased coins with known means: the estimate converges to the
        # exact combination within four standard errors.
        spec = inequality.mermin_spec(3)
        rng = np.random.default_rng(11)
        p_plus = [0.9, 0.8, 0.7, 0.6]
        products = [
            np.where(rng.random(size=250_000) < p, 1, -1) for p in p_plus
        ]
        estimate = inequality.estimate_from_transcript(synthetic_transcript(products, spec), spec)
        exact = abs(sum(c * (2 * p - 1) for (c, _), p in zip(spec.terms, p_plus)))
        assert estimate.usable
        assert abs(estimate.value - exact) < 4 * estimate.standard_error

    def test_zero_sample_term_marks_unusable(self):
        spec = inequality.mermin_spec(3)
        rng = np.random.default_rng(12)
        products = [rng.choice([-1, 1], size=10) for _ in spec.terms]
        products[2] = np.array([])  # no rounds for the X1 X2 Y3 term
        estimate = inequality.estimate_from_transcript(synthetic_transcript(products, spec), spec)
        assert not estimate.usable
        assert not estimate.violated
        assert estimate.samples_per_term["X1X2Y3"] == 0

    def test_noiseless_simulation_estimate(self, mermin3_run):
        estimate = protocol.mermin_check_estimate(mermin3_run)
        assert estimate.usable
        assert abs(estimate.value - 4.0) < 0.05
        assert estimate.violated

    def test_erased_outcomes_are_skipped(self):
        spec = inequality.mermin_spec(3)
        transcript = synthetic_transcript([[1, 1]] + [[]] * 3, spec)  # two Y1 X2 X3 rounds
        transcript.outcomes[0, 1] = 0  # erased
        estimate = inequality.estimate_from_transcript(transcript, spec)
        assert estimate.samples_per_term["Y1X2X3"] == 1


def loop_estimate(transcript, spec) -> inequality.InequalityEstimate:
    """The per-round loop the columnar estimator replaced, kept as its reference."""
    kind, n = transcript.config.kind, transcript.config.num_parties
    settings = protocol.party_labels(kind, n)
    term_index = {labels: i for i, (_, labels) in enumerate(spec.terms)}
    sums, counts = [0.0] * len(spec.terms), [0] * len(spec.terms)
    for picks, outcomes in zip(transcript.picks.tolist(), transcript.outcomes.tolist()):
        labels = [labs[p] for labs, p in zip(settings, picks)]
        prefixes = {inequality.split_label(label)[0] for label in labels}
        if kind == "mermin":
            revealed = prefixes <= {"X", "Y"}
        else:
            revealed = prefixes not in ({"Z"}, {"XpZ"})
        i = term_index.get(tuple(labels[p - 1] for p in spec.parties))
        if revealed and i is not None and all(outcomes[p - 1] for p in spec.parties):
            sums[i] += math.prod(outcomes[p - 1] for p in spec.parties)
            counts[i] += 1
    samples = {"".join(labels): counts[i] for i, (_, labels) in enumerate(spec.terms)}
    if not all(counts):
        return inequality.InequalityEstimate(0.0, math.inf, samples, spec.classical_bound, usable=False)
    means = np.array(sums) / counts
    coeffs = np.array([coeff for coeff, _ in spec.terms])
    value = abs(float(np.dot(coeffs, means)))
    stderr = float(np.sqrt(np.sum(coeffs**2 * np.clip(1.0 - means**2, 0.0, None) / counts)))
    return inequality.InequalityEstimate(value, stderr, samples, spec.classical_bound, usable=True)


LOSSY = noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.2), detector=noise.LossDetector(0.7))


class TestEstimatorMatchesLoop:
    @pytest.mark.parametrize("config", [
        protocol.ProtocolConfig("mermin", 4, 20_000, seed=61, noise=LOSSY),
        protocol.ProtocolConfig("chsh", 5, 20_000, seed=62, noise=LOSSY, eve=EveConfig(2, "Z1", "noncommuting-measure")),
    ], ids=["mermin4-lossy", "chsh5-lossy-eve"])
    def test_equal_to_per_round_loop(self, config):
        transcript = protocol.run_protocol(config)
        if config.kind == "mermin":
            specs = [inequality.mermin_spec(config.num_parties)]
        else:
            specs = [inequality.chsh_pair_spec(k, k % 2 == 1) for k in range(1, config.num_parties)]
        for spec in specs:
            assert inequality.estimate_from_transcript(transcript, spec) == loop_estimate(transcript, spec)


class TestDecisionRule:
    def test_violated_needs_three_sigma(self):
        base = dict(samples_per_term={}, classical_bound=2.0, usable=True)
        assert inequality.InequalityEstimate(value=2.31, standard_error=0.1, **base).violated
        assert not inequality.InequalityEstimate(value=2.29, standard_error=0.1, **base).violated
        unusable = inequality.InequalityEstimate(
            value=4.0, standard_error=math.inf, samples_per_term={}, classical_bound=2.0, usable=False
        )
        assert not unusable.violated

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            inequality.InequalitySpec("mermin", (1, 1), 2.0, ((1.0, ("X1", "X1")),))
        with pytest.raises(ValueError):
            inequality.InequalitySpec("mermin", (1, 2), 2.0, ((1.0, ("X1",)),))


class TestChshPairSpec:
    def test_bound_and_coefficients(self):
        spec = inequality.chsh_pair_spec(1, first_party_odd=True)
        assert spec.classical_bound == pytest.approx(math.sqrt(2))
        assert sorted(labels for _, labels in spec.terms) == [
            ("X1", "XpZ2"),
            ("X1", "ZmX2"),
            ("Z1", "XpZ2"),
            ("Z1", "ZmX2"),
        ]
        coeffs = {labels: c for c, labels in spec.terms}
        assert coeffs[("X1", "ZmX2")] == pytest.approx(-1 / math.sqrt(2))

    def test_even_first_party_swaps_label_order(self):
        spec = inequality.chsh_pair_spec(2, first_party_odd=False)
        assert all(labels[0].endswith("2") and labels[1].endswith("1") for _, labels in spec.terms)

    def test_exact_pair_value_on_singlet(self):
        # The four-combination reconstruction equals the two-term form.
        spec = inequality.chsh_pair_spec(1, first_party_odd=True)
        value = dense.evaluate_exact(singlet_state(), spec, qmath.PartyIndexing(2))
        assert value == pytest.approx(2.0, abs=1e-10)
