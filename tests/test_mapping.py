import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from contextkey import qmath
from conftest import ghz_state, singlet_state


class TestIndexing:
    def test_two_qubit_examples(self):
        two = qmath.PartyIndexing(2)
        assert (two.stride(1), two.stride(2)) == (2, 1)
        assert two.total_dim == 4

    def test_three_qubit_example(self):
        three = qmath.PartyIndexing(3)
        assert sum(bit * three.stride(p) for p, bit in zip((1, 2, 3), (1, 0, 1))) == 5

    def test_digit_examples(self):
        def bits(index, indexing):
            return tuple((index // indexing.stride(p)) % 2 for p in range(1, indexing.num_parties + 1))

        assert bits(1, qmath.PartyIndexing(2)) == (0, 1)
        assert bits(0, qmath.PartyIndexing(4)) == (0, 0, 0, 0)
        assert bits(7, qmath.PartyIndexing(3)) == (1, 1, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            qmath.PartyIndexing(2).stride(3)
        with pytest.raises(ValueError):
            qmath.PartyIndexing(0)
        with pytest.raises(ValueError):
            qmath.PartyIndexing(13)  # beyond the size guard

    @given(num_parties=st.integers(1, 6), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, num_parties, data):
        # the bits read through the strides rebuild the index, and are the
        # bits the lifted Z of each party reads on that basis state
        indexing = qmath.PartyIndexing(num_parties)
        index = data.draw(st.integers(0, indexing.total_dim - 1))
        parties = range(1, num_parties + 1)
        bits = [(index // indexing.stride(p)) % 2 for p in parties]
        assert sum(bit * indexing.stride(p) for p, bit in zip(parties, bits)) == index
        for p, bit in zip(parties, bits):
            assert qmath.lift_matrix(qmath.PAULI["Z"], p, indexing)[index, index] == 1 - 2 * bit


class TestLifting:
    def test_x_party1_of_two(self):
        lifted = qmath.lift_matrix(qmath.PAULI["X"], 1, qmath.PartyIndexing(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
        assert np.allclose(lifted, expected)

    def test_z_party2_of_two(self):
        lifted = qmath.lift_matrix(qmath.PAULI["Z"], 2, qmath.PartyIndexing(2))
        assert np.allclose(lifted, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_identity_lifts_to_identity(self):
        for party in (1, 2, 3):
            lifted = qmath.lift_matrix(np.eye(2), party, qmath.PartyIndexing(3))
            assert np.allclose(lifted, np.eye(8))

    def test_lift_observable_wrapper(self):
        lifted = dense.HermitianOperator(qmath.lift_matrix(qmath.PAULI["Y"], 2, qmath.PartyIndexing(3)))
        assert lifted.dim == 8

    def test_lift_matches_kron_oracle(self):
        rng = np.random.default_rng(0)
        indexing = qmath.PartyIndexing(3)
        for party in (1, 2, 3):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            local = (raw + raw.conj().T) / 2
            factors = [np.eye(2)] * 3
            factors[party - 1] = local
            expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
            assert np.max(np.abs(qmath.lift_matrix(local, party, indexing) - expected)) < 1e-12

    def test_distinct_party_lifts_commute(self):
        rng = np.random.default_rng(1)
        indexing = qmath.PartyIndexing(3)
        for _ in range(30):
            pa, pb = rng.choice([1, 2, 3], size=2, replace=False)
            mk = lambda: (lambda raw: (raw + raw.conj().T) / 2)(
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            )
            a = qmath.lift_matrix(mk(), int(pa), indexing)
            b = qmath.lift_matrix(mk(), int(pb), indexing)
            assert qmath.commutator_norm(a, b) < 1e-10


class TestLiftUnitary:
    """Unitary 2×2 blocks lift by the same digit substitution as observables."""

    def test_identity_block(self):
        lifted = qmath.lift_matrix(np.eye(2), 2, qmath.PartyIndexing(3))
        assert np.allclose(lifted, np.eye(8))

    def test_phase_block_party1_of_two(self):
        phi = 0.7
        block = np.diag([1.0, np.exp(1j * phi)])
        lifted = qmath.lift_matrix(block, 1, qmath.PartyIndexing(2))
        assert np.allclose(lifted, np.diag([1.0, 1.0, np.exp(1j * phi), np.exp(1j * phi)]))

    def test_two_party_block_matches_kron(self):
        # a product of single-party unitaries on parties 1 and 2 lifts to
        # the Kronecker product of the blocks, padded on party 3
        rng = np.random.default_rng(2)
        a, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        indexing = qmath.PartyIndexing(3)
        lifted = qmath.lift_matrix(a, 1, indexing) @ qmath.lift_matrix(b, 2, indexing)
        assert np.max(np.abs(lifted - np.kron(np.kron(a, b), np.eye(2)))) < 1e-10
        dense.UnitaryOperator(lifted)

    def test_rejects_non_unitary(self):
        with pytest.raises(qmath.InvariantViolation):
            dense.UnitaryOperator(qmath.lift_matrix(np.ones((2, 2)), 1, qmath.PartyIndexing(2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            qmath.lift_matrix(np.eye(2), 4, qmath.PartyIndexing(3))


class TestPauli:
    def test_z1_of_three_is_block_diagonal(self):
        obs = dense.pauli("Z", 1, qmath.PartyIndexing(3))
        assert np.allclose(obs.operator().matrix, np.diag([1, 1, 1, 1, -1, -1, -1, -1]))

    def test_x1_of_three_pairs_l_and_l_plus_4(self):
        obs = dense.pauli("X", 1, qmath.PartyIndexing(3))
        expected = np.zeros((8, 8))
        for l in range(4):
            expected[l, l + 4] = expected[l + 4, l] = 1.0
        assert np.allclose(obs.operator().matrix, expected)

    def test_y_squares_to_identity(self):
        for party in (1, 2, 3):
            op = dense.pauli("Y", party, qmath.PartyIndexing(3)).operator().matrix
            assert np.max(np.abs(op @ op - np.eye(8))) < 1e-12

    def test_requires_qubits(self):
        with pytest.raises(qmath.DimensionMismatch):
            dense.dichotomic_from_local(np.diag([1.0, -1.0, 1.0]), 1, qmath.PartyIndexing(2))


class TestOracle:
    def test_singlet_xx(self):
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        value = dense.oracle_expectation(psi, [qmath.PAULI["X"], qmath.PAULI["X"]])
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_ghz_yyy(self):
        value = dense.oracle_expectation(
            ghz_state(3), [qmath.PAULI["Y"]] * 3
        )
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_identity_list_gives_norm(self):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        assert dense.oracle_expectation(amps, [np.eye(2)] * 3) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            num_parties = int(rng.integers(1, 4))
            indexing = qmath.PartyIndexing(num_parties)
            amps = rng.normal(size=indexing.total_dim) + 1j * rng.normal(size=indexing.total_dim)
            state = dense.StateVector(amps / np.linalg.norm(amps))
            locals_ = []
            lifted = np.eye(indexing.total_dim, dtype=complex)
            for party in range(1, num_parties + 1):
                raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                local = (raw + raw.conj().T) / 2
                locals_.append(local)
                lifted = lifted @ qmath.lift_matrix(local, party, indexing)
            via_lift = dense.expectation(state, dense.HermitianOperator((lifted + lifted.conj().T) / 2))
            assert abs(via_lift - dense.oracle_expectation(state, locals_)) < 1e-10


class TestContextReproduction:
    """Same observable, different co-measured partner, different statistics."""

    def test_singlet_x2_then_x1_anticorrelated(self):
        indexing = qmath.PartyIndexing(2)
        rng = np.random.default_rng(6)
        for _ in range(50):
            state = singlet_state()
            o2, state = dense.measure_projective(state, dense.pauli("X", 2, indexing), rng)
            o1, _ = dense.measure_projective(state, dense.pauli("X", 1, indexing), rng)
            assert o1 == -o2

    def test_singlet_z2_then_x1_unbiased(self):
        indexing = qmath.PartyIndexing(2)
        rng = np.random.default_rng(7)
        outcomes = []
        for _ in range(4000):
            state = singlet_state()
            _, state = dense.measure_projective(state, dense.pauli("Z", 2, indexing), rng)
            o1, _ = dense.measure_projective(state, dense.pauli("X", 1, indexing), rng)
            outcomes.append(o1)
        frequency = np.mean(np.array(outcomes) == 1)
        sigma = 0.5 / math.sqrt(len(outcomes))
        assert abs(frequency - 0.5) < 3 * sigma

    def test_ghz_y1_then_z_chain(self):
        # After a Y1 measurement the Z2 outcome is unbiased but Z3 tracks Z2.
        indexing = qmath.PartyIndexing(3)
        rng = np.random.default_rng(8)
        z2_outcomes = []
        for _ in range(4000):
            state = ghz_state(3)
            _, state = dense.measure_projective(state, dense.pauli("Y", 1, indexing), rng)
            o2, state = dense.measure_projective(state, dense.pauli("Z", 2, indexing), rng)
            o3, _ = dense.measure_projective(state, dense.pauli("Z", 3, indexing), rng)
            assert o3 == o2
            z2_outcomes.append(o2)
        frequency = np.mean(np.array(z2_outcomes) == 1)
        assert abs(frequency - 0.5) < 3 * (0.5 / math.sqrt(len(z2_outcomes)))
