import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from contextkey import qmath
from contextkey.qmath import PAULI, PartyIndexing, lift_matrix
from dense import dichotomic_from_local, pauli
from conftest import ghz_state, singlet_state


def lifted_pauli_op(axis, party, num_parties):
    return dense.HermitianOperator(lift_matrix(PAULI[axis], party, PartyIndexing(num_parties)))


class TestStateTypes:
    def test_state_vector_normalization_enforced(self):
        with pytest.raises(qmath.InvariantViolation):
            dense.StateVector(np.array([1.0, 1.0]))

    def test_unitary_invariant(self):
        with pytest.raises(qmath.InvariantViolation):
            dense.UnitaryOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_dichotomic_projector_invariants(self):
        eye = np.eye(2)
        with pytest.raises(qmath.InvariantViolation):
            dense.DichotomicObservable(eye, eye)  # no resolution of identity
        obs = dichotomic_from_local(PAULI["Z"], 1, PartyIndexing(1), label="Z")
        assert np.allclose(obs.operator().matrix, PAULI["Z"])
        with pytest.raises(qmath.InvariantViolation):
            dichotomic_from_local(np.diag([1.0, 2.0]), 1, PartyIndexing(1))


class TestMeasureProjective:
    def test_eigenstate_is_deterministic(self):
        state = dense.StateVector.basis(4, 0)
        obs = pauli("Z", 1, PartyIndexing(2))
        for seed in range(5):
            outcome, post = dense.measure_projective(state, obs, np.random.default_rng(seed))
            assert outcome == +1
            assert np.allclose(post.amplitudes, state.amplitudes)

    def test_singlet_z_branches(self):
        state = singlet_state()
        obs = pauli("Z", 1, PartyIndexing(2))
        p_plus, p_minus = dense.branch_probabilities(state, obs)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        # post states are |1⟩ and −|2⟩ up to a global phase
        plus_branch = obs.plus_projector @ state.amplitudes / math.sqrt(p_plus)
        minus_branch = obs.minus_projector @ state.amplitudes / math.sqrt(p_minus)
        assert abs(abs(plus_branch[1]) - 1.0) < 1e-12
        assert abs(abs(minus_branch[2]) - 1.0) < 1e-12

    def test_ghz_z_chain_conditioning(self):
        # After the first Z outcome, later Z measurements are deterministic.
        indexing = PartyIndexing(3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = ghz_state(3)
            first, state = dense.measure_projective(state, pauli("Z", 1, indexing), rng)
            for party in (2, 3):
                outcome, state = dense.measure_projective(state, pauli("Z", party, indexing), rng)
                assert outcome == first

    def test_dimension_mismatch(self):
        with pytest.raises(qmath.DimensionMismatch):
            dense.measure_projective(
                dense.StateVector.basis(8, 0), pauli("Z", 1, PartyIndexing(2)), np.random.default_rng(0)
            )

    def test_vanishing_branches_rejected(self):
        with pytest.raises(qmath.InvariantViolation):
            dense._sample_branch(1e-13, 1e-13, np.random.default_rng(0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_post_state_is_eigenvector(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = dense.StateVector(amps / np.linalg.norm(amps))
        axis = "XYZ"[seed % 3]
        party = 1 + seed % 3
        obs = pauli(axis, party, PartyIndexing(3))
        p_plus, p_minus = dense.branch_probabilities(state, obs)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)
        outcome, post = dense.measure_projective(state, obs, rng)
        op = obs.operator().matrix
        assert np.max(np.abs(op @ post.amplitudes - outcome * post.amplitudes)) < 1e-10


class TestExpectation:
    def test_singlet_xx(self):
        op = lifted_pauli_op("X", 1, 2).matrix @ lifted_pauli_op("X", 2, 2).matrix
        value = dense.expectation(singlet_state(), dense.HermitianOperator(op))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_basis_state_z(self):
        assert dense.expectation(dense.StateVector.basis(4, 0), lifted_pauli_op("Z", 1, 2)) == pytest.approx(1.0)

    def test_ghz_zz(self):
        op = lifted_pauli_op("Z", 1, 3).matrix @ lifted_pauli_op("Z", 2, 3).matrix
        assert dense.expectation(ghz_state(3), dense.HermitianOperator(op)) == pytest.approx(1.0, abs=1e-12)

    def test_imaginary_residue_rejected(self):
        # A blatantly non-Hermitian matrix sneaks past the wrapper when raw.
        raw = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        state = dense.StateVector(np.array([1.0, 1j]) / math.sqrt(2))
        with pytest.raises(qmath.InvariantViolation):
            dense.expectation(state, raw)


class _Angles:
    """Hands out fixed rotation angles in place of uniform draws."""

    def __init__(self, *angles):
        self.angles = iter(angles)

    def uniform(self, low, high, size=None):
        return next(self.angles)


class TestUnitaryFromGenerator:
    """Masking unitaries: lifted products of exp(iθG) over Pauli generators."""

    def test_empty_sum_is_identity(self):
        u = dense.masking_unitary(2, dense.MaskingSpec(2, ()), _Angles())
        assert np.allclose(u.matrix, np.eye(4))

    def test_pi_times_projector(self):
        # Z1 = 2P₊ − 1, so exp(i(π/2)Z1) = −i·exp(iπP₊) = −i(1 − 2P₊).
        obs = pauli("Z", 1, PartyIndexing(2))
        u = dense.masking_unitary(1, dense.MaskingSpec(2, ("Z1",)), _Angles(math.pi / 2))
        assert np.max(np.abs(u.matrix - (-1j) * (np.eye(4) - 2 * obs.plus_projector))) < 1e-10

    def test_single_pauli_generator_matches_tensor_exponential(self):
        theta = math.pi / 4
        u = dense.masking_unitary(1, dense.MaskingSpec(2, ("X1",)), _Angles(theta))
        local = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * PAULI["X"]
        assert np.max(np.abs(u.matrix - np.kron(local, np.eye(2)))) < 1e-10

    def test_randomized_unitarity(self):
        rng = np.random.default_rng(5)
        spec = dense.MaskingSpec(2, tuple(f"{a}{p}" for a in "XYZ" for p in (1, 2)))
        for _ in range(200):
            u = dense.masking_unitary(2, spec, rng)
            assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4))) < 1e-10


class TestPlumbing:
    def test_commutator_norms(self):
        assert qmath.commutator_norm(lifted_pauli_op("X", 1, 2).matrix, lifted_pauli_op("X", 2, 2).matrix) < 1e-12
        assert qmath.commutator_norm(
            lifted_pauli_op("X", 2, 2).matrix, lifted_pauli_op("Z", 2, 2).matrix
        ) == pytest.approx(2.0)

    def test_tensor_matches_lift(self):
        lifted = lift_matrix(PAULI["X"], 2, PartyIndexing(2))
        assert np.allclose(np.kron(np.eye(2), PAULI["X"]), lifted)

    def test_apply_unitary(self):
        local = math.cos(0.3) * np.eye(2) + 1j * math.sin(0.3) * PAULI["Y"]
        u = dense.UnitaryOperator(lift_matrix(local, 1, PartyIndexing(2)))
        rotated = dense.apply_unitary(singlet_state(), u)
        assert np.allclose(rotated.amplitudes, u.matrix @ singlet_state().amplitudes)
