"""Deterministic self-checks: operator identities, oracle equivalence, fixtures.

Every check is named, tolerance-bounded, and free of statistical error —
randomized inputs are drawn from fixed seeds and the assertions are exact
up to floating-point residue.  The command-line ``verify`` command runs
them all and fails on the first broken invariant.
"""

from __future__ import annotations

import math

import numpy as np

from . import inequality, mapping, protocol, qmath

TOL = 1e-10


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, detail: str):
    if not condition:
        raise CheckFailure(detail)


def _random_state(rng, dim: int) -> qmath.StateVector:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qmath.StateVector(amps / np.linalg.norm(amps))


def _random_hermitian(rng, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def _ghz_state(num_parties: int) -> qmath.StateVector:
    amps = np.zeros(2**num_parties, dtype=np.complex128)
    amps[0] = 1 / math.sqrt(2)
    amps[-1] = 1j / math.sqrt(2)
    return qmath.StateVector(amps)


def _singlet_state() -> qmath.StateVector:
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1 / math.sqrt(2)
    amps[2] = -1 / math.sqrt(2)
    return qmath.StateVector(amps)


# --- individual checks ----------------------------------------------------

def check_lifted_vs_tensor_oracle():
    rng = np.random.default_rng(20240 + 11)
    for trial in range(500):
        num_parties = int(rng.integers(1, 4))
        indexing = mapping.PartyIndexing(num_parties)
        state = _random_state(rng, indexing.total_dim)
        locals_ = [_random_hermitian(rng, 2) for _ in range(num_parties)]
        lifted = np.eye(indexing.total_dim, dtype=np.complex128)
        for party, local in enumerate(locals_, start=1):
            lifted = lifted @ mapping.lift_matrix(local, party, indexing)
        via_lift = qmath.expectation(state, qmath.HermitianOperator((lifted + lifted.conj().T) / 2))
        # products of commuting lifted Hermitians are Hermitian already;
        # symmetrization above only guards numerical residue
        via_oracle = mapping.oracle_expectation(state, locals_)
        _require(abs(via_lift - via_oracle) < TOL, f"trial {trial}: {via_lift} vs {via_oracle}")


def check_lift_commutation():
    rng = np.random.default_rng(20240 + 12)
    indexing = mapping.PartyIndexing(3)
    for _ in range(50):
        parties = rng.choice(range(1, 4), size=2, replace=False)
        a = mapping.lift_matrix(_random_hermitian(rng, 2), int(parties[0]), indexing)
        b = mapping.lift_matrix(_random_hermitian(rng, 2), int(parties[1]), indexing)
        _require(qmath.commutator_norm(a, b) < TOL, "lifted observables of distinct parties must commute")


def check_mermin_values():
    for num_parties in range(2, 6):
        spec = inequality.mermin_spec(num_parties)
        value = inequality.mermin_value(_ghz_state(num_parties), spec)
        expected = 2.0 ** (num_parties - 1)
        _require(abs(value - expected) < TOL, f"N={num_parties}: value {value} != {expected}")


def check_mermin_bounds():
    expected = {2: 2.0, 3: 2.0, 4: 4.0, 5: 4.0}
    for num_parties, bound in expected.items():
        spec = inequality.mermin_spec(num_parties)
        _require(
            abs(spec.classical_bound - bound) < TOL,
            f"N={num_parties}: bound {spec.classical_bound} != {bound}",
        )
        if num_parties >= 3:
            value = inequality.mermin_value(_ghz_state(num_parties), spec)
            _require(value > spec.classical_bound + 1e-6, f"N={num_parties}: no violation")


def check_mermin_operator_identity():
    for num_parties in (2, 3, 4):
        indexing = mapping.PartyIndexing(num_parties)
        assembled = inequality.assemble_operator(inequality.mermin_spec(num_parties), indexing)
        direct = inequality.mermin_operator_direct(num_parties)
        _require(
            np.max(np.abs(assembled - direct)) < TOL,
            f"N={num_parties}: term expansion disagrees with the direct product form",
        )


def check_chsh_value_singlet():
    value = inequality.chsh_value(_singlet_state())
    _require(abs(value - 2.0) < TOL, f"singlet CHSH value {value} != 2")
    _require(value > math.sqrt(2), "singlet CHSH value does not violate")


def check_masking_commutation():
    rng = np.random.default_rng(20240 + 16)
    indexing = mapping.PartyIndexing(3)
    spec = protocol.MaskingSpec(3, ("X1", "Y1", "Z1", "X2", "Y2", "Z2"))
    for _ in range(25):
        u = protocol.masking_unitary(2, spec, rng, indexing)
        for axis in "XYZ":
            later = mapping.lift_matrix(mapping.PAULI[axis], 3, indexing)
            _require(
                qmath.commutator_norm(u.matrix, later) < TOL,
                f"masking does not commute with {axis}3",
            )


def check_masking_invariance_expectation():
    rng = np.random.default_rng(20240 + 17)
    indexing = mapping.PartyIndexing(3)
    spec = protocol.MaskingSpec(3, ("X1", "Y1", "Z1"))
    for _ in range(50):
        state = _random_state(rng, 8)
        u = protocol.masking_unitary(1, spec, rng, indexing)
        masked = qmath.apply_unitary(state, u)
        for axis in "XYZ":
            for party in (2, 3):
                obs = qmath.HermitianOperator(mapping.lift_matrix(mapping.PAULI[axis], party, indexing))
                _require(
                    abs(qmath.expectation(masked, obs) - qmath.expectation(state, obs)) < TOL,
                    f"⟨{axis}{party}⟩ changed under masking",
                )


def check_masking_invariance_eigenstates():
    rng = np.random.default_rng(20240 + 18)
    indexing = mapping.PartyIndexing(3)
    spec = protocol.MaskingSpec(3, ("X1", "Y1", "Z1", "X2", "Y2", "Z2"))
    for _ in range(50):
        axis = "XYZ"[int(rng.integers(3))]
        obs = mapping.pauli(axis, 3, indexing)
        state = _random_state(rng, 8)
        eigenvalue, eigenstate = qmath.measure_projective(state, obs, rng)
        u = protocol.masking_unitary(2, spec, rng, indexing)
        rotated = qmath.apply_unitary(eigenstate, u)
        op = obs.operator().matrix
        residue = np.max(np.abs(op @ rotated.amplitudes - eigenvalue * rotated.amplitudes))
        _require(residue < TOL, f"masking moved a {axis}3 eigenstate off its eigenspace")


def check_masking_invariance_correlations():
    rng = np.random.default_rng(20240 + 19)
    indexing = mapping.PartyIndexing(3)
    for _ in range(50):
        state = _random_state(rng, 8)
        projs = []
        for party in (1, 2, 3):
            axis = "XYZ"[int(rng.integers(3))]
            obs = mapping.pauli(axis, party, indexing)
            projs.append(obs.projector(+1 if rng.random() < 0.5 else -1))
        u1 = protocol.masking_unitary(1, protocol.MaskingSpec(3, ("X1", "Y1", "Z1")), rng, indexing)
        u12 = protocol.masking_unitary(
            2, protocol.MaskingSpec(3, ("X1", "Y1", "Z1", "X2", "Y2", "Z2")), rng, indexing
        )
        u123 = protocol.masking_unitary(
            3, protocol.MaskingSpec(3, tuple(f"{a}{p}" for p in (1, 2, 3) for a in "XYZ")), rng, indexing
        )
        chain = u123.matrix @ projs[2] @ u12.matrix @ projs[1] @ u1.matrix @ projs[0]
        masked = np.vdot(state.amplitudes, chain.conj().T @ chain @ state.amplitudes)
        bare = np.vdot(state.amplitudes, projs[0] @ projs[1] @ projs[2] @ state.amplitudes)
        _require(abs(masked - bare) < TOL, "sequential correlations changed under masking")


def check_case_fixture_no_eve():
    # All-Z chain on the prepared |0⟩ of three parties: later outcomes are
    # +1 with unit probability.
    indexing = mapping.PartyIndexing(3)
    state = qmath.StateVector.basis(8, 0)
    for party in (2, 3):
        obs = mapping.pauli("Z", party, indexing)
        p_plus, _ = qmath.branch_probabilities(state, obs)
        _require(abs(p_plus - 1.0) < TOL, f"Z{party} on |0⟩ is not deterministic")


def check_case_fixture_commuting_eve():
    # An X1 interception between the second and third party leaves the
    # third party's Z outcome deterministic: post states (|0⟩ ± |4⟩)/√2.
    indexing = mapping.PartyIndexing(3)
    state = qmath.StateVector.basis(8, 0)
    eve_obs = mapping.pauli("X", 1, indexing)
    p_plus, p_minus = qmath.branch_probabilities(state, eve_obs)
    _require(abs(p_plus - 0.5) < TOL and abs(p_minus - 0.5) < TOL, "X1 on |0⟩ must be unbiased")
    for outcome in (+1, -1):
        branch = eve_obs.projector(outcome) @ state.amplitudes
        branch = branch / np.linalg.norm(branch)
        expected = np.zeros(8, dtype=np.complex128)
        expected[0], expected[4] = 1 / math.sqrt(2), outcome / math.sqrt(2)
        _require(np.max(np.abs(branch - expected)) < TOL, "post-interception state is wrong")
        z3_plus, _ = qmath.branch_probabilities(qmath.StateVector(branch), mapping.pauli("Z", 3, indexing))
        _require(abs(z3_plus - 1.0) < TOL, "interception disturbed the commuting Z3 outcome")


def check_detector_effect_equivalence():
    from . import noise as noise_mod

    rng = np.random.default_rng(20240 + 20)
    indexing = mapping.PartyIndexing(3)
    obs = mapping.pauli("Z", 2, indexing)
    for eta in (0.0, 0.1, 0.35):
        effects = noise_mod.detector_effects(obs, noise_mod.MisreadDetector(eta))
        for _ in range(20):
            state = _random_state(rng, 8)
            p_plus, p_minus = qmath.branch_probabilities(state, obs)
            flip_plus = (1 - eta) * p_plus + eta * p_minus
            effect_plus = qmath.expectation(state, qmath.HermitianOperator(effects[0][1]))
            _require(abs(flip_plus - effect_plus) < 1e-12, "misread effect != flip composition")
        lossy = noise_mod.detector_effects(obs, noise_mod.LossDetector(0.7))
        state = _random_state(rng, 8)
        p_click = qmath.expectation(state, qmath.HermitianOperator(lossy[0][1] + lossy[1][1]))
        _require(abs(p_click - 0.7) < 1e-12, "loss effects do not scale the projectors")


ALL_CHECKS = [
    ("lifted_vs_tensor_oracle", check_lifted_vs_tensor_oracle),
    ("lift_commutation", check_lift_commutation),
    ("mermin_value_exact", check_mermin_values),
    ("mermin_bound_N3", check_mermin_bounds),
    ("mermin_operator_identity", check_mermin_operator_identity),
    ("chsh_value_singlet", check_chsh_value_singlet),
    ("masking_commutation", check_masking_commutation),
    ("masking_invariance_expectation", check_masking_invariance_expectation),
    ("masking_invariance_eigenstates", check_masking_invariance_eigenstates),
    ("masking_invariance_correlations", check_masking_invariance_correlations),
    ("sequential_context_no_eve", check_case_fixture_no_eve),
    ("commuting_interception_fixture", check_case_fixture_commuting_eve),
    ("detector_effect_equivalence", check_detector_effect_equivalence),
]


def run_all() -> list[tuple[str, bool, str]]:
    """Run every named check; returns (name, passed, detail) triples."""
    results = []
    for name, check in ALL_CHECKS:
        try:
            check()
        except CheckFailure as failure:
            results.append((name, False, str(failure)))
        except Exception as unexpected:  # broken invariant surfaced as an exception
            results.append((name, False, f"{type(unexpected).__name__}: {unexpected}"))
        else:
            results.append((name, True, ""))
    return results
