"""Exact dense complex linear algebra and measurement primitives.

Everything here works on pure states of small Hilbert spaces (dimension
<= 4096) with plain numpy arrays wrapped in thin validating dataclasses,
each checked to ``DEFAULT_ATOL``.  All values are immutable after
construction; the only stateful argument anywhere is the random generator
consumed by the sampling routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ATOL = 1e-10

# Branches with probability below this are never sampled (avoids
# renormalizing a null vector).
PROB_FLOOR = 1e-12


class DimensionMismatch(ValueError):
    """Operands live on Hilbert spaces of different dimensions."""


class InvariantViolation(ValueError):
    """A constructed object fails its defining numerical invariant."""


def _as_complex_matrix(matrix, dim: int | None = None) -> np.ndarray:
    mat = np.array(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise DimensionMismatch(f"matrix is {mat.shape[0]}-dimensional, expected {dim}")
    mat.setflags(write=False)
    return mat


def _check_dims(*dims: int) -> int:
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"dimension mismatch: {dims}")
    return dims[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on a D-dimensional space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > DEFAULT_ATOL:
            raise InvariantViolation(f"state norm {norm} is not 1 within {DEFAULT_ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return StateVector(amps)


@dataclass(frozen=True)
class HermitianOperator:
    """Generic observable: a matrix equal to its conjugate transpose."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if np.max(np.abs(mat - mat.conj().T)) > DEFAULT_ATOL:
            raise InvariantViolation("operator is not Hermitian")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UnitaryOperator:
    """Operator with U†U = identity."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        residue = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if residue > DEFAULT_ATOL:
            raise InvariantViolation(f"U†U deviates from identity by {residue}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DichotomicObservable:
    """±1-valued observable stored as its two eigenprojectors.

    The reconstructed operator P₊ − P₋ squares to the identity, which is
    what makes the two-outcome Born sampling below exact.
    """

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    label: str = ""

    def __post_init__(self):
        plus = _as_complex_matrix(self.plus_projector)
        minus = _as_complex_matrix(self.minus_projector, plus.shape[0])
        object.__setattr__(self, "plus_projector", plus)
        object.__setattr__(self, "minus_projector", minus)
        eye = np.eye(plus.shape[0])
        for name, proj in (("plus", plus), ("minus", minus)):
            if np.max(np.abs(proj - proj.conj().T)) > DEFAULT_ATOL:
                raise InvariantViolation(f"{name} projector is not Hermitian")
            if np.max(np.abs(proj @ proj - proj)) > DEFAULT_ATOL:
                raise InvariantViolation(f"{name} projector is not idempotent")
        if np.max(np.abs(plus + minus - eye)) > DEFAULT_ATOL:
            raise InvariantViolation("projectors do not resolve the identity")
        if np.max(np.abs(plus @ minus)) > DEFAULT_ATOL:
            raise InvariantViolation("projectors are not orthogonal")

    @property
    def dim(self) -> int:
        return self.plus_projector.shape[0]

    def projector(self, outcome: int) -> np.ndarray:
        return self.plus_projector if outcome > 0 else self.minus_projector

    def operator(self) -> HermitianOperator:
        return HermitianOperator(self.plus_projector - self.minus_projector)


def measure_projective(
    state: StateVector, obs: DichotomicObservable, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Born-rule sample a dichotomic observable on a pure state.

    Returns the ±1 outcome and the renormalized post-measurement state
    (global phase left as the projection produces it).
    """
    _check_dims(state.dim, obs.dim)
    branch_plus = obs.plus_projector @ state.amplitudes
    branch_minus = obs.minus_projector @ state.amplitudes
    p_plus = float(np.real(np.vdot(state.amplitudes, branch_plus)))
    p_minus = float(np.real(np.vdot(state.amplitudes, branch_minus)))
    if abs(p_plus + p_minus - 1.0) > 1e-10:
        raise InvariantViolation(f"branch probabilities sum to {p_plus + p_minus}")
    outcome = _sample_branch(p_plus, p_minus, rng)
    branch = branch_plus if outcome > 0 else branch_minus
    prob = p_plus if outcome > 0 else p_minus
    return outcome, StateVector(branch / np.sqrt(prob))


def _sample_branch(p_plus: float, p_minus: float, rng: np.random.Generator) -> int:
    if p_plus < PROB_FLOOR and p_minus < PROB_FLOOR:
        raise InvariantViolation("both branch probabilities vanish; state is corrupted")
    if p_plus < PROB_FLOOR:
        return -1
    if p_minus < PROB_FLOOR:
        return +1
    return +1 if rng.random() < p_plus / (p_plus + p_minus) else -1


def branch_probabilities(state: StateVector, obs: DichotomicObservable) -> tuple[float, float]:
    """Probabilities of the +1 and −1 outcomes, without sampling."""
    _check_dims(state.dim, obs.dim)
    p_plus = np.real(np.vdot(state.amplitudes, obs.plus_projector @ state.amplitudes))
    p_minus = np.real(np.vdot(state.amplitudes, obs.minus_projector @ state.amplitudes))
    return float(p_plus), float(p_minus)


def expectation(state: StateVector, op: HermitianOperator | np.ndarray) -> float:
    """⟨Ψ|op|Ψ⟩, with the imaginary residue checked and dropped."""
    mat = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op)
    _check_dims(state.dim, mat.shape[0])
    value = np.vdot(state.amplitudes, mat @ state.amplitudes)
    if abs(value.imag) > 1e-8:
        raise InvariantViolation(f"expectation has imaginary residue {value.imag}")
    return float(value.real)


def apply_unitary(state: StateVector, u: UnitaryOperator) -> StateVector:
    """U|Ψ⟩."""
    _check_dims(state.dim, u.dim)
    return StateVector(u.matrix @ state.amplitudes)


def commutator_norm(a, b) -> float:
    """Max absolute entry of AB − BA."""
    mat_a = a.matrix if hasattr(a, "matrix") else np.asarray(a)
    mat_b = b.matrix if hasattr(b, "matrix") else np.asarray(b)
    _check_dims(mat_a.shape[0], mat_b.shape[0])
    return float(np.max(np.abs(mat_a @ mat_b - mat_b @ mat_a)))

