"""The dense reference layer the round engine is tested against.

Everything here works on pure states of small Hilbert spaces (dimension
<= 4096) with plain numpy arrays wrapped in thin validating dataclasses,
each checked to ``DEFAULT_ATOL``: Born-rule measurement on a state vector,
lifted Pauli observables with their eigenprojectors, the explicit
Kronecker-product oracle, exact Mermin and CHSH values, the eagerly built
masking unitary and the noisy detector effects.  No command runs this
code; the engine plays rounds by index arithmetic on one qubit at a time
(``contextkey.protocol``), and the tests compare it with what is built
here from full D×D operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from contextkey.inequality import LOCAL_MATRICES, SQRT2, InequalitySpec, mermin_spec, split_label
from contextkey.noise import ERASED, DetectorNoise, LossDetector, MisreadDetector
from contextkey.protocol import TWO_PI, _rotation
from contextkey.qmath import (
    PAULI,
    PROB_FLOOR,
    DimensionMismatch,
    InvariantViolation,
    PartyIndexing,
    _check_dims,
    lift_matrix,
)

DEFAULT_ATOL = 1e-10


def _as_complex_matrix(matrix, dim: int | None = None) -> np.ndarray:
    mat = np.array(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise DimensionMismatch(f"matrix is {mat.shape[0]}-dimensional, expected {dim}")
    mat.setflags(write=False)
    return mat


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


# --- lifted observables and the tensor-product oracle


def dichotomic_from_local(
    local: np.ndarray, party: int, indexing: PartyIndexing, label: str = ""
) -> DichotomicObservable:
    """Lift a local involution (M² = 1) with its ± eigenprojectors intact."""
    local = np.asarray(local, dtype=np.complex128)
    if np.max(np.abs(local @ local - np.eye(local.shape[0]))) > 1e-10:
        raise InvariantViolation("local matrix does not square to the identity")
    eye = np.eye(local.shape[0])
    plus = lift_matrix((eye + local) / 2, party, indexing)
    minus = lift_matrix((eye - local) / 2, party, indexing)
    return DichotomicObservable(plus, minus, label=label)


def pauli(axis: str, party: int, indexing: PartyIndexing) -> DichotomicObservable:
    """Lifted Pauli observable at one party."""
    if axis not in PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return dichotomic_from_local(PAULI[axis], party, indexing, label=f"{axis}{party}")


def oracle_expectation(multi_state, local_matrices: list[np.ndarray]) -> float:
    """Expectation in the explicit tensor-product picture.

    ``multi_state`` is the amplitude vector over the product basis (same
    digit order as the index map) and ``local_matrices`` one 2×2 matrix per
    party.  The full Kronecker product is built on purpose — this path must
    stay independent of the lifted operators it cross-checks.
    """
    amps = multi_state.amplitudes if isinstance(multi_state, StateVector) else np.asarray(multi_state)
    full = np.array([[1.0]], dtype=np.complex128)
    for local in local_matrices:
        full = np.kron(full, np.asarray(local, dtype=np.complex128))
    if full.shape[0] != amps.shape[0]:
        raise DimensionMismatch(
            f"product operator is {full.shape[0]}-dimensional, state {amps.shape[0]}"
        )
    value = np.vdot(amps, full @ amps)
    if abs(value.imag) > 1e-8:
        raise InvariantViolation(f"oracle expectation has imaginary residue {value.imag}")
    return float(value.real)


# --- exact inequality values


def chsh_spec() -> InequalitySpec:
    """The two-term CHSH form ⟨X₁X₂⟩ + ⟨Z₁Z₂⟩ with bound √2."""
    return InequalitySpec(
        kind="chsh",
        parties=(1, 2),
        classical_bound=SQRT2,
        terms=((1.0, ("X1", "X2")), (1.0, ("Z1", "Z2"))),
    )


def term_operator(labels: tuple[str, ...], indexing: PartyIndexing) -> np.ndarray:
    """Product of the lifted observables named by one term."""
    out = np.eye(indexing.total_dim, dtype=np.complex128)
    for label in labels:
        prefix, party = split_label(label)
        out = out @ lift_matrix(LOCAL_MATRICES[prefix], party, indexing)
    return out


def assemble_operator(spec: InequalitySpec, indexing: PartyIndexing) -> np.ndarray:
    total = np.zeros((indexing.total_dim, indexing.total_dim), dtype=np.complex128)
    for coeff, labels in spec.terms:
        total += coeff * term_operator(labels, indexing)
    return total


def evaluate_exact(state, spec: InequalitySpec, indexing: PartyIndexing) -> float:
    """|Σ sign·⟨term⟩| evaluated exactly on a pure state."""
    total = 0.0
    for coeff, labels in spec.terms:
        total += coeff * expectation(state, term_operator(labels, indexing))
    return abs(total)


def mermin_value(state, spec: InequalitySpec | None = None) -> float:
    num_parties = int(round(math.log2(state.dim)))
    if spec is None:
        spec = mermin_spec(num_parties)
    if 2 ** len(spec.parties) != state.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} does not match {len(spec.parties)} parties"
        )
    return evaluate_exact(state, spec, PartyIndexing(num_parties))


def chsh_value(state) -> float:
    if state.dim != 4:
        raise DimensionMismatch("CHSH value is defined on dimension 4")
    return evaluate_exact(state, chsh_spec(), PartyIndexing(2))


def mermin_operator_direct(num_parties: int) -> np.ndarray:
    """(1/2i)[∏(X_k + iY_k) − ∏(X_k − iY_k)] built by raw matrix arithmetic.

    Independent of the term expansion; used to cross-check it.
    """
    indexing = PartyIndexing(num_parties)
    dim = indexing.total_dim
    plus = np.eye(dim, dtype=np.complex128)
    minus = np.eye(dim, dtype=np.complex128)
    for k in range(1, num_parties + 1):
        x_k = lift_matrix(PAULI["X"], k, indexing)
        y_k = lift_matrix(PAULI["Y"], k, indexing)
        plus = plus @ (x_k + 1j * y_k)
        minus = minus @ (x_k - 1j * y_k)
    return (plus - minus) / 2j


# --- the eager masking unitary


@dataclass(frozen=True)
class MaskingSpec:
    """Generators available for one masking transformation."""

    num_parties: int
    generator_labels: tuple[str, ...]


def masking_unitary(
    k: int, spec: MaskingSpec, rng: np.random.Generator, indexing: PartyIndexing | None = None
) -> UnitaryOperator:
    """Lifted product of exp(iθⱼGⱼ), θⱼ ~ U[0, 2π), one factor per spec label.

    The first label's rotation acts first, as in the engine's masking, so
    the X, Y, Z labels of one party give exactly the rotation the engine
    applies for them.  Every generator must be a Pauli on parties 1..k, so
    the result commutes with all observables of parties k+1..N.
    """
    if indexing is None:
        indexing = PartyIndexing(spec.num_parties)
    matrix = np.eye(indexing.total_dim, dtype=np.complex128)
    for label in spec.generator_labels:
        prefix, party = split_label(label)
        if party > k:
            raise InvariantViolation(
                f"masking generator {label} leaks onto party {party} > {k}"
            )
        theta = rng.uniform(0.0, TWO_PI)
        matrix = lift_matrix(_su2_product((prefix,), (theta,)), party, indexing) @ matrix
    return UnitaryOperator(matrix)


def _su2_product(axes: tuple[str, ...], angles) -> np.ndarray:
    """Composition of exp(iθ·σ_axis) factors, earliest listed applied first.

    The last dimension of ``angles`` holds one angle per axis; leading
    dimensions are a batch, so the result has shape ``batch + (2, 2)``.
    Composing rotations about distinct fixed axes with independent uniform
    angles makes the ensemble-average Bloch map vanish identically, which
    a single exponential of a summed generator does not achieve (the
    component along the mean rotation axis survives).
    """
    angles = np.asarray(angles, dtype=np.float64)
    cos, sin = np.cos(angles), np.sin(angles)
    a = np.ones(angles.shape[:-1], dtype=np.complex128)
    b, c, d = np.zeros_like(a), np.zeros_like(a), a.copy()
    for j, axis in enumerate(axes):
        ra, rb, rc, rd = _rotation(axis, cos[..., j], sin[..., j])
        a, b, c, d = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


# --- noisy detector effects


def detector_effects(obs: DichotomicObservable, noise: DetectorNoise) -> list[tuple[object, np.ndarray]]:
    """Measurement effects of a noisy detector for one dichotomic observable.

    Misreading mixes the two projectors; loss scales them and adds a
    no-click effect.  Both are mixtures/scalings of the ideal projectors,
    so sampling them as an ideal measurement followed by a classical flip
    (or erasure) of the record is exactly equivalent.
    """
    plus, minus = obs.plus_projector, obs.minus_projector
    if isinstance(noise, MisreadDetector):
        eta = noise.eta
        return [(+1, (1 - eta) * plus + eta * minus), (-1, eta * plus + (1 - eta) * minus)]
    if isinstance(noise, LossDetector):
        eta = noise.eta
        eye = np.eye(obs.dim)
        return [(+1, eta * plus), (-1, eta * minus), (ERASED, (1 - eta) * eye)]
    raise TypeError(f"unsupported detector noise {noise!r}")
