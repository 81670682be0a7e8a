"""Isomorphism between N qubit parties and a single 2^N-level system.

The bijection sends the product-basis ket with bits (j₁, …, j_N) to the
single-system ket |Σ j_k·stride(k)⟩ with stride(k) = 2^{N−k}, i.e. party 1
owns the most significant bit.  ``PartyIndexing.stride`` is the one
indexing authority: the lifting below and the round engine's local
updates both read the digit order from it.

Lifting a local operator is done by index arithmetic (decompose, substitute
one bit, recompose) so a D×D array is the only memory cost.  The
tensor-product oracle at the bottom deliberately does the opposite — it
builds the explicit Kronecker products — and serves as independent ground
truth for the lifted picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import DichotomicObservable, DimensionMismatch, InvariantViolation, StateVector

MAX_QUBIT_EQUIVALENT = 12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class PartyIndexing:
    """Shape of the mapped system: N qubit parties, dimension 2^N."""

    num_parties: int

    def __post_init__(self):
        if self.num_parties < 1:
            raise ValueError("need at least one party")
        if self.num_parties > MAX_QUBIT_EQUIVALENT:
            raise ValueError(
                f"total dimension 2**{self.num_parties} exceeds the 2^{MAX_QUBIT_EQUIVALENT} size guard"
            )

    @property
    def total_dim(self) -> int:
        return 2**self.num_parties

    def stride(self, party: int) -> int:
        """Positional weight of the given party's bit (party 1 is most significant)."""
        self._check_party(party)
        return 2 ** (self.num_parties - party)

    def _check_party(self, party: int):
        if not 1 <= party <= self.num_parties:
            raise ValueError(f"party {party} out of range 1..{self.num_parties}")


def lift_matrix(local: np.ndarray, party: int, indexing: PartyIndexing) -> np.ndarray:
    """Matrix of 1⊗…⊗M⊗…⊗1 in the mapped basis, by bit substitution."""
    if local.shape != (2, 2):
        raise DimensionMismatch(f"local matrix has shape {local.shape}, expected (2, 2)")
    stride = indexing.stride(party)
    dim = indexing.total_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(dim)
    row_digit = (rows // stride) % 2
    base = rows - row_digit * stride
    for col_digit in range(2):
        out[rows, base + col_digit * stride] = local[row_digit, col_digit]
    return out


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
