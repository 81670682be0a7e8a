"""Isomorphism between N-party qudit systems and a single d^N-level system.

The bijection sends the product-basis ket with digits (j₁, …, j_N) to the
single-system ket |Σ d^{N−k} j_k⟩, i.e. party 1 owns the most significant
digit.  Every module uses this one indexing authority; nothing re-derives
its own digit order.

Lifting a local operator is done by index arithmetic (decompose, substitute
one digit, recompose) so a D×D array is the only memory cost.  The
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
    """Shape of the mapped system: N parties of local dimension d."""

    num_parties: int
    local_dim: int = 2

    def __post_init__(self):
        if self.num_parties < 1:
            raise ValueError("need at least one party")
        if self.local_dim < 2:
            raise ValueError("local dimension must be at least 2")
        if self.num_parties * np.log2(self.local_dim) > MAX_QUBIT_EQUIVALENT + 1e-9:
            raise ValueError(
                f"total dimension {self.local_dim}**{self.num_parties} exceeds the 2^{MAX_QUBIT_EQUIVALENT} size guard"
            )

    @property
    def total_dim(self) -> int:
        return self.local_dim**self.num_parties

    def stride(self, party: int) -> int:
        """Positional weight of the given party's digit (party 1 is most significant)."""
        self._check_party(party)
        return self.local_dim ** (self.num_parties - party)

    def _check_party(self, party: int):
        if not 1 <= party <= self.num_parties:
            raise ValueError(f"party {party} out of range 1..{self.num_parties}")


def index_from_digits(digits, indexing: PartyIndexing) -> int:
    """Map per-party digits (j₁, …, j_N) to the single-system basis index."""
    digits = list(digits)
    if len(digits) != indexing.num_parties:
        raise ValueError(f"expected {indexing.num_parties} digits, got {len(digits)}")
    index = 0
    for digit in digits:
        if not 0 <= digit < indexing.local_dim:
            raise ValueError(f"digit {digit} out of range 0..{indexing.local_dim - 1}")
        index = index * indexing.local_dim + digit
    return index


def digits_from_index(index: int, indexing: PartyIndexing) -> tuple[int, ...]:
    """Inverse of :func:`index_from_digits`."""
    if not 0 <= index < indexing.total_dim:
        raise ValueError(f"index {index} out of range 0..{indexing.total_dim - 1}")
    digits = []
    for party in range(indexing.num_parties, 0, -1):
        digits.append(index % indexing.local_dim)
        index //= indexing.local_dim
    return tuple(reversed(digits))


def lift_matrix(local: np.ndarray, party: int, indexing: PartyIndexing) -> np.ndarray:
    """Matrix of 1⊗…⊗M⊗…⊗1 in the mapped basis, by digit substitution."""
    d = indexing.local_dim
    if local.shape != (d, d):
        raise DimensionMismatch(f"local matrix has shape {local.shape}, expected ({d}, {d})")
    stride = indexing.stride(party)
    dim = indexing.total_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(dim)
    row_digit = (rows // stride) % d
    base = rows - row_digit * stride
    for col_digit in range(d):
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
    """Lifted Pauli observable at one party (qubit parties only)."""
    if indexing.local_dim != 2:
        raise ValueError("Pauli observables require local dimension 2")
    if axis not in PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return dichotomic_from_local(PAULI[axis], party, indexing, label=f"{axis}{party}")


def oracle_expectation(multi_state, local_matrices: list[np.ndarray]) -> float:
    """Expectation in the explicit tensor-product picture.

    ``multi_state`` is the amplitude vector over the product basis (same
    digit order as the index map) and ``local_matrices`` one d×d matrix per
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
