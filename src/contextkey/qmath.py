"""The single-qudit picture of N qubit parties, and its error types.

The bijection sends the product-basis ket with bits (j₁, …, j_N) to the
single-system ket |Σ j_k·stride(k)⟩ with stride(k) = 2^{N−k}, i.e. party 1
owns the most significant bit.  ``lift_matrix`` reads that digit order
from ``PartyIndexing.stride``; the round engine keeps it as two integers
per party, the amplitudes above and below the party's bit.  Lifting is
index arithmetic (decompose, substitute one bit, recompose), so a D×D
array is the only memory cost.  The dense reference layer the engine is tested against
(validated states and operators, the Kronecker-product oracle, exact
inequality values, the eager masking unitary) is ``tests/dense.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Branches with probability below this are never sampled (avoids
# renormalizing a null vector).
PROB_FLOOR = 1e-12

MAX_QUBIT_EQUIVALENT = 12

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class DimensionMismatch(ValueError):
    """Operands live on Hilbert spaces of different dimensions."""


class InvariantViolation(ValueError):
    """A constructed object fails its defining numerical invariant."""


def _check_dims(*dims: int) -> int:
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"dimension mismatch: {dims}")
    return dims[0]


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


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute entry of AB − BA."""
    _check_dims(a.shape[0], b.shape[0])
    return float(np.max(np.abs(a @ b - b @ a)))
