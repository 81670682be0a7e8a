"""Mermin and CHSH contextuality operators, exact values, and estimators.

The Mermin operator is expanded into its Pauli-string terms (odd number of
Y factors, sign (−1)^((#Y−1)/2)); the CHSH pair statistic is expressed in
the settings the protocol parties actually measure, with ±1/√2
coefficients reconstructing ⟨X₁X₂ + Z₁Z₂⟩ from the four revealed setting
combinations.  A violation is declared only when the estimate clears the
classical bound by three standard errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .mapping import PAULI, PartyIndexing, lift_matrix

VIOLATION_SIGMAS = 3.0

SQRT2 = math.sqrt(2.0)

LOCAL_MATRICES = {
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "XpZ": (PAULI["X"] + PAULI["Z"]) / SQRT2,
    "ZmX": (PAULI["Z"] - PAULI["X"]) / SQRT2,
}


def split_label(label: str) -> tuple[str, int]:
    """Split an observable label like ``"XpZ2"`` into (prefix, party)."""
    head = label.rstrip("0123456789")
    if head not in LOCAL_MATRICES or head == label:
        raise ValueError(f"malformed observable label {label!r}")
    return head, int(label[len(head):])


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality: signed terms over per-party observable labels."""

    kind: str
    parties: tuple[int, ...]
    classical_bound: float
    terms: tuple[tuple[float, tuple[str, ...]], ...]

    def __post_init__(self):
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("inequality parties must be distinct")
        for _, labels in self.terms:
            if len(labels) != len(self.parties):
                raise ValueError("each term needs one label per participating party")


@dataclass(frozen=True)
class InequalityEstimate:
    """Statistical estimate of an inequality value from revealed rounds."""

    value: float
    standard_error: float
    samples_per_term: dict[str, int] = field(default_factory=dict)
    classical_bound: float = 0.0
    usable: bool = True

    @property
    def violated(self) -> bool:
        return self.usable and self.value - VIOLATION_SIGMAS * self.standard_error > self.classical_bound


def mermin_classical_bound(num_parties: int) -> float:
    if num_parties % 2 == 0:
        return 2.0 ** (num_parties / 2)
    return 2.0 ** ((num_parties - 1) / 2)


def mermin_spec(num_parties: int) -> InequalitySpec:
    """Expand the N-party Mermin operator into signed X/Y strings."""
    if num_parties < 2:
        raise ValueError("Mermin inequality needs at least two parties")
    terms = []
    for y_count in range(1, num_parties + 1, 2):
        sign = (-1.0) ** ((y_count - 1) // 2)
        for y_parties in itertools.combinations(range(1, num_parties + 1), y_count):
            labels = tuple(
                f"Y{k}" if k in y_parties else f"X{k}" for k in range(1, num_parties + 1)
            )
            terms.append((sign, labels))
    return InequalitySpec(
        kind="mermin",
        parties=tuple(range(1, num_parties + 1)),
        classical_bound=mermin_classical_bound(num_parties),
        terms=tuple(terms),
    )


def chsh_pair_spec(first_party: int, first_party_odd: bool) -> InequalitySpec:
    """CHSH statistic for an adjacent pair, in the measured settings.

    Reconstructs |⟨X₁X₂ + Z₁Z₂⟩| (classical bound √2) from the four
    combinations of {X, Z} on the odd-grouped party with
    {(X+Z)/√2, (Z−X)/√2} on the even-grouped party.
    """
    c = 1.0 / SQRT2
    odd_x, odd_z = "X1", "Z1"
    even_b, even_c = "XpZ2", "ZmX2"
    combos = [
        (c, odd_x, even_b),
        (-c, odd_x, even_c),
        (c, odd_z, even_b),
        (c, odd_z, even_c),
    ]
    if first_party_odd:
        terms = tuple((coeff, (a, b)) for coeff, a, b in combos)
    else:
        terms = tuple((coeff, (b, a)) for coeff, a, b in combos)
    return InequalitySpec(
        kind="chsh",
        parties=(first_party, first_party + 1),
        classical_bound=SQRT2,
        terms=terms,
    )


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
        total += coeff * qmath.expectation(state, term_operator(labels, indexing))
    return abs(total)


def mermin_value(state, spec: InequalitySpec | None = None) -> float:
    num_parties = int(round(math.log2(state.dim)))
    if spec is None:
        spec = mermin_spec(num_parties)
    if 2 ** len(spec.parties) != state.dim:
        raise qmath.DimensionMismatch(
            f"state dim {state.dim} does not match {len(spec.parties)} parties"
        )
    return evaluate_exact(state, spec, PartyIndexing(num_parties))


def chsh_value(state) -> float:
    if state.dim != 4:
        raise qmath.DimensionMismatch("CHSH value is defined on dimension 4")
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


def estimate_from_transcript(transcript, spec: InequalitySpec) -> InequalityEstimate:
    """Average matching revealed rounds into the inequality value.

    A revealed round feeds the (unique) term whose labels equal its
    settings at the spec's parties; rounds with an erased outcome there
    are skipped.  Rounds are counted per term by the code of their picks
    there; their ±1 products sum exactly in floating point.  The standard
    error propagates each term's sample variance.
    """
    positions = [p - 1 for p in spec.parties]
    settings = [transcript.setting_labels[p] for p in positions]
    place = 3 ** np.arange(len(positions))
    outcomes = transcript.outcomes[:, positions]
    used = transcript.kinds.revealed & (outcomes != 0).all(axis=1)
    codes = transcript.picks[:, positions][used] @ place
    width = 3 ** len(positions)
    counts_by_code = np.bincount(codes, minlength=width)
    sums_by_code = np.bincount(codes, weights=outcomes[used].prod(axis=1), minlength=width)
    term_codes = [
        sum(labs.index(label) * w for label, labs, w in zip(labels, settings, place.tolist()))
        for _, labels in spec.terms
    ]
    sums, counts = sums_by_code[term_codes], counts_by_code[term_codes]
    samples = {"".join(labels): int(counts[i]) for i, (_, labels) in enumerate(spec.terms)}
    usable = bool(np.all(counts > 0))
    if not usable:
        return InequalityEstimate(0.0, math.inf, samples, spec.classical_bound, usable=False)
    means = sums / counts
    variances = np.clip(1.0 - means**2, 0.0, None)
    coeffs = np.array([coeff for coeff, _ in spec.terms])
    value = abs(float(np.dot(coeffs, means)))
    stderr = float(np.sqrt(np.sum(coeffs**2 * variances / counts)))
    return InequalityEstimate(value, stderr, samples, spec.classical_bound, usable=True)
