"""Mermin and CHSH inequalities as signed terms, and their estimators.

The Mermin operator is expanded into its Pauli-string terms (odd number of
Y factors, sign (−1)^((#Y−1)/2)); the CHSH pair statistic is expressed in
the settings the protocol parties actually measure, with ±1/√2
coefficients reconstructing ⟨X₁X₂ + Z₁Z₂⟩ from the four revealed setting
combinations.  A violation is declared only when the estimate clears the
classical bound by three standard errors.  Exact values live in the
tests' dense reference layer, ``tests/dense.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .qmath import PAULI

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
