"""Mermin and CHSH inequalities as signed terms, and their estimators.

The Mermin operator is expanded into its Pauli-string terms (odd number of
Y factors, sign (−1)^((#Y−1)/2)); the CHSH pair statistic is expressed in
the settings the protocol parties actually measure, with ±1/√2
coefficients reconstructing ⟨X₁X₂ + Z₁Z₂⟩ from the four revealed setting
combinations.  A violation is declared only when the estimate clears the
classical bound by three standard errors.  Exact values live in the
tests' dense reference layer, ``tests/dense.py``.

Every estimate reads the per-term sign counts (n₋, n₀ for an erasure,
n₊) of the revealed rounds, which ``sign_counts`` tables for every spec in
one pass over a transcript; the tables of two stretches of rounds add up.
"""

from __future__ import annotations

import functools
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
    return InequalitySpec(
        kind="mermin",
        parties=tuple(range(1, num_parties + 1)),
        classical_bound=mermin_classical_bound(num_parties),
        terms=_mermin_terms(num_parties),
    )


@functools.lru_cache(maxsize=16)
def _mermin_terms(num_parties: int) -> tuple[tuple[float, tuple[str, ...]], ...]:
    """The Mermin operator's terms: an odd number of Y factors, sign (−1)^((#Y−1)/2); built once per N."""
    terms = []
    for y_count in range(1, num_parties + 1, 2):
        sign = (-1.0) ** ((y_count - 1) // 2)
        for y_parties in itertools.combinations(range(1, num_parties + 1), y_count):
            labels = tuple(
                f"Y{k}" if k in y_parties else f"X{k}" for k in range(1, num_parties + 1)
            )
            terms.append((sign, labels))
    return tuple(terms)


def chsh_pair_spec(first_party: int) -> InequalitySpec:
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
    if first_party % 2 == 1:
        terms = tuple((coeff, (a, b)) for coeff, a, b in combos)
    else:
        terms = tuple((coeff, (b, a)) for coeff, a, b in combos)
    return InequalitySpec(
        kind="chsh",
        parties=(first_party, first_party + 1),
        classical_bound=SQRT2,
        terms=terms,
    )


def sign_counts(transcript, specs) -> list[np.ndarray]:
    """Per spec, its (terms, 3) sign counts n₋, n₀, n₊ of the revealed rounds with each term's settings.

    Each party's columns are gathered once, as int8; a spec's cells, code·3 + product + 1 with
    place value 3**k at its k-th party, are built in place in intp (past int8 from N=6 on) and
    counted by one ``bincount``.
    """
    rows = np.flatnonzero(transcript.kinds.revealed)
    parties = {p for spec in specs for p in spec.parties}
    picks = {p: transcript.picks[:, p - 1][rows] for p in parties}
    outcomes = {p: transcript.outcomes[:, p - 1][rows] for p in parties}
    tables = []
    for spec in specs:
        cells, products = np.zeros(len(rows), dtype=np.intp), np.ones(len(rows), dtype=np.int8)
        for p in reversed(spec.parties):
            cells *= 3
            cells += picks[p]
            products *= outcomes[p]
        cells *= 3
        cells += products
        cells += 1
        counts = np.bincount(cells, minlength=3 ** (len(spec.parties) + 1)).reshape(-1, 3)
        tables.append(counts[_term_codes(spec, tuple(transcript.setting_labels[p - 1] for p in spec.parties))])
    return tables


@functools.lru_cache(maxsize=256)
def _term_codes(spec: InequalitySpec, settings: tuple[tuple[str, ...], ...]) -> np.ndarray:
    """Each term's settings as one code, the sum of pick · 3**k over the spec's k-th party.

    ``settings`` holds the setting labels of the spec's parties, which the
    picks index.  Built once per spec and settings: a wide Mermin spec's
    2^(N−1) × N label lookups took about 5.6 ms at N=12 (2 cores).
    """
    codes = np.array([sum(labs.index(label) * 3**k for k, (label, labs) in enumerate(zip(labels, settings)))
                      for _, labels in spec.terms], dtype=np.intp)
    codes.setflags(write=False)
    return codes


@functools.lru_cache(maxsize=256)
def _term_names_and_coefficients(spec: InequalitySpec) -> tuple[tuple[str, ...], np.ndarray]:
    """Each term's name, its labels joined, and the terms' coefficients as a read-only array; built once per spec."""
    coeffs = np.array([coeff for coeff, _ in spec.terms])
    coeffs.setflags(write=False)
    return tuple("".join(labels) for _, labels in spec.terms), coeffs


def estimate(spec: InequalitySpec, signs: np.ndarray) -> InequalityEstimate:
    """The value from the spec's ``sign_counts`` table; the standard error propagates each term's variance."""
    counts, sums = signs[:, 2] + signs[:, 0], signs[:, 2] - signs[:, 0]
    names, coeffs = _term_names_and_coefficients(spec)
    samples = dict(zip(names, counts.tolist()))
    if not np.all(counts > 0):
        return InequalityEstimate(0.0, math.inf, samples, spec.classical_bound, usable=False)
    means = sums / counts
    variances = np.clip(1.0 - means**2, 0.0, None)
    value = abs(float(np.dot(coeffs, means)))
    stderr = float(np.sqrt(np.sum(coeffs**2 * variances / counts)))
    return InequalityEstimate(value, stderr, samples, spec.classical_bound, usable=True)


def estimate_from_transcript(transcript, spec: InequalitySpec) -> InequalityEstimate:
    """One spec's estimate from a transcript: ``estimate`` on its ``sign_counts``."""
    return estimate(spec, sign_counts(transcript, [spec])[0])
