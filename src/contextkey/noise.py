"""Preparation and detector noise models and the induced key rates.

The key generation rate here is the minimum pairwise Shannon mutual
information between the parties' key records.  The analytic path builds
the exact joint distribution of the three parties' records by enumerating
the small classical probability space each model induces (preparation
flips, detector flips, erasures), so the reported numbers carry no
sampling error; the empirical path estimates the same tables from
simulated transcripts.

Lossy-detector (erasure) models are reported under two conventions,
because the conditioning is not uniquely determined by the model
statement: ``conditional`` renormalizes each pair's table to rounds where
both records exist, ``throughput`` multiplies that by the probability of
both records existing.  Models without erasures are unaffected by the
choice.

The analytic path is array-valued: every probability is a float64 array
with one entry per grid point, so ``analytic_key_rate_surfaces`` builds
a whole surface in one call, and ``analytic_key_rate`` is the same code
at one point.  The distribution, the three pair tables and both
conventions are built once per surface.  The operations are those a
point-by-point computation in plain floats makes, in the same order,
elementwise: branch products left to right; each record triple's
probability summed over its branches in enumeration order; table cells
accumulated in the distribution's insertion order; sequential sums from
0.0 for the row sums (left to right), the column sums (top to bottom),
the table total and the erasure convention's weight (row-major); the
information terms added cell by cell in row-major order.  What a
point-by-point computation decides per point is a mask here: ``p > 0.0``
for an information term, a nonzero erased row or column for a pair with
erasures, ``weight <= 0.0`` for a pair whose records never both exist.
No branch is pruned: one that a point's parameters rule out only adds an
exact 0.0 there.  It can list a record triple earlier in the insertion
order than a pruned enumeration would, so the tests compare whole grids
bit for bit with a pruned point-by-point reference.  Logarithms are
taken per element by ``math.log2`` (the C library's scalar ``log2``)
over ``.tolist()``; numpy's ``log2`` picks SIMD paths by CPU that are
not guaranteed to round the same.  The sweep CSVs are pinned byte for
byte, and this is the order numpy summed them in when they were pinned;
a reordered sum can move the last bit of a rate and so a printed digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ERASED = "e"

CONVENTIONS = ("conditional", "throughput")


@dataclass(frozen=True)
class FlipPrep:
    """Key-basis preparation flip: intended bit 0 flips w.p. eps1, bit 1 w.p. eps2."""

    eps1: float
    eps2: float

    def __post_init__(self):
        _check_unit("eps1", self.eps1)
        _check_unit("eps2", self.eps2)


@dataclass(frozen=True)
class WhitePrep:
    """Key-basis preparation contaminated by white noise of weight eps."""

    eps: float

    def __post_init__(self):
        _check_unit("eps", self.eps)


@dataclass(frozen=True)
class MisreadDetector:
    """Detector that reports the opposite outcome with probability eta."""

    eta: float

    def __post_init__(self):
        _check_unit("eta", self.eta)


@dataclass(frozen=True)
class LossDetector:
    """Detector that registers with probability eta and otherwise misses."""

    eta: float

    def __post_init__(self):
        _check_unit("eta", self.eta)


PrepNoise = FlipPrep | WhitePrep
DetectorNoise = MisreadDetector | LossDetector

# Noise classes by kind name, as the CLI's noise flags and MODELS name them.
PREP_NOISE = {"flip": FlipPrep, "white": WhitePrep}
DETECTOR_NOISE = {"misread": MisreadDetector, "loss": LossDetector}

#: Each model's preparation and detector noise kinds, None where it has none.
MODELS = {
    "flip": ("flip", None),
    "white": ("white", None),
    "detector": (None, "misread"),
    "model1": ("flip", "misread"),
    "model2": ("flip", "loss"),
}


def has_erasures(model: str) -> bool:
    """Whether a model's detectors miss, so that its key rate depends on the erasure convention."""
    return MODELS[model][1] == "loss"


@dataclass(frozen=True)
class NoiseConfig:
    prep: PrepNoise | None = None
    detector: DetectorNoise | None = None


@dataclass(frozen=True)
class KeyRateReport:
    model: str
    kind: str
    convention: str
    pairwise_mi: dict[tuple[int, int], float]
    key_rate: float
    min_pair: tuple[int, int]

    def __post_init__(self):
        lowest = min(self.pairwise_mi.values())
        if abs(self.key_rate - lowest) > 1e-12:
            raise ValueError("key_rate must be the minimum pairwise mutual information")


def _check_unit(name: str, value):
    """Raise unless ``value``, a number or an array of them, lies in [0, 1]."""
    values = np.asarray(value, dtype=float)
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} = {outside[0]} outside [0, 1]")


def binary_mutual_information(joint) -> float:
    """Shannon mutual information (bits) of a small joint probability table."""
    table = np.asarray(joint, dtype=float)
    if table.ndim != 2:
        raise ValueError("joint table must be two-dimensional")
    return float(_table_information(list(table[..., None]))[0])


def _table_information(rows) -> np.ndarray:
    """Mutual information (bits) of joint tables, one per point.

    ``rows`` are the tables' rows; each cell is an array over the points.
    """
    total = 0.0
    px = []
    py = [0.0] * (len(rows[0]) if rows else 0)
    for row in rows:
        px_i = 0.0
        for j, p in enumerate(row):
            if (p < -1e-12).any():
                raise ValueError("joint table has negative entries")
            total = total + p
            px_i = px_i + p
            py[j] = py[j] + p
        px.append(px_i)
    total = np.asarray(total)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"joint table sums to {total[off][0]}, expected 1")
    info = 0.0
    for px_i, row in zip(px, rows):
        for py_j, p in zip(py, row):
            positive = p > 0.0
            ratio = p[positive] / (px_i[positive] * py_j[positive])
            term = np.zeros(p.shape)
            term[positive] = p[positive] * [math.log2(r) for r in ratio.tolist()]
            info = info + term
    return np.maximum(info, 0.0)


# --- analytic key rates -------------------------------------------------
#
# Probabilities are float64 arrays with one entry per grid point (or
# plain floats where a model fixes them).  No branch is pruned: one that
# a point's parameters rule out carries an exact 0.0 there.


def _flip(bit: int, prob):
    """(probability, value) branches of a classical bit flip."""
    return [(1.0 - prob, bit), (prob, 1 - bit)]


def _erase(bit, prob_click):
    return [(prob_click, bit), (1.0 - prob_click, ERASED)]


def _prep_flip_branches(bit: int, eps1, eps2):
    return _flip(bit, eps1 if bit == 0 else eps2)


def _mermin_distribution(prep: str | None, detector: str | None, eps1, eps2, eps, eta):
    """Joint distribution of the three parties' key records for one round, given a model's noise kinds."""
    dist: dict[tuple, np.ndarray] = {}

    def add(prob, triple):
        dist[triple] = dist.get(triple, 0.0) + prob

    for b1 in (0, 1):
        p1 = 0.5
        if prep == "white":
            # Emitted basis state determines both readers' records directly.
            dim = 8
            target = 0 if b1 == 0 else dim - 1
            emissions = [(1.0 - eps + eps / dim, target)] + [
                (eps / dim, s) for s in range(dim) if s != target
            ]
            for pe, s in emissions:
                digits = ((s >> 2) & 1, (s >> 1) & 1, s & 1)
                add(p1 * pe, (b1, digits[1], digits[2]))
            continue
        e1, e2 = (eps1, eps2) if prep == "flip" else (0.0, 0.0)
        for pv, v in _prep_flip_branches(b1, e1, e2):
            if detector == "misread":
                for p2, r2 in _flip(v, eta):
                    for p3, r3 in _flip(v, eta):
                        add(p1 * pv * p2 * p3, (b1, r2, r3))
            elif detector == "loss":
                for p2, r2 in _erase(v, eta):
                    for p3, r3 in _erase(v, eta):
                        add(p1 * pv * p2 * p3, (b1, r2, r3))
            else:
                add(p1 * pv, (b1, v, v))
    return dist


def _chsh_distribution(prep: str | None, detector: str | None, eps1, eps2, eps, eta):
    """Same, for the pairwise-grouped protocol where every party re-prepares."""
    dist: dict[tuple, np.ndarray] = {}

    def add(prob, triple):
        dist[triple] = dist.get(triple, 0.0) + prob

    def emit(bit):
        """Reader's bit after one noisy preparation of `bit`."""
        if prep == "white":
            # Uniform basis emission reads as a fair bit.
            return [(1.0 - eps, bit), (eps / 2, 0), (eps / 2, 1)]
        if prep == "flip":
            return _prep_flip_branches(bit, eps1, eps2)
        return [(1.0, bit)]

    def detect(true_bit):
        if detector == "misread":
            return _flip(true_bit, eta)
        if detector == "loss":
            return _erase(true_bit, eta)
        return [(1.0, true_bit)]

    for b1 in (0, 1):
        for pe1, v1 in emit(b1):
            for pd2, r2 in detect(v1):
                # An erased record re-prepares from a fresh fair draw.
                reprep = [(1.0, r2)] if r2 != ERASED else [(0.5, 0), (0.5, 1)]
                for pr, intent2 in reprep:
                    for pe2, v2 in emit(intent2):
                        for pd3, r3 in detect(v2):
                            add(0.5 * pe1 * pd2 * pr * pe2 * pd3, (b1, r2, r3))
    return dist


PAIRS = ((1, 2), (1, 3), (2, 3))

# Row and column of a record in a pair table.
_SYMBOL_INDEX = {0: 0, 1: 1, ERASED: 2}


def _pair_tables(dist: dict[tuple, np.ndarray], shape: tuple[int, ...]):
    """The 3×3 joint tables of records (1, 2), (1, 3) and (2, 3).

    Rows and columns run 0, 1, erased; each cell is an array over the
    points.  A point's erased row or column is nonzero exactly when the
    party records erasures there at all.
    """
    t12, t13, t23 = tables = [[[np.zeros(shape) for _ in range(3)] for _ in range(3)] for _ in PAIRS]
    for (r1, r2, r3), prob in dist.items():
        s1, s2, s3 = _SYMBOL_INDEX[r1], _SYMBOL_INDEX[r2], _SYMBOL_INDEX[r3]
        t12[s1][s2] += prob
        t13[s1][s3] += prob
        t23[s2][s3] += prob
    return tables


def _pair_information(table, conventions) -> list[np.ndarray]:
    """One pair's mutual information under each erasure convention, per point.

    Points without erasures read the bit table as it is, under either
    convention.  The others condition it on both records existing, or
    read 0 where they never both exist.
    """
    bits = [table[0][:2], table[1][:2]]
    erasures = np.logical_or.reduce([p != 0.0 for p in (table[0][2], table[1][2], *table[2])])
    weight = 0.0
    for row in bits:
        for p in row:
            weight = weight + p
    plain = ~erasures
    scaled = erasures & ~(weight <= 0.0)
    conditional = np.zeros(weight.shape)
    conditional[plain] = _table_information([[p[plain] for p in row] for row in bits])
    conditional[scaled] = _table_information([[p[scaled] / weight[scaled] for p in row] for row in bits])
    throughput = np.where(scaled, conditional * weight, conditional)
    return [conditional if c == "conditional" else throughput for c in conventions]


@dataclass(frozen=True)
class KeyRateSurface:
    """Exact pairwise mutual informations of one model, one entry per grid point."""

    convention: str
    pairwise_mi: dict[tuple[int, int], np.ndarray]
    key_rate: np.ndarray
    min_pair: np.ndarray  # index into PAIRS of each point's first minimizing pair


def analytic_key_rate_surfaces(
    model: str,
    kind: str = "mermin",
    *,
    eps1=0.0,
    eps2=0.0,
    eps=0.0,
    eta=0.0,
    conventions: tuple[str, ...] = ("conditional",),
) -> list[KeyRateSurface]:
    """:func:`analytic_key_rate` at every point, under each of ``conventions``.

    The parameters are floats or 1-D arrays of one length, one entry per
    point.  Each convention's surface is read from one distribution.
    """
    if model not in MODELS:
        raise ValueError(f"unknown noise model {model!r}")
    if kind not in ("mermin", "chsh"):
        raise ValueError(f"unknown protocol kind {kind!r}")
    for convention in conventions:
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown erasure convention {convention!r}")
    params = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (eps1, eps2, eps, eta)))
    for name, values in zip(("eps1", "eps2", "eps", "eta"), params):
        _check_unit(name, values)
    builder = _mermin_distribution if kind == "mermin" else _chsh_distribution
    tables = _pair_tables(builder(*MODELS[model], *params), params[0].shape)
    per_pair = [_pair_information(table, conventions) for table in tables]
    surfaces = []
    for c, convention in enumerate(conventions):
        mi = {pair: values[c] for pair, values in zip(PAIRS, per_pair)}
        # argmin keeps the first minimum in PAIRS order, as min(PAIRS, key=mi.get) does.
        min_pair = np.argmin([mi[pair] for pair in PAIRS], axis=0)
        key_rate = np.choose(min_pair, [mi[pair] for pair in PAIRS])
        effective = convention if has_erasures(model) else "exact"
        surfaces.append(KeyRateSurface(effective, mi, key_rate, min_pair))
    return surfaces


def analytic_key_rate(
    model: str,
    kind: str = "mermin",
    *,
    eps1: float = 0.0,
    eps2: float = 0.0,
    eps: float = 0.0,
    eta: float = 0.0,
    convention: str = "conditional",
) -> KeyRateReport:
    """Exact pairwise mutual informations and their minimum for one model.

    Models (``MODELS``): ``flip`` (preparation flips eps1/eps2), ``white``
    (white-noise weight eps), ``detector`` (misread probability eta),
    ``model1`` (flips plus misreads), ``model2`` (flips plus lossy
    detectors with click probability eta).
    """
    (surface,) = analytic_key_rate_surfaces(
        model, kind, eps1=eps1, eps2=eps2, eps=eps, eta=eta, conventions=(convention,)
    )
    return KeyRateReport(
        model, kind, surface.convention, {pair: float(mi[0]) for pair, mi in surface.pairwise_mi.items()},
        float(surface.key_rate[0]), PAIRS[surface.min_pair[0]],
    )


class InsufficientKeyRounds(ValueError):
    """Too few key rounds to estimate pairwise mutual information."""


def empirical_key_rate(transcript, min_key_rounds: int = 1000) -> KeyRateReport:
    """Pairwise mutual information estimated from a transcript's key rounds.

    Erased records enter the tables as a third symbol.
    """
    from .protocol import sift

    sifting = sift(transcript)
    num_rounds = len(sifting.key_rounds)
    needed = max(min_key_rounds, 1)
    if num_rounds < needed:
        raise InsufficientKeyRounds(f"{num_rounds} key rounds, need at least {needed}")
    num_parties = transcript.config.num_parties
    bits = sifting.key_bits  # symbols 0, 1 and erased (2)
    pairs = [(i, j) for i in range(1, num_parties + 1) for j in range(i + 1, num_parties + 1)]
    # Every pair's table at once, one pair per point, so that the
    # information is one call however many pairs there are.
    joint = np.array([np.bincount(3 * bits[i - 1] + bits[j - 1], minlength=9) for i, j in pairs])
    tables = (joint / num_rounds).T.reshape(3, 3, len(pairs))
    mi = dict(zip(pairs, _table_information(list(tables)).tolist()))
    min_pair = min(pairs, key=lambda p: mi[p])
    return KeyRateReport("empirical", transcript.config.kind, "empirical", mi, mi[min_pair], min_pair)
