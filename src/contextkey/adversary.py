"""Eavesdropper strategies, key-leakage measurement, and localization.

Eve sits on one link of the chain and applies a projective dichotomic
measurement to the transiting state (a measurement-resend attack).  Her
observable either commutes with everything measured afterwards — in which
case the violation statistics are provably untouched and only masking
denies her the key — or it does not, in which case the statistics collapse
below the classical bound and the attack is detected.  The round engine
(``protocol._Engine``) runs her measurement; this module holds her
configuration and the analysis of what she learned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inequality import InequalityEstimate
from .noise import binary_mutual_information
from .protocol import ERASED_BIT

STRATEGIES = ("commuting-measure", "noncommuting-measure", "measure-resend")
RESEND_MODES = ("post-state", "fresh-reference")


@dataclass(frozen=True)
class EveConfig:
    """Position, strategy, and observable of the eavesdropper.

    ``position`` is the link index: link k sits between parties k and k+1.
    ``observable`` is a setting label such as ``"Z1"``.
    ``activity_rate`` is the fraction of rounds attacked.
    """

    position: int
    observable: str | None = None
    strategy: str = "commuting-measure"
    activity_rate: float = 1.0
    resend: str = "post-state"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown eve strategy {self.strategy!r}")
        if self.resend not in RESEND_MODES:
            raise ValueError(f"unknown resend mode {self.resend!r}")
        if not 0.0 <= self.activity_rate <= 1.0:
            raise ValueError("activity_rate must lie in [0, 1]")
        if self.position < 1:
            raise ValueError("position is a 1-based link index")
        if self.observable is None:
            raise ValueError("eve needs an observable label")


@dataclass(frozen=True)
class LeakageReport:
    """How much key Eve learned, and whether the checks caught her.

    ``detected`` negates the transcript's verdict, and is None when no
    check with data fails but some check has a term without samples.
    """

    eve_key_mutual_information: float | None
    attacked_key_rounds: int
    observed: dict[str, InequalityEstimate]
    detected: bool | None
    sufficient_data: bool


def leakage_analysis(transcript) -> LeakageReport:
    """Mutual information between Eve's record and the key, plus detection.

    The key symbol is party 1's key bit; in the protocols' noiseless runs
    every party holds the same bit.  The sifting, check estimates and
    verdict are the transcript's own.
    """
    sifting, violated = transcript.sifting, transcript.verdict.violated
    eve = transcript.eve_outcomes[sifting.key_rounds]
    bits = sifting.key_bits[0]
    seen = (eve != 0) & (bits != ERASED_BIT)
    joint = np.bincount(2 * ((1 - eve[seen]) // 2) + bits[seen], minlength=4).reshape(2, 2)
    attacked = int(seen.sum())
    mi = binary_mutual_information(joint / attacked) if attacked else None
    return LeakageReport(
        eve_key_mutual_information=mi,
        attacked_key_rounds=attacked,
        observed=transcript.estimates,
        detected=None if violated is None else not violated,
        sufficient_data=attacked > 0,
    )


class InsufficientCheckData(ValueError):
    """A link's pairwise estimate has empty setting combinations."""


def localize_eve(pairwise_estimates: dict[int, InequalityEstimate]) -> frozenset[int]:
    """Links whose pairwise statistic fails the violation test.

    With a single intruder only the attacked link fails while its
    neighbours keep violating; overlapping failures are all returned.
    """
    for link, estimate in pairwise_estimates.items():
        if not estimate.usable:
            raise InsufficientCheckData(f"link {link} has setting combinations with no data")
    return frozenset(link for link, est in pairwise_estimates.items() if not est.violated)
