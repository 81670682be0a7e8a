"""Differential oracle: the engine's rounds replayed with dense operators.

The engine (``protocol._Engine``) plays blocks of rounds with 2×2 index
arithmetic and applies masks lazily, only on Eve's qudit where she reads.
The reference player below replays the same rounds from the variates the
engine draws for one block covering the whole run, so the layout of the
random streams has a single owner, but it does every quantum step on full
D-dimensional vectors, one round at a time: it measures with lifted
eigenprojectors (``dense.dichotomic_from_local``), masks every sender's
state eagerly with ``dense.masking_unitary`` fed the engine's angle row,
and applies Eve, preparation noise, detector noise and ``fresh-reference``
resends from their definitions.  Every field of every round must agree
exactly: labels, outcomes and erasures, Eve's outcome, and whether the
round is revealed or a key round.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

import dense
from contextkey import noise, protocol, qmath
from contextkey.adversary import EveConfig
from contextkey.inequality import LOCAL_MATRICES, split_label
from conftest import seam_rounds

ROUNDS = 200

NOISE = {
    "clean": None,
    "flip": noise.NoiseConfig(prep=noise.FlipPrep(0.2, 0.3)),
    "white": noise.NoiseConfig(prep=noise.WhitePrep(0.4)),
    "detector": noise.NoiseConfig(detector=noise.MisreadDetector(0.2)),
    "model1": noise.NoiseConfig(prep=noise.FlipPrep(0.2, 0.2), detector=noise.MisreadDetector(0.2)),
    "model2": noise.NoiseConfig(prep=noise.FlipPrep(0.2, 0.2), detector=noise.LossDetector(0.6)),
}

EVES = {
    "mermin": {
        "commuting": EveConfig(1, "Z1", "commuting-measure"),
        "noncommuting": EveConfig(2, "X3", "noncommuting-measure"),
        "fresh-reference": EveConfig(1, "X1", "measure-resend", resend="fresh-reference"),
        "activity-half": EveConfig(1, "Z1", "commuting-measure", activity_rate=0.5),
    },
    "chsh": {
        "commuting": EveConfig(1, "Z1", "commuting-measure"),
        "noncommuting": EveConfig(1, "Z2", "noncommuting-measure"),
        "fresh-reference": EveConfig(1, "X1", "measure-resend", resend="fresh-reference"),
        "activity-half": EveConfig(1, "Z1", "commuting-measure", activity_rate=0.5),
    },
}


def _grid() -> dict[str, protocol.ProtocolConfig]:
    configs = {}
    for kind in ("mermin", "chsh"):
        for masking in (True, False):
            for noise_name, noise_config in NOISE.items():
                for eve_name, eve in {"no-eve": None, **EVES[kind]}.items():
                    name = f"{kind}3-{'masked' if masking else 'unmasked'}-{noise_name}-{eve_name}"
                    configs[name] = protocol.ProtocolConfig(
                        kind, 3, ROUNDS, seed=len(configs) + 1,
                        masking_enabled=masking, noise=noise_config, eve=eve,
                    )
    extra = {
        "mermin3-exclude-key-commuting": protocol.ProtocolConfig(
            "mermin", 3, ROUNDS, seed=501, masking_include_key=False,
            eve=EveConfig(1, "Z1", "commuting-measure"),
        ),
        "mermin5-masked-commuting": protocol.ProtocolConfig(
            "mermin", 5, ROUNDS, seed=502, eve=EveConfig(2, "Z1", "commuting-measure"),
        ),
        "mermin5-masked-noncommuting": protocol.ProtocolConfig(
            "mermin", 5, ROUNDS, seed=503, eve=EveConfig(3, "X5", "noncommuting-measure"),
        ),
        "chsh4-masked-noncommuting": protocol.ProtocolConfig(
            "chsh", 4, ROUNDS, seed=504, eve=EveConfig(2, "Z1", "noncommuting-measure"),
        ),
        "chsh4-masked-model2-fresh-reference": protocol.ProtocolConfig(
            "chsh", 4, ROUNDS, seed=505, noise=NOISE["model2"],
            eve=EveConfig(3, "XpZ2", "measure-resend", resend="fresh-reference"),
        ),
        # long enough to cross a default block boundary
        "mermin3-masked-commuting-seam": protocol.ProtocolConfig(
            "mermin", 3, seam_rounds(8), seed=506,
            eve=EveConfig(2, "Z1", "commuting-measure", activity_rate=0.5),
        ),
        "chsh3-masked-noncommuting-seam": protocol.ProtocolConfig(
            "chsh", 3, seam_rounds(4), seed=507, eve=EveConfig(1, "Z2", "noncommuting-measure"),
        ),
        # D=64, where Eve's masks are folded into her measurement
        "mermin6-masked-commuting-seam": protocol.ProtocolConfig(
            "mermin", 6, seam_rounds(64), seed=508, eve=EveConfig(3, "Z1", "commuting-measure"),
        ),
    }
    configs.update(extra)
    return configs


GRID = _grid()


class Round(NamedTuple):
    labels: tuple[str, ...]
    outcomes: tuple[int | None, ...]  # None for an erased record
    eve_outcome: int | None  # None where Eve did not measure
    revealed: bool
    key_round: bool


def transcript_round(transcript: protocol.Transcript, r: int) -> Round:
    """Round ``r`` of the engine's columns, in the reference player's terms."""
    picks = transcript.picks[r].tolist()
    eve = int(transcript.eve_outcomes[r])
    return Round(
        labels=tuple(labels[p] for labels, p in zip(transcript.setting_labels, picks)),
        outcomes=tuple(o or None for o in transcript.outcomes[r].tolist()),
        eve_outcome=eve or None,
        revealed=bool(transcript.kinds.revealed[r]),
        key_round=bool(transcript.kinds.key[r]),
    )


class _AngleRow:
    """Stands in for the masking generator: hands out one round's angles in order."""

    def __init__(self, angles):
        self.angles = list(angles)
        self.used = 0

    def uniform(self, low, high, size=None):
        assert size is None and (low, high) == (0.0, protocol.TWO_PI)
        angle = self.angles[self.used]
        self.used += 1
        return angle


class DenseReference:
    """One run's rounds on D-dimensional vectors, driven by the engine's variates."""

    def __init__(self, config: protocol.ProtocolConfig):
        self.config = config
        self.kind = config.kind
        self.n = config.num_parties
        self.variates = protocol._Engine(config)._draw(config.rounds)
        qudits = self.n if self.kind == "mermin" else 2
        self.indexing = qmath.PartyIndexing(qudits)
        dim = self.indexing.total_dim
        self.reference = np.zeros(dim, dtype=np.complex128)
        if self.kind == "mermin":  # (|0…0⟩ + i|1…1⟩)/√2
            self.reference[0], self.reference[-1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        else:  # the singlet (|01⟩ − |10⟩)/√2
            self.reference[1], self.reference[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        self.settings = protocol.party_labels(self.kind, self.n)
        self.key_settings = ("Z",) if self.kind == "mermin" else ("Z", "XpZ")
        noise_config = config.noise or noise.NoiseConfig()
        self.prep, self.detector = noise_config.prep, noise_config.detector
        self._observables = {}

    def observable(self, label: str):
        if label not in self._observables:
            prefix, party = split_label(label)
            self._observables[label] = dense.dichotomic_from_local(
                LOCAL_MATRICES[prefix], party, self.indexing, label
            )
        return self._observables[label]

    def measure(self, state, label: str, u: float):
        """Born rule: +1 exactly when the uniform variate falls below P(+1)."""
        obs = self.observable(label)
        p_plus = float(np.vdot(state, obs.plus_projector @ state).real)
        outcome = +1 if u < p_plus else -1
        branch = obs.projector(outcome) @ state
        return outcome, branch / np.linalg.norm(branch)

    def project_reference(self, label: str, outcome: int):
        branch = self.observable(label).projector(outcome) @ self.reference
        return branch / np.linalg.norm(branch)

    def prepare(self, round_id: int, bob: int, label: str, outcome: int):
        if self.prep is not None and split_label(label)[0] in self.key_settings:
            slot = 0 if self.kind == "mermin" else bob - 1
            u = self.variates.noise_u[round_id, slot]
            if isinstance(self.prep, noise.FlipPrep):
                bit = protocol.key_bit(self.kind, bob, outcome)
                if u < (self.prep.eps1 if bit == 0 else self.prep.eps2):
                    outcome = -outcome
            elif u < self.prep.eps:
                ket = np.zeros(self.indexing.total_dim, dtype=np.complex128)
                ket[self.variates.white_idx[round_id, slot]] = 1.0
                return ket
        return self.project_reference(label, outcome)

    def record(self, round_id: int, bob: int, label: str, outcome: int):
        if self.detector is None or split_label(label)[0] not in self.key_settings:
            return outcome
        preparers = 1 if self.kind == "mermin" else self.n - 1
        u = self.variates.noise_u[round_id, preparers + bob - 2]
        if isinstance(self.detector, noise.MisreadDetector):
            return -outcome if u < self.detector.eta else outcome
        return outcome if u < self.detector.eta else None

    def mask(self, state, sender: int, angle_row: _AngleRow | None):
        if angle_row is None:
            return state
        if self.kind == "mermin":
            axes = "XYZ" if self.config.masking_include_key else "XY"
            labels = tuple(f"{a}{p}" for p in range(1, sender + 1) for a in axes)
        else:
            side = 1 if sender % 2 == 1 else 2
            labels = tuple(f"{a}{side}" for a in "XYZ")
        spec = dense.MaskingSpec(self.indexing.num_parties, labels)
        k = sender if self.kind == "mermin" else self.indexing.num_parties
        return dense.masking_unitary(k, spec, angle_row, self.indexing).matrix @ state

    def intercept(self, state, link: int, round_id: int):
        eve = self.config.eve
        if eve is None or eve.strategy == "none" or eve.position != link:
            return state, None
        u_active, u_measure = self.variates.eve_u[round_id]
        if u_active >= eve.activity_rate:
            return state, None
        outcome, post = self.measure(state, eve.observable, u_measure)
        if eve.resend == "fresh-reference":
            post = self.project_reference(eve.observable, outcome)
        return post, outcome

    def play(self, round_id: int) -> Round:
        variates = self.variates
        picks = variates.picks[round_id]
        born = variates.born[round_id]
        angle_row = _AngleRow(variates.angles[round_id]) if variates.angles is not None else None
        labels = tuple(self.settings[k][picks[k]] for k in range(self.n))
        outcomes = []
        eve_outcome = None
        state = self.reference
        for bob in range(1, self.n + 1):
            label = labels[bob - 1]
            true_outcome, state = self.measure(state, label, born[bob - 1])
            recorded = true_outcome if bob == 1 else self.record(round_id, bob, label, true_outcome)
            outcomes.append(recorded)
            if bob == self.n:
                break
            if bob == 1 or self.kind == "chsh":
                intent = recorded
                if intent is None:  # an erased record re-prepares from a fresh draw
                    intent, _ = self.measure(self.reference, label, born[self.n + bob - 2])
                state = self.prepare(round_id, bob, label, intent)
            state = self.mask(state, bob, angle_row)
            state, hit = self.intercept(state, bob, round_id)
            if hit is not None:
                eve_outcome = hit
        if angle_row is not None:
            assert angle_row.used == len(angle_row.angles), "masking left angles unused"
        prefixes = [split_label(label)[0] for label in labels]
        if self.kind == "mermin":
            key_round = all(p == "Z" for p in prefixes)
            revealed = all(p in ("X", "Y") for p in prefixes)
        else:
            key_round = all(p == "Z" for p in prefixes) or all(p == "XpZ" for p in prefixes)
            revealed = not key_round
        return Round(labels, tuple(outcomes), eve_outcome, revealed, key_round)


@pytest.mark.parametrize("name", list(GRID))
def test_engine_matches_dense_reference(name):
    config = GRID[name]
    transcript = protocol.run_protocol(config)
    oracle = DenseReference(config)
    for round_id in range(config.rounds):
        assert transcript_round(transcript, round_id) == oracle.play(round_id), f"round {round_id}"


def test_grid_exercises_every_branch():
    # The grid is only a check if its rounds reach the paths it names.
    seen = {"eve": 0, "eve-skipped": 0, "erased": 0, "key": 0, "revealed": 0}
    for name, config in GRID.items():
        transcript = protocol.run_protocol(config)
        eve = transcript.eve_outcomes != 0
        seen["eve"] += eve.sum()
        seen["eve-skipped"] += config.eve is not None and (~eve).sum()
        seen["erased"] += (transcript.outcomes == 0).any(axis=1).sum()
        seen["key"] += transcript.kinds.key.sum()
        seen["revealed"] += transcript.kinds.revealed.sum()
    assert all(count > 0 for count in seen.values()), seen
