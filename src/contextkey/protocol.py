"""Round-by-round execution of the Mermin and CHSH conference protocols.

One round: the first party samples a preparation of the reference state
under a random setting, masks it, and sends it down the chain; every later
party measures its random setting, masks (all but the last), and forwards.
In the pairwise-grouped CHSH variant each party re-prepares a fresh
four-dimensional state instead of forwarding the measured one.

All randomness flows from one 64-bit seed through named streams
(round, masking, eve, noise).  Each stream is materialized as one array
row per round before execution, so rounds are independent, reproducible
and order-independent; they run one after another on one thread.
Toggling masking, noise, or the eavesdropper never shifts the other
streams.

The engine is the only round player.  It keeps states as raw amplitude
vectors and applies single-party 2×2 operators by index arithmetic.  The
dense qmath/mapping path is its test oracle: a reference player in the
test suite replays the engine's variates with full D×D operators and
must reproduce every recorded outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequality, qmath
from .adversary import EveConfig
from .inequality import LOCAL_MATRICES, InequalityEstimate, split_label
from .mapping import MAX_QUBIT_EQUIVALENT, PartyIndexing, lift_matrix
from .noise import (
    FlipPrep,
    LossDetector,
    MisreadDetector,
    NoiseConfig,
    WhitePrep,
)
from .qmath import InvariantViolation, PROB_FLOOR, UnitaryOperator

KINDS = ("mermin", "chsh")

MERMIN_PREFIXES = ("X", "Y", "Z")
CHSH_ODD_PREFIXES = ("X", "XpZ", "Z")
CHSH_EVEN_PREFIXES = ("XpZ", "Z", "ZmX")

# Setting prefixes whose outcomes can enter the key.
KEY_PREFIXES = {"mermin": ("Z",), "chsh": ("XpZ", "Z")}

TWO_PI = 2.0 * math.pi

_STREAMS = {"round": 0, "masking": 1, "eve": 2, "noise": 3}


def stream_generator(seed: int, name: str) -> np.random.Generator:
    """The named top-level random stream of one run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str
    num_parties: int
    rounds: int
    seed: int = 0
    masking_enabled: bool = True
    # Whether the key-generating observable joins the masking generators
    # (both variants scramble fully; the toggle exists for comparison runs).
    masking_include_key: bool = True
    noise: NoiseConfig | None = None
    eve: EveConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        minimum = 3 if self.kind == "mermin" else 2
        if self.num_parties < minimum:
            raise ValueError(f"{self.kind} protocol needs at least {minimum} parties")
        if self.kind == "mermin" and self.num_parties > MAX_QUBIT_EQUIVALENT:
            raise ValueError(
                f"{self.num_parties} parties exceed the 2^{MAX_QUBIT_EQUIVALENT} size guard"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.eve is not None and not 1 <= self.eve.position < self.num_parties:
            raise ValueError(
                f"eve position {self.eve.position} is not a link index in 1..{self.num_parties - 1}"
            )

    @property
    def dim(self) -> int:
        return 2**self.num_parties if self.kind == "mermin" else 4


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


@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    labels: tuple[str, ...]
    outcomes: tuple[int | None, ...]
    eve_label: str | None = None
    eve_outcome: int | None = None
    revealed: bool = False
    key_round: bool = False


@dataclass(frozen=True)
class Transcript:
    config: ProtocolConfig
    records: tuple[RoundRecord, ...]

    def __post_init__(self):
        if len(self.records) != self.config.rounds:
            raise ValueError("record count does not match the configured rounds")


@dataclass(frozen=True)
class SiftingResult:
    key_rounds: tuple[int, ...]
    check_rounds: tuple[int, ...]
    discarded: tuple[int, ...]
    key_bits: tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class KeyMaterial:
    bits: tuple[tuple[int | None, ...], ...]
    num_key_rounds: int
    num_complete: int
    agreement_fraction: float | None


def party_labels(kind: str, num_parties: int) -> tuple[tuple[str, ...], ...]:
    """The three setting labels each party draws from, uniformly."""
    sets = []
    for k in range(1, num_parties + 1):
        if kind == "mermin":
            sets.append(tuple(f"{p}{k}" for p in MERMIN_PREFIXES))
        elif k % 2 == 1:
            sets.append(tuple(f"{p}1" for p in CHSH_ODD_PREFIXES))
        else:
            sets.append(tuple(f"{p}2" for p in CHSH_EVEN_PREFIXES))
    return tuple(sets)


def _key_round_from_prefixes(kind: str, prefixes) -> bool:
    if kind == "mermin":
        return all(p == "Z" for p in prefixes)
    return all(p == "Z" for p in prefixes) or all(p == "XpZ" for p in prefixes)


def _chsh_pair_matches(prefix_a: str, prefix_b: str, first_is_odd: bool) -> bool:
    odd, even = (prefix_a, prefix_b) if first_is_odd else (prefix_b, prefix_a)
    return odd in ("X", "Z") and even in ("XpZ", "ZmX")


def _check_round_from_prefixes(kind: str, prefixes) -> bool:
    if kind == "mermin":
        return all(p in ("X", "Y") for p in prefixes)
    if _key_round_from_prefixes(kind, prefixes):
        return False
    return any(
        _chsh_pair_matches(prefixes[k - 1], prefixes[k], first_is_odd=(k % 2 == 1))
        for k in range(1, len(prefixes))
    )


def is_key_round(kind: str, labels) -> bool:
    return _key_round_from_prefixes(kind, [split_label(lab)[0] for lab in labels])


def is_check_round(kind: str, labels) -> bool:
    return _check_round_from_prefixes(kind, [split_label(lab)[0] for lab in labels])


def key_bit(kind: str, party: int, outcome: int | None) -> int | None:
    """Outcome-to-bit map; adjacent CHSH outcomes alternate, so parity-adjust."""
    if outcome is None:
        return None
    raw = (1 - outcome) // 2
    if kind == "chsh":
        return (raw + (party - 1)) % 2
    return raw


def _su2_product(axes: tuple[str, ...], angles) -> np.ndarray:
    """Composition of exp(iθ·σ_axis) factors, earliest listed applied first.

    Composing rotations about distinct fixed axes with independent uniform
    angles makes the ensemble-average Bloch map vanish identically, which
    a single exponential of a summed generator does not achieve (the
    component along the mean rotation axis survives).
    """
    a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for axis, theta in zip(axes, angles):
        cos = math.cos(theta)
        sin = math.sin(theta)
        if axis == "X":
            ra, rb, rc, rd = cos, 1j * sin, 1j * sin, cos
        elif axis == "Y":
            ra, rb, rc, rd = cos, sin, -sin, cos
        elif axis == "Z":
            ra, rb, rc, rd = cos + 1j * sin, 0j, 0j, cos - 1j * sin
        else:
            raise ValueError(f"masking axis must be a Pauli label, got {axis!r}")
        a, b, c, d = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
    return np.array([[a, b], [c, d]])


def _qudit_indexing(config: ProtocolConfig) -> PartyIndexing:
    """The qudit parties of one transmitted state: all N, or the CHSH pair."""
    return PartyIndexing(config.num_parties if config.kind == "mermin" else 2)


def _future_labels(config: ProtocolConfig, link: int) -> list[str]:
    """Observables that may still be measured on a state crossing ``link``."""
    labels = party_labels(config.kind, config.num_parties)
    if config.kind == "mermin":
        return [label for later in labels[link:] for label in later]
    return list(labels[link])  # the receiving party's settings


def check_eve(config: ProtocolConfig) -> None:
    """Reject an eavesdropper the engine cannot run as configured.

    Her observable must be a setting label on one of the state's qudit
    parties (ValueError otherwise).  Under ``commuting-measure`` it must
    also commute with every setting still measured after her link; a
    failed commutation raises InvariantViolation.
    """
    eve = config.eve
    if eve is None or eve.strategy == "none":
        return
    prefix, party = split_label(eve.observable)
    indexing = _qudit_indexing(config)
    indexing._check_party(party)
    if eve.strategy != "commuting-measure":
        return
    lifted = lift_matrix(LOCAL_MATRICES[prefix], party, indexing)
    for label in _future_labels(config, eve.position):
        other_prefix, other_party = split_label(label)
        other = lift_matrix(LOCAL_MATRICES[other_prefix], other_party, indexing)
        if qmath.commutator_norm(lifted, other) > 1e-10:
            raise InvariantViolation(
                f"eve observable {eve.observable} does not commute with {label}; "
                "use the noncommuting-measure strategy"
            )


class _Engine:
    """Precomputed per-run machinery and the round player."""

    def __init__(self, config: ProtocolConfig):
        check_eve(config)
        self.config = config
        self.kind = config.kind
        self.num_parties = config.num_parties
        self.dim = config.dim
        self.indexing = _qudit_indexing(config)
        num_qudit_parties = self.indexing.num_parties
        self.labels = party_labels(self.kind, self.num_parties)
        self.parsed = tuple(tuple(split_label(lab) for lab in labs) for labs in self.labels)
        self.key_prefixes = KEY_PREFIXES[self.kind]
        self.plus_projectors = {
            prefix: (np.eye(2, dtype=np.complex128) + mat) / 2
            for prefix, mat in LOCAL_MATRICES.items()
        }
        self.reference = self._reference_state()
        self.pre_post = {
            party: (2 ** (party - 1), self.dim // 2**party)
            for party in range(1, num_qudit_parties + 1)
        }
        self.mask_axes = (
            ("X", "Y", "Z") if (config.masking_include_key or self.kind == "chsh") else ("X", "Y")
        )
        self.mask_plan = self._masking_plan()
        self.prep_noise = config.noise.prep if config.noise else None
        self.det_noise = config.noise.detector if config.noise else None
        self.eve = config.eve if (config.eve and config.eve.strategy != "none") else None
        self.eve_parsed = split_label(self.eve.observable) if self.eve is not None else None
        self.projected = self._reference_projections()
        self._pregenerate()

    # -- construction ----------------------------------------------------

    def _reference_state(self) -> np.ndarray:
        amps = np.zeros(self.dim, dtype=np.complex128)
        if self.kind == "mermin":
            amps[0] = 1 / math.sqrt(2)
            amps[-1] = 1j / math.sqrt(2)
        else:
            amps[1] = 1 / math.sqrt(2)
            amps[2] = -1 / math.sqrt(2)
        return amps

    def _masking_plan(self):
        """Per sending party: (qudit party, angle-slice) pairs to re-randomize."""
        width = len(self.mask_axes)
        plan = {}
        offset = 0
        for k in range(1, self.num_parties):
            if self.kind == "mermin":
                hops = []
                for party in range(1, k + 1):
                    hops.append((party, slice(offset, offset + width)))
                    offset += width
                plan[k] = tuple(hops)
            else:
                side = 1 if k % 2 == 1 else 2
                plan[k] = ((side, slice(offset, offset + width)),)
                offset += width
        self._mask_angle_count = offset
        return plan

    def _reference_projections(self) -> dict[tuple[str, int, int], np.ndarray]:
        """Read-only normalized projections of the reference state.

        Keyed by (prefix, party, outcome) for every setting and for Eve's
        observable: what a party prepares for an outcome, and what Eve
        forwards under the ``fresh-reference`` resend rule.
        """
        observables = {pair for parsed in self.parsed for pair in parsed}
        if self.eve_parsed is not None:
            observables.add(self.eve_parsed)
        table = {}
        for prefix, party in observables:
            for outcome in (+1, -1):
                branch = self._apply_local(self.plus_projectors[prefix], self.reference, party)
                if outcome < 0:
                    branch = self.reference - branch
                branch = branch / math.sqrt(np.vdot(branch, branch).real)
                branch.setflags(write=False)
                table[prefix, party, outcome] = branch
        return table

    def _pregenerate(self):
        """Materialize every named stream as one row per round."""
        config = self.config
        rounds = config.rounds
        n = self.num_parties
        g_round = stream_generator(config.seed, "round")
        self._picks = g_round.integers(0, 3, size=(rounds, n))
        born_cols = n + (n - 1 if self.kind == "chsh" else 0)
        self._born = g_round.random(size=(rounds, born_cols))
        if config.masking_enabled and self._mask_angle_count:
            g_mask = stream_generator(config.seed, "masking")
            self._angles = g_mask.random(size=(rounds, self._mask_angle_count)) * TWO_PI
        else:
            self._angles = None
        if self.eve is not None:
            g_eve = stream_generator(config.seed, "eve")
            self._eve_u = g_eve.random(size=(rounds, 2))
        else:
            self._eve_u = None
        if config.noise is not None:
            g_noise = stream_generator(config.seed, "noise")
            preparers = 1 if self.kind == "mermin" else n - 1
            detectors = n - 1
            self._noise_u = g_noise.random(size=(rounds, preparers + detectors))
            self._white_idx = g_noise.integers(0, self.dim, size=(rounds, preparers))
            self._noise_preparers = preparers
        else:
            self._noise_u = None

    # -- fast single-party linear algebra ---------------------------------

    def _apply_local(self, mat2: np.ndarray, state: np.ndarray, party: int) -> np.ndarray:
        pre, post = self.pre_post[party]
        if pre == 1:
            return (mat2 @ state.reshape(2, post)).reshape(-1)
        s3 = state.reshape(pre, 2, post)
        out = np.empty_like(s3)
        out[:, 0, :] = mat2[0, 0] * s3[:, 0, :] + mat2[0, 1] * s3[:, 1, :]
        out[:, 1, :] = mat2[1, 0] * s3[:, 0, :] + mat2[1, 1] * s3[:, 1, :]
        return out.reshape(-1)

    def _measure_local(
        self, state: np.ndarray, prefix: str, party: int, u: float
    ) -> tuple[int, np.ndarray]:
        """Born-rule branch selection driven by one uniform variate."""
        branch_plus = self._apply_local(self.plus_projectors[prefix], state, party)
        p_plus = np.vdot(branch_plus, branch_plus).real
        p_minus = 1.0 - p_plus
        if p_plus < PROB_FLOOR:
            outcome = -1
        elif p_minus < PROB_FLOOR:
            outcome = +1
        else:
            outcome = +1 if u < p_plus else -1
        if outcome > 0:
            return outcome, branch_plus / math.sqrt(p_plus)
        branch_minus = state - branch_plus
        return outcome, branch_minus / math.sqrt(max(p_minus, PROB_FLOOR))

    # -- per-round hooks ---------------------------------------------------

    def _mask(self, state: np.ndarray, sender: int, angles) -> np.ndarray:
        if angles is None:
            return state
        for party, chunk in self.mask_plan[sender]:
            state = self._apply_local(_su2_product(self.mask_axes, angles[chunk]), state, party)
        return state

    def _eve_hook(self, state: np.ndarray, link: int, round_id: int):
        eve = self.eve
        if eve is None or eve.position != link:
            return state, None
        u_active, u_measure = self._eve_u[round_id]
        if eve.activity_rate < 1.0 and u_active >= eve.activity_rate:
            return state, None
        prefix, party = self.eve_parsed
        outcome, post = self._measure_local(state, prefix, party, u_measure)
        if eve.resend == "fresh-reference":
            post = self.projected[prefix, party, outcome]
        return post, outcome

    def _detector_record(self, outcome: int, prefix: str, bob: int, round_id: int) -> int | None:
        if self.det_noise is None or prefix not in self.key_prefixes:
            return outcome
        u = self._noise_u[round_id, self._noise_preparers + bob - 2]
        if isinstance(self.det_noise, MisreadDetector):
            return -outcome if u < self.det_noise.eta else outcome
        if isinstance(self.det_noise, LossDetector):
            return outcome if u < self.det_noise.eta else None
        raise TypeError(f"unsupported detector noise {self.det_noise!r}")

    def _prepare(
        self, bob: int, prefix: str, party: int, outcome: int, round_id: int
    ) -> np.ndarray:
        """State actually emitted when ``bob`` prepares for ``outcome``.

        Without noise, and for settings outside the key, this is the
        reference state's projection for the outcome.  A key setting's
        flip noise first flips the outcome, with eps1 or eps2 chosen by its
        key bit; white noise instead emits a uniformly drawn basis state.
        """
        prep = self.prep_noise
        if prep is not None and prefix in self.key_prefixes:
            slot = 0 if self.kind == "mermin" else bob - 1
            u = self._noise_u[round_id, slot]
            if isinstance(prep, FlipPrep):
                eps = prep.eps1 if key_bit(self.kind, bob, outcome) == 0 else prep.eps2
                if u < eps:
                    outcome = -outcome
            elif isinstance(prep, WhitePrep):
                if u < prep.eps:
                    ket = np.zeros(self.dim, dtype=np.complex128)
                    ket[self._white_idx[round_id, slot]] = 1.0
                    return ket
            else:
                raise TypeError(f"unsupported preparation noise {prep!r}")
        return self.projected[prefix, party, outcome]

    # -- round execution ---------------------------------------------------

    def play_round(self, round_id: int) -> RoundRecord:
        picks = self._picks[round_id]
        born = self._born[round_id]
        angles = self._angles[round_id] if self._angles is not None else None
        n = self.num_parties

        labels = tuple(self.labels[k][picks[k]] for k in range(n))
        parsed = [self.parsed[k][picks[k]] for k in range(n)]
        prefixes = [p for p, _ in parsed]

        outcomes: list[int | None] = []
        eve_outcome = None

        prefix1, party1 = parsed[0]
        first_outcome, _ = self._measure_local(self.reference, prefix1, party1, born[0])
        outcomes.append(first_outcome)
        state = self._prepare(1, prefix1, party1, first_outcome, round_id)
        state = self._mask(state, 1, angles)
        state, hit = self._eve_hook(state, 1, round_id)
        if hit is not None:
            eve_outcome = hit

        for bob in range(2, n + 1):
            prefix, party = parsed[bob - 1]
            true_outcome, state = self._measure_local(state, prefix, party, born[bob - 1])
            recorded = true_outcome
            if self.det_noise is not None:
                recorded = self._detector_record(true_outcome, prefix, bob, round_id)
            outcomes.append(recorded)
            if bob == n:
                break
            if self.kind == "chsh":
                intent = recorded
                if intent is None:
                    intent, _ = self._measure_local(
                        self.reference, prefix, party, born[n + bob - 2]
                    )
                state = self._prepare(bob, prefix, party, intent, round_id)
            state = self._mask(state, bob, angles)
            state, hit = self._eve_hook(state, bob, round_id)
            if hit is not None:
                eve_outcome = hit

        return RoundRecord(
            round_id=round_id,
            labels=labels,
            outcomes=tuple(outcomes),
            eve_label=self.eve.observable if eve_outcome is not None else None,
            eve_outcome=eve_outcome,
            revealed=(
                _check_round_from_prefixes("mermin", prefixes)
                if self.kind == "mermin"
                else not _key_round_from_prefixes("chsh", prefixes)
            ),
            key_round=_key_round_from_prefixes(self.kind, prefixes),
        )


def run_protocol(config: ProtocolConfig) -> Transcript:
    """Execute all rounds in order."""
    engine = _Engine(config)
    return Transcript(config=config, records=tuple(engine.play_round(i) for i in range(config.rounds)))


def sift(transcript: Transcript) -> SiftingResult:
    """Partition rounds into key / check / discarded and derive key bits."""
    kind = transcript.config.kind
    key_rounds, check_rounds, discarded = [], [], []
    for rec in transcript.records:
        if rec.key_round:
            key_rounds.append(rec.round_id)
        elif kind == "mermin" and rec.revealed:
            check_rounds.append(rec.round_id)
        elif kind == "chsh" and is_check_round(kind, rec.labels):
            check_rounds.append(rec.round_id)
        else:
            discarded.append(rec.round_id)
    by_id = {rec.round_id: rec for rec in transcript.records}
    num_parties = transcript.config.num_parties
    key_bits = tuple(
        tuple(key_bit(kind, party, by_id[r].outcomes[party - 1]) for r in key_rounds)
        for party in range(1, num_parties + 1)
    )
    return SiftingResult(tuple(key_rounds), tuple(check_rounds), tuple(discarded), key_bits)


def extract_key(sifting: SiftingResult) -> KeyMaterial:
    """Aligned per-party bit strings plus the all-party agreement fraction."""
    num_rounds = len(sifting.key_rounds)
    complete = 0
    agree = 0
    for i in range(num_rounds):
        column = [bits[i] for bits in sifting.key_bits]
        if any(b is None for b in column):
            continue
        complete += 1
        if len(set(column)) == 1:
            agree += 1
    fraction = agree / complete if complete else None
    return KeyMaterial(sifting.key_bits, num_rounds, complete, fraction)


def mermin_check_estimate(transcript: Transcript) -> InequalityEstimate:
    spec = inequality.mermin_spec(transcript.config.num_parties)
    return inequality.estimate_from_transcript(transcript.records, spec)


def chsh_pair_estimates(transcript: Transcript) -> dict[int, InequalityEstimate]:
    """Per adjacent pair (link k joins parties k and k+1)."""
    out = {}
    for k in range(1, transcript.config.num_parties):
        spec = inequality.chsh_pair_spec(k, first_party_odd=(k % 2 == 1))
        out[k] = inequality.estimate_from_transcript(transcript.records, spec)
    return out


def check_estimates(transcript: Transcript) -> dict[str, InequalityEstimate]:
    """All violation statistics relevant to the transcript's protocol."""
    if transcript.config.kind == "mermin":
        return {"mermin": mermin_check_estimate(transcript)}
    return {f"pair_{k}": est for k, est in chsh_pair_estimates(transcript).items()}


def all_checks_violated(estimates: dict[str, InequalityEstimate]) -> bool:
    return all(est.violated for est in estimates.values())
