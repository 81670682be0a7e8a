"""Execution of the Mermin and CHSH conference protocols, a block of rounds at a time.

One round: the first party samples a preparation of the reference state
under a random setting, masks it, and sends it down the chain; every later
party measures its random setting, masks (all but the last), and forwards.
In the pairwise-grouped CHSH variant each party re-prepares a fresh
four-dimensional state instead of forwarding the measured one.

A run is a ``Transcript`` of int8 columns, row r being round r: ``picks``
(rounds × N) indexes each party's ``party_labels``, ``outcomes``
(rounds × N) holds the recorded ±1 with 0 for an erasure, and
``eve_outcomes`` holds Eve's ±1 with 0 where she did not measure.  Whether
a round is a key, revealed or check round depends on its picks alone and
is decided in one place, ``round_kinds``; sifting, the estimators and the
transcript writer all read it from there.

All randomness flows from one 64-bit seed through named streams
(round, masking, eve, noise), one array row per round.  The engine plays
blocks of B = max(MIN_BLOCK_ROUNDS, AMPLITUDE_BUDGET // D) rounds as one
(D, B) array, amplitude-major with the rounds innermost, which every step
overwrites in place, party by party, on one thread; it draws the Born,
masking and Eve rows block by block, and the picks and noise rows whole.
A round depends only on its own rows, so it is the same whatever block it
falls in.  Toggling masking, noise, or the eavesdropper never shifts the
other streams.

The rounds are innermost because a step on one qubit pairs amplitudes a
stride apart, and the stride is 1 for the last qubit: viewed as
(pre, 2, post, B), every contraction, collapse and preparation is an
elementwise operation over contiguous B-long rows, whichever qubit it
touches, where a (B, D) block would run its inner loops over the `post`
amplitudes below the qubit, 32 down to 1 at D=64.

Every setting is a rank-1 qubit projector |v⟩⟨v|, so the engine measures
in the setting's eigenbasis: one half-size contraction c = v†·s over the
party's qubit gives P(+1) = ‖c+‖², and the post-measurement state is
v ⊗ c for the outcome's row.  It forms that state only where it is read:
a Mermin party before the last forwards it, and so does Eve unless she
resends a fresh reference; the last party's state, and every CHSH party's
(each re-prepares), are dropped.  A mask acts only on qudits that were
already measured, so it commutes with every later measurement: the engine
applies only the factors on Eve's qudit, folded into her bras as v†·M,
and no mask at all in a run without her.  The engine is the only round
player, and touches one qubit at a time by index arithmetic.  Its test
oracle is the dense reference layer in ``tests/dense.py``: a reference
player in the test suite replays the engine's variates with full D×D
operators, masking eagerly, and must reproduce every recorded outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import inequality, qmath
from .adversary import EveConfig
from .inequality import LOCAL_MATRICES, InequalityEstimate, split_label
from .noise import (
    FlipPrep,
    LossDetector,
    MisreadDetector,
    NoiseConfig,
    WhitePrep,
)
# lift_matrix is not called here; it stays bound because bench/spans.py wraps protocol.lift_matrix.
from .qmath import MAX_QUBIT_EQUIVALENT, PROB_FLOOR, InvariantViolation, PartyIndexing, lift_matrix  # noqa: F401

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


# Key-bit symbol of an erased record; key bits are 0 and 1.
ERASED_BIT = 2


@dataclass(frozen=True, eq=False)
class Transcript:
    """One run as int8 columns, row r being round r (see the module docstring).

    ``picks`` (rounds × N) indexes each party's ``party_labels``;
    ``outcomes`` (rounds × N) holds ±1, 0 for an erased record;
    ``eve_outcomes`` (rounds,) holds Eve's ±1, 0 where she did not measure.
    """

    config: ProtocolConfig
    picks: np.ndarray
    outcomes: np.ndarray
    eve_outcomes: np.ndarray

    def __post_init__(self):
        rounds, n = self.config.rounds, self.config.num_parties
        for name, shape in (("picks", (rounds, n)), ("outcomes", (rounds, n)), ("eve_outcomes", (rounds,))):
            column = np.asarray(getattr(self, name), dtype=np.int8)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, name, column)

    @cached_property
    def setting_labels(self) -> tuple[tuple[str, ...], ...]:
        """Each party's setting labels, which ``picks`` indexes."""
        return party_labels(self.config.kind, self.config.num_parties)

    @cached_property
    def kinds(self) -> RoundKinds:
        """Every round's kinds, decided by ``round_kinds``."""
        return round_kinds(self.config.kind, self.picks)


@dataclass(frozen=True)
class SiftingResult:
    """Round indices of each kind, and the key rounds' bits.

    ``key_bits`` is (N, key rounds): 0, 1, or ERASED_BIT.
    """

    key_rounds: np.ndarray
    check_rounds: np.ndarray
    discarded: np.ndarray
    key_bits: np.ndarray


@dataclass(frozen=True)
class KeyMaterial:
    bits: np.ndarray
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


class RoundKinds(NamedTuple):
    """Boolean columns, one entry per round."""

    key: np.ndarray
    revealed: np.ndarray
    check: np.ndarray


def round_kinds(kind: str, picks: np.ndarray) -> RoundKinds:
    """Key, revealed and check rounds of a run's (rounds × N) picks.

    A key round is one where every party picked the same key setting.
    Mermin reveals the rounds where every party picked X or Y, and checks
    all of them.  CHSH reveals every other round, and checks those where
    some adjacent pair picked a combination of its pair statistic: X or Z
    on the odd party with XpZ or ZmX on the even one.
    """
    n = picks.shape[1]
    prefixes = [[split_label(label)[0] for label in labels] for labels in party_labels(kind, n)]

    def picked(k: int, allowed) -> np.ndarray:
        """(rounds,): whether party k (from 0) picked a prefix in ``allowed``."""
        return np.array([p in allowed for p in prefixes[k]])[picks[:, k]]

    def all_picked(allowed) -> np.ndarray:
        return np.logical_and.reduce([picked(k, allowed) for k in range(n)])

    key = np.logical_or.reduce([all_picked((prefix,)) for prefix in KEY_PREFIXES[kind]])
    if kind == "mermin":
        revealed = all_picked(("X", "Y"))
        return RoundKinds(key, revealed, revealed)
    # no key round has such a pair: its settings are all Z or all XpZ
    member = [picked(k, ("XpZ", "ZmX") if k % 2 else ("X", "Z")) for k in range(n)]
    return RoundKinds(key, ~key, np.logical_or.reduce([a & b for a, b in zip(member, member[1:])]))


def key_bit(kind: str, party, outcome):
    """Outcome-to-bit map, ERASED_BIT for an erased 0; elementwise over arrays.

    Adjacent CHSH outcomes alternate, so the bit is parity-adjusted by party.
    """
    outcome = np.asarray(outcome)
    raw = (1 - outcome) // 2
    if kind == "chsh":
        raw = (raw + (party - 1)) % 2
    return np.where(outcome == 0, ERASED_BIT, raw)


def _rotation(axis: str, cos, sin):
    """Entries a, b, c, d of exp(iθ·σ_axis) = [[a, b], [c, d]], from cos θ and sin θ."""
    if axis == "X":
        return cos, 1j * sin, 1j * sin, cos
    if axis == "Y":
        return cos, sin, -sin, cos
    if axis == "Z":
        return cos + 1j * sin, 0j, 0j, cos - 1j * sin
    raise ValueError(f"masking axis must be a Pauli label, got {axis!r}")


def eigenbasis(local: np.ndarray) -> np.ndarray:
    """Rows v+ and v−: unit eigenvectors of a 2×2 involution for +1 and −1.

    Each row is the largest column of the eigenprojector (1 ± M)/2,
    normalized, so the Paulis get their textbook kets.
    """
    rows = []
    for sign in (1, -1):
        projector = (np.eye(2, dtype=np.complex128) + sign * local) / 2
        column = projector[:, np.argmax(np.linalg.norm(projector, axis=0))]
        rows.append(column / np.linalg.norm(column))
    return np.stack(rows)


#: Position of each setting prefix in the engine's eigenbasis table.
_PREFIX_INDEX = {prefix: i for i, prefix in enumerate(LOCAL_MATRICES)}


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

    Observables on different qudits commute exactly, and on the same qudit
    the lifted commutator holds the entries of the local one, so the 2×2
    matrices decide.
    """
    eve = config.eve
    if eve is None or eve.strategy == "none":
        return
    prefix, party = split_label(eve.observable)
    _qudit_indexing(config)._check_party(party)
    if eve.strategy != "commuting-measure":
        return
    for label in _future_labels(config, eve.position):
        other_prefix, other_party = split_label(label)
        if other_party != party:
            continue
        if qmath.commutator_norm(LOCAL_MATRICES[prefix], LOCAL_MATRICES[other_prefix]) > 1e-10:
            raise InvariantViolation(
                f"eve observable {eve.observable} does not commute with {label}; "
                "use the noncommuting-measure strategy"
            )


#: Amplitudes one block of rounds holds: blocks of max(MIN_BLOCK_ROUNDS,
#: budget // D) rounds.  8192 gives 128 rounds a block at D=64 and 1,024 at
#: D=8.  Against it, in 15 alternating runs of each engine (2 cores), 16384
#: took 0.76x the time at D=64 (a mermin-6 attack) but 1.52x at D=8 (mermin-3)
#: and 1.22x at D=4 (a chsh-4 attack); 4096 took 1.48x, 1.26x and 1.19x.
AMPLITUDE_BUDGET = 8192

#: Fewest rounds a block holds.  Every kernel's innermost loop runs over the
#: block's rounds, so with fewer its per-row start-up dominates.  In 8
#: alternating fresh interpreters each (2 cores), mermin N=12 (D=4096)
#: played 605-794 rounds/s in blocks of 2 and 1,342-1,963 in blocks of 8,
#: and N=11 (D=2048) 2,034-2,744 in blocks of 4 and 2,684-3,920 in blocks
#: of 8, for under 1 MB more peak memory.
MIN_BLOCK_ROUNDS = 8


class _Variates(NamedTuple):
    """One block's rows of every random stream (None for a stream the run skips)."""

    picks: np.ndarray
    born: np.ndarray
    angles: np.ndarray | None
    eve_u: np.ndarray | None
    noise_u: np.ndarray | None
    white_idx: np.ndarray | None


def _squared_norms(amplitudes: np.ndarray) -> np.ndarray:
    """‖column‖² of a (rows, B) complex array, one per round."""
    return (amplitudes.real**2 + amplitudes.imag**2).sum(axis=0)


def _choose(p_plus: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Born-rule outcomes ±1 from P(+1) and one uniform variate per round."""
    outcome = np.where(u < p_plus, 1, -1)
    outcome[1.0 - p_plus < PROB_FLOOR] = +1
    outcome[p_plus < PROB_FLOOR] = -1
    return outcome


class _Engine:
    """Precomputed per-run machinery and the block player.

    ``basis`` is the one measurement table: each setting prefix's 2×2
    eigenbasis, rows v+ and v−, in ``LOCAL_MATRICES`` order.  Per party,
    the tables below are indexed by the setting pick (0..2): its prefix's
    row of ``basis``, P(+1) on the reference state, the reference
    projections it prepares (rows +1, −1), and whether it is a key setting.
    A measurement collapses the state only where the state is read next
    (see the module docstring).
    """

    def __init__(self, config: ProtocolConfig):
        check_eve(config)
        self.config = config
        self.kind = config.kind
        self.num_parties = config.num_parties
        self.dim = config.dim
        self.indexing = _qudit_indexing(config)
        self.labels = party_labels(self.kind, self.num_parties)
        self.parsed = tuple(tuple(split_label(lab) for lab in labs) for labs in self.labels)
        self.basis = np.stack([eigenbasis(matrix) for matrix in LOCAL_MATRICES.values()])
        self.reference = self._reference_state()
        self.pre_post = {
            party: (self.dim // (2 * self.indexing.stride(party)), self.indexing.stride(party))
            for party in range(1, self.indexing.num_parties + 1)
        }
        self._product = np.empty(0, dtype=np.complex128)  # ``_contract``'s kept second product
        self.mask_axes = (
            ("X", "Y", "Z") if (config.masking_include_key or self.kind == "chsh") else ("X", "Y")
        )
        self.mask_plan = self._masking_plan()
        self.prep_noise = config.noise.prep if config.noise else None
        self.det_noise = config.noise.detector if config.noise else None
        self.eve = config.eve if (config.eve and config.eve.strategy != "none") else None
        self.eve_parsed = split_label(self.eve.observable) if self.eve is not None else None
        self.projected, reference_p_plus = self._reference_projections()
        self.qudit = [parsed[0][1] for parsed in self.parsed]
        # (row v±, component, setting): ``np.take`` over the last axis gives a block's (2, 2, B)
        self.setting_basis = [self.basis[[_PREFIX_INDEX[p] for p, _ in ps]].transpose(1, 2, 0) for ps in self.parsed]
        self.setting_p_plus = [np.array([reference_p_plus[pair] for pair in ps]) for ps in self.parsed]
        self.setting_prepared = [np.hstack([self.projected[pair] for pair in ps]) for ps in self.parsed]
        self.setting_key = [np.array([p in KEY_PREFIXES[self.kind] for p, _ in ps]) for ps in self.parsed]
        self._open_streams()

    # -- construction ----------------------------------------------------

    def _reference_state(self) -> np.ndarray:
        amps = np.zeros(self.dim, dtype=np.complex128)
        if self.kind == "mermin":
            amps[0], amps[-1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        else:
            amps[1], amps[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        return amps

    def _masking_plan(self):
        """Per sending party: (qudit party, angle-slice) pairs to re-randomize."""
        width = len(self.mask_axes)
        plan, offset = {}, 0
        for k in range(1, self.num_parties):
            parties = range(1, k + 1) if self.kind == "mermin" else (1 if k % 2 == 1 else 2,)
            plan[k] = tuple(
                (party, slice(offset + i * width, offset + (i + 1) * width))
                for i, party in enumerate(parties)
            )
            offset += width * len(parties)
        self._mask_angle_count = offset
        return plan

    def _reference_projections(self):
        """Read-only normalized projections of the reference state, and P(+1).

        Keyed by (prefix, party) for every setting and for Eve's
        observable: (D, 2) columns +1 and −1 hold what a party prepares
        for an outcome, and what Eve forwards under the ``fresh-reference``
        resend rule; beside them, P(+1) when the reference itself is measured.
        """
        observables = {pair for parsed in self.parsed for pair in parsed}
        if self.eve_parsed is not None:
            observables.add(self.eve_parsed)
        table, p_plus = {}, {}
        for prefix, party in observables:
            kets = self.basis[_PREFIX_INDEX[prefix]].T  # (component, row v±)
            rest = self._contract(kets.conj(), np.broadcast_to(self.reference[:, None], (self.dim, 2)), party)
            weights = _squared_norms(rest)
            columns = self._collapse(kets / np.sqrt(weights), rest, party)
            columns.setflags(write=False)
            table[prefix, party] = columns
            p_plus[prefix, party] = weights[0]
        return table, p_plus

    def _open_streams(self):
        """Open the named streams; draw whole the arrays other draws follow.

        The round stream draws every round's picks before any Born
        variate, and the noise stream its integers after its uniforms, so
        those arrays are drawn whole here.  The integers pick white noise's
        basis states and are the noise stream's last draw, so they are
        drawn only under white preparation noise.  Born, masking and Eve
        uniforms are drawn block by block in ``_draw``, which yields the
        same values as one draw for the whole run.
        """
        config = self.config
        rounds, n = config.rounds, self.num_parties
        self._g_round = stream_generator(config.seed, "round")
        self.picks = self._g_round.integers(0, 3, size=(rounds, n)).astype(np.int8)
        self._born_cols = n + (n - 1 if self.kind == "chsh" else 0)
        masked = config.masking_enabled and self._mask_angle_count
        self._g_mask = stream_generator(config.seed, "masking") if masked else None
        self._g_eve = stream_generator(config.seed, "eve") if self.eve is not None else None
        self._noise_u = self._white_idx = None
        if config.noise is not None:
            g_noise = stream_generator(config.seed, "noise")
            self._noise_preparers = 1 if self.kind == "mermin" else n - 1
            self._noise_u = g_noise.random(size=(rounds, self._noise_preparers + n - 1))
            if isinstance(config.noise.prep, WhitePrep):
                self._white_idx = g_noise.integers(0, self.dim, size=(rounds, self._noise_preparers))
        self._drawn = 0

    def _draw(self, size: int) -> _Variates:
        """Every stream's rows for the next ``size`` rounds of the run."""
        rows = slice(self._drawn, self._drawn + size)
        self._drawn += size
        return _Variates(
            picks=self.picks[rows],
            born=self._g_round.random(size=(size, self._born_cols)),
            angles=(
                None if self._g_mask is None
                else self._g_mask.random(size=(size, self._mask_angle_count)) * TWO_PI
            ),
            eve_u=None if self._g_eve is None else self._g_eve.random(size=(size, 2)),
            noise_u=None if self._noise_u is None else self._noise_u[rows],
            white_idx=None if self._white_idx is None else self._white_idx[rows],
        )

    # -- batched single-party linear algebra -------------------------------

    def _contract(self, bras: np.ndarray, states: np.ndarray, party: int) -> np.ndarray:
        """(D/2, B) contractions w·s over party's qubit, of (2, B) bras, or one (2, 1)."""
        pre, post = self.pre_post[party]
        width = states.shape[-1]
        s = states.reshape(pre, 2, post, width)
        out = bras[0] * s[:, 0]
        # the second product goes to a kept buffer: a fresh temporary, freed at
        # once, page-faulted on every step at some block sizes (mermin N=11 in
        # blocks of 8: 228 minor faults a round, at about half the speed)
        if self._product.size < out.size:
            self._product = np.empty(out.size, dtype=np.complex128)
        out += np.multiply(bras[1], s[:, 1], out=self._product[:out.size].reshape(out.shape))
        return out.reshape(-1, width)

    def _collapse(self, kets: np.ndarray, rest: np.ndarray, party: int, out=None) -> np.ndarray:
        """(D, B) states ket ⊗ rest, with party's qubit in the ket, of (2, B) kets.

        Written to ``out``, a contiguous (D, B) array, when one is given.
        """
        pre, post = self.pre_post[party]
        width = rest.shape[-1]
        shaped = None if out is None else out.reshape(pre, 2, post, width)
        product = np.multiply(kets[None, :, None], rest.reshape(pre, 1, post, width), out=shaped)
        return product.reshape(-1, width)

    def _measure(self, states, bases, party: int, u, out=None, bras=None):
        """Born-rule outcomes, and the post-measurement states if ``out`` is given.

        ``bases`` is (2, 2, B), or one (2, 2, 1): rows v+ and v−, then
        their components.  ``bras`` defaults to v†; Eve's are v†·M, with
        her mask folded in (``_mask``).  P(+1) = ‖c+‖² for the half-size
        c+ = v+†·s; the post state v ⊗ c of the outcome's row, its norm
        folded into v, goes to ``out``, a contiguous (D, B) array that may
        be ``states`` itself.  Returns (outcome, post or None).
        """
        if bras is None:
            bras = bases.conj()
        p_plus = _squared_norms(self._contract(bras[0], states, party))
        outcome = _choose(p_plus, u)
        if out is None:
            return outcome, None
        minus = outcome < 0
        rest = self._contract(np.where(minus, bras[1], bras[0]), states, party)
        norm = np.sqrt(np.where(minus, np.maximum(1.0 - p_plus, PROB_FLOOR), p_plus))
        kets = np.where(minus, bases[1], bases[0]) / norm
        return outcome, self._collapse(kets, rest, party, out)

    # -- per-party steps ---------------------------------------------------

    def _mask(self, bras, angles, link: int, party: int) -> np.ndarray:
        """Eve's ``bras`` times the masking M on qudit ``party`` of a state crossing ``link``: v†·M.

        ``bras`` is (2, 2, B) or (2, 2, 1), as ``_measure`` takes it.  A
        mask acts only on qudits that were already measured, so it
        commutes with every later measurement and is applied only where
        Eve reads: the factors on her qudit, in sender order.  Mermin
        senders 1..link mask qudits 1..sender; in CHSH only the link's
        sender has masked the re-prepared pair.  M is the product of
        those factors, the first applied first, so the bras take them
        last factor first.  Without factors the bras are returned as given.
        """
        if angles is None:
            return bras
        senders = range(1, link + 1) if self.kind == "mermin" else (link,)
        columns = [
            np.arange(chunk.start, chunk.stop)
            for sender in senders for hop, chunk in self.mask_plan[sender] if hop == party
        ]
        if not columns:
            return bras
        angles = angles[:, np.concatenate(columns)].T
        w0, w1 = bras[:, 0], bras[:, 1]
        factors = list(zip(self.mask_axes * len(columns), np.cos(angles), np.sin(angles)))
        for axis, cos, sin in reversed(factors):
            ra, rb, rc, rd = _rotation(axis, cos, sin)
            w0, w1 = w0 * ra + w1 * rc, w0 * rb + w1 * rd
        return np.stack([w0, w1], axis=1)

    def _eve_hook(self, states, link: int, v: _Variates):
        """Eve's step on the block's ``states``, in place: the forwarded
        states and her outcomes (0 where she skips the round).

        Returns the states unchanged and None when she attacks no round of
        the block at ``link``.
        """
        eve = self.eve
        if eve is None or eve.position != link:
            return states, None
        active = v.eve_u[:, 0] < eve.activity_rate
        if not active.any():
            return states, None
        prefix, party = self.eve_parsed
        bases = self.basis[_PREFIX_INDEX[prefix], :, :, None]
        fresh = eve.resend == "fresh-reference"
        outcome, post = self._measure(
            states, bases, party, v.eve_u[:, 1], out=None if fresh else np.empty_like(states),
            bras=self._mask(bases.conj(), v.angles, link, party),
        )
        if fresh:
            post = self.projected[prefix, party][:, (1 - outcome) // 2]
        np.copyto(states, post, where=active)
        return states, np.where(active, outcome, 0)

    def _detector_record(self, outcome, bob: int, pick, v: _Variates):
        """What ``bob``'s detector records: ±1, or 0 for an erasure."""
        det = self.det_noise
        if det is None:
            return outcome
        key = self.setting_key[bob - 1][pick]
        u = v.noise_u[:, self._noise_preparers + bob - 2]
        if isinstance(det, MisreadDetector):
            return np.where(key & (u < det.eta), -outcome, outcome)
        if isinstance(det, LossDetector):
            return np.where(key & (u >= det.eta), 0, outcome)
        raise TypeError(f"unsupported detector noise {det!r}")

    def _prepare(self, bob: int, pick, outcome, v: _Variates, out=None) -> np.ndarray:
        """States actually emitted when ``bob`` prepares for ``outcome``, one per round.

        Written to ``out``, a (D, B) array, when one is given.

        Without noise, and for settings outside the key, this is the
        reference state's projection for the outcome.  A key setting's
        flip noise first flips the outcome, with eps1 or eps2 chosen by its
        key bit; white noise instead emits a uniformly drawn basis state.
        """
        prep = self.prep_noise
        white = None
        if prep is not None:
            slot = 0 if self.kind == "mermin" else bob - 1
            key = self.setting_key[bob - 1][pick]
            u = v.noise_u[:, slot]
            if isinstance(prep, FlipPrep):
                eps = np.where(key_bit(self.kind, bob, outcome) == 0, prep.eps1, prep.eps2)
                outcome = np.where(key & (u < eps), -outcome, outcome)
            elif isinstance(prep, WhitePrep):
                white = key & (u < prep.eps)
            else:
                raise TypeError(f"unsupported preparation noise {prep!r}")
        columns = self.setting_prepared[bob - 1]  # (D, 6): setting-major, then ±1
        # mode="clip" writes straight into ``out``; the indices are in range
        states = np.take(columns, 2 * pick + (1 - outcome) // 2, axis=1, out=out, mode="clip")
        if white is not None and white.any():
            states[:, white] = 0.0
            states[v.white_idx[white, slot], white] = 1.0
        return states

    # -- block execution ---------------------------------------------------

    def play_block(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Play the run's next ``size`` rounds as one (D, size) array, party by party.

        Returns the block's ``outcomes`` and ``eve_outcomes`` columns.
        """
        v = self._draw(size)
        n = self.num_parties
        outcomes = np.empty((size, n), dtype=np.int8)
        eve_outcomes = np.zeros(size, dtype=np.int8)

        # the block's one (D, size) array: every step overwrites it
        states = np.empty((self.dim, size), dtype=np.complex128)
        pick = v.picks[:, 0]
        outcomes[:, 0] = _choose(self.setting_p_plus[0][pick], v.born[:, 0])
        self._prepare(1, pick, outcomes[:, 0], v, out=states)
        for bob in range(2, n + 1):
            _, hit = self._eve_hook(states, bob - 1, v)
            if hit is not None:
                eve_outcomes[:] = hit
            pick = v.picks[:, bob - 1]
            # only a Mermin party before the last forwards its post state
            forwards = self.kind == "mermin" and bob < n
            true_outcome, _ = self._measure(
                states, np.take(self.setting_basis[bob - 1], pick, axis=-1), self.qudit[bob - 1],
                v.born[:, bob - 1], out=states if forwards else None,
            )
            outcomes[:, bob - 1] = self._detector_record(true_outcome, bob, pick, v)
            if self.kind == "chsh" and bob < n:
                intent = outcomes[:, bob - 1]
                erased = intent == 0
                if erased.any():  # an erased record re-prepares from a fresh draw
                    redraw = _choose(self.setting_p_plus[bob - 1][pick], v.born[:, n + bob - 2])
                    intent = np.where(erased, redraw, intent)
                self._prepare(bob, pick, intent, v, out=states)
        return outcomes, eve_outcomes


def run_protocol(config: ProtocolConfig) -> Transcript:
    """Execute all rounds in order, a block of rounds at a time."""
    engine = _Engine(config)
    block = max(MIN_BLOCK_ROUNDS, AMPLITUDE_BUDGET // config.dim)
    outcomes, eve_outcomes = zip(*(
        engine.play_block(min(block, config.rounds - start))
        for start in range(0, config.rounds, block)
    ))
    return Transcript(config, engine.picks, np.concatenate(outcomes), np.concatenate(eve_outcomes))


def sift(transcript: Transcript) -> SiftingResult:
    """Partition rounds into key / check / discarded and derive key bits."""
    kinds = transcript.kinds
    key_rounds = np.flatnonzero(kinds.key)
    parties = np.arange(1, transcript.config.num_parties + 1)
    key_bits = key_bit(transcript.config.kind, parties, transcript.outcomes[key_rounds]).T
    return SiftingResult(
        key_rounds, np.flatnonzero(kinds.check), np.flatnonzero(~(kinds.key | kinds.check)),
        key_bits.astype(np.int8),
    )


def extract_key(sifting: SiftingResult) -> KeyMaterial:
    """Aligned per-party bit strings plus the all-party agreement fraction."""
    bits = sifting.key_bits
    complete = (bits != ERASED_BIT).all(axis=0)
    num_complete = int(complete.sum())
    agree = int((complete & (bits == bits[:1]).all(axis=0)).sum())
    fraction = agree / num_complete if num_complete else None
    return KeyMaterial(bits, len(sifting.key_rounds), num_complete, fraction)


def mermin_check_estimate(transcript: Transcript) -> InequalityEstimate:
    spec = inequality.mermin_spec(transcript.config.num_parties)
    return inequality.estimate_from_transcript(transcript, spec)


def chsh_pair_estimates(transcript: Transcript) -> dict[int, InequalityEstimate]:
    """Per adjacent pair (link k joins parties k and k+1)."""
    out = {}
    for k in range(1, transcript.config.num_parties):
        spec = inequality.chsh_pair_spec(k, first_party_odd=(k % 2 == 1))
        out[k] = inequality.estimate_from_transcript(transcript, spec)
    return out


def check_estimates(transcript: Transcript) -> dict[str, InequalityEstimate]:
    """All violation statistics relevant to the transcript's protocol."""
    if transcript.config.kind == "mermin":
        return {"mermin": mermin_check_estimate(transcript)}
    return {f"pair_{k}": est for k, est in chsh_pair_estimates(transcript).items()}


def all_checks_violated(estimates: dict[str, InequalityEstimate]) -> bool | None:
    """Whether every check statistic violates its classical bound.

    False as soon as a check with samples for every term fails to violate;
    otherwise None while some check has a term without samples, because
    missing data is no evidence of eavesdropping.
    """
    if any(est.usable and not est.violated for est in estimates.values()):
        return False
    if any(not est.usable for est in estimates.values()):
        return None
    return True


def insufficient_terms(estimates: dict[str, InequalityEstimate]) -> list[str]:
    """``check:term`` for every inequality term without samples, sorted."""
    return sorted(
        f"{name}:{term}"
        for name, est in estimates.items()
        for term, count in est.samples_per_term.items()
        if count == 0
    )
