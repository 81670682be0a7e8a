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
transcript writer all read it from there.  Whether the run keeps its key
is decided in one place too: ``Transcript.verdict`` (by ``verdict``) owns
the overall status, and the report, the summary, the exit code and the
leakage analysis all read it.

The columns stay int8, but every lookup in a small table and every code
indexes with intp (or compares, or goes through ``np.take``), and the
per-party columns are combined by in-place elementwise loops (``+=``,
``*=``, ``&=``, ``|=``).  Over 2-6 int8 columns, a fancy index by a
strided int8 column, an integer ``@`` and a ``prod(axis=1)`` run numpy's
generic loops, slow for such shapes (README's internals section gives
the figures).

All randomness flows from one 64-bit seed through named streams
(round, masking, eve, noise), one array row per round.  The engine plays
blocks of B = ``block_rounds(D)`` rounds, party by party, on one thread;
it draws the Born, masking and Eve rows block by block (masking rows only
in a masked run where a mask factor reaches Eve's qudit, their one
reader), and the picks and noise rows whole.
A round depends only on its own rows, so it is the same whatever block it
falls in.  Toggling masking, noise, or the eavesdropper never shifts the
other streams.

What a run derives from its shape alone (the kind, the parties,
``masking_enabled``, ``masking_include_key``, Eve, and whether
preparation noise is white) is an ``EnginePlan``: the labels, the mask
layout, the per-setting tables, the reference tables and the hop tables,
all read-only.  A sweep builds one plan and passes it to ``run_protocol``
for each of its points, which differ only in their noise parameters; the
engine keeps the streams, the noise parameters and its scratch buffers.
No plan outlives its caller.

The state reaching a party is one of K states fixed by the earlier picks
and outcomes: one of the 6 the previous party prepares (with the D basis
states under white noise), or one of 6^(k−1) post states before Mermin
party k.  Each party's hop table, built once a run, holds P(+1) for the
3K (state, pick) pairs and, for a forwarding Mermin party, the 6K post
states; a block then looks its outcomes up by integer codes.  A party
that prepares (the first, and every CHSH party before the last) reads a
K = 1 table on the reference state: P(+1) of its 3 picks, and the 6
states it prepares.  Eve keeps the state one of finitely many only where
no mask reaches her qudit at her link (masking is off, or no sender's
factor lands there; her basis is then the same every round): her table
holds P(+1) for her K incoming states, and her 3K outgoing ones are those
K, for the rounds she skips, then her 2K post states (under
``fresh-reference``, her own K = 1 reference table's 2, tiled per code).
One method, ``EnginePlan._table``, builds every one of these tables.  A
masked Eve measures dense states (the mask is one per round).  The first
party, or Eve, without a table gathers the codes into one (D, B) array,
amplitude-major with the rounds innermost, which every later step
overwrites in place; after it only a CHSH re-preparation starts a table
again.  Every table needs its 3K ≤ B (for Eve, her 3K outgoing columns),
so a table holds at most two blocks' amplitudes.  A table entry is the
dense step's arithmetic on the same state, so no pinned byte moves;
numpy's vector and scalar loops may round its P(+1) one ulp apart, which
moves an outcome only when the round's variate falls inside that ulp.  A
fully tabled run (every party from 2 on has a table, and so Eve if there
is one: mermin N=3 and CHSH, without Eve or with an unmasked one) holds
no (D, B) state, and plays longer blocks of ``tabled_block_rounds``
rounds; the cap on the tables stays 3K ≤ ``block_rounds(D)``, so no table
depends on the block.

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
applies only the factors on Eve's qudit, composed as one SU(2) matrix M a
round and folded into her bras as v†·M, and draws no masking angle at
all in a run where no factor reaches her qudit.  The engine is the only round
player, and touches one qubit at a time by index arithmetic.  Its test
oracle is the dense reference layer in ``tests/dense.py``: a reference
player in the test suite replays the engine's variates with full D×D
operators, masking eagerly, and must reproduce every recorded outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import inequality, qmath
from .inequality import LOCAL_MATRICES, InequalityEstimate, split_label
from .noise import (
    FlipPrep,
    LossDetector,
    MisreadDetector,
    NoiseConfig,
    WhitePrep,
)
# lift_matrix is not called here; it stays bound because bench/spans.py wraps protocol.lift_matrix.
from .qmath import MAX_QUBIT_EQUIVALENT, PROB_FLOOR, InvariantViolation, lift_matrix  # noqa: F401

if TYPE_CHECKING:  # an annotation only: adversary imports this module
    from .adversary import EveConfig

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

    @cached_property
    def sifting(self) -> SiftingResult:
        """The run's key, check and discarded rounds, decided by ``sift``."""
        return sift(self)

    @cached_property
    def estimates(self) -> dict[str, InequalityEstimate]:
        """The run's violation statistics, from ``check_estimates``."""
        return check_estimates(self)

    @cached_property
    def verdict(self) -> Verdict:
        """The run's overall status, decided by ``verdict``."""
        return verdict(self.estimates)


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

    Each party's int8 column is compared with its allowed picks, and the
    parties' booleans are combined in place with ``&=`` and ``|=``.
    """
    n = picks.shape[1]
    prefixes = [[split_label(label)[0] for label in labels] for labels in party_labels(kind, n)]

    def picked(k: int, allowed) -> np.ndarray:
        """(rounds,): whether party k (from 0) picked a prefix in ``allowed``.

        A party picks one of three settings, so one allowed pick is
        compared for equality, and two for inequality with the third.
        """
        hits = [pick for pick, prefix in enumerate(prefixes[k]) if prefix in allowed]
        if len(hits) == 1:
            return picks[:, k] == hits[0]
        (miss,) = {0, 1, 2} - set(hits)
        return picks[:, k] != miss

    def all_picked(allowed) -> np.ndarray:
        out = picked(0, allowed)
        for k in range(1, n):
            out &= picked(k, allowed)
        return out

    first, *others = KEY_PREFIXES[kind]
    key = all_picked((first,))
    for prefix in others:
        key |= all_picked((prefix,))
    if kind == "mermin":
        revealed = all_picked(("X", "Y"))
        return RoundKinds(key, revealed, revealed)
    # no key round has such a pair: its settings are all Z or all XpZ
    member = [picked(k, ("XpZ", "ZmX") if k % 2 else ("X", "Z")) for k in range(n)]
    check = member[0] & member[1]
    for a, b in zip(member[1:], member[2:]):
        check |= a & b
    return RoundKinds(key, ~key, check)


def key_bit(kind: str, party, outcome):
    """Outcome-to-bit map, ERASED_BIT for an erased 0; elementwise over arrays.

    Adjacent CHSH outcomes alternate, so the bit is parity-adjusted by party.
    """
    outcome = np.asarray(outcome)
    raw = (1 - outcome) // 2
    if kind == "chsh":
        raw = (raw + (party - 1)) % 2
    return np.where(outcome == 0, ERASED_BIT, raw)


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
#: The read-only eigenbasis table: each prefix's rows v+ and v−, in ``LOCAL_MATRICES`` order.
_BASIS = np.stack([eigenbasis(matrix) for matrix in LOCAL_MATRICES.values()])
_BASIS.setflags(write=False)


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
    if eve is None:
        return
    prefix, party = split_label(eve.observable)
    qudits = config.dim.bit_length() - 1  # the state's qudit parties: all N, or the CHSH pair
    if not 1 <= party <= qudits:
        raise ValueError(f"party {party} out of range 1..{qudits}")
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


def block_rounds(dim: int) -> int:
    """Rounds one engine block of a D-dimensional run holds.

    Blocks of 8,192 amplitudes, but at least 512 rounds and at most 32,768
    amplitudes: 2,048 rounds at D=4, 1,024 at D=8, 512 for D=16..64, then
    32768 // D, down to 8 at D=4096.  The kernels' inner loops run over the
    rounds, so short blocks pay per-row start-up (README's internals section
    gives the measurements).  Every block size gives the same outcomes.  A
    fully tabled run plays ``tabled_block_rounds`` instead, but the hop
    tables' cap, 3K ≤ B, is always this B.
    """
    return min(32768 // dim, max(512, 8192 // dim))


def tabled_block_rounds(dim: int, num_parties: int) -> int:
    """Rounds one engine block of a fully tabled run holds (see ``EnginePlan.fully_tabled``).

    Blocks of 16,384 party-rounds, but at least ``block_rounds(D)``: 5,461
    rounds for mermin N=3, 8,192 for chsh N=2, 4,096 for chsh N=4 and
    2,048 from chsh N=8 on.  Such a block holds no (D, B) state, only
    per-party columns of intp codes, variates and outcomes, so it may be
    longer than ``block_rounds(D)``; those columns grow with N, and in
    blocks of 8,192 a noisy chsh N=8 run of 10^6 rounds peaked about 1 MB
    higher, no faster (README's internals section gives the grid).  Every
    block size gives the same outcomes.
    """
    return max(block_rounds(dim), 16384 // num_parties)


class _Variates(NamedTuple):
    """One block's rows of every random stream (None for a stream the run skips)."""

    picks: np.ndarray
    born: np.ndarray
    angles: np.ndarray | None
    eve_u: np.ndarray | None
    noise_u: np.ndarray | None
    white_idx: np.ndarray | None


class _Hop(NamedTuple):
    """A party's hop table, for an incoming state that is one of K columns.

    ``p_plus`` (3K,) holds P(+1) of pair = code·3 + pick; ``post`` (D, 6K),
    for a forwarding Mermin party only, the normalized post state of pair
    and outcome in column pair·2 + (outcome < 0), the next party's code.
    A preparing party's reference table (``EnginePlan.references``) is one
    with K = 1, the reference state: ``p_plus`` (3,) per pick, and ``post``
    (D, 6) the state it prepares in column pick·2 + (outcome < 0).  Eve's
    ``fresh-reference`` table (``EnginePlan.eve_reference``) is the same
    in her one basis: ``p_plus`` (1,), ``post`` (D, 2).
    Eve's table (``EnginePlan.eve_hop``) has one basis, so its ``p_plus``
    (K,) is indexed by the code itself, and its ``post`` (D, 3K) holds the
    K incoming columns, for the rounds she skips, then what she forwards
    for code and outcome in column K + code·2 + (outcome < 0).
    """

    p_plus: np.ndarray
    post: np.ndarray | None


def _squared_norms(amplitudes: np.ndarray) -> np.ndarray:
    """‖column‖² of a (rows, B) complex array, one per round."""
    return (amplitudes.real**2 + amplitudes.imag**2).sum(axis=0)


def _choose(p_plus: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Born-rule outcomes ±1 (int64) from P(+1) and one uniform variate per round.

    +1 where u < P(+1), with a probability under PROB_FLOOR taken as 0.
    """
    plus = (u < p_plus) | (1.0 - p_plus < PROB_FLOOR)
    plus &= p_plus >= PROB_FLOOR
    return np.where(plus, 1, -1)


def _plan_shape(config: ProtocolConfig) -> tuple:
    """What an engine plan is derived from: the kind, the parties, whether masking
    is on and the key joins its generators, Eve, and whether preparation noise is white."""
    prep = config.noise.prep if config.noise else None
    return (config.kind, config.num_parties, config.masking_enabled, config.masking_include_key, config.eve,
            isinstance(prep, WhitePrep))


class _Kernels:
    """The block player's one-qubit kernels on D-dimensional states, and the buffer they keep.

    Each engine has its own; an ``EnginePlan`` builds its tables with one it
    drops afterwards.
    """

    def __init__(self, dim: int):
        # party 1 owns the most significant bit: (pre, post) amplitudes above and below it
        self.pre_post = {party: (2 ** (party - 1), dim >> party) for party in range(1, dim.bit_length())}
        self._product = np.empty(0, dtype=np.complex128)  # ``_contract``'s kept second product

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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only."""
    array.setflags(write=False)
    return array


class EnginePlan:
    """What an engine derives from its run's shape alone, built once and shared by its runs.

    The shape (``shape``) is the kind, the parties, ``masking_enabled``,
    ``masking_include_key``, Eve, and whether preparation noise is white;
    the seed, the rounds and the noise parameters are the run's own, so one
    plan serves every point of a sweep.  Per party, ``setting_basis`` and
    ``setting_key`` are indexed by the setting pick (0..2): its prefix's
    eigenbasis (rows v+ and v−, from the module's ``_BASIS``) and whether
    it is a key setting; ``eve_basis`` is Eve's one eigenbasis, and
    ``eve_mask`` the mask factors on her qudit (``_mask_layout``).  Every
    (P(+1), post state) table is a ``_Hop`` built by ``_table``:
    ``references`` holds each preparing party's K = 1 table on the
    reference state (what it measures and prepares; index bob − 1, the
    first party and, for CHSH, every party before the last, one table per
    parity), and ``eve_reference`` Eve's under ``fresh-reference`` (None
    otherwise); ``hops`` holds each party's hop table, or None where it
    measures dense states, and ``eve_hop`` Eve's, or None where she does
    (``eve_masked``); a run is ``fully_tabled`` when every party from 2
    on has one.  Nothing in a plan changes once it is built: its arrays
    are read-only, its sequences tuples.
    """

    def __init__(self, config: ProtocolConfig):
        check_eve(config)
        self.shape = _plan_shape(config)
        self.kind = config.kind
        self.num_parties = config.num_parties
        self.dim = config.dim
        self.qudits = self.dim.bit_length() - 1
        self.labels = party_labels(self.kind, self.num_parties)
        self.parsed = tuple(tuple(split_label(lab) for lab in labs) for labs in self.labels)
        self.eve_parsed = split_label(config.eve.observable) if config.eve is not None else None
        # Eve's one basis, (2, 2, 1) as ``_measure`` takes it
        self.eve_basis = None if config.eve is None else _BASIS[_PREFIX_INDEX[self.eve_parsed[0]], :, :, None]
        self._mask_angle_count, self.eve_mask = self._mask_layout(config)
        self.eve_masked = self.eve_mask is not None
        self.qudit = tuple(parsed[0][1] for parsed in self.parsed)
        # (row v±, component, setting): ``np.take`` over the last axis gives a block's (2, 2, B)
        self.setting_basis = tuple(
            _read_only(_BASIS[[_PREFIX_INDEX[p] for p, _ in ps]].transpose(1, 2, 0)) for ps in self.parsed
        )
        self.setting_key = tuple(
            _read_only(np.array([p in KEY_PREFIXES[self.kind] for p, _ in ps])) for ps in self.parsed
        )
        kernels = _Kernels(self.dim)
        # the reference: (|0…0⟩ + i|1…1⟩)/√2 for Mermin, the singlet (|01⟩ − |10⟩)/√2 for CHSH
        reference = np.zeros((self.dim, 1), dtype=np.complex128)
        if self.kind == "mermin":
            reference[0], reference[-1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        else:
            reference[1], reference[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        preparers = 1 if self.kind == "mermin" else self.num_parties - 1
        # CHSH parties of one parity share their settings and qudit, and so their table
        tables = [self._table(kernels, np.repeat(reference, 3, axis=1), self.setting_basis[k], self.qudit[k], True)
                  for k in range(min(preparers, 2))]
        self.references = tuple(tables[k % 2] for k in range(preparers))
        self.eve_reference = None
        if config.eve is not None and config.eve.resend == "fresh-reference":
            self.eve_reference = self._table(kernels, reference, self.eve_basis, self.eve_parsed[1], True)
        prep = config.noise.prep if config.noise else None
        self.hops, self.eve_hop = self._hop_tables(kernels, config.eve, white=isinstance(prep, WhitePrep))
        # an Eve without a table leaves the hop behind her without one
        self.fully_tabled = all(hop is not None for hop in self.hops[1:])

    def _mask_layout(self, config: ProtocolConfig) -> tuple[int, tuple[np.ndarray, str] | None]:
        """The masking stream's row width, and the angle columns and axes of the factors on Eve's qudit.

        Each sender s draws one angle per axis (XYZ, or XY for Mermin without
        the key) for each qudit it masks, in sender order: Mermin s masks
        qudits 1..s, CHSH s qudit 2 − s % 2.  Eve at link L reads senders
        1..L (Mermin) or L (CHSH); None where no factor reaches her qudit.
        """
        axes = "XYZ" if config.masking_include_key or self.kind == "chsh" else "XY"
        width, n = len(axes), self.num_parties
        count = width * (n * (n - 1) // 2 if self.kind == "mermin" else n - 1)
        if not config.masking_enabled or config.eve is None:
            return count, None
        link, party = config.eve.position, self.eve_parsed[1]
        if self.kind == "mermin":  # sender s's angles follow the width·s(s−1)/2 of senders 1..s−1
            starts = [width * (s * (s - 1) // 2 + party - 1) for s in range(1, n) if party <= s <= link]
        else:
            starts = [width * (link - 1)] if party == 2 - link % 2 else []
        columns = _read_only(np.add.outer(np.array(starts, dtype=np.intp), np.arange(width)).ravel())
        return count, (columns, axes * len(starts)) if starts else None

    def _hop_tables(self, kernels: _Kernels, eve, white: bool) -> tuple[tuple[_Hop | None, ...], _Hop | None]:
        """Per party (index bob − 1), its hop table, or None where it measures dense states; and Eve's.

        A party's K incoming columns are what the previous party prepares
        (its reference table's 6 post columns, then basis state j as code
        6 + j under white noise), or for a later Mermin party the previous
        table's post columns; Eve at the link before it turns them into her table's 3K
        (``_eve_table``).  The 3K pairs go through ``_table`` as one
        (D, 3K) stack, once per ``key``: a CHSH hop depends only on the party's
        parity and on Eve at the link before it.  The module docstring says which hops get tables.
        """
        cap = block_rounds(self.dim)
        white = self.dim if white else 0
        hops, eve_hop, columns, built = [None] * self.num_parties, None, None, {}
        for bob in range(2, self.num_parties + 1):
            at_eve = eve is not None and eve.position == bob - 1
            key = (bob % 2, at_eve) if self.kind == "chsh" else bob
            if key in built:
                hops[bob - 1] = built[key]
                continue
            if self.kind == "chsh" or bob == 2:
                columns = None if 3 * (6 + white) > cap else np.hstack(
                    [self.references[bob - 2].post, np.eye(self.dim, white, dtype=np.complex128)]
                )
            if at_eve and columns is not None:
                eve_hop = self._eve_table(kernels, eve, columns, cap)
                columns = None if eve_hop is None else eve_hop.post
            if columns is None or 3 * columns.shape[1] > cap:
                columns = None
                continue
            states = np.repeat(columns, 3, axis=1)  # column pair = code·3 + pick
            bases = np.tile(self.setting_basis[bob - 1], columns.shape[1])
            forwards = self.kind == "mermin" and bob < self.num_parties
            hops[bob - 1] = built[key] = self._table(kernels, states, bases, self.qudit[bob - 1], forwards)
            columns = hops[bob - 1].post
        return tuple(hops), eve_hop

    def _eve_table(self, kernels: _Kernels, eve, columns: np.ndarray, cap: int) -> _Hop | None:
        """Eve's table on her K incoming ``columns``, or None where she measures dense states.

        She has one only where no mask reaches her qudit (``eve_masked``),
        so that she measures in the one basis of her observable every round,
        and only while her 3K outgoing columns fit the cap.  Under
        ``fresh-reference`` she forwards the reference's projection for her
        outcome, whatever the code, so those columns are her reference
        table's 2 post columns tiled once per code.
        """
        k = columns.shape[1]
        if self.eve_masked or 3 * k > cap:
            return None
        fresh = eve.resend == "fresh-reference"
        table = self._table(kernels, columns, self.eve_basis, self.eve_parsed[1], forwards=not fresh)
        post = np.tile(self.eve_reference.post, k) if fresh else table.post
        return _Hop(table.p_plus, _read_only(np.hstack([columns, post])))

    @staticmethod
    def _table(kernels: _Kernels, states: np.ndarray, bases: np.ndarray, party: int, forwards: bool) -> _Hop:
        """P(+1) of each of the (D, M) ``states`` in ``bases`` on ``party``'s qubit, and the post states.

        ``bases`` is (2, 2, M), or one (2, 2, 1), as ``_measure`` takes it;
        the post states, only if ``forwards``, are normalized and sit in
        column m·2 + (outcome < 0).  Normalizing by the floored
        probabilities keeps an unreachable outcome's column finite;
        ``_choose`` never picks it, so it is never read.
        """
        bras = bases.conj()
        p_plus = _squared_norms(kernels._contract(bras[0], states, party))
        post = None
        if forwards:
            post = _read_only(np.stack([
                kernels._collapse(bases[row] / np.sqrt(np.maximum(p, PROB_FLOOR)),
                                  kernels._contract(bras[row], states, party), party)
                for row, p in ((0, p_plus), (1, 1.0 - p_plus))
            ], axis=-1).reshape(states.shape[0], -1))
        return _Hop(_read_only(p_plus), post)


class _Engine(_Kernels):
    """One run's streams, noise parameters and scratch buffers, and the block player.

    What the run's shape alone decides is its ``plan``, an ``EnginePlan``
    given by the caller or built here, which the engine reads as
    ``self.plan``.  A measurement collapses the state only where the state
    is read next (see the module docstring).
    """

    def __init__(self, config: ProtocolConfig, plan: EnginePlan | None = None):
        if plan is None:
            plan = EnginePlan(config)
        elif plan.shape != _plan_shape(config):
            raise ValueError(
                f"an engine plan of shape {plan.shape} cannot run a config of shape {_plan_shape(config)}"
            )
        super().__init__(plan.dim)
        self.plan = plan
        self.config = config
        self._eve_post = np.empty(0, dtype=np.complex128)  # ``_eve_hook``'s kept post states, as ``_product``
        self.prep_noise = config.noise.prep if config.noise else None
        self.det_noise = config.noise.detector if config.noise else None
        self.eve = config.eve
        self._open_streams()

    def _open_streams(self):
        """Open the named streams; draw whole the arrays other draws follow.

        The round stream draws every round's picks before any Born
        variate, and the noise stream its integers after its uniforms, so
        those arrays are drawn whole here.  The integers pick white noise's
        basis states and are the noise stream's last draw, so they are
        drawn only under white preparation noise.  Born, masking and Eve
        uniforms are drawn block by block in ``_draw``, which yields the
        same values as one draw for the whole run.  Only Eve reads masks
        (``_mask``), so only a run in which a mask factor reaches her qudit
        (``EnginePlan.eve_masked``) opens the masking stream; the streams
        are independent, so no other variate moves.
        """
        config, plan = self.config, self.plan
        rounds, n = config.rounds, plan.num_parties
        self._g_round = stream_generator(config.seed, "round")
        self.picks = self._g_round.integers(0, 3, size=(rounds, n)).astype(np.int8)
        self._born_cols = n + (n - 1 if plan.kind == "chsh" else 0)
        self._g_mask = stream_generator(config.seed, "masking") if plan.eve_masked else None
        self._g_eve = stream_generator(config.seed, "eve") if self.eve is not None else None
        self._noise_u = self._white_idx = None
        if config.noise is not None:
            g_noise = stream_generator(config.seed, "noise")
            self._noise_preparers = len(plan.references)  # the parties that prepare
            self._noise_u = g_noise.random(size=(rounds, self._noise_preparers + n - 1))
            if isinstance(config.noise.prep, WhitePrep):
                self._white_idx = g_noise.integers(0, plan.dim, size=(rounds, self._noise_preparers))
        self._drawn = 0

    def _draw(self, size: int) -> _Variates:
        """Every stream's rows for the next ``size`` rounds (``angles`` only where Eve reads a mask)."""
        rows = slice(self._drawn, self._drawn + size)
        self._drawn += size
        return _Variates(
            picks=self.picks[rows],
            born=self._g_round.random(size=(size, self._born_cols)),
            angles=(
                None if self._g_mask is None
                else self._g_mask.random(size=(size, self.plan._mask_angle_count)) * TWO_PI
            ),
            eve_u=None if self._g_eve is None else self._g_eve.random(size=(size, 2)),
            noise_u=None if self._noise_u is None else self._noise_u[rows],
            white_idx=None if self._white_idx is None else self._white_idx[rows],
        )

    # -- per-party steps ---------------------------------------------------

    def _mask(self, bras, angles) -> np.ndarray:
        """Eve's ``bras`` times the masking M on her qudit at her link: v†·M.

        ``bras`` is (2, 2, B) or (2, 2, 1), as ``_measure`` takes it.  A
        mask acts only on qudits that were already measured, so it
        commutes with every later measurement and is applied only where
        Eve reads: the factors on her qudit, in sender order
        (``EnginePlan.eve_mask``).  M, the product of those factors with
        the first applied first, is composed per round as the SU(2) pair
        (a, b) of [[a, b], [−b*, a*]]: exp(iθσ) is (cos, i·sin) for X,
        (cos, sin) for Y and (cos + i·sin, 0) for Z, and a later factor
        (a1, b1) times (a, b) is (a1·a − b1·b*, a1·b + b1·a*).  The bras
        take M once: w·M = (w0·a − w1·b*, w0·b + w1·a*).
        """
        columns, axes = self.plan.eve_mask
        angles = angles[:, columns].T
        a, b = 1.0, 0.0  # the identity
        for axis, cos, sin in zip(axes, np.cos(angles), np.sin(angles)):
            if axis == "Z":
                z = cos + 1j * sin
                a, b = z * a, z * b
            else:
                b1 = 1j * sin if axis == "X" else sin
                a, b = cos * a - b1 * np.conj(b), cos * b + b1 * np.conj(a)
        w0, w1 = bras[:, 0], bras[:, 1]
        return np.stack([w0 * a - w1 * np.conj(b), w0 * b + w1 * np.conj(a)], axis=1)

    def _eve_hook(self, states, v: _Variates):
        """Eve's step on the block's ``states`` at her link, in place: the
        forwarded states and her outcomes (0 where she skips the round).

        Returns the states unchanged and None when she attacks no round of
        the block.
        """
        eve = self.eve
        active = v.eve_u[:, 0] < eve.activity_rate
        if not active.any():
            return states, None
        party, bases = self.plan.eve_parsed[1], self.plan.eve_basis
        fresh = eve.resend == "fresh-reference"
        # her post states go to a kept (D, B) buffer; the copy below keeps one path
        # at every activity rate
        if not fresh and self._eve_post.size < states.size:
            self._eve_post = np.empty(states.size, dtype=np.complex128)
        outcome, post = self._measure(
            states, bases, party, v.eve_u[:, 1],
            out=None if fresh else self._eve_post[:states.size].reshape(states.shape),
            bras=None if v.angles is None else self._mask(bases.conj(), v.angles),
        )
        if fresh:
            post = self.plan.eve_reference.post[:, (1 - outcome) // 2]
        np.copyto(states, post, where=active)
        return states, np.where(active, outcome, 0)

    def _detector_record(self, outcome, bob: int, pick, v: _Variates):
        """What ``bob``'s detector records: ±1, or 0 for an erasure."""
        det = self.det_noise
        if det is None:
            return outcome
        key = self.plan.setting_key[bob - 1][pick]
        u = v.noise_u[:, self._noise_preparers + bob - 2]
        if isinstance(det, MisreadDetector):
            return np.where(key & (u < det.eta), -outcome, outcome)
        if isinstance(det, LossDetector):
            return np.where(key & (u >= det.eta), 0, outcome)
        raise TypeError(f"unsupported detector noise {det!r}")

    def _prepare(self, bob: int, pick, outcome, v: _Variates) -> np.ndarray:
        """Codes (intp) of the states ``bob`` emits when preparing for ``outcome``, one per round.

        Code 2·pick + (outcome < 0) is a post column of ``bob``'s reference
        table (``EnginePlan.references``): the reference state's projection
        for the pick and the outcome.  A key setting's flip noise first
        flips the outcome, with eps1 or eps2 chosen by its key bit; white
        noise instead emits a uniformly drawn basis state j, code 6 + j.
        """
        prep, kind = self.prep_noise, self.plan.kind
        white = None
        if prep is not None:
            slot = 0 if kind == "mermin" else bob - 1
            key = self.plan.setting_key[bob - 1][pick]
            u = v.noise_u[:, slot]
            if isinstance(prep, FlipPrep):
                eps = np.where(key_bit(kind, bob, outcome) == 0, prep.eps1, prep.eps2)
                outcome = np.where(key & (u < eps), -outcome, outcome)
            elif isinstance(prep, WhitePrep):
                white = key & (u < prep.eps)
            else:
                raise TypeError(f"unsupported preparation noise {prep!r}")
        code = 2 * pick + (outcome < 0)
        if white is not None:
            np.copyto(code, 6 + v.white_idx[:, slot], where=white)
        return code

    @staticmethod
    def _gather(columns: np.ndarray, code: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The states ``columns[:, code]``, written to ``out``, a (D, B) array.

        A code past the K columns is basis state code − K (white noise).
        """
        # mode="clip" writes straight into ``out``; the basis states are set below
        np.take(columns, code, axis=1, out=out, mode="clip")
        width = columns.shape[1]
        basis = code >= width
        if basis.any():
            out[:, basis] = 0.0
            out[code[basis] - width, basis] = 1.0
        return out

    # -- block execution ---------------------------------------------------

    def play_block(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Play the run's next ``size`` rounds, party by party.

        While a party has a hop table, each round's incoming state is a
        code into the table's columns and the party looks its P(+1) up; a
        tabled Eve steps the codes the same way, before any gather, and an
        untabled one the gathered states (``_eve_hook``).  The first party
        without a table gathers the codes into the block's (D, size) array,
        which every later step overwrites in place; a fully tabled block
        allocates none.  Returns the block's ``outcomes`` and ``eve_outcomes``.
        """
        plan = self.plan
        v = self._draw(size)
        n = plan.num_parties
        outcomes = np.empty((size, n), dtype=np.int8)
        eve_outcomes = np.zeros(size, dtype=np.int8)

        states = None  # the block's (D, size) amplitudes, once a party has no table
        # each party's picks as a contiguous intp row, cast once a block: a table
        # indexed by a strided int8 column runs numpy's slow generic loop
        picks = np.ascontiguousarray(v.picks.T, dtype=np.intp)
        pick = picks[0]
        outcomes[:, 0] = _choose(plan.references[0].p_plus[pick], v.born[:, 0])
        # the incoming states as codes into ``columns``, or None once ``states`` holds them
        code, columns = self._prepare(1, pick, outcomes[:, 0], v), plan.references[0].post
        for bob in range(2, n + 1):
            hop = plan.hops[bob - 1]
            at_eve = self.eve is not None and self.eve.position == bob - 1
            if at_eve and plan.eve_hop is not None:
                # her skipped rounds keep their code; the others take her post column's
                active = v.eve_u[:, 0] < self.eve.activity_rate
                hit = _choose(plan.eve_hop.p_plus[code], v.eve_u[:, 1])
                eve_outcomes[:] = np.where(active, hit, 0)
                code = np.where(active, plan.eve_hop.p_plus.size + 2 * code + (hit < 0), code)
                columns = plan.eve_hop.post
            if hop is None and columns is not None:
                if states is None:
                    states = np.empty((plan.dim, size), dtype=np.complex128)
                self._gather(columns, code, out=states)
                columns = None
            if at_eve and plan.eve_hop is None:  # her dense step, on the gathered states
                _, hit = self._eve_hook(states, v)
                if hit is not None:
                    eve_outcomes[:] = hit
            pick = picks[bob - 1]
            # only a Mermin party before the last forwards its post state
            forwards = plan.kind == "mermin" and bob < n
            if hop is not None:
                pair = code * 3 + pick
                true_outcome = _choose(hop.p_plus[pair], v.born[:, bob - 1])
                if forwards:
                    code, columns = 2 * pair + (true_outcome < 0), hop.post
            else:
                true_outcome, _ = self._measure(
                    states, np.take(plan.setting_basis[bob - 1], pick, axis=-1), plan.qudit[bob - 1],
                    v.born[:, bob - 1], out=states if forwards else None,
                )
            outcomes[:, bob - 1] = self._detector_record(true_outcome, bob, pick, v)
            if plan.kind == "chsh" and bob < n:
                intent = outcomes[:, bob - 1]
                erased = intent == 0
                if erased.any():  # an erased record re-prepares from a fresh draw
                    redraw = _choose(plan.references[bob - 1].p_plus[pick], v.born[:, n + bob - 2])
                    intent = np.where(erased, redraw, intent)
                code, columns = self._prepare(bob, pick, intent, v), plan.references[bob - 1].post
        return outcomes, eve_outcomes


def run_protocol(config: ProtocolConfig, plan: EnginePlan | None = None) -> Transcript:
    """Execute all rounds in order, a block of rounds at a time.

    ``plan`` is an ``EnginePlan`` of the config's shape (ValueError
    otherwise), shared by the runs of a sweep; without one the run builds
    its own.  A fully tabled run plays blocks of ``tabled_block_rounds``
    rounds, any other run blocks of ``block_rounds(D)``.  Each block's columns are copied
    into the run's at once: blocks kept until the end, between the engine's
    short-lived arrays, fragment the heap and raise the process's peak RSS.
    """
    engine = _Engine(config, plan)
    tabled = engine.plan.fully_tabled
    block = tabled_block_rounds(config.dim, config.num_parties) if tabled else block_rounds(config.dim)
    outcomes = np.empty((config.rounds, config.num_parties), dtype=np.int8)
    eve_outcomes = np.empty(config.rounds, dtype=np.int8)
    for start in range(0, config.rounds, block):
        stop = min(start + block, config.rounds)
        outcomes[start:stop], eve_outcomes[start:stop] = engine.play_block(stop - start)
    return Transcript(config, engine.picks, outcomes, eve_outcomes)


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


def chsh_pair_estimates(transcript: Transcript) -> dict[int, InequalityEstimate]:
    """Per adjacent pair (link k joins parties k and k+1), from ``Transcript.estimates``."""
    return {k: transcript.estimates[f"pair_{k}"] for k in range(1, transcript.config.num_parties)}


def check_estimates(transcript: Transcript) -> dict[str, InequalityEstimate]:
    """All violation statistics relevant to the transcript's protocol, from one ``sign_counts`` pass."""
    n = transcript.config.num_parties
    specs = ({"mermin": inequality.mermin_spec(n)} if transcript.config.kind == "mermin"
             else {f"pair_{k}": inequality.chsh_pair_spec(k, first_party_odd=(k % 2 == 1)) for k in range(1, n)})
    tables = inequality.sign_counts(transcript, list(specs.values()))
    return {name: inequality.estimate(spec, signs) for (name, spec), signs in zip(specs.items(), tables)}


class Verdict(NamedTuple):
    """The run's overall status: whether it keeps its key.

    ``violated`` is True, False, or None for insufficient data;
    ``empty_terms`` the sorted ``check:term`` names of terms without samples.
    """

    violated: bool | None
    empty_terms: list[str]


def verdict(estimates: dict[str, InequalityEstimate]) -> Verdict:
    """Whether every check statistic violates its classical bound.

    False as soon as a check with samples for every term fails to violate;
    otherwise None while some check has a term without samples, because
    missing data is no evidence of eavesdropping.
    """
    empty = sorted(
        f"{name}:{term}"
        for name, est in estimates.items()
        for term, count in est.samples_per_term.items()
        if count == 0
    )
    if any(est.usable and not est.violated for est in estimates.values()):
        return Verdict(False, empty)
    return Verdict(True if all(est.usable for est in estimates.values()) else None, empty)
