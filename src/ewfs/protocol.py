"""The four-agent experiment: its registers, states, exact statistics and sampling.

One round runs on four registers:

* ``R``   -- the biased quantum coin (heads/tails),
* ``Fbar``-- memory of the friend who measures the coin and prepares the spin,
* ``S``   -- the spin sent to the second friend,
* ``F``   -- memory of the friend who measures the spin,

followed by the two outside observers measuring the sealed labs
``Lbar = R (x) Fbar`` and ``L = S (x) F`` in superposition bases.  A round
halts when both observers announce their special outcome (``okbar`` and
``ok``).

The friends' measurements are dilations (controlled unitaries writing into
their memories), so one global pure state describes the labs before the
observers act.  It is linear in the coin amplitudes, so the coin phase
enters in closed form.  Two semantics are read off that one state.  Under
``unitary`` the observers measure it as it is.  Under ``collapse`` every
friend's measurement also left a classical record, which removes the
coherences between the pointer states (deferred measurement): the
observers' outcome probabilities are squared before their change of basis
instead of after it.  The round statistics differ sharply between the two
pictures, which is the point of the exercise.

All rounds are independent; each one restarts from the same initial
configuration, the coin in a heads/tails superposition with a tunable
relative phase and every memory in its ready state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .measurement import OTHER, DilationSpec, MeasurementSpec, build_dilation, pointer_readout_spec
from .qcore import (
    DEFAULT_ATOL,
    IMPOSSIBLE_MASS,
    Operator,
    SpaceLayout,
    StateVector,
    _dot,
    _freeze,
    _sqmod,
    apply,
    basis_state,
    superpose,
)

# Register names and the canonical layout (total dimension 36).
R = "R"
FBAR = "Fbar"
S = "S"
F = "F"
LAYOUT = SpaceLayout(((R, 2), (FBAR, 3), (S, 2), (F, 3)))

# Outcome labels.
HEADS, TAILS = "heads", "tails"
Z_MINUS, Z_PLUS = "-1/2", "+1/2"
OKBAR, FAILBAR = "okbar", "failbar"
OK, FAIL = "ok", "fail"
INIT = "init"

F_POINTER_LABELS = (INIT, Z_MINUS, Z_PLUS)

# Checkpoint labels: the state "at" a label is the state after the step that
# completes there (coin interaction by n:10, spin interaction by n:20).
T00, T10, T20, T30 = "n:00", "n:10", "n:20", "n:30"

COLLAPSE, UNITARY = "collapse", "unitary"

WBAR_VALUES = (OKBAR, FAILBAR, OTHER)
W_VALUES = (OK, FAIL, OTHER)

# The agents, and the checkpoints at which one can assign a state.
AGENTS = ("Fbar", "F", "Wbar", "W")
TIMES = (T00, T10, T20, T30)

# record variable -> (owning agent, checkpoint at which the record exists,
#                     allowed values); the announcement ``w`` comes after
# the last checkpoint.
RECORDS: Mapping[str, tuple[str, str, tuple[str, ...]]] = MappingProxyType({
    "r": ("Fbar", T10, (HEADS, TAILS)),
    "z": ("F", T20, (Z_MINUS, Z_PLUS)),
    "wbar": ("Wbar", T30, (OKBAR, FAILBAR)),
    "w": ("W", "n:40", (OK, FAIL)),
})

# The state-assignment rules (see ``perspectives``) and the built-in rule
# sets audited with them (see ``reasoning``).
COLLAPSE_AWARE = "collapse-aware"
UNITARY_GLOBAL = "unitary-global"
OWN_RECORD_PURE = "own-record-pure"
RULE_KINDS = (COLLAPSE_AWARE, UNITARY_GLOBAL, OWN_RECORD_PURE)
RULESET_NAMES = ("fr-mixed", "all-collapse", "all-unitary")


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: semantics, coin phase, RNG seed."""

    semantics: str = UNITARY
    theta: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.semantics not in (COLLAPSE, UNITARY):
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", float(self.theta))  # θ enters the arithmetic as a float


@dataclass(frozen=True)
class RoundRecord:
    """Classical outcomes of one round."""

    round_index: int
    r: str
    z: str
    wbar: str
    w: str

    @property
    def halted(self) -> bool:
        """The round halts when both observers announce their special outcome."""
        return self.wbar == OKBAR and self.w == OK


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Exact or empirical probabilities of the observers' joint announcement."""

    entries: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        cells = {}
        for (wbar, w), p in dict(self.entries).items():
            if not -IMPOSSIBLE_MASS <= p <= 1.0 + IMPOSSIBLE_MASS:
                raise ValueError(f"probability {p!r} out of range for cell {(wbar, w)}")
            cells[(wbar, w)] = max(float(p), 0.0)
        total = sum(cells.values())
        if not abs(total - 1.0) <= DEFAULT_ATOL:
            raise ValueError(f"joint probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "entries", MappingProxyType(cells))

    def prob(self, wbar: str, w: str) -> float:
        return self.entries.get((wbar, w), 0.0)


# ---------------------------------------------------------------------------
# Protocol ingredients: states, bases, dilations.
# ---------------------------------------------------------------------------


_SQRT_THIRD, _SQRT_TWO_THIRDS = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)


def coin_amplitudes(theta: float = 0.0) -> np.ndarray:
    """Heads and tails amplitudes sqrt(1/3), e^{i theta} sqrt(2/3), unvalidated."""
    return np.array([_SQRT_THIRD, np.exp(1j * theta) * _SQRT_TWO_THIRDS])


COIN_MEASUREMENT = pointer_readout_spec(LAYOUT, R, (HEADS, TAILS))
# Spin readout in the down/up basis, labeled by the recorded z value.
SPIN_MEASUREMENT = pointer_readout_spec(LAYOUT, S, (Z_MINUS, Z_PLUS))
# The x-polarized spin (|down> + |up>)/sqrt(2).
SPIN_RIGHT_STATE = superpose([(np.sqrt(0.5), vec) for _, vec in SPIN_MEASUREMENT.outcomes])

# Measure-and-prepare step of the coin friend as a single interaction.  The
# outcome is written into the Fbar memory; a tails outcome additionally
# rotates the outgoing spin from |down> to the x-polarized state.
COIN_DILATION = DilationSpec(
    measurement=COIN_MEASUREMENT,
    memory=FBAR,
    pointer_map=((HEADS, 1), (TAILS, 2)),
    preparations=(
        (TAILS, Operator(LAYOUT.sub((S,)), np.array([[1, -1], [1, 1]]) / np.sqrt(2.0), "unitary")),
    ),
)
SPIN_DILATION = DilationSpec(
    measurement=SPIN_MEASUREMENT,
    memory=F,
    pointer_map=((Z_MINUS, 1), (Z_PLUS, 2)),
)


def _lab_basis(lab: tuple[str, str], special: str, fail: str) -> MeasurementSpec:
    """An observer's basis on a sealed (system, memory) lab, completed with ``other`` rows.

    The lab's two pointer states are |0,1> and |1,2> (system outcome 0 or 1,
    memory slot 1 or 2).  The special outcome is their difference over
    sqrt(2), the fail outcome their sum.
    """
    sub = LAYOUT.sub(lab)
    first, second = basis_state(sub, (0, 1)), basis_state(sub, (1, 2))
    return MeasurementSpec(
        lab,
        (
            (special, superpose([(np.sqrt(0.5), first), (-np.sqrt(0.5), second)])),
            (fail, superpose([(np.sqrt(0.5), first), (np.sqrt(0.5), second)])),
        ),
    )


# Lbar observer's basis: okbar/failbar listed, completed with four ``other`` rows.
WBAR_MEASUREMENT = _lab_basis((R, FBAR), OKBAR, FAILBAR)
W_MEASUREMENT = _lab_basis((S, F), OK, FAIL)

# record variable -> measurement whose outcome reproduces it
RECORD_READOUTS: Mapping[str, MeasurementSpec] = MappingProxyType({
    "r": COIN_MEASUREMENT,
    "z": pointer_readout_spec(LAYOUT, F, F_POINTER_LABELS),
    "wbar": WBAR_MEASUREMENT,
    "w": W_MEASUREMENT,
})


def _checkpoint_branches() -> Mapping[str, np.ndarray]:
    """Global state at each unitary checkpoint for a coin starting in heads (row 0), and in tails (row 1).

    The dynamics is linear, so the state for any coin phase is the coin amplitudes
    contracted with these rows of a read-only (2, 36) array: θ enters in closed form.
    """
    heads, tails = basis_state(LAYOUT, (0, 0, 0, 0)), basis_state(LAYOUT, (1, 0, 0, 0))
    branches = {T00: _freeze([heads.amplitudes, tails.amplitudes])}
    for time, dilation in ((T10, COIN_DILATION), (T20, SPIN_DILATION)):
        step = build_dilation(dilation, LAYOUT)
        heads, tails = apply(step, heads), apply(step, tails)
        branches[time] = _freeze([heads.amplitudes, tails.amplitudes])
    return MappingProxyType(branches)


_BRANCHES = _checkpoint_branches()


def _global_amplitudes(theta: float, time: str) -> np.ndarray:
    """Amplitudes of ``global_state``, unvalidated."""
    if time not in _BRANCHES:
        raise ValueError(f"no unitary checkpoint state at {time!r}")
    return _dot(coin_amplitudes(theta), _BRANCHES[time])


def global_state(theta: float, time: str) -> StateVector:
    """Global pure state at a checkpoint under the fully unitary dynamics."""
    return StateVector(LAYOUT, _global_amplitudes(theta, time))


# ---------------------------------------------------------------------------
# Exact statistics: one engine for both semantics.
# ---------------------------------------------------------------------------

# The θ-free factors of both exact tables, read-only: Lbar's and L's bases as squared
# moduli, the coin record ``r`` each Lbar outcome and the spin record ``z`` each L outcome reads out.
_LBAR_WEIGHTS, _L_WEIGHTS = _sqmod(WBAR_MEASUREMENT.basis), _sqmod(W_MEASUREMENT.basis)
_R_READ = _LBAR_WEIGHTS.reshape(6, 2, 3).sum(axis=2)
_Z_READ = _L_WEIGHTS.reshape(6, 2, 3).sum(axis=1)
for _arr in (_LBAR_WEIGHTS, _L_WEIGHTS, _R_READ, _Z_READ):
    _arr.setflags(write=False)


def _announcement_probs(theta: float) -> np.ndarray:
    """(6, 6) unitary probabilities of the observers' completed outcomes, Lbar's on the rows."""
    psi = _global_amplitudes(theta, T20).reshape(6, 6)
    return _sqmod(_dot(_dot(WBAR_MEASUREMENT.bras, psi), W_MEASUREMENT.bras.T))


def _joint(probs: np.ndarray) -> JointDistribution:
    """The (wbar, w) joint of (6, 6) completed-outcome probabilities."""
    cells = {(wb, w): 0.0 for wb in WBAR_VALUES for w in W_VALUES}
    for wb, row in zip(WBAR_MEASUREMENT.labels, probs.tolist()):
        for w, p in zip(W_MEASUREMENT.labels, row):
            cells[(wb, w)] += p
    return JointDistribution(cells)


def _records(table: np.ndarray, axes: tuple[int, ...]) -> dict[tuple[str, str, str, str], float]:
    """The (r, z, wbar, w) record table of an array whose axis ``axes[v]`` holds record ``v``."""
    labels = tuple(RECORD_READOUTS[v].labels for v in RECORDS)
    out: dict[tuple[str, str, str, str], float] = {}
    # Every cell is exactly 0 or at least 1/48, so the key set never moves with θ.
    for idx in zip(*np.nonzero(table >= IMPOSSIBLE_MASS)):
        key = tuple(labels[v][idx[axes[v]]] for v in range(4))
        out[key] = out.get(key, 0.0) + float(table[idx])
    return out


# Collapse squares the amplitudes before the observers' change of basis, the dephasing left
# by the friends' records.  Heads and tails have disjoint pointer support, so θ drops out: the
# collapse joint and record table (records first, off the pointer states) are built at θ = 0.
_POINTER = _sqmod(_global_amplitudes(0.0, T20).reshape(2, 3, 2, 3))
_COLLAPSE_JOINT = _joint(_dot(_dot(_LBAR_WEIGHTS, _POINTER.reshape(6, 6)), _L_WEIGHTS.T))
_COLLAPSE_RECORDS = MappingProxyType(_records(np.einsum(
    "kaf,afsz,jsz->azkj", _LBAR_WEIGHTS.reshape(6, 2, 3), _POINTER, _L_WEIGHTS.reshape(6, 2, 3)
), (0, 1, 2, 3)))


def exact_joint(config: ProtocolConfig) -> JointDistribution:
    """Exact observer-announcement joint; no sampling involved.  Collapse gives one shared joint."""
    return _COLLAPSE_JOINT if config.semantics == COLLAPSE else _joint(_announcement_probs(config.theta))


def exact_record_distribution(config: ProtocolConfig) -> dict[tuple[str, str, str, str], float]:
    """Exact distribution of full (r, z, wbar, w) records for one round.

    The coin record ``r`` is read on ``R`` and the spin record ``z`` on the
    ``F`` memory.  Under unitary semantics they are read out of the
    observers' post-measurement lab states, so the announcements come first
    in the table.  Each caller gets its own dict.
    """
    if config.semantics == COLLAPSE:
        return dict(_COLLAPSE_RECORDS)
    probs = _announcement_probs(config.theta)
    table = probs[:, :, None, None] * _R_READ[:, None, :, None] * _Z_READ[None, :, None, :]
    return _records(table, (2, 3, 0, 1))


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


def _record_cdf(config: ProtocolConfig) -> tuple[tuple[tuple[str, str, str, str], ...], np.ndarray]:
    """Record keys in distribution order and their cumulative probabilities."""
    dist = exact_record_distribution(config)
    keys = tuple(dist)
    probs = np.array([dist[k] for k in keys])
    return keys, np.cumsum(probs / probs.sum())


def _draw(cum: np.ndarray, uniforms):
    """Index of the record whose CDF interval holds each uniform.

    The index is the number of edges of ``cum[:-1]`` at or below the uniform,
    counted with one vectorised compare per edge into the smallest unsigned
    dtype that holds it.  The edges are sorted, so this is the record a binary
    search (``searchsorted(..., side="right")``) finds, and a uniform past the
    last edge takes the last record.
    """
    index = np.zeros(np.shape(uniforms), dtype=np.min_scalar_type(len(cum) - 1))
    for edge in cum[:-1]:
        index += uniforms >= edge
    return index


def run_round(config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0) -> RoundRecord:
    """One round drawn from the exact record distribution with one uniform."""
    keys, cum = _record_cdf(config)
    r, z, wbar, w = keys[int(_draw(cum, rng.random()))]
    return RoundRecord(round_index, r, z, wbar, w)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Independent per-round stream derived from (seed, round_index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(round_index,)))


# Rounds drawn per ``rng.random`` call: bounds the sampler's working memory
# while keeping the concatenated draws identical to a single call.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class RoundTally:
    """Sampled rounds, tallied: record counts and halt-terminated episode lengths.

    ``counts[k]`` rounds drew record ``keys[k]``, an ``(r, z, wbar, w)`` of the
    exact record distribution in its order.  ``lengths[k]`` episodes ended
    with length k, and ``leftover`` is the length of the one still open.
    Both arrays are read-only ``int64``.
    """

    keys: tuple[tuple[str, str, str, str], ...]
    counts: np.ndarray
    lengths: np.ndarray
    leftover: int

    def __post_init__(self) -> None:
        self.counts.setflags(write=False)
        self.lengths.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundTally):
            return NotImplemented
        return (self.keys, self.leftover) == (other.keys, other.leftover) and all(
            map(np.array_equal, (self.counts, self.lengths), (other.counts, other.lengths))
        )


def _tally_chunks(keys: tuple, chunks: Iterable[np.ndarray]) -> RoundTally:
    """One pass over chunks of round indices; the open episode crosses chunk edges as its length."""
    halts = np.array([wbar == OKBAR and w == OK for _, _, wbar, w in keys])
    counts = np.zeros(len(keys), dtype=np.int64)
    lengths = np.zeros(0, dtype=np.int64)
    open_length = 0
    for index in chunks:
        counts += np.bincount(index, minlength=len(keys))
        ends = np.flatnonzero(np.take(halts, index))
        last = -1 - open_length  # the previous halt, counted from this chunk's start
        gaps = np.diff(ends, prepend=last)
        open_length = len(index) - 1 - (int(ends[-1]) if len(ends) else last)
        by_length = np.bincount(gaps, minlength=len(lengths))
        by_length[: len(lengths)] += lengths
        lengths = by_length
    return RoundTally(keys, counts, lengths, open_length)


def sample_records(config: ProtocolConfig, n_rounds: int) -> RoundTally:
    """Tally of i.i.d. rounds drawn from the exact record distribution.

    One ``default_rng(config.seed)`` stream: round *i* takes the record whose
    CDF interval holds the *i*-th uniform.  ``_draw`` finds it by counting the
    edges at or below that uniform, which is the record a binary search would
    find.  Draws come in chunks of ``SAMPLE_CHUNK`` and are tallied in one
    pass, so memory stays flat as ``n_rounds`` grows, and the result is
    byte-reproducible given (config, n_rounds).
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    rng = np.random.default_rng(config.seed)
    keys, cum = _record_cdf(config)
    sizes = (min(SAMPLE_CHUNK, n_rounds - start) for start in range(0, n_rounds, SAMPLE_CHUNK))
    return _tally_chunks(keys, (_draw(cum, rng.random(size)) for size in sizes))


def tally_joint(tally: RoundTally) -> dict[tuple[str, str], int]:
    """Round counts per observed ``(wbar, w)`` cell."""
    counts: dict[tuple[str, str], int] = {}
    for (_, _, wbar, w), c in zip(tally.keys, tally.counts.tolist()):
        if c:
            counts[(wbar, w)] = counts.get((wbar, w), 0) + c
    return counts
