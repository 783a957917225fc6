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
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .measurement import DilationSpec, MeasurementSpec, build_dilation, pointer_readout_spec
from .qcore import (
    DEFAULT_ATOL,
    IMPOSSIBLE_MASS,
    Operator,
    SpaceLayout,
    StateVector,
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
OTHER = "other"
INIT = "init"

F_POINTER_LABELS = (INIT, Z_MINUS, Z_PLUS)

# Checkpoint labels: the state "at" a label is the state after the step that
# completes there (coin interaction by n:10, spin interaction by n:20).
T00, T10, T20, T30 = "n:00", "n:10", "n:20", "n:30"

COLLAPSE, UNITARY = "collapse", "unitary"

WBAR_VALUES = (OKBAR, FAILBAR, OTHER)
W_VALUES = (OK, FAIL, OTHER)


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


@dataclass(frozen=True)
class RoundRecord:
    """Classical outcomes of one round plus the halting flag."""

    round_index: int
    r: str
    z: str
    wbar: str
    w: str
    halted: bool

    def __post_init__(self) -> None:
        if self.halted != (self.wbar == OKBAR and self.w == OK):
            raise ValueError("halted flag inconsistent with (wbar, w) outcomes")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Exact or empirical probabilities of the observers' joint announcement."""

    entries: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        cells = {}
        for (wbar, w), p in dict(self.entries).items():
            if p < -IMPOSSIBLE_MASS or p > 1.0 + IMPOSSIBLE_MASS:
                raise ValueError(f"probability {p!r} out of range for cell {(wbar, w)}")
            cells[(wbar, w)] = max(float(p), 0.0)
        total = sum(cells.values())
        if abs(total - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"joint probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "entries", MappingProxyType(cells))

    def prob(self, wbar: str, w: str) -> float:
        return self.entries.get((wbar, w), 0.0)

    def tv_distance(self, other: "JointDistribution") -> float:
        keys = set(self.entries) | set(other.entries)
        return 0.5 * sum(abs(self.prob(*k) - other.prob(*k)) for k in keys)


# ---------------------------------------------------------------------------
# Protocol ingredients: states, bases, dilations.
# ---------------------------------------------------------------------------


def coin_amplitudes(theta: float = 0.0) -> np.ndarray:
    """Heads and tails amplitudes sqrt(1/3), e^{i theta} sqrt(2/3), unvalidated."""
    return np.array([np.sqrt(1.0 / 3.0), np.exp(1j * theta) * np.sqrt(2.0 / 3.0)])


@lru_cache(maxsize=None)
def coin_measurement() -> MeasurementSpec:
    return pointer_readout_spec(LAYOUT, R, (HEADS, TAILS))


@lru_cache(maxsize=None)
def spin_measurement() -> MeasurementSpec:
    """Spin readout in the down/up basis, labeled by the recorded z value."""
    return pointer_readout_spec(LAYOUT, S, (Z_MINUS, Z_PLUS))


@lru_cache(maxsize=None)
def spin_right_state() -> StateVector:
    """The x-polarized spin (|down> + |up>)/sqrt(2)."""
    (_, down), (_, up) = spin_measurement().outcomes
    return superpose([(np.sqrt(0.5), down), (np.sqrt(0.5), up)])


@lru_cache(maxsize=None)
def spin_preparation_rotation() -> Operator:
    """Unitary turning |down> into the x-polarized spin (used on a tails outcome)."""
    m = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return Operator(LAYOUT.sub((S,)), m, kind="unitary")


@lru_cache(maxsize=None)
def coin_dilation() -> DilationSpec:
    """Measure-and-prepare step of the coin friend as a single interaction.

    The outcome is written into the Fbar memory; a tails outcome additionally
    rotates the outgoing spin from |down> to the x-polarized state.
    """
    return DilationSpec(
        measurement=coin_measurement(),
        memory=FBAR,
        pointer_map=((HEADS, 1), (TAILS, 2)),
        preparations=((TAILS, spin_preparation_rotation()),),
    )


@lru_cache(maxsize=None)
def spin_dilation() -> DilationSpec:
    return DilationSpec(
        measurement=spin_measurement(),
        memory=F,
        pointer_map=((Z_MINUS, 1), (Z_PLUS, 2)),
    )


@lru_cache(maxsize=None)
def coin_interaction() -> Operator:
    return build_dilation(coin_dilation(), LAYOUT)


@lru_cache(maxsize=None)
def spin_interaction() -> Operator:
    return build_dilation(spin_dilation(), LAYOUT)


def _lab_basis(lab: tuple[str, str], special: str, fail: str) -> MeasurementSpec:
    """An observer's basis on a sealed (system, memory) lab, completed with ``other_k``.

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


@lru_cache(maxsize=None)
def wbar_measurement() -> MeasurementSpec:
    """Lbar observer's basis: okbar/failbar listed, completed with ``other_k``."""
    return _lab_basis((R, FBAR), OKBAR, FAILBAR)


@lru_cache(maxsize=None)
def w_measurement() -> MeasurementSpec:
    return _lab_basis((S, F), OK, FAIL)


@lru_cache(maxsize=None)
def _coin_branches(time: str) -> tuple[np.ndarray, np.ndarray]:
    """Global state at a checkpoint for a coin starting in heads, and in tails.

    The dynamics is linear, so the state for any coin phase is the coin
    amplitudes times these two: the phase enters in closed form.
    """
    steps = {T00: (), T10: (coin_interaction(),), T20: (coin_interaction(), spin_interaction())}
    if time not in steps:
        raise ValueError(f"no unitary checkpoint state at {time!r}")
    heads, tails = basis_state(LAYOUT, (0, 0, 0, 0)), basis_state(LAYOUT, (1, 0, 0, 0))
    for step in steps[time]:
        heads, tails = apply(step, heads), apply(step, tails)
    return heads.amplitudes, tails.amplitudes


def _global_amplitudes(theta: float, time: str) -> np.ndarray:
    """Amplitudes of ``global_state``, unvalidated."""
    heads, tails = _coin_branches(time)
    a_heads, a_tails = coin_amplitudes(theta)
    return a_heads * heads + a_tails * tails


def global_state(theta: float, time: str) -> StateVector:
    """Global pure state at a checkpoint under the fully unitary dynamics."""
    return StateVector(LAYOUT, _global_amplitudes(theta, time))


def _simplify(label: str) -> str:
    return OTHER if label.startswith("other_") else label


def merge_other(dist: Mapping[str, float]) -> dict[str, float]:
    """Fold the auto-completed ``other_k`` outcomes of a distribution into one ``other``."""
    merged: dict[str, float] = {}
    for label, p in dist.items():
        key = _simplify(label)
        merged[key] = merged.get(key, 0.0) + p
    return merged


# ---------------------------------------------------------------------------
# Exact statistics: one engine for both semantics.
# ---------------------------------------------------------------------------

_PRUNE = 1e-15


def _announcement_probs(config: ProtocolConfig) -> np.ndarray:
    """(6, 6) probabilities of the observers' completed (wbar, w) outcomes.

    ``psi`` holds the final amplitudes with lab Lbar's pointer on the rows
    and lab L's on the columns.  Unitary semantics squares the amplitudes
    after the observers' change of basis.  Collapse squares them before it,
    which is the pointer-basis dephasing left by the friends' records.
    """
    psi = _global_amplitudes(config.theta, T20).reshape(6, 6)
    b_lbar, b_l = wbar_measurement().basis, w_measurement().basis
    if config.semantics == UNITARY:
        return np.abs(b_lbar.conj() @ psi @ b_l.conj().T) ** 2
    return np.abs(b_lbar) ** 2 @ np.abs(psi) ** 2 @ (np.abs(b_l) ** 2).T


def exact_joint(config: ProtocolConfig) -> JointDistribution:
    """Exact observer-announcement joint; no sampling involved."""
    cells = {(wb, w): 0.0 for wb in WBAR_VALUES for w in W_VALUES}
    wbar_labels = [_simplify(l) for l in wbar_measurement().labels]
    w_labels = [_simplify(l) for l in w_measurement().labels]
    for k, row in enumerate(_announcement_probs(config)):
        for j, p in enumerate(row):
            cells[(wbar_labels[k], w_labels[j])] += float(p)
    return JointDistribution(cells)


def exact_record_distribution(config: ProtocolConfig) -> dict[tuple[str, str, str, str], float]:
    """Exact distribution of full (r, z, wbar, w) records for one round.

    The coin record ``r`` is read on ``R`` and the spin record ``z`` on the
    ``F`` memory.  Under collapse they are read off the pointer states before
    the observers measure, so records come first in the key order.  Under
    unitary semantics they are read out of the observers' post-measurement
    lab states, so the announcements come first.
    """
    b_lbar = np.abs(wbar_measurement().basis) ** 2
    b_l = np.abs(w_measurement().basis) ** 2
    if config.semantics == UNITARY:
        r_read = b_lbar.reshape(6, 2, 3).sum(axis=2)
        z_read = b_l.reshape(6, 2, 3).sum(axis=1)
        probs = _announcement_probs(config)
        table = probs[:, :, None, None] * r_read[:, None, :, None] * z_read[None, :, None, :]
        axes = (2, 3, 0, 1)  # position of r, z, wbar, w in the table
    else:
        pointer = np.abs(_global_amplitudes(config.theta, T20).reshape(2, 3, 2, 3)) ** 2
        table = np.einsum(
            "kaf,afsz,jsz->azkj", b_lbar.reshape(6, 2, 3), pointer, b_l.reshape(6, 2, 3)
        )
        axes = (0, 1, 2, 3)
    labels = ((HEADS, TAILS), F_POINTER_LABELS, wbar_measurement().labels, w_measurement().labels)
    out: dict[tuple[str, str, str, str], float] = {}
    for idx in zip(*np.nonzero(table >= _PRUNE)):
        key = tuple(_simplify(labels[v][idx[axes[v]]]) for v in range(4))
        out[key] = out.get(key, 0.0) + float(table[idx])
    return out


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
    """Index of the record each uniform falls on; one past the last edge is the last record."""
    return np.searchsorted(cum[:-1], uniforms, side="right")


def run_round(config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0) -> RoundRecord:
    """One round drawn from the exact record distribution with one uniform."""
    keys, cum = _record_cdf(config)
    r, z, wbar, w = keys[int(_draw(cum, rng.random()))]
    return RoundRecord(round_index, r, z, wbar, w, wbar == OKBAR and w == OK)


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
        ends = np.flatnonzero(halts[index])
        last = -1 - open_length  # the previous halt, counted from this chunk's start
        gaps = np.diff(ends, prepend=last)
        open_length = len(index) - 1 - (int(ends[-1]) if len(ends) else last)
        by_length = np.bincount(gaps, minlength=len(lengths))
        by_length[: len(lengths)] += lengths
        lengths = by_length
    return RoundTally(keys, counts, lengths, open_length)


def sample_records(config: ProtocolConfig, n_rounds: int) -> RoundTally:
    """Tally of i.i.d. rounds drawn from the exact record distribution.

    One ``default_rng(config.seed)`` stream: round *i* takes the *i*-th
    uniform.  Draws come in chunks of ``SAMPLE_CHUNK`` and are tallied in one
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
