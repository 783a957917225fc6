"""The four-agent experiment as an executable state machine.

One round runs on four registers:

* ``R``   -- the biased quantum coin (heads/tails),
* ``Fbar``-- memory of the friend who measures the coin and prepares the spin,
* ``S``   -- the spin sent to the second friend,
* ``F``   -- memory of the friend who measures the spin,

followed by the two outside observers measuring the sealed labs
``Lbar = R (x) Fbar`` and ``L = S (x) F`` in superposition bases.  A round
halts when both observers announce their special outcome (``okbar`` and
``ok``).

Two semantics are supported.  Under ``collapse`` every measurement projects
the state and leaves a classical record; under ``unitary`` the friends'
measurements are modeled as dilations (controlled unitaries writing into
their memories) and only the observers' joint outcome is sampled, with the
coin and spin records read out afterwards for audit purposes.  The round
statistics differ sharply between the two pictures, which is the point of
the exercise.

All rounds are independent; each one restarts from the same initial
configuration, the coin in a heads/tails superposition with a tunable
relative phase and every memory in its ready state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .measurement import (
    DilationSpec,
    ImpossibleOutcomeError,
    MeasurementSpec,
    build_dilation,
    complete_basis,
    measure_collapse,
)
from .qcore import (
    DEFAULT_ATOL,
    IMPOSSIBLE_MASS,
    Operator,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
    project_component,
    superpose,
    tensor_all,
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
HBAR, TBAR = "hbar", "tbar"

FBAR_POINTER_LABELS = (INIT, HBAR, TBAR)
F_POINTER_LABELS = (INIT, Z_MINUS, Z_PLUS)

# Checkpoint labels: the state "at" a label is the state after the step that
# completes there (coin interaction by n:10, spin interaction by n:20).
T00, T10, T20, T30 = "n:00", "n:10", "n:20", "n:30"

COLLAPSE, UNITARY = "collapse", "unitary"

WBAR_VALUES = (OKBAR, FAILBAR, OTHER)
W_VALUES = (OK, FAIL, OTHER)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: semantics, coin phase, round budget, RNG seed."""

    semantics: str = UNITARY
    theta: float = 0.0
    max_rounds: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.semantics not in (COLLAPSE, UNITARY):
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


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
    conditioning: str | None = None

    def __post_init__(self) -> None:
        cells = {}
        for (wbar, w), p in dict(self.entries).items():
            if p < -IMPOSSIBLE_MASS or p > 1.0 + IMPOSSIBLE_MASS:
                raise ValueError(f"probability {p!r} out of range for cell {(wbar, w)}")
            cells[(wbar, w)] = max(float(p), 0.0)
        total = sum(cells.values())
        if abs(total - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"joint probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "entries", cells)

    def prob(self, wbar: str, w: str) -> float:
        return self.entries.get((wbar, w), 0.0)

    def tv_distance(self, other: "JointDistribution") -> float:
        keys = set(self.entries) | set(other.entries)
        return 0.5 * sum(abs(self.prob(*k) - other.prob(*k)) for k in keys)


# ---------------------------------------------------------------------------
# Protocol ingredients: states, bases, dilations.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coin_state(theta: float = 0.0) -> StateVector:
    """Coin register state sqrt(1/3)|heads> + e^{i theta} sqrt(2/3)|tails>."""
    sub = LAYOUT.sub((R,))
    amps = np.array([np.sqrt(1.0 / 3.0), np.exp(1j * theta) * np.sqrt(2.0 / 3.0)])
    return StateVector(sub, amps)


@lru_cache(maxsize=None)
def spin_down_state() -> StateVector:
    return basis_state(LAYOUT.sub((S,)), (0,))


@lru_cache(maxsize=None)
def spin_up_state() -> StateVector:
    return basis_state(LAYOUT.sub((S,)), (1,))


@lru_cache(maxsize=None)
def spin_right_state() -> StateVector:
    """The x-polarized spin (|down> + |up>)/sqrt(2)."""
    return superpose([(np.sqrt(0.5), spin_down_state()), (np.sqrt(0.5), spin_up_state())])


@lru_cache(maxsize=None)
def initial_state(theta: float = 0.0) -> StateVector:
    """Round start: superposed coin, ready memories, spin down."""
    fbar0 = basis_state(LAYOUT.sub((FBAR,)), (0,))
    f0 = basis_state(LAYOUT.sub((F,)), (0,))
    return tensor_all(coin_state(theta), fbar0, spin_down_state(), f0)


@lru_cache(maxsize=None)
def coin_measurement() -> MeasurementSpec:
    sub = LAYOUT.sub((R,))
    return MeasurementSpec(
        (R,),
        ((HEADS, basis_state(sub, (0,))), (TAILS, basis_state(sub, (1,)))),
    )


@lru_cache(maxsize=None)
def spin_measurement() -> MeasurementSpec:
    """Spin readout in the down/up basis, labeled by the recorded z value."""
    return MeasurementSpec(
        (S,),
        ((Z_MINUS, spin_down_state()), (Z_PLUS, spin_up_state())),
    )


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
def coin_interaction(layout: SpaceLayout = LAYOUT) -> Operator:
    return build_dilation(coin_dilation(), layout)


@lru_cache(maxsize=None)
def spin_interaction(layout: SpaceLayout = LAYOUT) -> Operator:
    return build_dilation(spin_dilation(), layout)


@lru_cache(maxsize=None)
def lab_lbar_layout() -> SpaceLayout:
    return LAYOUT.sub((R, FBAR))


@lru_cache(maxsize=None)
def lab_l_layout() -> SpaceLayout:
    return LAYOUT.sub((S, F))


@lru_cache(maxsize=None)
def heads_lab_state() -> StateVector:
    """Lab Lbar after a heads outcome: coin heads, memory pointing at heads."""
    return basis_state(lab_lbar_layout(), (0, 1))


@lru_cache(maxsize=None)
def tails_lab_state() -> StateVector:
    return basis_state(lab_lbar_layout(), (1, 2))


@lru_cache(maxsize=None)
def okbar_state() -> StateVector:
    """The Lbar observer's special outcome: (heads-lab - tails-lab)/sqrt(2)."""
    return superpose([(np.sqrt(0.5), heads_lab_state()), (-np.sqrt(0.5), tails_lab_state())])


@lru_cache(maxsize=None)
def failbar_state() -> StateVector:
    return superpose([(np.sqrt(0.5), heads_lab_state()), (np.sqrt(0.5), tails_lab_state())])


@lru_cache(maxsize=None)
def minus_lab_state() -> StateVector:
    """Lab L holding a down spin and a memory pointing at z = -1/2."""
    return basis_state(lab_l_layout(), (0, 1))


@lru_cache(maxsize=None)
def plus_lab_state() -> StateVector:
    return basis_state(lab_l_layout(), (1, 2))


@lru_cache(maxsize=None)
def ok_state() -> StateVector:
    return superpose([(np.sqrt(0.5), minus_lab_state()), (-np.sqrt(0.5), plus_lab_state())])


@lru_cache(maxsize=None)
def fail_state() -> StateVector:
    return superpose([(np.sqrt(0.5), minus_lab_state()), (np.sqrt(0.5), plus_lab_state())])


@lru_cache(maxsize=None)
def wbar_measurement() -> MeasurementSpec:
    """Lbar observer's basis: okbar/failbar listed, the rest auto-completed."""
    return MeasurementSpec(
        (R, FBAR),
        ((OKBAR, okbar_state()), (FAILBAR, failbar_state())),
    )


@lru_cache(maxsize=None)
def w_measurement() -> MeasurementSpec:
    return MeasurementSpec(
        (S, F),
        ((OK, ok_state()), (FAIL, fail_state())),
    )


@lru_cache(maxsize=None)
def _wbar_completed() -> MeasurementSpec:
    return complete_basis(wbar_measurement())


@lru_cache(maxsize=None)
def _w_completed() -> MeasurementSpec:
    return complete_basis(w_measurement())


@lru_cache(maxsize=None)
def lab_lbar_spin_state(theta: float = 0.0) -> StateVector:
    """Pure state of Lbar plus spin after the coin interaction (before the spin one)."""
    sub = LAYOUT.sub((R, FBAR, S))
    u = build_dilation(coin_dilation(), sub)
    fbar0 = basis_state(LAYOUT.sub((FBAR,)), (0,))
    return apply(u, tensor_all(coin_state(theta), fbar0, spin_down_state()))


@lru_cache(maxsize=None)
def lab_l_state_from_right_spin() -> StateVector:
    """Pure state of lab L produced by feeding it an x-polarized spin."""
    sub = lab_l_layout()
    u = build_dilation(spin_dilation(), sub)
    f0 = basis_state(LAYOUT.sub((F,)), (0,))
    return apply(u, tensor_all(spin_right_state(), f0))


@lru_cache(maxsize=None)
def global_state(theta: float, time: str) -> StateVector:
    """Global pure state at a checkpoint under the fully unitary dynamics."""
    if time == T00:
        return initial_state(theta)
    if time == T10:
        return apply(coin_interaction(), initial_state(theta))
    if time == T20:
        return apply(spin_interaction(), apply(coin_interaction(), initial_state(theta)))
    raise ValueError(f"no unitary checkpoint state at {time!r}")


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
# Collapse semantics: exhaustive trajectory enumeration.
# ---------------------------------------------------------------------------

_PRUNE = 1e-15


def _branch(
    branches: Iterable[tuple[float, dict, StateVector]],
    spec: MeasurementSpec,
    record_key: str,
    after: Operator | None = None,
) -> tuple[tuple[float, dict, StateVector], ...]:
    out = []
    for prob, records, state in branches:
        for label, vec in spec.outcomes:
            p, _, post = project_component(state, spec.target, vec.amplitudes)
            total = prob * p
            if total < _PRUNE:
                continue
            nxt = StateVector(state.layout, post / np.sqrt(p))
            if after is not None:
                nxt = apply(after, nxt)
            out.append((total, {**records, record_key: _simplify(label)}, nxt))
    return tuple(out)


@lru_cache(maxsize=None)
def collapse_trajectories(theta: float, time: str) -> tuple[tuple[float, dict, StateVector], ...]:
    """All collapse branches alive at a checkpoint: (probability, records, state).

    Records map ``r``/``z``/``wbar`` to the outcomes already produced by that
    time.  Probabilities sum to one; zero-probability branches are pruned.
    """
    start = ((1.0, {}, initial_state(theta)),)
    if time == T00:
        return start
    at10 = _branch(start, coin_measurement(), "r", after=coin_interaction())
    if time == T10:
        return at10
    at20 = _branch(at10, spin_measurement(), "z", after=spin_interaction())
    if time == T20:
        return at20
    if time == T30:
        return _branch(at20, _wbar_completed(), "wbar")
    raise ValueError(f"unknown checkpoint {time!r}")


@lru_cache(maxsize=None)
def _collapse_leaves(theta: float) -> tuple[tuple[float, dict, StateVector], ...]:
    return _branch(collapse_trajectories(theta, T30), _w_completed(), "w")


# ---------------------------------------------------------------------------
# Unitary semantics: exact joint from the final global state.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _UnitaryModel:
    pairs: tuple[tuple[str, str], ...]  # simplified (wbar, w) label per flat outcome
    probs: np.ndarray                   # (36,) joint outcome probabilities
    cum: np.ndarray
    r_dists: np.ndarray                 # (6, 2) coin readout given Lbar outcome
    z_dists: np.ndarray                 # (6, 3) F-memory readout given L outcome


@lru_cache(maxsize=None)
def _unitary_model(theta: float) -> _UnitaryModel:
    psi = global_state(theta, T20).amplitudes.reshape(6, 6)
    wbar_spec = _wbar_completed()
    w_spec = _w_completed()
    b_lbar = np.array([v.amplitudes for _, v in wbar_spec.outcomes])
    b_l = np.array([v.amplitudes for _, v in w_spec.outcomes])
    amp = b_lbar.conj() @ psi @ b_l.conj().T
    probs = np.abs(amp) ** 2
    pairs = tuple(
        (_simplify(wl), _simplify(ol))
        for wl in wbar_spec.labels
        for ol in w_spec.labels
    )
    # Post-measurement lab states are exactly the basis vectors, so the later
    # coin/memory readouts have per-outcome product distributions.
    r_dists = np.sum(np.abs(b_lbar.reshape(6, 2, 3)) ** 2, axis=2)
    z_dists = np.sum(np.abs(b_l.reshape(6, 2, 3)) ** 2, axis=1)
    flat = probs.reshape(-1)
    return _UnitaryModel(pairs, flat, np.cumsum(flat), r_dists, z_dists)


def exact_joint(config: ProtocolConfig) -> JointDistribution:
    """Exact observer-announcement joint; no sampling involved."""
    cells = {(wb, w): 0.0 for wb in WBAR_VALUES for w in W_VALUES}
    if config.semantics == UNITARY:
        model = _unitary_model(config.theta)
        for pair, p in zip(model.pairs, model.probs):
            cells[pair] += float(p)
    else:
        for prob, records, _ in _collapse_leaves(config.theta):
            cells[(records["wbar"], records["w"])] += prob
    return JointDistribution(cells)


def exact_record_distribution(config: ProtocolConfig) -> dict[tuple[str, str, str, str], float]:
    """Exact distribution of full (r, z, wbar, w) records for one round."""
    out: dict[tuple[str, str, str, str], float] = {}
    if config.semantics == COLLAPSE:
        for prob, records, _ in _collapse_leaves(config.theta):
            key = (records["r"], records["z"], records["wbar"], records["w"])
            out[key] = out.get(key, 0.0) + prob
        return out
    model = _unitary_model(config.theta)
    r_labels = (HEADS, TAILS)
    z_labels = F_POINTER_LABELS
    for idx, p in enumerate(model.probs):
        if p < _PRUNE:
            continue
        k, j = divmod(idx, 6)
        wbar, w = model.pairs[idx]
        for a, pr in enumerate(model.r_dists[k]):
            for c, pz in enumerate(model.z_dists[j]):
                q = float(p * pr * pz)
                if q < _PRUNE:
                    continue
                key = (r_labels[a], z_labels[c], wbar, w)
                out[key] = out.get(key, 0.0) + q
    return out


# ---------------------------------------------------------------------------
# Round execution.
# ---------------------------------------------------------------------------


def run_round_collapse(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> RoundRecord:
    """One round with projective collapse at every measurement."""
    if config.semantics != COLLAPSE:
        raise ValueError("run_round_collapse requires collapse semantics")
    state = initial_state(config.theta)
    r, state = measure_collapse(state, coin_measurement(), rng)
    state = apply(coin_interaction(), state)
    z, state = measure_collapse(state, spin_measurement(), rng)
    state = apply(spin_interaction(), state)
    wbar, state = measure_collapse(state, _wbar_completed(), rng)
    w, state = measure_collapse(state, _w_completed(), rng)
    wbar, w = _simplify(wbar), _simplify(w)
    return RoundRecord(round_index, r, z, wbar, w, wbar == OKBAR and w == OK)


def _pick(cum: np.ndarray, probs: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="right"))
    idx = min(idx, len(probs) - 1)
    if probs[idx] < IMPOSSIBLE_MASS:
        raise ImpossibleOutcomeError(f"sampled outcome index {idx} has probability {probs[idx]!r}")
    return idx


def run_round_unitary(
    config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0
) -> RoundRecord:
    """One round in the fully unitary picture.

    The observers' joint outcome is sampled from the final global state; the
    coin and spin records are read out of the post-measurement labs
    afterwards, purely for the audit trail.
    """
    if config.semantics != UNITARY:
        raise ValueError("run_round_unitary requires unitary semantics")
    model = _unitary_model(config.theta)
    idx = _pick(model.cum, model.probs, float(rng.random()))
    k, j = divmod(idx, 6)
    wbar, w = model.pairs[idx]
    r_probs = model.r_dists[k]
    r = (HEADS, TAILS)[_pick(np.cumsum(r_probs), r_probs, float(rng.random()))]
    z_probs = model.z_dists[j]
    z = F_POINTER_LABELS[_pick(np.cumsum(z_probs), z_probs, float(rng.random()))]
    return RoundRecord(round_index, r, z, wbar, w, wbar == OKBAR and w == OK)


def run_round(config: ProtocolConfig, rng: np.random.Generator, round_index: int = 0) -> RoundRecord:
    if config.semantics == COLLAPSE:
        return run_round_collapse(config, rng, round_index)
    return run_round_unitary(config, rng, round_index)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Independent per-round stream derived from (seed, round_index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(round_index,)))


def run_until_halt(config: ProtocolConfig) -> list[RoundRecord]:
    """Run rounds until the halting outcome or the round budget is exhausted.

    Exhausting ``max_rounds`` is a reported condition, not an error: the
    returned history simply ends with a non-halted record.
    """
    records: list[RoundRecord] = []
    for i in range(config.max_rounds):
        rec = run_round(config, round_rng(config.seed, i), i)
        records.append(rec)
        if rec.halted:
            break
    return records


# Rounds drawn per ``rng.random`` call: bounds the sampler's working memory
# while keeping the concatenated draws identical to a single call.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class RoundSample:
    """Sampled rounds as one column: each round is an index into ``keys``.

    ``keys`` are the ``(r, z, wbar, w)`` records of the exact record
    distribution, in its insertion order; ``index`` holds one read-only
    ``uint8`` per round.
    """

    keys: tuple[tuple[str, str, str, str], ...]
    index: np.ndarray

    def __post_init__(self) -> None:
        self.index.setflags(write=False)

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundSample):
            return NotImplemented
        return self.keys == other.keys and np.array_equal(self.index, other.index)


def sample_records(config: ProtocolConfig, n_rounds: int, seed: int | None = None) -> RoundSample:
    """I.i.d. rounds drawn from the exact record distribution.

    One ``default_rng`` stream: round *i* takes the *i*-th uniform.  Draws
    come in chunks of ``SAMPLE_CHUNK``, so memory beyond the one-byte-per-round
    index column stays flat, and the result is byte-reproducible given
    (config, n_rounds, seed).
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    rng = np.random.default_rng(config.seed if seed is None else seed)
    dist = exact_record_distribution(config)
    keys = tuple(dist)
    probs = np.array([dist[k] for k in keys])
    cum = np.cumsum(probs / probs.sum())
    index = np.empty(n_rounds, dtype=np.uint8)
    for start in range(0, n_rounds, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, n_rounds)
        draws = np.searchsorted(cum, rng.random(stop - start), side="right")
        index[start:stop] = np.minimum(draws, len(keys) - 1)
    return RoundSample(keys, index)


def tally_joint(sample: RoundSample) -> dict[tuple[str, str], int]:
    """Round counts per observed ``(wbar, w)`` cell."""
    # bincount widens its input to intp, so count chunk by chunk.
    per_key = sum(
        (
            np.bincount(sample.index[start:start + SAMPLE_CHUNK], minlength=len(sample.keys))
            for start in range(0, len(sample), SAMPLE_CHUNK)
        ),
        np.zeros(len(sample.keys), dtype=np.int64),
    )
    counts: dict[tuple[str, str], int] = {}
    for (_, _, wbar, w), c in zip(sample.keys, per_key):
        if c:
            counts[(wbar, w)] = counts.get((wbar, w), 0) + int(c)
    return counts


def episode_lengths(sample: RoundSample) -> np.ndarray:
    """Lengths of completed halt-terminated episodes in an i.i.d. round stream."""
    halts = np.array([wbar == OKBAR and w == OK for _, _, wbar, w in sample.keys])
    return np.diff(np.flatnonzero(halts[sample.index]), prepend=-1)
