"""State assignment: what density matrix an agent writes down, and when.

The rules define which branches exist.  A perspective walks the
measurements completed by its checkpoint in protocol order (``r``, ``z``,
``wbar``), starting from the one global state evolved unitarily to that
checkpoint.  A record the perspective conditions on keeps only the branch
projected onto that outcome.  The rules differ only in what happens to the
records it does not condition on:

* ``unitary-global``  -- nothing: the agent describes the world by the
  global pure state, sliced on the known records.
* ``collapse-aware``  -- every such measurement produced a definite record
  too, so the description is also dephased in that measurement's basis:
  the state splits into one branch per outcome and the branches are mixed.
  This is the mixture of collapsed trajectories compatible with the
  conditioning (trajectory filtering).
* ``own-record-pure`` -- the agent conditions the unitarily evolved state on
  exactly one record: their own outcome.  Mechanically this is projective
  slicing too; the rule exists as a distinct policy because mixing it with
  ``unitary-global`` descriptions of other agents is precisely the
  combination the reasoning audit flags as inconsistent.

None of this depends on the coin phase.  The global state is
``a_h·heads + a_t·tails`` (see ``protocol``), so each branch is a pair of
θ-free amplitude matrices ``M_i`` (kept registers by the rest), built once
per (checkpoint, conditioning, rule mechanics, registers) and cached.  θ
enters only through the coin amplitudes in the contraction: branch ``b`` is
``ψ_b = a_h M_h + a_t M_t``, it survives if ``‖ψ_b‖² = a†G_b a`` reaches
``IMPOSSIBLE_MASS``, and the state is ``Σ_b ψ_b ψ_b† / Σ_b ‖ψ_b‖²``.
Combining the amplitudes before squaring keeps full precision near an
interference zero, where the expanded form ``Σᵢⱼ aᵢāⱼ MᵢMⱼ†`` would cancel.

A kernel answers an angle from its view (see ``_View``), the one memo of
values.  Where the description holds a record of the coin, θ drops out (see
``_build``): such a θ-free kernel is contracted once and its one view
answers every angle.  Every other kernel keeps one view, keyed by the exact
latest θ asked for: memory stays bounded, threads sweeping different angles
get their own values (see ``_view``), and a description is contracted, built
and read once per angle, however many agents, statements and links share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence, Union
from weakref import WeakKeyDictionary

import numpy as np

from . import protocol
from .measurement import MeasurementSpec, _check_target, born_distribution
from .protocol import (
    AGENTS,
    COLLAPSE_AWARE,
    OWN_RECORD_PURE,
    RECORD_READOUTS,
    RECORDS,
    RULE_KINDS,
    TIMES,
    UNITARY_GLOBAL,
)
from .qcore import IMPOSSIBLE_MASS, DensityMatrix, SpaceLayout, _dot, _sqmod, embed, projector

# Checkpoint order, the ``w`` announcement's checkpoint last.
_TIME_INDEX = {t: i for i, t in enumerate(TIMES + (RECORDS["w"][1],))}
_STANDPOINTS: dict[tuple, tuple] = {}  # each valid (agent, time, conditioning, rule kind) -> its kernel key
_KERNELS: dict[tuple, _Kernel] = {}  # (kernel key, sorted names) -> the one kernel of that description


class NotEvaluableError(ValueError):
    """Conditioning event has probability zero under the chosen description."""


@dataclass(frozen=True)
class AssignmentRule:
    """Policy by which an agent assigns states to systems it has not measured."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown assignment rule {self.kind!r}; choose from {RULE_KINDS}")


@dataclass(frozen=True, init=False)
class Perspective:
    """An agent's standpoint: who, when, what they condition on, which rule.

    Normalized, then checked once per distinct standpoint, before any field
    is set: the conditioning becomes a tuple of ``(str, str)`` pairs, and a
    rule given by name or kind becomes an ``AssignmentRule``.  The kernel key
    ``(time, sorted conditioning, collapse?)`` is a private attribute, not a
    field: equality, hashing and ``repr`` ignore it, copies carry it.
    """

    agent: str
    time: str
    conditioning: tuple[tuple[str, str], ...] = ()
    rule: AssignmentRule = AssignmentRule(UNITARY_GLOBAL)

    def __init__(self, agent: str, time: str, conditioning=(), rule=rule) -> None:
        if agent not in AGENTS:
            raise ValueError(f"unknown agent {agent!r}")
        if time not in TIMES:
            raise ValueError(f"unknown checkpoint {time!r}")
        cond = tuple([(str(k), str(v)) for k, v in conditioning])
        if not isinstance(rule, AssignmentRule):
            rule = AssignmentRule(rule if isinstance(rule, str) else rule.kind)
        key = _STANDPOINTS.get(standpoint := (agent, time, cond, rule.kind))
        if key is None:  # checked once per valid standpoint: a finite set
            now, seen = _TIME_INDEX[time], set()
            for var, value in cond:
                if var not in RECORDS:
                    raise ValueError(f"unknown record variable {var!r}")
                if var in seen:
                    raise ValueError(f"duplicate conditioning on {var!r}")
                seen.add(var)
                owner, available, values = RECORDS[var]
                if value not in values:
                    raise ValueError(f"unknown value {value!r} for record {var!r}")
                if _TIME_INDEX[available] > now:
                    raise ValueError(
                        f"record {var!r} does not exist yet at {time} (available {available})"
                    )
            if rule.kind == OWN_RECORD_PURE:
                if len(cond) != 1:
                    raise ValueError("own-record-pure conditions on exactly one record")
                owner = RECORDS[cond[0][0]][0]
                if owner != agent:
                    raise ValueError(
                        f"own-record-pure: record {cond[0][0]!r} belongs to {owner}, not {agent}"
                    )
            # Sorted: the conditioning's order does not change the kernel.
            key = _STANDPOINTS[standpoint] = (time, tuple(sorted(cond)), rule.kind == COLLAPSE_AWARE)
        # Frozen: each field is written once, straight into the instance.
        self.__dict__.update(agent=agent, time=time, conditioning=cond, rule=rule, _kernel_key=key)


# record variable -> (label, projector on the whole layout) of each outcome of
# the measurement fixing it, for the records a checkpoint can hold.
# ``wbar=failbar`` means "anything but the special outcome"; on the
# protocol's reachable states the listed failbar vector is the only
# complement component with support, so slicing on it alone is exact there.
_PROJECTORS: Mapping[str, tuple[tuple[str, np.ndarray], ...]] = MappingProxyType({
    var: tuple(
        (label, embed(projector(vec), protocol.LAYOUT).matrix)
        for label, vec in RECORD_READOUTS[var].outcomes
    )
    for var in ("r", "z", "wbar")
})


class _View:
    """What a description gives at one angle (at every angle, if θ-free): the memo of its values.

    ``live`` holds the read-only live branches, shape (branches, kept dim,
    rest dim), and their total weight.  ``state`` is built and checked by the
    first ``assign`` that asks for it.  ``reads`` holds each spec's Born read,
    target check included, made by the first prediction of that spec; it is
    weakly keyed by spec, so a spec a caller drops leaves with its entry.
    """

    __slots__ = ("layout", "live", "reads", "_state")

    def __init__(self, layout: SpaceLayout, live: tuple[np.ndarray, float]) -> None:
        self.layout, self.live = layout, live
        self.reads, self._state = WeakKeyDictionary(), None

    @property
    def state(self) -> DensityMatrix | None:
        """The view's state, built and checked on first use; ``None`` if no branch is live."""
        if self._state is None and len(self.live[0]):
            psi, total = self.live
            self._state = DensityMatrix._gram(self.layout, _rows(psi), total)
        return self._state


class _Kernel:
    """An assignment's kept layout, its θ-free branches and its latest view.

    ``branches`` is the read-only array of shape (2, branches, kept dim, rest
    dim): entry ``[i, b]`` is branch ``b`` of a coin starting in heads (i = 0)
    or tails (i = 1), kept registers on the rows.

    ``latest`` is ``(key, view)``.  A θ-free kernel's one view answers every
    angle and sits under the key ``None``.  A θ-dependent kernel keeps the
    view of the latest angle it was asked for, keyed by that exact θ (see
    ``_view``); another angle replaces it.  ``_KERNELS`` owns every kernel
    and so every view.
    """

    __slots__ = ("layout", "branches", "latest")

    def __init__(self, layout: SpaceLayout, branches: np.ndarray, latest: tuple) -> None:
        self.layout, self.branches, self.latest = layout, branches, latest


def _contract(m: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
    """The read-only branches ``ψ_b = a_h M_h + a_t M_t`` that carry weight, and their total weight.

    One pass over the weights decides liveness; the mask is built only when
    a branch dies.  ``initial=inf`` lets a kernel with no branches left come
    back empty.
    """
    psi = _dot(amplitudes, m.reshape(2, -1)).reshape(m.shape[1:])
    weights = np.add.reduce(_sqmod(psi), axis=(1, 2))
    if not np.minimum.reduce(weights, initial=np.inf) >= IMPOSSIBLE_MASS:
        live = weights >= IMPOSSIBLE_MASS
        psi, weights = psi[live], weights[live]
    psi.setflags(write=False)
    return psi, np.add.reduce(weights)


def _rows(psi: np.ndarray) -> np.ndarray:
    """Branches side by side: one row per kept basis state, for the Gram state."""
    return psi.transpose(1, 0, 2).reshape(psi.shape[1], -1)


@lru_cache(maxsize=None)
def _kernel(key: tuple[str, tuple[tuple[str, str], ...], bool], names: tuple[str, ...]) -> _Kernel:
    """The kernel of a kernel key and the registers in the order given; a new order is sorted once."""
    canonical = (key, tuple(sorted(names)))  # register order does not change the kernel
    return _KERNELS.get(canonical) or _KERNELS.setdefault(canonical, _build(*canonical))


def _build(key: tuple[str, tuple[tuple[str, str], ...], bool], names: tuple[str, ...]) -> _Kernel:
    """Kept layout and θ-free branches of an assignment to the named registers.

    A branch whose Gram trace is below ``IMPOSSIBLE_MASS`` is dropped: its
    weight ``a†G a`` is below that at every angle, and every later projection
    only shrinks it.

    The kernel is θ-free when no traced-out column ``j`` of a branch holds
    both a heads and a tails amplitude (an exact ``!= 0`` test).  Then
    ``M_h M_t† = 0``, so ``ψ_b ψ_b† = |a_h|² M_h M_h† + |a_t|² M_t M_t†``, its
    weight and every Born probability read off it carry no phase: the
    contraction runs once, at θ = 0, and its Gram state is built and checked
    once, by the first ``assign`` that asks for it.  That is so wherever the
    traced-out registers hold a record of the coin, or the conditioning
    leaves one coin value: heads and tails no longer interfere.
    """
    time, conditioning, collapse = key
    layout = protocol.LAYOUT.sub(names)
    cond = dict(conditioning)
    branches = [protocol._BRANCHES[protocol.T20 if time == protocol.T30 else time]]
    for var in ("r", "z", "wbar"):  # protocol order
        if _TIME_INDEX[RECORDS[var][1]] > _TIME_INDEX[time]:
            break
        if var not in cond and not collapse:
            continue
        # every outcome, or only the one conditioned on
        outcomes = [proj for label, proj in _PROJECTORS[var] if cond.get(var, label) == label]
        split = [_dot(b, proj.T) for b in branches for proj in outcomes]
        branches = [b for b in split if _sqmod(b).sum() >= IMPOSSIBLE_MASS]
    dims, kept = protocol.LAYOUT.dims, protocol.LAYOUT.axes(names)
    axes = kept + tuple(a for a in range(len(dims)) if a not in kept)
    m = np.array(branches, dtype=np.complex128).reshape((len(branches), 2) + dims)
    m = m.transpose((1, 0) + tuple(2 + a for a in axes))
    m = m.reshape(2, len(branches), layout.total_dim, protocol.LAYOUT.total_dim // layout.total_dim)
    m.setflags(write=False)
    columns = (m != 0).any(axis=2)  # [i, b, j]: column j of branch b has coin-i support
    if (columns[0] & columns[1]).any():
        return _Kernel(layout, m, (math.nan, None))  # no view until the first angle
    return _Kernel(layout, m, (None, _View(layout, _contract(m, protocol.coin_amplitudes(0.0)))))


def _view(p: Perspective, names: tuple[str, ...], theta: float) -> _View:
    """The view of the perspective's description of the named registers at θ.

    A non-finite θ is refused before a kernel is read: a θ-free kernel would
    otherwise answer for it with its θ = 0 state.  A θ-dependent kernel's
    latest view is read once and used only if it is of this exact θ, as a
    float (equal and of one sign: ``0.0`` and ``-0.0`` are apart), so it answers
    bit for bit as a fresh contraction would, and a call racing another angle
    uses only the view it found or built.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    theta = float(theta)  # θ enters the arithmetic as a float
    kernel = _kernel(p._kernel_key, names)
    key, view = kernel.latest
    same = key == theta and (theta or math.copysign(1, key) == math.copysign(1, theta))  # sign at zero
    if key is not None and not same:
        view = _View(kernel.layout, _contract(kernel.branches, protocol.coin_amplitudes(theta)))
        kernel.latest = (theta, view)  # one store: a reader sees the old view or the new one
    if not len(view.live[0]):
        raise NotEvaluableError(f"conditioning {dict(p.conditioning)} has probability zero")
    return view


def assign(
    p: Perspective,
    subsystems: Union[str, Sequence[str]],
    theta: float = 0.0,
) -> DensityMatrix:
    """Density matrix the perspective assigns to the named registers."""
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    return _view(p, names, theta).state


def predict_distribution(
    p: Perspective, spec: MeasurementSpec, theta: float = 0.0
) -> dict[str, float]:
    """Born probabilities under the assigned state, read off its live branches without building it."""
    view = _view(p, spec.target, theta)
    # Read and checked once per view and spec; each caller gets its own copy.
    dist = view.reads.get(spec)
    if dist is None:
        _check_target(view.layout, spec)
        dist = view.reads[spec] = born_distribution(spec, *view.live)
    return dict(dist)


def record_distribution(p: Perspective, var: str, theta: float = 0.0) -> dict[str, float]:
    """Distribution a perspective assigns to a record variable."""
    return predict_distribution(p, RECORD_READOUTS[var], theta)
