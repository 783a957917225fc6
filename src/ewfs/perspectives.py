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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

from . import protocol
from .measurement import MeasurementSpec, _check_target, born_distribution, pointer_readout_spec
from .qcore import (
    IMPOSSIBLE_MASS,
    DensityMatrix,
    SpaceLayout,
    embed,
    fidelity,
    projector,
    trace_distance,
)

COLLAPSE_AWARE = "collapse-aware"
UNITARY_GLOBAL = "unitary-global"
OWN_RECORD_PURE = "own-record-pure"
RULE_KINDS = (COLLAPSE_AWARE, UNITARY_GLOBAL, OWN_RECORD_PURE)

AGENTS = ("Fbar", "F", "Wbar", "W")
TIMES = (protocol.T00, protocol.T10, protocol.T20, protocol.T30)
_TIME_INDEX = {t: i for i, t in enumerate(TIMES + ("n:40",))}

# record variable -> (owning agent, checkpoint at which the record exists,
#                     allowed values)
RECORDS: Mapping[str, tuple[str, str, tuple[str, ...]]] = MappingProxyType({
    "r": ("Fbar", protocol.T10, (protocol.HEADS, protocol.TAILS)),
    "z": ("F", protocol.T20, (protocol.Z_MINUS, protocol.Z_PLUS)),
    "wbar": ("Wbar", protocol.T30, (protocol.OKBAR, protocol.FAILBAR)),
    "w": ("W", "n:40", (protocol.OK, protocol.FAIL)),
})


class NotEvaluableError(ValueError):
    """Conditioning event has probability zero under the chosen description."""


@dataclass(frozen=True)
class AssignmentRule:
    """Policy by which an agent assigns states to systems it has not measured."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown assignment rule {self.kind!r}; choose from {RULE_KINDS}")


@dataclass(frozen=True)
class Perspective:
    """An agent's standpoint: who, when, what they condition on, which rule."""

    agent: str
    time: str
    conditioning: tuple[tuple[str, str], ...] = ()
    rule: AssignmentRule = AssignmentRule(UNITARY_GLOBAL)

    def __post_init__(self) -> None:
        if self.agent not in AGENTS:
            raise ValueError(f"unknown agent {self.agent!r}")
        if self.time not in TIMES:
            raise ValueError(f"unknown checkpoint {self.time!r}")
        cond = tuple((str(k), str(v)) for k, v in self.conditioning)
        object.__setattr__(self, "conditioning", cond)
        if isinstance(self.rule, str):
            object.__setattr__(self, "rule", AssignmentRule(self.rule))
        seen = set()
        for var, value in cond:
            if var not in RECORDS:
                raise ValueError(f"unknown record variable {var!r}")
            if var in seen:
                raise ValueError(f"duplicate conditioning on {var!r}")
            seen.add(var)
            owner, available, values = RECORDS[var]
            if value not in values:
                raise ValueError(f"unknown value {value!r} for record {var!r}")
            if _TIME_INDEX[available] > _TIME_INDEX[self.time]:
                raise ValueError(
                    f"record {var!r} does not exist yet at {self.time} (available {available})"
                )
        if self.rule.kind == OWN_RECORD_PURE:
            if len(cond) != 1:
                raise ValueError("own-record-pure conditions on exactly one record")
            owner = RECORDS[cond[0][0]][0]
            if owner != self.agent:
                raise ValueError(
                    f"own-record-pure: record {cond[0][0]!r} belongs to {owner}, not {self.agent}"
                )


@lru_cache(maxsize=None)
def _projectors(var: str) -> tuple[tuple[str, np.ndarray], ...]:
    """(label, projector on the whole layout) of each outcome of the measurement fixing a record.

    ``wbar=failbar`` means "anything but the special outcome"; on the
    protocol's reachable states the listed failbar vector is the only
    complement component with support, so slicing on it alone is exact there.
    """
    spec = record_readout_spec(var)
    return tuple((label, embed(projector(vec), protocol.LAYOUT).matrix) for label, vec in spec.outcomes)


@lru_cache(maxsize=None)
def _kernel(
    time: str, conditioning: tuple[tuple[str, str], ...], collapse: bool, names: tuple[str, ...]
) -> tuple[SpaceLayout, np.ndarray]:
    """Kept layout and θ-free branches of an assignment to the named registers.

    The read-only array has shape (2, branches, kept dim, rest dim): entry
    ``[i, b]`` is branch ``b`` of a coin starting in heads (i = 0) or tails
    (i = 1), kept registers on the rows.  A branch whose Gram trace is below
    ``IMPOSSIBLE_MASS`` is dropped: its weight ``a†G a`` is below that at
    every angle, and every later projection only shrinks it.
    """
    layout = protocol.LAYOUT.sub(names)
    cond = dict(conditioning)
    branches = [np.array(protocol._coin_branches(protocol.T20 if time == protocol.T30 else time))]
    for var in ("r", "z", "wbar"):  # protocol order
        if _TIME_INDEX[RECORDS[var][1]] > _TIME_INDEX[time]:
            break
        if var not in cond and not collapse:
            continue
        # every outcome, or only the one conditioned on
        outcomes = [proj for label, proj in _projectors(var) if cond.get(var, label) == label]
        split = [b @ proj.T for b in branches for proj in outcomes]
        branches = [b for b in split if np.vdot(b, b).real >= IMPOSSIBLE_MASS]
    dims, kept = protocol.LAYOUT.dims, protocol.LAYOUT.axes(names)
    axes = kept + tuple(a for a in range(len(dims)) if a not in kept)
    m = np.array(branches, dtype=np.complex128).reshape((len(branches), 2) + dims)
    m = m.transpose((1, 0) + tuple(2 + a for a in axes))
    m = m.reshape(2, len(branches), layout.total_dim, protocol.LAYOUT.total_dim // layout.total_dim)
    m.setflags(write=False)
    return layout, m


def _live_branches(p: Perspective, names: tuple[str, ...], theta: float):
    """Kept layout, the branches ``ψ_b`` that carry weight at θ, and their total weight."""
    layout, m = _kernel(p.time, p.conditioning, p.rule.kind == COLLAPSE_AWARE, names)
    psi = (protocol.coin_amplitudes(theta) @ m.reshape(2, -1)).reshape(m.shape[1:])
    weights = (np.abs(psi) ** 2).sum(axis=(1, 2))
    live = weights >= IMPOSSIBLE_MASS
    if not live.all():
        psi, weights = psi[live], weights[live]
    if not len(psi):
        raise NotEvaluableError(f"conditioning {dict(p.conditioning)} has probability zero")
    return layout, psi, weights.sum()


def assign(
    p: Perspective,
    subsystems: Union[str, Sequence[str]],
    theta: float = 0.0,
) -> DensityMatrix:
    """Density matrix the perspective assigns to the named registers."""
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    layout, psi, total = _live_branches(p, names, theta)
    rows = psi.transpose(1, 0, 2).reshape(psi.shape[1], -1)
    return DensityMatrix(layout, rows @ rows.conj().T / total)


def predict(
    p: Perspective,
    spec: MeasurementSpec,
    event: str,
    theta: float = 0.0,
) -> float:
    """Born probability of one outcome of ``spec`` under the assigned state."""
    dist = predict_distribution(p, spec, theta)
    if event not in dist:
        raise ValueError(f"unknown outcome {event!r}; spec offers {sorted(dist)}")
    return dist[event]


def predict_distribution(
    p: Perspective, spec: MeasurementSpec, theta: float = 0.0
) -> dict[str, float]:
    """Born probabilities under the assigned state, read off its live branches without building it."""
    layout, psi, total = _live_branches(p, spec.target, theta)
    _check_target(layout, spec)
    return born_distribution(spec, psi, total)


@dataclass(frozen=True)
class StateComparison:
    trace_distance: float
    fidelity: float


def compare(a: DensityMatrix, b: DensityMatrix) -> StateComparison:
    """Distinguishability of two descriptions of the same registers.

    Fidelity uses the squared-overlap (Uhlmann) convention, so identical
    states score 1 and orthogonal pure states score 0.
    """
    return StateComparison(trace_distance(a, b), fidelity(a, b))


@lru_cache(maxsize=None)
def record_readout_spec(var: str) -> MeasurementSpec:
    """Measurement whose outcome reproduces a record variable."""
    if var == "r":
        return protocol.coin_measurement()
    if var == "z":
        return pointer_readout_spec(protocol.LAYOUT, protocol.F, protocol.F_POINTER_LABELS)
    if var == "wbar":
        return protocol.wbar_measurement()
    if var == "w":
        return protocol.w_measurement()
    raise ValueError(f"unknown record variable {var!r}")


def record_distribution(p: Perspective, var: str, theta: float = 0.0) -> dict[str, float]:
    """Distribution a perspective assigns to a record variable, 'other' outcomes merged."""
    return protocol.merge_other(predict_distribution(p, record_readout_spec(var), theta))
