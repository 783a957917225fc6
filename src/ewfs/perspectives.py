"""State assignment: what density matrix an agent writes down, and when.

Three assignment rules are implemented:

* ``unitary-global``  -- the agent describes the world by the global pure
  state evolved unitarily to the checkpoint; known records condition the
  description by projective slicing (project, renormalize).
* ``collapse-aware``  -- every measurement that has happened by the
  checkpoint produced a definite record; the description is the mixture of
  collapsed trajectories compatible with the agent's conditioning
  (trajectory filtering).
* ``own-record-pure`` -- the agent conditions the unitarily evolved state on
  exactly one record: their own outcome.  Mechanically this is projective
  slicing too; the rule exists as a distinct policy because mixing it with
  ``unitary-global`` descriptions of other agents is precisely the
  combination the reasoning audit flags as inconsistent.

The two pictures are linked by dephasing: filtering trajectories equals
slicing the global state and then killing coherences in the pointer bases
of every measurement completed by that time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from . import protocol
from .measurement import MeasurementSpec, outcome_distribution, pointer_readout_spec
from .qcore import (
    DensityMatrix,
    StateVector,
    ZeroProbabilityError,
    basis_state,
    fidelity,
    mix,
    partial_trace,
    pure_density,
    slice_state,
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
RECORDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "r": ("Fbar", protocol.T10, (protocol.HEADS, protocol.TAILS)),
    "z": ("F", protocol.T20, (protocol.Z_MINUS, protocol.Z_PLUS)),
    "wbar": ("Wbar", protocol.T30, (protocol.OKBAR, protocol.FAILBAR)),
    "w": ("W", "n:40", (protocol.OK, protocol.FAIL)),
}


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


def _ordered_conditioning(cond: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    # Records are produced in protocol order r, z, wbar, w; conditioning
    # projectors are applied in that order.
    order = {"r": 0, "z": 1, "wbar": 2, "w": 3}
    return sorted(cond, key=lambda kv: order[kv[0]])


def _record_projector_component(var: str, value: str) -> tuple[tuple[str, ...], np.ndarray]:
    """(target registers, rank-one component) whose projector fixes the record.

    ``wbar=failbar`` / ``w=fail`` mean "anything but the special outcome"; on
    the protocol's reachable states the listed fail vector is the only
    complement component with support, so the rank-one slice is exact there.
    """
    if var == "r":
        idx = 0 if value == protocol.HEADS else 1
        vec = basis_state(protocol.LAYOUT.sub((protocol.R,)), (idx,))
        return (protocol.R,), vec.amplitudes
    if var == "z":
        slot = 1 if value == protocol.Z_MINUS else 2
        vec = basis_state(protocol.LAYOUT.sub((protocol.F,)), (slot,))
        return (protocol.F,), vec.amplitudes
    if var == "wbar":
        vec = protocol.okbar_state() if value == protocol.OKBAR else protocol.failbar_state()
        return (protocol.R, protocol.FBAR), vec.amplitudes
    if var == "w":
        vec = protocol.ok_state() if value == protocol.OK else protocol.fail_state()
        return (protocol.S, protocol.F), vec.amplitudes
    raise ValueError(f"unknown record variable {var!r}")


def _sliced_global_state(theta: float, time: str, cond: Sequence[tuple[str, str]]) -> StateVector:
    """Unitarily evolved global state, conditioned by projective slicing."""
    state_time = protocol.T20 if time == protocol.T30 else time
    state = protocol.global_state(theta, state_time)
    for var, value in _ordered_conditioning(cond):
        target, component = _record_projector_component(var, value)
        try:
            _, state = slice_state(state, target, component)
        except ZeroProbabilityError as exc:
            raise NotEvaluableError(
                f"conditioning {var}={value} has probability zero"
            ) from exc
    return state


def assign(
    p: Perspective,
    subsystems: Union[str, Sequence[str]],
    theta: float = 0.0,
) -> DensityMatrix:
    """Density matrix the perspective assigns to the named registers."""
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    protocol.LAYOUT.sub(names)  # validates the names
    if p.rule.kind in (UNITARY_GLOBAL, OWN_RECORD_PURE):
        state = _sliced_global_state(theta, p.time, p.conditioning)
        return partial_trace(pure_density(state), names)

    branches = protocol.collapse_trajectories(theta, p.time)
    kept: list[tuple[float, StateVector]] = []
    for prob, records, state in branches:
        if all(records.get(var) == value for var, value in p.conditioning):
            kept.append((prob, state))
    total = sum(w for w, _ in kept)
    if total < 1e-12:
        raise NotEvaluableError(
            f"conditioning {dict(p.conditioning)} has probability zero under collapse trajectories"
        )
    return mix((w / total, partial_trace(pure_density(s), names)) for w, s in kept)


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
    rho = assign(p, spec.target, theta)
    return outcome_distribution(rho, spec)


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
