"""State assignment: what density matrix an agent writes down, and when.

Every rule starts from the one global pure state evolved unitarily to the
checkpoint and walks the measurements completed by then in protocol order
(``r``, ``z``, ``wbar``).  A record the perspective conditions on slices the
state: project onto that outcome and renormalize.  The rules differ only in
what happens to the records it does not condition on:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import protocol
from .measurement import MeasurementSpec, outcome_distribution, pointer_readout_spec
from .qcore import (
    IMPOSSIBLE_MASS,
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    project_component,
    pure_density,
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


@lru_cache(maxsize=None)
def _record_outcomes(var: str) -> tuple[tuple[str, tuple[str, ...], np.ndarray], ...]:
    """(label, target registers, basis vector) of each outcome of the measurement fixing a record.

    ``wbar=failbar`` means "anything but the special outcome"; on the
    protocol's reachable states the listed failbar vector is the only
    complement component with support, so slicing on it alone is exact there.
    """
    spec = record_readout_spec(var)
    return tuple((label, spec.target, vec.amplitudes) for label, vec in spec.outcomes)


def assign(
    p: Perspective,
    subsystems: Union[str, Sequence[str]],
    theta: float = 0.0,
) -> DensityMatrix:
    """Density matrix the perspective assigns to the named registers."""
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    protocol.LAYOUT.sub(names)  # validates the names
    state = protocol.global_state(theta, protocol.T20 if p.time == protocol.T30 else p.time)
    branches = [(1.0, state)]  # (weight, normalized branch state)
    conditioning = dict(p.conditioning)
    for var in ("r", "z", "wbar"):  # protocol order
        if _TIME_INDEX[RECORDS[var][1]] > _TIME_INDEX[p.time]:
            break
        outcomes = _record_outcomes(var)
        if var in conditioning:
            outcomes = [o for o in outcomes if o[0] == conditioning[var]]
        elif p.rule.kind != COLLAPSE_AWARE:
            continue
        split = []
        for weight, branch in branches:
            for _, target, vec in outcomes:
                prob, _, post = project_component(branch, target, vec)
                if weight * prob >= IMPOSSIBLE_MASS:
                    split.append((weight * prob, StateVector(branch.layout, post / np.sqrt(prob))))
        if not split:
            raise NotEvaluableError(f"conditioning {dict(p.conditioning)} has probability zero")
        branches = split
    if len(branches) == 1:  # a pure state, kept bit for bit
        return partial_trace(pure_density(branches[0][1]), names)
    total = sum(weight for weight, _ in branches)
    rho = sum((weight / total) * np.outer(b.amplitudes, b.amplitudes.conj()) for weight, b in branches)
    return partial_trace(DensityMatrix(state.layout, rho), names)


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
