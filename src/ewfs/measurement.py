"""Projective measurements and their unitary dilations.

A ``MeasurementSpec`` is a complete labeled orthonormal basis on a set of
target registers: listed outcomes that do not span the target space are
completed once, at construction, with deterministic rows labelled ``other``,
and the completed outcome vectors are kept as the rows of ``spec.basis``.

This module owns the one Born rule, ``born_distribution``: it reads the
outcome probabilities of a spec off branch amplitudes, and every
perspective's prediction, the CLI's included, is read with it.

A measurement has one realization here, ``build_dilation``: a controlled
unitary that writes the outcome into a memory register instead of
collapsing the state.  Collapse statistics are that same dilated state with
the pointer coherences removed, which ``protocol`` reads off directly
(deferred measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .qcore import (
    DEFAULT_ATOL, Operator, SpaceLayout, StateVector, _dot, _sqmod, basis_state, embed, projector,
)

OTHER = "other"  # the label of every completion row: whatever the listed outcomes leave out


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """Complete labeled orthonormal basis on a set of target registers.

    The listed outcomes need not span the target space: construction
    appends deterministic ``OTHER`` rows for the orthogonal complement, the
    one outcome that may span several rows.  ``basis`` holds the completed
    outcome vectors as read-only rows, row k for outcome k, and ``bras``
    their read-only conjugates, so that ``bras @ ψ`` reads ``⟨o_k|ψ⟩``.
    """

    target: tuple[str, ...]
    outcomes: tuple[tuple[str, StateVector], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "outcomes", tuple((str(l), v) for l, v in self.outcomes))
        if not self.outcomes:
            raise ValueError("measurement needs at least one outcome")
        labels = [l for l, _ in self.outcomes if l != OTHER]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels: {labels}")
        first = self.outcomes[0][1].layout
        if first.names != self.target:
            raise ValueError(
                f"outcome vectors live on {first.names}, spec targets {self.target}"
            )
        rows = np.array([v.amplitudes for _, v in self.outcomes])
        for _, v in self.outcomes:
            if v.layout.subsystems != first.subsystems:
                raise ValueError("outcome vectors live on different layouts")
        gram = rows.conj() @ rows.T
        dev = float(np.max(np.abs(gram - np.eye(len(rows)))))
        if not dev <= DEFAULT_ATOL:
            raise ValueError(f"listed outcomes are not orthonormal (Gram deviation {dev:.3e})")
        if len(self.outcomes) < first.total_dim:
            object.__setattr__(self, "outcomes", self.outcomes + _complement(first, list(rows)))
            rows = np.array([v.amplitudes for _, v in self.outcomes])
        bras = rows.conj()
        rows.setflags(write=False)
        bras.setflags(write=False)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "bras", bras)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    @property
    def target_layout(self) -> SpaceLayout:
        return self.outcomes[0][1].layout


def _complement(sub: SpaceLayout, listed: list[np.ndarray]) -> tuple[tuple[str, StateVector], ...]:
    """Orthonormal ``OTHER`` rows spanning the complement of the listed vectors.

    Gram-Schmidt against the computational basis in fixed index order, so the
    result is deterministic given the listed order.
    """
    d = sub.total_dim
    basis_rows = list(listed)
    added: list[np.ndarray] = []
    for k in range(d):
        cand = np.zeros(d, dtype=np.complex128)
        cand[k] = 1.0
        for _ in range(2):  # repeated classical GS for orthogonality ~1e-15
            for row in basis_rows:
                cand = cand - row * np.vdot(row, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            cand = cand / norm
            basis_rows.append(cand)
            added.append(cand)
        if len(basis_rows) == d:
            break
    if len(basis_rows) != d:
        raise ValueError("basis completion failed to span the target space")
    return tuple((OTHER, StateVector(sub, vec)) for vec in added)


def born_distribution(spec: MeasurementSpec, psi: np.ndarray, total: float) -> dict[str, float]:
    """Born probabilities ``Σ_b ‖⟨o|ψ_b⟩‖²`` of every outcome over their sum; sums to one.

    An outcome's rows add up in label order.  ``psi`` holds branch
    amplitudes of shape (branches, target dim, rest), the target registers
    in the declaration order of ``spec.target``, and ``total`` is their
    squared norm, which the outcome masses must add up to.  Dividing by the
    masses' own sum instead keeps every probability in [0, 1]: in floating
    point no summand exceeds the sum.
    """
    masses = np.add.reduce(_sqmod(_dot(spec.bras, psi)), axis=(0, 2))
    mass = np.add.reduce(masses)
    if not abs(mass / total - 1.0) <= DEFAULT_ATOL:
        raise ValueError(f"outcome probabilities sum to {float(mass / total)!r}, expected 1")
    dist = dict.fromkeys(spec.labels, 0.0)
    for label, p in zip(spec.labels, (masses / mass).tolist()):
        dist[label] += p
    return dist


@dataclass(frozen=True, eq=False)
class DilationSpec:
    """Recipe for realizing a measurement as a unitary onto a memory register.

    ``pointer_map`` sends each outcome label to a memory basis index; index 0
    is reserved for the ready state the memory starts in.  An outcome may
    additionally trigger a conditional unitary preparation on a downstream
    register (``preparations``), which is how a measure-and-prepare step is
    expressed as a single interaction.
    """

    measurement: MeasurementSpec
    memory: str
    pointer_map: tuple[tuple[str, int], ...]
    preparations: tuple[tuple[str, Operator], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pointer_map", tuple((str(l), int(s)) for l, s in self.pointer_map))
        object.__setattr__(self, "preparations", tuple(self.preparations))
        slots = [s for _, s in self.pointer_map]
        if len(set(slots)) != len(slots):
            raise ValueError("pointer map is not injective")
        if any(s < 1 for s in slots):
            raise ValueError("pointer slots start at 1; slot 0 is the ready state")
        if self.memory in self.measurement.target:
            raise ValueError("memory register cannot be part of the measured target")

    def slot_of(self, label: str) -> int:
        for l, s in self.pointer_map:
            if l == label:
                return s
        raise ValueError(f"outcome {label!r} has no pointer slot")


def build_dilation(dspec: DilationSpec, layout: SpaceLayout) -> Operator:
    """Controlled unitary sum_k |b_k><b_k| (x) (memory shift) (x) (preparation).

    The memory shift is the transposition taking the ready slot to the
    outcome's pointer slot; any unitary extension off the ready state leaves
    the reachable statistics unchanged, and the transposition is the
    deterministic choice.
    """
    spec = dspec.measurement
    mem_dim = layout.dims[layout.axis(dspec.memory)]
    needed = len(set(spec.labels)) + 1  # the ready slot and one per outcome; ``other``'s rows share one
    if mem_dim < needed:
        raise ValueError(f"memory {dspec.memory!r} has dimension {mem_dim}, needs at least {needed}")
    preparations = dict(dspec.preparations)
    for label in preparations:
        if label not in spec.labels:
            raise ValueError(f"preparation for unknown outcome {label!r}")
    d = layout.total_dim
    acc = np.zeros((d, d), dtype=np.complex128)
    mem_layout = layout.sub((dspec.memory,))
    for label, vec in spec.outcomes:
        slot = dspec.slot_of(label)
        if slot >= mem_dim:
            raise ValueError(f"pointer slot {slot} exceeds memory dimension {mem_dim}")
        shift = np.eye(mem_dim, dtype=np.complex128)
        shift[[0, slot]] = shift[[slot, 0]]
        term = embed(projector(vec), layout).matrix
        term = term @ embed(Operator(mem_layout, shift, kind="unitary"), layout).matrix
        prep = preparations.get(label)
        if prep is not None:
            overlap = set(prep.layout.names) & (set(spec.target) | {dspec.memory})
            if overlap:
                raise ValueError(f"preparation acts on measured/memory registers {sorted(overlap)}")
            term = term @ embed(prep, layout).matrix
        acc += term
    return Operator(layout, acc, kind="unitary")


def pointer_readout_spec(
    layout: SpaceLayout, memory: str, labels: Sequence[str]
) -> MeasurementSpec:
    """Computational-basis readout spec for one register, one label per basis state."""
    sub = layout.sub((memory,))
    dim = sub.total_dim
    labels = tuple(labels)
    if len(labels) != dim:
        raise ValueError(f"need {dim} labels for register {memory!r}, got {len(labels)}")
    outcomes = tuple((labels[i], basis_state(sub, (i,))) for i in range(dim))
    return MeasurementSpec((memory,), outcomes)


def _check_target(layout: SpaceLayout, spec: MeasurementSpec) -> None:
    """The layout's target registers, in its order, must be the spec's; builds no layout."""
    provided = tuple(s for s in layout.subsystems if s[0] in spec.target)
    if provided != spec.target_layout.subsystems:
        raise ValueError(
            f"measurement targets {spec.target_layout.subsystems}, state provides {provided}"
        )

