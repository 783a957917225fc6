"""Projective measurements and their unitary dilations.

A ``MeasurementSpec`` is a complete labeled orthonormal basis on a set of
target registers: listed outcomes that do not span the target space are
completed once, at construction, with deterministic ``other_k`` outcomes,
and the completed outcome vectors are kept as the rows of ``spec.basis``.

This module owns the Born rule.  ``born_distribution`` reads the outcome
probabilities of a spec off branch amplitudes; ``outcome_distribution``
applies it to any pure state and contracts the basis with the
target-reduced matrix of a mixed one.

A measurement has one realization here, ``build_dilation``: a controlled
unitary that writes the outcome into a memory register instead of
collapsing the state.  Collapse statistics are that same dilated state with
the pointer coherences removed, which ``protocol`` reads off directly
(deferred measurement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DEFAULT_ATOL,
    DensityMatrix,
    Operator,
    SpaceLayout,
    StateVector,
    basis_state,
    embed,
    projector,
)


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """Complete labeled orthonormal basis on a set of target registers.

    The listed outcomes need not span the target space: construction
    appends deterministic ``other_k`` outcomes for the orthogonal complement.
    ``basis`` holds the completed outcome vectors as read-only rows, row k
    for outcome k.
    """

    target: tuple[str, ...]
    outcomes: tuple[tuple[str, StateVector], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "outcomes", tuple((str(l), v) for l, v in self.outcomes))
        if not self.outcomes:
            raise ValueError("measurement needs at least one outcome")
        labels = [l for l, _ in self.outcomes]
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
        if dev > DEFAULT_ATOL:
            raise ValueError(f"listed outcomes are not orthonormal (Gram deviation {dev:.3e})")
        if len(self.outcomes) < first.total_dim:
            object.__setattr__(self, "outcomes", self.outcomes + _complement(first, list(rows)))
            rows = np.array([v.amplitudes for _, v in self.outcomes])
        rows.setflags(write=False)
        object.__setattr__(self, "basis", rows)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    @property
    def target_layout(self) -> SpaceLayout:
        return self.outcomes[0][1].layout


def _complement(sub: SpaceLayout, listed: list[np.ndarray]) -> tuple[tuple[str, StateVector], ...]:
    """Orthonormal ``other_k`` outcomes spanning the complement of the listed vectors.

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
    return tuple((f"other_{i}", StateVector(sub, vec)) for i, vec in enumerate(added))


def born_distribution(spec: MeasurementSpec, psi: np.ndarray, total: float = 1.0) -> dict[str, float]:
    """Born probabilities ``Σ_b ‖⟨o|ψ_b⟩‖² / total`` of every outcome; sums to one.

    ``psi`` holds branch amplitudes of shape (branches, target dim, rest),
    the target registers in the declaration order of ``spec.target``.
    """
    return _labeled(spec, (np.abs(spec.basis.conj() @ psi) ** 2).sum(axis=(0, 2)) / total)


def outcome_distribution(state, spec: MeasurementSpec) -> dict[str, float]:
    """Born-rule probabilities of every outcome on a pure or mixed state; sums to one."""
    _check_target(state.layout, spec)
    dims, axes = state.layout.dims, state.layout.axes(spec.target)
    front, d = tuple(range(len(axes))), spec.basis.shape[1]
    if isinstance(state, StateVector):
        psi = np.moveaxis(state.tensorized(), axes, front).reshape(1, d, -1)
        return born_distribution(spec, psi)
    if not isinstance(state, DensityMatrix):
        raise TypeError("outcome_distribution expects a StateVector or DensityMatrix")
    # Target rows and columns to the front of each half, then trace out the rest.
    n = len(dims)
    t = np.moveaxis(
        state.matrix.reshape(dims + dims),
        axes + tuple(n + a for a in axes),
        front + tuple(n + i for i in front),
    )
    reduced = np.trace(t.reshape(d, -1, d, state.layout.total_dim // d), axis1=1, axis2=3)
    probs = np.einsum("ka,ab,kb->k", spec.basis.conj(), reduced, spec.basis).real
    return _labeled(spec, np.where(probs < 0.0, 0.0, probs))


def _labeled(spec: MeasurementSpec, probs: np.ndarray) -> dict[str, float]:
    total = probs.sum()
    if abs(total - 1.0) > DEFAULT_ATOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    return dict(zip(spec.labels, probs.tolist()))


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
    mem_axis = layout.axis(dspec.memory)
    mem_dim = layout.dims[mem_axis]
    if mem_dim < len(spec.outcomes) + 1:
        raise ValueError(
            f"memory {dspec.memory!r} has dimension {mem_dim}, "
            f"needs at least {len(spec.outcomes) + 1}"
        )
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
    layout: SpaceLayout, memory: str, labels: Sequence[str] | None = None
) -> MeasurementSpec:
    """Computational-basis readout spec for one register."""
    sub = layout.sub((memory,))
    dim = sub.total_dim
    if labels is None:
        labels = ("init",) + tuple(f"slot_{i}" for i in range(1, dim))
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

