"""Dense complex linear algebra over small multi-register Hilbert spaces.

Everything here is sized for composite systems of a handful of registers
(total dimension a few dozen), so all representations are dense and exact
to double precision.  Values are immutable after construction: the wrapped
numpy buffers are marked read-only and every operation returns a fresh
object, so instances can be shared freely between threads.

``DensityMatrix(layout, matrix)`` checks shape, hermiticity, unit trace and
positivity (one ``eigvalsh``).  The states ``perspectives.assign`` returns
are Gram matrices ``R R† / t`` built by ``DensityMatrix._gram``: they run
the same shape, Hermitian and trace checks and are positive semidefinite by
construction, so they skip the eigendecomposition.

The numeric seam: ``_dot`` and ``_sqmod``, with ``purity``'s ``np.vdot``, take
every product and squared modulus that sets a per-angle or per-description
value (``tests/test_numeric_seam.py`` lists the import-time and validation
rest).  The Gram build's Hermitian and trace check is the seam's one guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

# Global comparison tolerance for structural checks (norms, unitarity,
# hermiticity, positivity).
DEFAULT_ATOL = 1e-10

# Below this probability mass an event is treated as strictly impossible
# (conditioning slices, probability range checks).
IMPOSSIBLE_MASS = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product ``a @ b``: the one place that decides whether BLAS runs."""
    return a @ b


def _sqmod(z: np.ndarray) -> np.ndarray:
    """The elementwise squared modulus ``|z|²``."""
    return np.abs(z) ** 2


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered list of named registers; states flatten row-major in this order.

    The declaration order is the canonical index order: basis index 0 of a
    memory register is its ready/init slot by convention of the callers.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subs = tuple((str(name), int(dim)) for name, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise ValueError("layout needs at least one subsystem")
        names = [name for name, _ in subs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate subsystem names: {names}")
        for name, dim in subs:
            if dim < 1:
                raise ValueError(f"subsystem {name!r} has non-positive dimension {dim}")

    # Computed on first use and kept: a layout never changes after construction.
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @cached_property
    def total_dim(self) -> int:
        out = 1
        for dim in self.dims:
            out *= dim
        return out

    def dim(self, name: str) -> int:
        return self.dims[self.axis(name)]

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown subsystem name {name!r} in layout {self.names}") from None

    def axes(self, names: Iterable[str]) -> tuple[int, ...]:
        """Axes of the given subsystems, sorted into declaration order."""
        return tuple(sorted(self.axis(n) for n in names))

    def sub(self, names: Iterable[str]) -> "SpaceLayout":
        """Sub-layout of the named subsystems, kept in declaration order."""
        names = tuple(names)
        for n in names:
            self.axis(n)  # raises on unknown names
        wanted = set(names)
        if len(wanted) != len(names):
            raise ValueError(f"subsystem named twice in {names}")
        return SpaceLayout(tuple(s for s in self.subsystems if s[0] in wanted))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a register layout."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _freeze(np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, layout expects {self.layout.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= DEFAULT_ATOL:
            raise ValueError(f"state vector is not normalized (norm {norm!r})")


@dataclass(frozen=True, eq=False)
class Operator:
    """Square operator on a register layout, optionally flagged unitary/projector."""

    layout: SpaceLayout
    matrix: np.ndarray
    kind: str = "general"  # general | unitary | projector

    def __post_init__(self) -> None:
        mat = _freeze(np.asarray(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"operator matrix has shape {mat.shape}, layout expects {(d, d)}")
        if self.kind == "unitary":
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(d)))
            if not err <= DEFAULT_ATOL:
                raise ValueError(f"operator flagged unitary fails U+U=I by {err:.3e}")
        elif self.kind == "projector":
            err = max(
                float(np.max(np.abs(mat @ mat - mat))),
                float(np.max(np.abs(mat - mat.conj().T))),
            )
            if not err <= DEFAULT_ATOL:
                raise ValueError(f"operator flagged projector fails P^2=P / P+=P by {err:.3e}")
        elif self.kind != "general":
            raise ValueError(f"unknown operator kind {self.kind!r}")


def _check_hermitian_unit_trace(layout: SpaceLayout, mat: np.ndarray) -> np.ndarray:
    """Shape, Hermitian and trace checks of a density matrix; returns its adjoint."""
    d = layout.total_dim
    if mat.shape != (d, d):
        raise ValueError(f"density matrix has shape {mat.shape}, layout expects {(d, d)}")
    adj = mat.conj().T
    herm = float(np.abs(mat - adj).max())
    if not herm <= DEFAULT_ATOL:
        raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
    tr = complex(mat.trace())
    if not abs(tr - 1.0) <= DEFAULT_ATOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    return adj


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator with layout metadata."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _freeze(np.asarray(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        adj = _check_hermitian_unit_trace(self.layout, mat)
        lo = float(np.linalg.eigvalsh((mat + adj) / 2.0).min())
        if not lo >= -DEFAULT_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo!r}")

    @classmethod
    def _gram(cls, layout: SpaceLayout, rows: np.ndarray, total: float) -> "DensityMatrix":
        """The Gram state ``rows @ rows† / total``, positive by construction.

        Runs the shape, Hermitian and trace checks but no eigendecomposition.
        The caller guarantees finite complex ``rows`` (one row per basis state
        of ``layout``) and ``total >= IMPOSSIBLE_MASS > 0``, as
        ``perspectives._view`` does.  For such rows ``R R†/t`` is
        positive semidefinite, and floating-point rounding moves its
        eigenvalues by about k·u (k the row length, at most 8 branches x 36
        here; u = 2⁻⁵³), so by under 4e-14, far below ``DEFAULT_ATOL``.
        The product is normalized in place, bit for bit ``R R† / t``.
        """
        mat = _dot(rows, rows.conj().T)
        mat /= total
        mat.setflags(write=False)  # fresh array: no defensive copy needed
        _check_hermitian_unit_trace(layout, mat)
        out = object.__new__(cls)
        object.__setattr__(out, "layout", layout)
        object.__setattr__(out, "matrix", mat)
        return out

    def purity(self) -> float:
        """tr ρ² in one O(d²) pass: Σ|ρᵢⱼ|², which equals tr ρ² for Hermitian ρ.

        Every instance is Hermitian to ``DEFAULT_ATOL``, so no d×d product is
        needed.  An instance never changes, so the sum is computed on the
        first call and kept: a state shared across angles pays for it once.
        """
        return self._purity

    @cached_property
    def _purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


def basis_state(layout: SpaceLayout, indices: Sequence[int]) -> StateVector:
    """Computational basis state selected by per-subsystem indices."""
    idx = tuple(indices)
    if len(idx) != len(layout.dims):
        raise ValueError("one basis index per subsystem is required")
    amps = np.zeros(layout.dims, dtype=np.complex128)
    amps[idx] = 1.0
    return StateVector(layout, amps.reshape(-1))


def superpose(terms: Iterable[tuple[complex, StateVector]]) -> StateVector:
    """Linear combination of same-layout states; the result must be normalized."""
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one term")
    layout = terms[0][1].layout
    acc = np.zeros(layout.total_dim, dtype=np.complex128)
    for coeff, vec in terms:
        if vec.layout != layout:
            raise ValueError("superpose terms live on different layouts")
        acc += complex(coeff) * vec.amplitudes
    return StateVector(layout, acc)


def projector(vec: StateVector) -> Operator:
    return Operator(vec.layout, np.outer(vec.amplitudes, vec.amplitudes.conj()), kind="projector")


def pure_density(vec: StateVector) -> DensityMatrix:
    return DensityMatrix(vec.layout, np.outer(vec.amplitudes, vec.amplitudes.conj()))


def embed(op: Operator, layout: SpaceLayout) -> Operator:
    """Lift an operator to a larger layout, acting as identity elsewhere."""
    sub_names = op.layout.names
    rest = [n for n in layout.names if n not in sub_names]
    for n in sub_names:
        layout.axis(n)  # raises on unknown names
        if op.layout.dim(n) != layout.dim(n):
            raise ValueError(f"dimension mismatch for subsystem {n!r}")
    if not rest and op.layout.subsystems == layout.subsystems:
        return Operator(layout, op.matrix, kind=op.kind)
    rest_dim = 1
    for n in rest:
        rest_dim *= layout.dim(n)
    big = np.kron(op.matrix, np.eye(rest_dim, dtype=np.complex128))
    # big is ordered (sub_names..., rest...); permute axes back to layout order.
    cur_names = list(sub_names) + rest
    cur_dims = [layout.dim(n) for n in cur_names]
    n_axes = len(cur_names)
    pos = [cur_names.index(n) for n in layout.names]
    perm = pos + [n_axes + p for p in pos]
    t = big.reshape(cur_dims + cur_dims).transpose(perm)
    d = layout.total_dim
    return Operator(layout, t.reshape(d, d), kind=op.kind)


def apply(op: Operator, vec: StateVector) -> StateVector:
    """Apply an operator to a state, U|v>.

    The operator is lifted automatically when it lives on a sub-layout.
    """
    if op.layout != vec.layout:
        op = embed(op, vec.layout)
    return StateVector(vec.layout, _dot(op.matrix, vec.amplitudes))


def dephase(rho: DensityMatrix, subsystems: Union[str, Sequence[str]]) -> DensityMatrix:
    """Kill coherences on the named registers in their computational basis.

    Keeps the entries whose row and column agree on every targeted register,
    sum_k (|k><k| (x) I) rho (|k><k| (x) I), and zeroes the rest.
    """
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    layout = rho.layout
    layout.sub(names)  # raises on unknown or repeated names
    index = np.indices(layout.dims).reshape(len(layout.dims), -1)
    keep = np.ones((layout.total_dim, layout.total_dim), dtype=bool)
    for axis in layout.axes(names):
        keep &= index[axis][:, None] == index[axis][None, :]
    # Adding +0.0 makes every zero +0, so this is the projector sum bit for bit.
    acc = np.where(keep, rho.matrix, 0.0) + 0.0
    # Symmetrize away ~1e-16 hermiticity noise before validating.
    acc = (acc + acc.conj().T) / 2.0
    return DensityMatrix(rho.layout, acc)

