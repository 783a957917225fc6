"""Dense complex linear algebra over small multi-register Hilbert spaces.

Everything here is sized for composite systems of a handful of registers
(total dimension a few dozen), so all representations are dense and exact
to double precision.  Values are immutable after construction: the wrapped
numpy buffers are marked read-only and every operation returns a fresh
object, so instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
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
        if abs(norm - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"state vector is not normalized (norm {norm!r})")

    def tensorized(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.layout.dims)


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
            if err > DEFAULT_ATOL:
                raise ValueError(f"operator flagged unitary fails U+U=I by {err:.3e}")
        elif self.kind == "projector":
            err = max(
                float(np.max(np.abs(mat @ mat - mat))),
                float(np.max(np.abs(mat - mat.conj().T))),
            )
            if err > DEFAULT_ATOL:
                raise ValueError(f"operator flagged projector fails P^2=P / P+=P by {err:.3e}")
        elif self.kind != "general":
            raise ValueError(f"unknown operator kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator with layout metadata."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _freeze(np.asarray(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", mat)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"density matrix has shape {mat.shape}, layout expects {(d, d)}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > DEFAULT_ATOL:
            raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)))
        if lo < -DEFAULT_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo!r}")

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


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


def tensor(a, b):
    """Kronecker product of two states or two operators; layouts concatenate."""
    shared = set(a.layout.names) & set(b.layout.names)
    if shared:
        raise ValueError(f"tensor factors share subsystem names {sorted(shared)}")
    layout = SpaceLayout(a.layout.subsystems + b.layout.subsystems)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(layout, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        kind = a.kind if a.kind == b.kind else "general"
        return Operator(layout, np.kron(a.matrix, b.matrix), kind=kind)
    raise TypeError("tensor arguments must be two StateVectors or two Operators")


def tensor_all(first, *rest):
    out = first
    for item in rest:
        out = tensor(out, item)
    return out


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if a.layout != b.layout:
        raise ValueError("inner product requires identical layouts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def identity(layout: SpaceLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim), kind="unitary")


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
    return StateVector(vec.layout, op.matrix @ vec.amplitudes)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out everything but ``keep``; kept names stay in declaration order."""
    keep = set(keep)
    if not keep:
        raise ValueError("partial_trace needs a nonempty keep set")
    layout = rho.layout
    for n in keep:
        layout.axis(n)
    names = layout.names
    dims = layout.dims
    n = len(names)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [row[i] if names[i] not in keep else chr(ord("A") + i) for i in range(n)]
    out_axes = [i for i in range(n) if names[i] in keep]
    spec = "".join(row) + "".join(col) + "->" + "".join(row[i] for i in out_axes) + "".join(
        col[i] for i in out_axes
    )
    reduced = np.einsum(spec, rho.matrix.reshape(dims + dims))
    sub = layout.sub(keep)
    d = sub.total_dim
    return DensityMatrix(sub, reduced.reshape(d, d))


def dephase(
    rho: DensityMatrix,
    subsystems: Union[str, Sequence[str]],
    basis: Sequence[np.ndarray] | None = None,
    atol: float = DEFAULT_ATOL,
) -> DensityMatrix:
    """Kill coherences on the named registers in the given orthonormal basis.

    Returns sum_k (P_k (x) I) rho (P_k (x) I) over the basis projectors.  The
    basis must span the targeted registers; when omitted, the computational
    product basis is used.
    """
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    sub = rho.layout.sub(names)
    d = sub.total_dim
    if basis is None:
        vecs = np.eye(d, dtype=np.complex128)
    else:
        rows = []
        for item in basis:
            if isinstance(item, StateVector):
                if item.layout != sub:
                    raise ValueError("dephasing basis vector lives on the wrong sub-layout")
                rows.append(item.amplitudes)
            else:
                rows.append(np.asarray(item, dtype=np.complex128).reshape(-1))
        vecs = np.array(rows)
        if vecs.shape != (d, d):
            raise ValueError(f"dephasing basis must have {d} vectors of length {d}")
        gram = vecs.conj() @ vecs.T
        dev = float(np.max(np.abs(gram - np.eye(d))))
        if dev > atol:
            raise ValueError(f"dephasing basis is not orthonormal (Gram deviation {dev:.3e})")

    acc = np.zeros_like(rho.matrix)
    for k in range(d):
        vec = StateVector(sub, vecs[k])
        pk = embed(projector(vec), rho.layout).matrix
        acc += pk @ rho.matrix @ pk
    # Dephasing can leave ~1e-16 hermiticity noise; symmetrize before validating.
    acc = (acc + acc.conj().T) / 2.0
    return DensityMatrix(rho.layout, acc)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.layout != b.layout:
        raise ValueError("trace_distance requires identical layouts")
    diff = a.matrix - b.matrix
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity in the squared-overlap convention: (tr sqrt(sqrt(a) b sqrt(a)))^2.

    Eigenvalues below 1e-12 are treated as exact zeros before the square
    roots; otherwise solver noise of order 1e-16 inflates to 1e-8 through
    the root and the result would miss the 1e-10 accuracy contract.
    """
    if a.layout != b.layout:
        raise ValueError("fidelity requires identical layouts")
    sqrt_a = _psd_sqrt(a.matrix)
    inner_mat = sqrt_a @ b.matrix @ sqrt_a
    evals = np.linalg.eigvalsh((inner_mat + inner_mat.conj().T) / 2.0)
    evals = np.where(evals > _RANK_CUT, evals, 0.0)
    root_sum = float(np.sum(np.sqrt(evals)))
    return min(root_sum**2, 1.0 + DEFAULT_ATOL)


_RANK_CUT = 1e-12


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    evals = np.where(evals > _RANK_CUT, evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T
