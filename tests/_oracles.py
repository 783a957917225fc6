"""Independent oracles for the test suite.

Everything here is computed without touching the library's linear-algebra
paths: symbolic expansion (sympy), exact fractions, or explicit index loops
and plain matrix products over raw numpy arrays.  The collapse-picture
oracles read the protocol's interaction matrices and basis vectors as data
only.  Tests freeze expected values from these.  The last three sections
hold:

* the branch walk that state assignment ran at every angle before its
  θ-free kernels (the reference they are checked against) with its
  per-outcome projection (the Born rule's reference too), and the per-angle
  contraction of a kernel that every kernel ran before a θ-free one was
  contracted once (``per_angle_live_branches``, ``per_angle_assign``);
* test-only helpers that combine library values: the protocol fixtures the
  suite builds states from (coin state, initial state, the two lab states
  of the orthogonality identities, memory pointer labels), joint specs and
  distribution comparison;
* helpers that moved out of ``ewfs`` unchanged once nothing there called
  them: ``tensor``, ``tensor_all``, ``inner``, ``identity``,
  ``partial_trace``, ``trace_distance`` and the squared-overlap Uhlmann
  ``fidelity`` (with ``_psd_sqrt`` and ``_RANK_CUT``) from ``qcore``, and
  the matrix-product ``purity`` that ``DensityMatrix.purity`` computed
  before its one-pass sum;
  ``compare`` and ``StateComparison`` from ``perspectives``; and
  ``outcome_distribution`` (the Born rule on a built ket or density matrix)
  from ``measurement``; and ``tv_distance``, once a ``JointDistribution``
  method in ``protocol``.  ``fidelity`` is also the premise's reference:
  the audit reads the premise as a Born certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

import numpy as np
import sympy as sp

from ewfs import protocol
from ewfs.measurement import (
    DilationSpec,
    MeasurementSpec,
    _check_target,
    born_distribution,
    build_dilation,
)
from ewfs.perspectives import (
    _TIME_INDEX,
    COLLAPSE_AWARE,
    RECORD_READOUTS,
    RECORDS,
    NotEvaluableError,
    _kernel,
)
from ewfs.qcore import (
    DEFAULT_ATOL,
    IMPOSSIBLE_MASS,
    DensityMatrix,
    Operator,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
    pure_density,
)

WBAR_LABELS = ("okbar", "failbar")
W_LABELS = ("ok", "fail")


def unitary_joint_cells(theta):
    """Symbolic (wbar, w) joint from expanding the final state by hand.

    The final state has three branches over (lab-Lbar pointer, lab-L pointer):
    (heads-lab, minus), (tails-lab, minus), (tails-lab, plus) with amplitudes
    sqrt(1/3), e^{i theta} sqrt(1/3), e^{i theta} sqrt(1/3).  Announcement
    vectors are (first -/+ second pointer)/sqrt(2) on each lab.
    """
    th = sp.sympify(theta)
    amp3 = sp.sqrt(sp.Rational(1, 3))
    phase = sp.exp(sp.I * th)
    branches = ((0, 0, amp3), (1, 0, phase * amp3), (1, 1, phase * amp3))
    half = sp.sqrt(sp.Rational(1, 2))
    overlap = {
        "okbar": (half, -half),
        "failbar": (half, half),
        "ok": (half, -half),
        "fail": (half, half),
    }
    cells = {}
    for wb in WBAR_LABELS:
        for w in W_LABELS:
            amp = sum(
                coeff * sp.conjugate(overlap[wb][i]) * sp.conjugate(overlap[w][j])
                for i, j, coeff in branches
            )
            cells[(wb, w)] = sp.simplify(sp.Abs(amp) ** 2)
    return cells


def unitary_joint_numeric(theta: float) -> dict[tuple[str, str], float]:
    cells = unitary_joint_cells(sp.Float(theta, 30))
    return {k: float(sp.N(v, 30)) for k, v in cells.items()}


def collapse_joint_cells() -> dict[tuple[str, str], Fraction]:
    """Exact collapse-picture joint by trajectory enumeration.

    The announcement bases are unbiased against the lab pointer states
    (|<ok-type|pointer>|^2 = 1/2 for every pointer), so each announcement is
    a fair coin regardless of the trajectory; the phase never enters.
    """
    half = Fraction(1, 2)
    cells = {(wb, w): Fraction(0) for wb in WBAR_LABELS for w in W_LABELS}
    for _r, p_r in (("heads", Fraction(1, 3)), ("tails", Fraction(2, 3))):
        for wb in WBAR_LABELS:
            for w in W_LABELS:
                cells[(wb, w)] += p_r * half * half
    return cells


def collapse_record_table() -> dict[tuple[str, str, str, str], Fraction]:
    """Exact collapse-picture (r, z, wbar, w) table; z follows the prepared spin."""
    half = Fraction(1, 2)
    table = {}
    trajectories = (
        ("heads", (("-1/2", Fraction(1)),)),
        ("tails", (("-1/2", half), ("+1/2", half))),
    )
    priors = {"heads": Fraction(1, 3), "tails": Fraction(2, 3)}
    for r, z_branches in trajectories:
        for z, p_z in z_branches:
            for wb in WBAR_LABELS:
                for w in W_LABELS:
                    table[(r, z, wb, w)] = priors[r] * p_z * half * half
    return table


def loop_partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep_axes: tuple[int, ...]) -> np.ndarray:
    """Partial trace by explicit index loops over flat matrix entries."""
    n = len(dims)
    keep_axes = tuple(sorted(keep_axes))
    traced = [a for a in range(n) if a not in keep_axes]
    keep_dims = [dims[a] for a in keep_axes]
    dk = int(np.prod(keep_dims))
    out = np.zeros((dk, dk), dtype=complex)
    d = int(np.prod(dims))
    for i in range(d):
        mi = np.unravel_index(i, dims)
        for j in range(d):
            mj = np.unravel_index(j, dims)
            if any(mi[a] != mj[a] for a in traced):
                continue
            ik = np.ravel_multi_index([mi[a] for a in keep_axes], keep_dims) if keep_dims else 0
            jk = np.ravel_multi_index([mj[a] for a in keep_axes], keep_dims) if keep_dims else 0
            out[ik, jk] += mat[i, j]
    return out


def loop_dephase(mat: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """Computational-basis dephasing by zeroing mismatched sub-indices."""
    d = int(np.prod(dims))
    out = mat.copy()
    for i in range(d):
        mi = np.unravel_index(i, dims)
        for j in range(d):
            mj = np.unravel_index(j, dims)
            if any(mi[a] != mj[a] for a in axes):
                out[i, j] = 0.0
    return out


# Frozen raw-numpy constructions of the four benchmark descriptions.
# Index conventions: lab Lbar lives on (coin, coin-memory) with dims (2, 3)
# and pointer states |heads, slot1>, |tails, slot2>; lab L lives on
# (spin, spin-memory) with dims (2, 3) and pointers |down, slot1>, |up, slot2>.


def lab_pure_after_tails() -> np.ndarray:
    """Pure lab-L state fed by an x-polarized spin: (|down,-> + |up,+>)/sqrt(2)."""
    v = np.zeros(6, dtype=complex)
    v[np.ravel_multi_index((0, 1), (2, 3))] = np.sqrt(0.5)
    v[np.ravel_multi_index((1, 2), (2, 3))] = np.sqrt(0.5)
    return v


def lab_mixture_after_tails() -> np.ndarray:
    """Collapse-picture lab-L description: equal mixture of the two pointers."""
    rho = np.zeros((6, 6), dtype=complex)
    for idx in ((0, 1), (1, 2)):
        k = np.ravel_multi_index(idx, (2, 3))
        rho[k, k] = 0.5
    return rho


def entangled_lab_spin_pure(theta: float = 0.0) -> np.ndarray:
    """Pure (coin, coin-memory, spin) state after the coin interaction."""
    v = np.zeros(12, dtype=complex)
    v[np.ravel_multi_index((0, 1, 0), (2, 3, 2))] = np.sqrt(1.0 / 3.0)
    phase = np.exp(1j * theta)
    v[np.ravel_multi_index((1, 2, 0), (2, 3, 2))] = phase * np.sqrt(1.0 / 3.0)
    v[np.ravel_multi_index((1, 2, 1), (2, 3, 2))] = phase * np.sqrt(1.0 / 3.0)
    return v


def entangled_lab_spin_mixture(theta: float = 0.0) -> np.ndarray:
    """Collapse-picture (coin, coin-memory, spin) description: 1/3 vs 2/3 mixture."""
    v1 = np.zeros(12, dtype=complex)
    v1[np.ravel_multi_index((0, 1, 0), (2, 3, 2))] = 1.0
    v2 = np.zeros(12, dtype=complex)
    v2[np.ravel_multi_index((1, 2, 0), (2, 3, 2))] = np.sqrt(0.5)
    v2[np.ravel_multi_index((1, 2, 1), (2, 3, 2))] = np.sqrt(0.5)
    return (np.outer(v1, v1.conj()) / 3.0) + (2.0 / 3.0) * np.outer(v2, v2.conj())


def lab_basis_rows() -> np.ndarray:
    """Listed rows of an observer's basis on a (system, memory) lab with dims (2, 3).

    The special outcome sqrt(1/2) (e_01 - e_12), then the fail outcome
    sqrt(1/2) (e_01 + e_12), e_ij the unit vector of system i, memory slot j.
    """
    e01 = np.eye(6)[np.ravel_multi_index((0, 1), (2, 3))]
    e12 = np.eye(6)[np.ravel_multi_index((1, 2), (2, 3))]
    return np.array([np.sqrt(0.5) * (e01 - e12), np.sqrt(0.5) * (e01 + e12)])


def geometric_mean_se(lengths) -> tuple[float, float]:
    """Sample mean and its standard error for episode lengths."""
    arr = np.asarray(lengths, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr)))


def expand_histogram(lengths) -> np.ndarray:
    """One entry per episode from a histogram whose entry k counts episodes of length k."""
    return np.repeat(np.arange(len(lengths)), lengths)


def unchunked_sample_index(probs, n_rounds: int, seed: int) -> np.ndarray:
    """Record-table index per round from a single ``rng.random(n_rounds)`` call.

    ``probs`` lists the record probabilities in table order; round i takes
    the i-th uniform of one ``default_rng(seed)`` stream.
    """
    probs = np.asarray(probs, dtype=float)
    cum = np.cumsum(probs / probs.sum())
    draws = np.searchsorted(cum, np.random.default_rng(seed).random(n_rounds), side="right")
    return np.minimum(draws, len(probs) - 1)


def loop_tally(keys, index) -> dict[tuple[str, str], int]:
    """(wbar, w) counts by a plain loop over the rounds."""
    counts: dict[tuple[str, str], int] = {}
    for i in index:
        cell = tuple(keys[i][2:])
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def loop_episode_lengths(keys, index) -> list[int]:
    """Completed episode lengths by a plain loop: an episode ends on (okbar, ok)."""
    lengths, current = [], 0
    for i in index:
        current += 1
        if tuple(keys[i][2:]) == ("okbar", "ok"):
            lengths.append(current)
            current = 0
    return lengths


# Collapse picture as a state machine: every measurement projects the state,
# renormalizes it and leaves a record.  Registers (R, Fbar, S, F) have dims
# (2, 3, 2, 3); every measured target is a run of adjacent registers.
DIMS = (2, 3, 2, 3)


def _projector(vec: np.ndarray, first_axis: int) -> np.ndarray:
    """36x36 matrix of |vec><vec| on the registers from ``first_axis`` on, identity elsewhere."""
    before = int(np.prod(DIMS[:first_axis]))
    after = 36 // (before * len(vec))
    return np.kron(np.kron(np.eye(before), np.outer(vec, vec.conj())), np.eye(after))


@cache
def collapse_steps():
    """(record, [(label, projector)], interaction that follows), in protocol order."""
    specs = (
        ("r", protocol.COIN_MEASUREMENT, 0, build_dilation(protocol.COIN_DILATION, protocol.LAYOUT).matrix),
        ("z", protocol.SPIN_MEASUREMENT, 2, build_dilation(protocol.SPIN_DILATION, protocol.LAYOUT).matrix),
        ("wbar", protocol.WBAR_MEASUREMENT, 0, np.eye(36)),
        ("w", protocol.W_MEASUREMENT, 2, np.eye(36)),
    )
    return [
        (record, [(l, _projector(v.amplitudes, axis)) for l, v in spec.outcomes], after)
        for record, spec, axis, after in specs
    ]


def initial_amplitudes(theta: float) -> np.ndarray:
    coin = np.array([np.sqrt(1.0 / 3.0), np.exp(1j * theta) * np.sqrt(2.0 / 3.0)])
    ready = [np.eye(d)[0] for d in DIMS[1:]]
    return np.kron(np.kron(np.kron(coin, ready[0]), ready[1]), ready[2])


def collapse_trajectories(theta: float, n_steps: int):
    """Every collapse branch after the first ``n_steps`` measurements: (probability, records, state).

    Branches below 1e-15 are pruned; ``n_steps`` is 0, 1, 2, 3 at the
    checkpoints n:00 .. n:30 and 4 for the finished round.
    """
    branches = [(1.0, {}, initial_amplitudes(theta))]
    for record, outcomes, after in collapse_steps()[:n_steps]:
        nxt = []
        for prob, records, state in branches:
            for label, proj in outcomes:
                post = proj @ state
                p = float(np.vdot(post, post).real)
                if prob * p >= 1e-15:
                    nxt.append((prob * p, {**records, record: label}, after @ (post / np.sqrt(p))))
        branches = nxt
    return branches


def trajectory_assignment(theta: float, n_steps: int, conditioning, keep_axes):
    """Mixture of the trajectories whose records match, reduced to ``keep_axes``.

    None when the matching trajectories carry less than 1e-12 probability.
    """
    kept = [
        (p, state)
        for p, records, state in collapse_trajectories(theta, n_steps)
        if all(records.get(var) == value for var, value in conditioning)
    ]
    total = sum(p for p, _ in kept)
    if total < 1e-12:
        return None
    rho = sum((p / total) * np.outer(state, state.conj()) for p, state in kept)
    t = rho.reshape(DIMS + DIMS)
    for axis in sorted(set(range(4)) - set(keep_axes), reverse=True):
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    d = int(np.prod([DIMS[a] for a in keep_axes]))
    return t.reshape(d, d)


def collapse_record_leaves(theta: float) -> dict[tuple[str, str, str, str], float]:
    """(r, z, wbar, w) record distribution of finished collapse rounds, in branch order."""
    out: dict[tuple[str, str, str, str], float] = {}
    for p, rec, _ in collapse_trajectories(theta, 4):
        key = (rec["r"], rec["z"], rec["wbar"], rec["w"])
        out[key] = out.get(key, 0.0) + p
    return out


def collapse_round(config, rng, round_index: int = 0) -> protocol.RoundRecord:
    """One collapse round: each measurement draws one uniform, projects and renormalizes."""
    state = initial_amplitudes(config.theta)
    rec = {}
    for record, outcomes, after in collapse_steps():
        posts = [proj @ state for _, proj in outcomes]
        probs = np.array([np.vdot(post, post).real for post in posts])
        pick = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(posts) - 1)
        state = after @ (posts[pick] / np.sqrt(probs[pick]))
        rec[record] = outcomes[pick][0]
    return protocol.RoundRecord(round_index, rec["r"], rec["z"], rec["wbar"], rec["w"])


# The branch walk: the global state at the checkpoint, sliced by projection
# and renormalized at every record, one angle at a time.


def project_component(state: StateVector, target, component: np.ndarray):
    """Project a state onto |b><b| on the target registers, one outcome at a time.

    Returns ``(probability, post)``, ``post`` the flat, un-normalized projected
    amplitude vector.  This per-outcome contraction is the reference for the
    library's Born rule, which reads every outcome off one basis matrix.
    """
    dims = state.layout.dims
    axes = state.layout.axes(target)
    b = np.asarray(component, dtype=np.complex128).reshape([dims[a] for a in axes])
    residual = np.tensordot(b.conj(), state.amplitudes.reshape(dims), axes=(tuple(range(b.ndim)), axes))
    rest = [a for a in range(len(dims)) if a not in axes]
    post = np.transpose(np.multiply.outer(b, residual), np.argsort(list(axes) + rest)).reshape(-1)
    return float(np.sum(np.abs(residual) ** 2)), post


@cache
def _record_outcomes(var: str) -> tuple[tuple[str, tuple[str, ...], np.ndarray], ...]:
    """(label, target registers, basis vector) of each outcome of the measurement fixing a record.

    ``wbar=failbar`` means "anything but the special outcome"; on the
    protocol's reachable states the listed failbar vector is the only
    complement component with support, so slicing on it alone is exact there.
    """
    spec = RECORD_READOUTS[var]
    return tuple((label, spec.target, vec.amplitudes) for label, vec in spec.outcomes)


def branch_walk_assign(p, subsystems, theta: float = 0.0) -> DensityMatrix:
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
                prob, post = project_component(branch, target, vec)
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


# ``perspectives._live_branches`` and ``assign`` as they ran before θ-free
# kernels were contracted once: every kernel contracted at every angle.
# Verbatim, but for reading the layout and branches off the kernel by name.


def per_angle_live_branches(p, names: tuple[str, ...], theta: float):
    """Kept layout, the branches ``ψ_b`` that carry weight at θ, and their total weight.

    One pass over the weights decides liveness; the mask is built only when
    a branch dies.  ``initial=inf`` lets a kernel with no branches left reach
    the ``NotEvaluableError`` below.
    """
    # Neither order changes the kernel, so sorting both keys it by sets.
    names, cond = tuple(sorted(names)), tuple(sorted(p.conditioning))
    kernel = _kernel((p.time, cond, p.rule.kind == COLLAPSE_AWARE), names)
    layout, m = kernel.layout, kernel.branches
    psi = (protocol.coin_amplitudes(theta) @ m.reshape(2, -1)).reshape(m.shape[1:])
    weights = (np.abs(psi) ** 2).sum(axis=(1, 2))
    if not weights.min(initial=np.inf) >= IMPOSSIBLE_MASS:
        live = weights >= IMPOSSIBLE_MASS
        psi, weights = psi[live], weights[live]
    if not len(psi):
        raise NotEvaluableError(f"conditioning {dict(p.conditioning)} has probability zero")
    return layout, psi, weights.sum()


def per_angle_assign(p, subsystems, theta: float = 0.0) -> DensityMatrix:
    """Density matrix the perspective assigns to the named registers."""
    names = (subsystems,) if isinstance(subsystems, str) else tuple(subsystems)
    layout, psi, total = per_angle_live_branches(p, names, theta)
    rows = psi.transpose(1, 0, 2).reshape(psi.shape[1], -1)
    return DensityMatrix._gram(layout, rows, total)


# Test-only helpers over library values.


def coin_state(theta: float = 0.0) -> StateVector:
    """Coin register state sqrt(1/3)|heads> + e^{i theta} sqrt(2/3)|tails>."""
    return StateVector(protocol.LAYOUT.sub((protocol.R,)), protocol.coin_amplitudes(theta))


def initial_state(theta: float = 0.0) -> StateVector:
    """Round start: superposed coin, ready memories, spin down."""
    return protocol.global_state(theta, protocol.T00)


def lab_lbar_spin_state(theta: float = 0.0) -> StateVector:
    """Pure state of Lbar plus spin after the coin interaction (before the spin one)."""
    # F is still in its ready state, so the global state is this one (x) |ready>.
    layout = protocol.LAYOUT.sub((protocol.R, protocol.FBAR, protocol.S))
    amplitudes = protocol.global_state(theta, protocol.T10).amplitudes.reshape(protocol.LAYOUT.dims)
    return StateVector(layout, amplitudes[..., 0])


@cache
def lab_l_state_from_right_spin() -> StateVector:
    """Pure state of lab L produced by feeding it an x-polarized spin."""
    sub = protocol.LAYOUT.sub((protocol.S, protocol.F))
    u = build_dilation(protocol.SPIN_DILATION, sub)
    f0 = basis_state(protocol.LAYOUT.sub((protocol.F,)), (0,))
    return apply(u, tensor_all(protocol.SPIN_RIGHT_STATE, f0))


def pointer_labels(dilation: DilationSpec, memory_dim: int, ready: str = "init") -> tuple[str, ...]:
    """Basis labels of a dilation's memory register: ready slot, then mapped outcomes."""
    out = [f"unused_{i}" for i in range(memory_dim)]
    out[0] = ready
    for label, slot in dilation.pointer_map:
        if slot >= memory_dim:
            raise ValueError(f"pointer slot {slot} exceeds memory dimension {memory_dim}")
        out[slot] = label
    return tuple(out)


# The benchmark's sweep grid as (agent, checkpoint, conditioning, rule): every
# agent at every checkpoint under the two rules without conditioning, plus
# every own-record conditioning.
_OWN_RECORDS = (
    ("Fbar", "r", ("n:10", "n:20", "n:30"), ("heads", "tails")),
    ("F", "z", ("n:20", "n:30"), ("-1/2", "+1/2")),
    ("Wbar", "wbar", ("n:30",), ("okbar", "failbar")),
)
SWEEP_GRID = [
    (agent, time, (), rule)
    for agent in ("Fbar", "F", "Wbar", "W")
    for time in ("n:00", "n:10", "n:20", "n:30")
    for rule in ("collapse-aware", "unitary-global")
] + [
    (agent, time, ((var, value),), "own-record-pure")
    for agent, var, times, values in _OWN_RECORDS
    for time in times
    for value in values
]


def default_registers(time: str) -> tuple[str, ...]:
    """The registers the CLI shows by default at a checkpoint."""
    return ("R", "Fbar", "S") if time in ("n:00", "n:10") else ("S", "F")



def product_spec(a: MeasurementSpec, b: MeasurementSpec, sep: str = "&") -> MeasurementSpec:
    """Joint measurement of two specs on disjoint targets; labels join with ``sep``.

    A pair with an ``other`` side is ``other``: whatever the listed pairs leave out.
    """
    if set(a.target) & set(b.target):
        raise ValueError("product spec requires disjoint targets")
    outcomes = tuple(
        ("other" if "other" in (la, lb) else f"{la}{sep}{lb}", tensor(va, vb))
        for la, va in a.outcomes
        for lb, vb in b.outcomes
    )
    return MeasurementSpec(a.target + b.target, outcomes)


def distributions_match(a, b, atol: float = DEFAULT_ATOL) -> bool:
    """True when two labeled distributions agree within atol on the union of labels."""
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= atol for k in keys)


# Helpers that left the library because nothing in it calls them: products
# and inner products of states, the partial trace, the matrix-product
# purity, the distinguishability measures and the Born rule on a built
# state.  They are kept verbatim as reference evidence beside the engine's
# own paths.


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


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.layout != b.layout:
        raise ValueError("trace_distance requires identical layouts")
    diff = a.matrix - b.matrix
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def tv_distance(a: protocol.JointDistribution, b: protocol.JointDistribution) -> float:
    """Total variation distance between two observer-announcement joints."""
    keys = set(a.entries) | set(b.entries)
    return 0.5 * sum(abs(a.prob(*k) - b.prob(*k)) for k in keys)


def purity(rho: DensityMatrix) -> float:
    """tr ρ² by the full d×d matrix product."""
    m = rho.matrix
    return float((m @ m).trace().real)


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


def _labeled(spec: MeasurementSpec, probs: np.ndarray) -> dict[str, float]:
    """Outcome probabilities by label, which must sum to one; the rows of a label add up."""
    total = probs.sum()
    if not abs(total - 1.0) <= DEFAULT_ATOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    dist = dict.fromkeys(spec.labels, 0.0)
    for label, p in zip(spec.labels, probs.tolist()):
        dist[label] += p
    return dist


def outcome_distribution(state, spec: MeasurementSpec) -> dict[str, float]:
    """Born-rule probabilities of every outcome on a pure or mixed state; sums to one."""
    _check_target(state.layout, spec)
    dims, axes = state.layout.dims, state.layout.axes(spec.target)
    front, d = tuple(range(len(axes))), spec.basis.shape[1]
    if isinstance(state, StateVector):
        psi = np.moveaxis(state.amplitudes.reshape(dims), axes, front).reshape(1, d, -1)
        return born_distribution(spec, psi, 1.0)
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
