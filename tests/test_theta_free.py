"""θ-free descriptions: computed once, exactly θ-invariant, and the per-angle values within rounding.

A kernel is θ-free when no traced-out column of a branch holds both a
heads and a tails amplitude: its state, weight and predictions carry no
coin phase.  Its kernel is then contracted once, at θ = 0, and its state
built and checked once.

* Every θ-free state and record distribution is bitwise the same at every
  angle, and a θ-free not-evaluable conditioning is not evaluable at every
  angle.
* Against the per-angle contraction every kernel ran before
  (``_oracles.per_angle_assign``), a θ-free state is within 1e-15 for
  |θ| ≤ 1e6 and a θ-dependent one is bitwise equal.
* The cached state and branches are read-only, and every state ``assign``
  returns went through ``DensityMatrix._gram``'s checks, θ-free ones once.
* A non-finite θ is refused on the θ-free and the θ-dependent path alike.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import qcore
from ewfs.measurement import _check_target, born_distribution
from ewfs.perspectives import (
    RECORD_READOUTS,
    RECORDS,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    record_distribution,
)

import _engine
from _oracles import SWEEP_GRID, default_registers, per_angle_assign, per_angle_live_branches
from test_assignment_kernels import PERSPECTIVES, REGISTER_SETS

ANGLES = (0.0, 0.7, np.pi, -1.0, 2 * np.pi, 1e6)
BOUND = 1e-15


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotEvaluableError:
        return None


def _cases():
    """(perspective, registers) for every valid perspective and register set."""
    return [(p, registers or default_registers(p.time)) for p in PERSPECTIVES for registers in REGISTER_SETS]


def test_theta_free_descriptions_are_bitwise_theta_invariant():
    free = evaluable = 0
    for p, names in _cases():
        if not _engine.theta_free(p, names):
            continue
        free += 1
        states = [_outcome(assign, p, names, theta) for theta in ANGLES]
        if states[0] is None:
            assert states == [None] * len(ANGLES), (p, names)
            continue
        evaluable += 1
        want = states[0].matrix.tobytes()
        assert all(rho.matrix.tobytes() == want for rho in states), (p, names)
    assert 0 < evaluable < free < len(_cases())
    records = 0
    for p in PERSPECTIVES:
        for var in RECORDS:
            if not _engine.theta_free(p, RECORD_READOUTS[var].target):
                continue
            records += 1
            dists = [_outcome(record_distribution, p, var, theta) for theta in ANGLES]
            assert all(repr(d) == repr(dists[0]) for d in dists), (p, var)
    assert records > 0


def _per_angle_record_distribution(p, var, theta):
    """The record distribution read off the per-angle branches by the one Born rule."""
    spec = RECORD_READOUTS[var]
    layout, psi, total = per_angle_live_branches(p, spec.target, theta)
    _check_target(layout, spec)
    return born_distribution(spec, psi, total)


@settings(max_examples=4, deadline=None)
@example(theta=0.0)
@example(theta=1e-5)
@example(theta=np.pi)
@example(theta=1e6)
@example(theta=-1e6)
@given(theta=st.floats(-1e6, 1e6))
def test_states_match_the_per_angle_contraction(theta):
    for p, names in _cases():
        want, got = _outcome(per_angle_assign, p, names, theta), _outcome(assign, p, names, theta)
        assert (want is None) == (got is None), (p, names, theta)
        if want is None:
            continue
        if _engine.theta_free(p, names):
            assert np.max(np.abs(got.matrix - want.matrix)) <= BOUND, (p, names, theta)
        else:
            assert got.matrix.tobytes() == want.matrix.tobytes(), (p, names, theta)
    for p in PERSPECTIVES:
        for var in RECORDS:
            want = _outcome(_per_angle_record_distribution, p, var, theta)
            got = _outcome(record_distribution, p, var, theta)
            assert (want is None) == (got is None), (p, var, theta)
            if want is None:
                continue
            assert list(got) == list(want)
            if _engine.theta_free(p, RECORD_READOUTS[var].target):
                assert max(abs(got[k] - want[k]) for k in want) <= BOUND, (p, var, theta)
            else:
                assert repr(got) == repr(want), (p, var, theta)


def test_cached_states_and_branches_are_read_only():
    checked = 0
    for p, names in _cases():
        arrays = _engine.memo_arrays(p, names)
        state = _engine.free_state(p, names)
        if state is not None:
            assert _outcome(assign, p, names, 0.7) is state
        for arr in arrays:
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        checked += len(arrays)
    assert checked > 2 * len(_cases())


def test_every_returned_state_ran_the_checks_and_a_theta_free_one_once(monkeypatch):
    _engine.clear()
    seen = _engine.calls(monkeypatch, qcore.DensityMatrix, "_gram", record=True)
    _engine.calls(monkeypatch, qcore, "_check_hermitian_unit_trace", key="checks", into=seen)
    returned = {}
    angles = (0.0, 0.7, -1.0, 2 * np.pi, 1e6)
    for theta in angles:
        for agent, time, cond, rule in SWEEP_GRID:
            p = Perspective(agent, time, cond, AssignmentRule(rule))
            returned.setdefault((p, _engine.theta_free(p, default_registers(time))), []).append(
                assign(p, default_registers(time), theta)
            )
    built = [rho for _, rho in seen.records]
    assert seen.counts["checks"] == len(built)
    ids = {id(rho) for rho in built}
    free = {p: states for (p, theta_free), states in returned.items() if theta_free}
    assert len(free) == 30 and len(returned) == 44
    for (p, theta_free), states in returned.items():
        assert all(id(rho) in ids for rho in states), p
        if theta_free:
            assert all(rho is states[0] for rho in states), p
        else:
            assert len({id(rho) for rho in states}) == len(angles), p
    # One build per θ-free kernel (agents that share a checkpoint,
    # conditioning and rule share it), one per distinct θ-dependent state
    # and angle.
    shared = {id(states[0]) for states in free.values()}
    assert len(shared) == 15
    assert len(built) == len(shared) + 4 * len(angles)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_a_non_finite_theta_is_refused_on_either_path(theta):
    # A θ-free kernel must not answer a non-finite θ with its θ = 0 state,
    # and a θ-dependent one must not call the conditioning impossible.
    kinds = set()
    for p, names in _cases():
        theta_free = _engine.theta_free(p, names)
        if theta_free in kinds or _outcome(assign, p, names, 0.0) is None:
            continue
        kinds.add(theta_free)
        with pytest.raises(ValueError, match="theta must be finite"):
            assign(p, names, theta)
        var = next(v for v in RECORDS if _engine.theta_free(p, RECORD_READOUTS[v].target) == theta_free)
        with pytest.raises(ValueError, match="theta must be finite"):
            record_distribution(p, var, theta)
    assert kinds == {False, True}
