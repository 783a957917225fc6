"""The θ-free assignment kernels against the branch walk they replace, and their cost."""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import cli, perspectives, protocol, qcore
from ewfs.perspectives import (
    AGENTS,
    RECORD_READOUTS,
    RECORDS,
    RULE_KINDS,
    TIMES,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    record_distribution,
)
from ewfs.reasoning import RULESET_NAMES, audit

import _engine
from _oracles import (
    SWEEP_GRID,
    branch_walk_assign,
    default_registers,
    outcome_distribution,
    partial_trace,
)

ALL_REGISTERS = ("R", "Fbar", "S", "F")
REGISTER_SETS = (None, ALL_REGISTERS, ("S", "F"), ("R", "Fbar"), ("S",))


def _every_conditioning(time):
    """Every combination of at most one value per record that exists at the checkpoint."""
    live = [var for var in ("r", "z", "wbar") if TIMES.index(RECORDS[var][1]) <= TIMES.index(time)]
    choices = [[()] + [((var, value),) for value in RECORDS[var][2]] for var in live]
    return [sum(combo, ()) for combo in itertools.product(*choices)]


def _valid_perspectives():
    out = []
    for time in TIMES:
        for cond in _every_conditioning(time):
            for rule in RULE_KINDS:
                for agent in AGENTS:
                    try:
                        out.append(Perspective(agent, time, cond, AssignmentRule(rule)))
                    except ValueError:
                        pass  # own-record-pure needs exactly the agent's own record
    return out


PERSPECTIVES = _valid_perspectives()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotEvaluableError:
        return None


@settings(max_examples=2, deadline=None)
@example(theta=0.0)
@example(theta=2 * np.pi)
@example(theta=4 * np.pi)
@example(theta=6 * np.pi)
@given(theta=st.floats(-50, 50))
def test_assign_matches_branch_walk(theta):
    # The walk ignores the agent and ends in a partial trace of the whole walked
    # state, so it runs once per (checkpoint, conditioning, rule) on every
    # register and is reduced from there; every agent is compared with it.
    walked, reduced, read = {}, {}, {}

    def walk(p, names):
        key = (p.time, p.conditioning, p.rule.kind)
        if key not in walked:
            walked[key] = _outcome(branch_walk_assign, p, ALL_REGISTERS, theta)
        if walked[key] is None:
            return None
        if key + (names,) not in reduced:
            reduced[key + (names,)] = partial_trace(walked[key], names)
        return reduced[key + (names,)]

    def readout(p, var):
        key = (p.time, p.conditioning, p.rule.kind, var)
        if key not in read:
            spec = RECORD_READOUTS[var]
            rho = walk(p, spec.target)
            read[key] = None if rho is None else outcome_distribution(rho, spec)
        return read[key]

    for p in PERSPECTIVES:
        for registers in REGISTER_SETS:
            names = registers or default_registers(p.time)
            want, got = walk(p, names), _outcome(assign, p, names, theta)
            assert (want is None) == (got is None), (p, names, theta)
            if want is not None:
                assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12, (p, names, theta)
        for var in RECORDS:
            want, got = readout(p, var), _outcome(record_distribution, p, var, theta)
            assert (want is None) == (got is None), (p, var, theta)
            if want is not None:
                assert list(got) == list(want)
                assert max(abs(got[k] - want[k]) for k in want) <= 1e-12, (p, var, theta)


def test_branch_near_an_interference_zero():
    # Given z = -1/2, the okbar branch has weight (1 - cos θ)/3 under the
    # global description: 1.7e-15 at θ = 1e-7 (impossible), 1.7e-11 at 1e-5.
    for rule in ("unitary-global", "collapse-aware"):
        p = Perspective("Wbar", "n:30", (("z", "-1/2"), ("wbar", "okbar")), AssignmentRule(rule))
        for theta in (1e-7, 1e-5, 1e-3, 6 * np.pi + 1e-5):
            want = _outcome(branch_walk_assign, p, ("S", "F"), theta)
            got = _outcome(assign, p, ("S", "F"), theta)
            assert (want is None) == (got is None), (rule, theta)
            assert (got is None) == (rule == "unitary-global" and theta == 1e-7), (rule, theta)
            if want is not None:
                assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12, (rule, theta)


# Two conditioning weights touch zero: given z = -1/2, okbar has weight
# (1 - cos θ)/3, zero at θ = 0, and failbar (1 + cos θ)/3, zero at θ = π.
# Near either zero the weight is δ²/6 at distance δ, so the unitary-global
# assignment turns not-evaluable inside |δ| = √(6·IMPOSSIBLE_MASS).
ZERO_SWITCH = math.sqrt(6 * qcore.IMPOSSIBLE_MASS)


def test_interference_zeros_switch_at_the_closed_form_distance():
    for wbar, centre in (("okbar", 0.0), ("failbar", np.pi)):
        for agent in AGENTS:
            p = Perspective(
                agent, "n:30", (("z", "-1/2"), ("wbar", wbar)), AssignmentRule("unitary-global")
            )
            for offset in (-1.02, -0.98, 0.0, 0.98, 1.02):
                got = _outcome(assign, p, ("S", "F"), centre + offset * ZERO_SWITCH)
                assert (got is None) == (abs(offset) < 1), (wbar, agent, offset)


def test_kernel_arrays_are_read_only():
    p = Perspective("W", "n:30", (("z", "+1/2"),), AssignmentRule("collapse-aware"))
    assign(p, ("S", "F"), 0.4)
    record_distribution(p, "wbar", 0.4)
    assert _engine.theta_free(p, ("S", "F"))  # the wbar record is traced out
    arrays = _engine.memo_arrays(p, ("S", "F"))
    assert len(arrays) == 3  # branches, live branches, state
    spec = RECORD_READOUTS["wbar"]
    for arr in (*arrays, spec.basis, spec.bras):
        assert arr.flags.writeable is False
    for _, proj in perspectives._PROJECTORS["wbar"]:
        assert proj.flags.writeable is False


def test_record_readouts_are_the_protocol_specs():
    assert RECORD_READOUTS["r"] is protocol.COIN_MEASUREMENT
    assert RECORD_READOUTS["wbar"] is protocol.WBAR_MEASUREMENT
    assert RECORD_READOUTS["w"] is protocol.W_MEASUREMENT
    specs = dict(cli._PREDICTION_SPECS)
    assert specs["coin"] is protocol.COIN_MEASUREMENT
    assert specs["spin"] is protocol.SPIN_MEASUREMENT
    assert specs["wbar"] is protocol.WBAR_MEASUREMENT
    assert specs["w"] is protocol.W_MEASUREMENT
    assert protocol.COIN_DILATION.measurement is protocol.COIN_MEASUREMENT
    assert protocol.SPIN_DILATION.measurement is protocol.SPIN_MEASUREMENT


def test_kernel_cache_is_keyed_canonically():
    # Every valid perspective, every order of its conditioning and every
    # ordered tuple of one to four registers: the kernel depends on neither
    # order, so the cache holds one entry per (checkpoint, conditioning set,
    # collapse, register set).
    _engine.clear()
    orders = [o for k in range(1, 5) for o in itertools.permutations(ALL_REGISTERS, k)]
    calls = 0
    for p in PERSPECTIVES:
        for cond in itertools.permutations(p.conditioning):
            q = Perspective(p.agent, p.time, cond, p.rule)
            for names in orders:
                calls += 1
                _outcome(assign, q, names, 0.3)
    assert calls == 49_920
    assert _engine.kernel_count() == 1_200
    p = Perspective("W", "n:30", (("z", "+1/2"), ("r", "tails")), AssignmentRule("collapse-aware"))
    swapped = Perspective("W", "n:30", (("r", "tails"), ("z", "+1/2")), AssignmentRule("collapse-aware"))
    want = assign(p, ("S", "F"), 0.3).matrix
    for q, names in ((p, ("F", "S")), (swapped, ("S", "F")), (swapped, ("F", "S"))):
        assert assign(q, names, 0.3).matrix.tobytes() == want.tobytes()


def _sweep_op(theta):
    """All three audits plus the assignment grid at one angle."""
    for name in RULESET_NAMES:
        audit(name, theta)
    for agent, time, cond, rule in SWEEP_GRID:
        p = Perspective(agent, time, cond, AssignmentRule(rule))
        perspectives.assign(p, default_registers(time), theta)


def test_sweep_reuses_kernels_and_builds_one_density_matrix_per_assignment(monkeypatch):
    _sweep_op(0.3)
    warm = _engine.kernel_count()
    seen = _engine.calls(monkeypatch, perspectives, "assign", everywhere=True)
    _engine.calls(monkeypatch, perspectives, "record_distribution", key="record", everywhere=True, into=seen)
    _engine.calls(monkeypatch, qcore.DensityMatrix, "_gram", key="density", into=seen)
    counts = seen.counts
    angles = np.random.default_rng(5).uniform(-20.0, 20.0, 20)
    for theta in angles:
        _sweep_op(theta)
    # The grid alone: the audits' premise and record distributions read Born
    # probabilities off the branches and build no density matrix.  The 30
    # θ-free grid states were built with their kernels; only the 5 distinct
    # θ-dependent ones are built per angle.
    assert counts["assign"] == len(angles) * len(SWEEP_GRID)
    assert counts["record"] > 0
    assert counts["density"] == len(angles) * 5
    assert _engine.kernel_count() == warm


def _assign_and_read_records(theta):
    """The assignment grid plus every record distribution each grid perspective allows."""
    for agent, time, cond, rule in SWEEP_GRID:
        p = Perspective(agent, time, cond, AssignmentRule(rule))
        assign(p, default_registers(time), theta)
        for var in RECORDS:
            try:
                record_distribution(p, var, theta)
            except NotEvaluableError:
                pass


def test_assignment_builds_no_state_vector(monkeypatch):
    _assign_and_read_records(0.3)
    built = _engine.calls(monkeypatch, qcore.StateVector, "__post_init__")
    for theta in np.random.default_rng(6).uniform(-20.0, 20.0, 20):
        _assign_and_read_records(theta)
    assert not built.counts
