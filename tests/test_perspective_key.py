"""A perspective's kernel key is private: invisible to its dataclass surface, kept by its copies.

``Perspective`` keeps the key of its kernels, ``(time, sorted conditioning,
dephase?)``, as a private attribute set in its one validation pass;
``dephase?`` holds for a collapse-aware rule that leaves a record of its
checkpoint unconditioned.

* ``==``, ``hash``, ``repr``, ``dataclasses.fields`` and ``asdict`` see the
  four fields only, as before the key existed (pinned below).
* ``copy.copy``, a pickle round trip and ``dataclasses.replace`` give a
  perspective that reaches the same cached kernel, and a ``replace`` that
  changes the rule rebuilds the key.
* Conditioning given in either order reaches the same kernel and the same
  state bytes, while ``conditioning`` keeps the order it was given in.
* ``_engine.kernel`` is the kernel ``assign`` and ``predict_distribution``
  reach, and ``_engine.theta_free`` holds exactly when one state answers two
  angles, for every sweep-grid description.
* The key holds no agent: agents that share a checkpoint, conditioning and
  rule assign the same bytes, each computed cold.
* One kernel per description: a collapse-aware standpoint that conditions
  on every record of its checkpoint has nothing to dephase, so it reaches
  the unitary-global kernel of the same conditioning and, each side
  computed cold, assigns and predicts the same bytes; one that leaves a
  record unconditioned reaches another kernel.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import perspectives
from ewfs.perspectives import (
    RECORD_READOUTS,
    RECORDS,
    TIMES,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    predict_distribution,
)

import _engine
from _oracles import SWEEP_GRID, default_registers
from test_theta_free_reads import SUBSET_SPECS

NAMES = ("S", "F")
THETA = 0.7
# One θ-free and one θ-dependent description of (S, F), each on two records.
FREE = Perspective("W", "n:30", [("z", "+1/2"), ("r", "tails")], "collapse-aware")
DEPENDENT = Perspective("F", "n:30", (("z", "-1/2"), ("wbar", "okbar")), "unitary-global")


def _reached(monkeypatch, p):
    """The kernel ``assign(p, NAMES, THETA)`` reads, and the state it returns."""
    with monkeypatch.context() as patch:
        reached = _engine.calls(patch, perspectives, "_kernel", record=True)
        rho = assign(p, NAMES, THETA)
    assert len(reached.records) == 1
    return reached.records[0][1], rho


def test_the_dataclass_surface_is_the_four_fields():
    p = FREE
    assert repr(p) == (
        "Perspective(agent='W', time='n:30', conditioning=(('z', '+1/2'), ('r', 'tails')), "
        "rule=AssignmentRule(kind='collapse-aware'))"
    )
    assert [f.name for f in dataclasses.fields(p)] == ["agent", "time", "conditioning", "rule"]
    assert dataclasses.asdict(p) == {
        "agent": "W",
        "time": "n:30",
        "conditioning": (("z", "+1/2"), ("r", "tails")),
        "rule": {"kind": "collapse-aware"},
    }
    fields = ("W", "n:30", (("z", "+1/2"), ("r", "tails")), AssignmentRule("collapse-aware"))
    assert hash(p) == hash(fields)
    assert p == Perspective(*fields)
    # Another order is another value of the field, as it always was.
    swapped = Perspective("W", "n:30", (("r", "tails"), ("z", "+1/2")), "collapse-aware")
    assert swapped != p
    assert swapped.conditioning == (("r", "tails"), ("z", "+1/2"))


@pytest.mark.parametrize("p", [FREE, DEPENDENT], ids=["theta-free", "theta-dependent"])
def test_copies_reach_the_same_kernel(monkeypatch, p):
    kernel, rho = _reached(monkeypatch, p)
    assert kernel is _engine.kernel(p, NAMES)
    assert _engine.theta_free(p, NAMES) == (p is FREE)
    copies = (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)), dataclasses.replace(p))
    for q in copies:
        assert q == p and q is not p
        got, state = _reached(monkeypatch, q)
        assert got is kernel
        assert state.matrix.tobytes() == rho.matrix.tobytes()
    # A replaced rule is a new key, not the copied one.
    flipped = "unitary-global" if p.rule.kind == "collapse-aware" else "collapse-aware"
    other = dataclasses.replace(p, rule=AssignmentRule(flipped))
    assert _reached(monkeypatch, other)[0] is not kernel


@pytest.mark.parametrize("p", [FREE, DEPENDENT], ids=["theta-free", "theta-dependent"])
def test_either_order_of_the_conditioning_reaches_the_same_kernel(monkeypatch, p):
    swapped = Perspective(p.agent, p.time, p.conditioning[::-1], p.rule)
    assert swapped.conditioning == p.conditioning[::-1]
    kernel, rho = _reached(monkeypatch, p)
    got, state = _reached(monkeypatch, swapped)
    assert got is kernel
    assert state.matrix.tobytes() == rho.matrix.tobytes()
    assert swapped.conditioning == p.conditioning[::-1]


def test_the_engine_seam_is_the_kernel_the_engine_reads(monkeypatch):
    reached = _engine.calls(monkeypatch, perspectives, "_kernel", record=True)
    kinds = set()
    for agent, time, cond, rule in SWEEP_GRID:
        p = Perspective(agent, time, cond, rule)
        reads = [(default_registers(time), None)] + [(spec.target, spec) for spec in RECORD_READOUTS.values()]
        for names, spec in reads:
            reached.records.clear()
            try:
                assign(p, names, 0.3) if spec is None else predict_distribution(p, spec, 0.3)
                evaluable = True
            except NotEvaluableError:
                evaluable = False
            got = [kernel for _, kernel in reached.records]
            assert got == [_engine.kernel(p, names)], (p, names)
            if evaluable:
                kinds.add(_engine.theta_free(p, names))
                same = assign(p, names, 0.3) is assign(p, names, 1.1)
                assert _engine.theta_free(p, names) == same, (p, names)
    assert kinds == {False, True}


def test_agents_that_share_a_standpoint_assign_the_same_bytes():
    for time in perspectives.TIMES:
        for cond in ((), (("r", "tails"),), (("z", "+1/2"),), (("wbar", "okbar"),)):
            for rule in ("collapse-aware", "unitary-global"):
                states = set()
                for agent in perspectives.AGENTS:
                    _engine.clear()
                    try:
                        rho = assign(Perspective(agent, time, cond, rule), default_registers(time), THETA)
                    except ValueError as exc:  # a record not yet made, or not evaluable
                        states.add(repr(exc))
                    else:
                        states.add(rho.matrix.tobytes())
                assert len(states) == 1, (time, cond, rule)


def _fully_conditioned():
    """(checkpoint, conditioning) pairs that name one value of every record existing at the checkpoint."""
    out = []
    for time in TIMES:
        now = TIMES[: TIMES.index(time) + 1]
        seen = [var for var, (_, available, _) in RECORDS.items() if available in now]
        for values in itertools.product(*(RECORDS[var][2] for var in seen)):
            out.append((time, tuple(zip(seen, values))))
    return out


FULLY_CONDITIONED = _fully_conditioned()
# Every spec over the registers: each record readout and a computational-basis read of each register set.
SPECS = tuple(RECORD_READOUTS.values()) + SUBSET_SPECS


def _cold(fn, *args):
    """``fn(*args)`` with every memo emptied first, as bytes; the error's repr if it raises one."""
    _engine.clear()
    try:
        value = fn(*args)
    except ValueError as exc:
        return repr(exc)
    if isinstance(value, dict):
        return tuple((label, float(p).hex()) for label, p in value.items())
    return value.matrix.tobytes()


@settings(max_examples=3, deadline=None)
@example(theta=0.0)
@example(theta=-0.0)
@example(theta=0.7)
@given(theta=st.floats(-1e3, 1e3))
def test_a_collapse_aware_standpoint_with_nothing_to_dephase_shares_the_unitary_kernel(theta):
    assert len(FULLY_CONDITIONED) == 15
    for agent in perspectives.AGENTS:
        for time, cond in FULLY_CONDITIONED:
            collapse = Perspective(agent, time, cond, "collapse-aware")
            unitary = Perspective(agent, time, cond, "unitary-global")
            for spec in SPECS:
                names = spec.target
                assert _engine.kernel(collapse, names) is _engine.kernel(unitary, names), (collapse, names)
                want = _cold(predict_distribution, unitary, spec, theta)
                assert _cold(predict_distribution, collapse, spec, theta) == want, (collapse, names)
            names = default_registers(time)
            want = _cold(assign, unitary, names, theta)
            assert _cold(assign, collapse, names, theta) == want, (collapse, names)


def test_a_record_left_unconditioned_is_another_kernel():
    for agent in perspectives.AGENTS:
        for time, cond in (("n:10", ()), ("n:30", (("r", "tails"), ("z", "+1/2")))):
            collapse = Perspective(agent, time, cond, "collapse-aware")
            unitary = Perspective(agent, time, cond, "unitary-global")
            names = default_registers(time)
            assert _engine.kernel(collapse, names) is not _engine.kernel(unitary, names), (collapse, names)
            assert collapse._kernel_key[2] and not unitary._kernel_key[2]
    # Dephasing the coin record mixes the lab states: the states differ in bytes.
    collapse = Perspective("W", "n:10", (), "collapse-aware")
    unitary = Perspective("W", "n:10", (), "unitary-global")
    names = ("R", "Fbar", "S")
    assert _cold(assign, collapse, names, 0.7) != _cold(assign, unitary, names, 0.7)
