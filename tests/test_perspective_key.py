"""A perspective's kernel key is private: invisible to its dataclass surface, kept by its copies.

``Perspective`` keeps the key of its kernels, ``(time, sorted conditioning,
collapse?)``, as a private attribute set in its one validation pass.

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
"""

import copy
import dataclasses
import pickle

import pytest

from ewfs import perspectives
from ewfs.perspectives import (
    RECORD_READOUTS,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    predict_distribution,
)

import _engine
from _oracles import SWEEP_GRID, default_registers

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
