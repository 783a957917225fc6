"""A warm angle pays only for what depends on θ: the θ-free bookkeeping is done once.

* ``Perspective`` checks each distinct standpoint once.  The memo of checked
  standpoints holds valid ones only, so it stays within the finite set of
  valid standpoints however many fresh but equal inputs build perspectives,
  and an invalid input is refused with the same message every time.
* A kernel is found once per (kernel key, register names as given): a warm
  lookup neither sorts nor builds, and its θ-dependent view is kept under
  the exact θ, so a repeated angle reads no coin amplitudes and ``0.0`` and
  ``-0.0`` are kept apart.  A new angle contracts the stack of θ-dependent
  branches once, whatever number of descriptions it reads.
* ``chain`` checks every chain, a built-in one too, once per call, and
  reads each link through the public ``evaluate``.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ewfs import perspectives, protocol, reasoning
from ewfs.perspectives import (
    AGENTS,
    RECORDS,
    RULE_KINDS,
    TIMES,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
)
from ewfs.reasoning import BUILTIN_AUDITS, RULESET_NAMES, audit, chain

import _engine
from _oracles import SWEEP_GRID, default_registers


class Tag(str):
    """A ``str`` subclass: equal to, and hashed as, the plain name it spells."""


def _pairs():
    return [(var, value) for var, (_, _, values) in RECORDS.items() for value in values]


def _valid_standpoints():
    """Every (agent, time, conditioning in any order, rule kind) a ``Perspective`` accepts."""
    valid = set()
    for k in range(4):
        for cond in itertools.permutations(_pairs(), k):
            for agent, time, kind in itertools.product(AGENTS, TIMES, RULE_KINDS):
                try:
                    Perspective(agent, time, cond, kind)
                except ValueError:
                    continue
                valid.add((agent, time, cond, kind))
    return valid


VALID = _valid_standpoints()

# Each invalid input and the message it is refused with, every time.
UNKNOWN_RULE = f"unknown assignment rule 'bogus'; choose from {RULE_KINDS}"
INVALID = [
    (("W", "n:30", (("q", "x"),)), "unknown record variable 'q'"),
    (("W", "n:30", (("z", "+1/2"), ("z", "-1/2"))), "duplicate conditioning on 'z'"),
    (("W", "n:30", (("z", "up"),)), "unknown value 'up' for record 'z'"),
    (("W", "n:10", (("z", "+1/2"),)), "record 'z' does not exist yet at n:10 (available n:20)"),
    (("F", "n:20", (), "own-record-pure"), "own-record-pure conditions on exactly one record"),
    (("W", "n:20", (("z", "+1/2"),), "own-record-pure"), "own-record-pure: record 'z' belongs to F, not W"),
    (("W", "n:30", (), "bogus"), UNKNOWN_RULE),
    (("W", "n:30", (), SimpleNamespace(kind="bogus")), UNKNOWN_RULE),
]


def _spelled(rng, agent, time, cond, kind):
    """The standpoint as a caller might spell it: fresh tuples, lists, ``str`` subclasses, a rule by name."""
    pairs = list(cond)
    style = rng.integers(4)
    if style == 1:
        pairs = [[var, value] for var, value in pairs]
    elif style == 2:
        pairs = [(Tag(var), Tag(value)) for var, value in pairs]
    conditioning = pairs if style == 1 else tuple(pairs)  # a fresh tuple or list each time
    rule = (kind, AssignmentRule(kind), SimpleNamespace(kind=kind), Tag(kind))[rng.integers(4)]
    return Perspective(Tag(agent) if style == 3 else agent, time, conditioning, rule)


def test_the_standpoint_memo_holds_only_valid_standpoints_and_stays_bounded():
    _engine.clear()
    rng = np.random.default_rng(34)
    chosen = sorted(VALID)
    seen = set()
    for i in range(10_000):
        agent, time, cond, kind = chosen[rng.integers(len(chosen))]
        p = _spelled(rng, agent, time, cond, kind)
        seen.add((agent, time, cond, kind))
        # Normalized as a first check would leave it, with the same kernel key.
        assert p == Perspective(agent, time, cond, AssignmentRule(kind))
        assert type(p.conditioning) is tuple
        assert all(type(x) is str for pair in p.conditioning for x in pair)
        assert type(p.rule) is AssignmentRule
        # Dephased only if a record that exists at the checkpoint is left unconditioned.
        unconditioned = [
            var for var, (_, available, _) in RECORDS.items()
            if available in TIMES[: TIMES.index(time) + 1] and var not in dict(cond)
        ]
        assert p._kernel_key == (time, tuple(sorted(cond)), kind == "collapse-aware" and bool(unconditioned))
        if i % 100 == 0:
            for args, message in INVALID:
                before = _engine.standpoints()
                with pytest.raises(ValueError) as exc:
                    Perspective(*args)
                assert str(exc.value) == message
                assert _engine.standpoints() == before
    memo = _engine.standpoints()
    assert memo == seen and memo <= VALID
    assert len(memo) <= len(VALID)


def test_a_rule_object_is_normalized_and_checked():
    p = Perspective("W", "n:30", (), SimpleNamespace(kind="collapse-aware"))
    assert p.rule == AssignmentRule("collapse-aware") and type(p.rule) is AssignmentRule
    rule = AssignmentRule("unitary-global")
    assert Perspective("W", "n:30", (), rule).rule is rule


def _sweep(theta):
    for agent, time, cond, rule in SWEEP_GRID:
        try:
            assign(Perspective(agent, time, cond, rule), default_registers(time), theta)
        except NotEvaluableError:
            pass
    for name in RULESET_NAMES:
        audit(name, theta)


def test_a_repeated_angle_reads_no_coin_amplitudes_and_builds_no_kernel(monkeypatch):
    _sweep(0.3)
    misses = _engine.kernel_misses()
    seen = _engine.calls(monkeypatch, protocol, "coin_amplitudes")
    _engine.calls(monkeypatch, perspectives, "_build", into=seen)
    _engine.calls(monkeypatch, perspectives, "_weigh", record=True, into=seen)
    _sweep(0.3)
    assert not seen.counts
    # A new angle contracts the whole stack of θ-dependent branches once, and looks up no new kernel.
    _sweep(1.7)
    assert seen.counts == {"coin_amplitudes": 1, "_weigh": 1}
    (stack, _), _ = seen.records[0]
    assert stack.shape[1] == _engine.stack_rows()[0] > 1
    assert _engine.kernel_misses() == misses


def test_zero_and_negative_zero_keep_their_own_views():
    p = Perspective("W", "n:30", (("wbar", "okbar"),), "unitary-global")
    names = ("S", "F")
    assert not _engine.theta_free(p, names)
    for theta in (0.0, -0.0, 0.0, 0, -0.0):
        first = assign(p, names, theta)
        key = _engine.view_key(p, names)
        assert key == theta and type(key) is float
        assert np.copysign(1.0, key) == np.copysign(1.0, theta)
        assert assign(p, names, theta) is first  # a hit returns the kept view's state


def test_every_chain_is_checked_at_each_call(monkeypatch):
    checks = _engine.calls(monkeypatch, reasoning, "_check_chain")
    _engine.calls(monkeypatch, reasoning, "evaluate", into=checks)
    for name in RULESET_NAMES:
        audit(name, 0.7)
    rs, statements = BUILTIN_AUDITS["fr-mixed"]
    assert checks.counts == {"evaluate": 5 + 5 + 4, "_check_chain": 3}
    chain(list(statements), rs, 0.7)
    assert checks.counts == {"evaluate": 5 + 5 + 4 + 5, "_check_chain": 4}
