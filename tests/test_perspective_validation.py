"""``Perspective`` checks and normalizes its fields: each refusal and its exact message.

One test per check, in the order the checks run: the agent, the checkpoint,
the rule name, then each conditioning pair (known record, not repeated,
known value, already recorded), then the own-record-pure count and owner.
List-valued conditioning is normalized to tuples, and a rule given by name
to an ``AssignmentRule``.
"""

import pytest

from ewfs.perspectives import RULE_KINDS, AssignmentRule, Perspective


def _refused(*args):
    with pytest.raises(ValueError) as exc:
        Perspective(*args)
    return str(exc.value)


def test_unknown_agent():
    assert _refused("Alice", "n:00") == "unknown agent 'Alice'"
    # The agent is checked first.
    assert _refused("Alice", "n:99", (("q", "x"),), "bogus") == "unknown agent 'Alice'"


def test_unknown_checkpoint():
    # n:40 orders the w record but is no checkpoint a perspective can take.
    assert _refused("W", "n:40") == "unknown checkpoint 'n:40'"
    assert _refused("W", "n:99", (("q", "x"),), "bogus") == "unknown checkpoint 'n:99'"


def test_unknown_rule_name():
    want = f"unknown assignment rule 'bogus'; choose from {RULE_KINDS}"
    assert _refused("W", "n:30", (), "bogus") == want
    # The rule is read before the conditioning is checked.
    assert _refused("W", "n:30", (("q", "x"),), "bogus") == want


def test_unknown_record_variable():
    assert _refused("W", "n:30", (("q", "x"),)) == "unknown record variable 'q'"


def test_duplicate_conditioning():
    cond = (("z", "+1/2"), ("z", "-1/2"))
    assert _refused("W", "n:30", cond) == "duplicate conditioning on 'z'"
    assert _refused("W", "n:30", cond[:1] * 2) == "duplicate conditioning on 'z'"


def test_unknown_value():
    assert _refused("W", "n:30", (("z", "up"),)) == "unknown value 'up' for record 'z'"


def test_record_not_yet_available():
    assert _refused("W", "n:10", (("z", "+1/2"),)) == (
        "record 'z' does not exist yet at n:10 (available n:20)"
    )
    assert _refused("W", "n:30", (("w", "ok"),)) == (
        "record 'w' does not exist yet at n:30 (available n:40)"
    )
    # Pairs are checked in the given order.
    assert _refused("W", "n:10", (("z", "+1/2"), ("q", "x"))) == (
        "record 'z' does not exist yet at n:10 (available n:20)"
    )


def test_own_record_pure_needs_exactly_one_record():
    want = "own-record-pure conditions on exactly one record"
    assert _refused("F", "n:20", (), "own-record-pure") == want
    assert _refused("F", "n:20", (("z", "+1/2"), ("r", "tails")), "own-record-pure") == want
    # The conditioning pairs are checked before the count.
    assert _refused("F", "n:20", (("z", "up"),), "own-record-pure") == (
        "unknown value 'up' for record 'z'"
    )


def test_own_record_pure_needs_the_agents_own_record():
    assert _refused("W", "n:20", (("z", "+1/2"),), "own-record-pure") == (
        "own-record-pure: record 'z' belongs to F, not W"
    )
    assert _refused("F", "n:30", (("wbar", "okbar"),), "own-record-pure") == (
        "own-record-pure: record 'wbar' belongs to Wbar, not F"
    )


def test_list_conditioning_and_a_rule_name_are_normalized():
    p = Perspective("W", "n:30", [["z", "+1/2"], ["wbar", "okbar"]], "collapse-aware")
    want = Perspective("W", "n:30", (("z", "+1/2"), ("wbar", "okbar")), AssignmentRule("collapse-aware"))
    assert p.conditioning == (("z", "+1/2"), ("wbar", "okbar"))
    assert type(p.conditioning) is tuple and all(type(pair) is tuple for pair in p.conditioning)
    assert p.rule == AssignmentRule("collapse-aware") and type(p.rule) is AssignmentRule
    assert p == want and hash(p) == hash(want) and repr(p) == repr(want)
    # Keywords, the defaults, and a rule passed as an AssignmentRule is kept as given.
    rule = AssignmentRule("own-record-pure")
    q = Perspective(agent="F", time="n:20", conditioning=(("z", "+1/2"),), rule=rule)
    assert q.rule is rule
    default = Perspective("W", "n:00")
    assert default.conditioning == () and default.rule == AssignmentRule("unitary-global")


def test_a_perspective_is_frozen():
    p = Perspective("W", "n:30")
    with pytest.raises(AttributeError):
        p.agent = "F"
