"""The built-in audits are one table, and the claim kinds are the ones the chain composes."""

import pytest

from ewfs.reasoning import (
    BUILTIN_AUDITS,
    CLAIM_KINDS,
    F_13,
    FBAR_02,
    PREMISE_ID,
    RULESET_NAMES,
    WBAR_23,
    Statement,
    audit,
)


def _unfolded(statements):
    """Every statement of a chain, nested inner statements included."""
    for st in statements:
        while st is not None:
            yield st
            st = st.inner


def test_ruleset_names_keep_the_cli_order():
    assert RULESET_NAMES == ("fr-mixed", "all-collapse", "all-unitary")
    assert tuple(BUILTIN_AUDITS) == RULESET_NAMES


@pytest.mark.parametrize("name", RULESET_NAMES)
def test_builtin_table_is_consistent(name):
    rs, statements = BUILTIN_AUDITS[name]
    assert rs.name == name
    # An id names one statement everywhere it occurs, nested occurrences included.
    by_id = {}
    for st in _unfolded(statements):
        assert by_id.setdefault(st.id, st) == st, (name, st.id)
    top = [st.id for st in statements]
    assert len(set(top)) == len(top)
    # An override with a mistyped id would be ignored silently.
    for sid, _ in rs.overrides:
        assert sid == PREMISE_ID or sid in by_id, (name, sid)


def test_nested_statements_hold_the_inner_values():
    assert WBAR_23.inner is F_13
    assert F_13.inner is FBAR_02


def test_unknown_rule_set_names_the_choices():
    message = r"unknown rule set 'x'; choose from \('fr-mixed', 'all-collapse', 'all-unitary'\)"
    with pytest.raises(ValueError, match=message):
        audit("x")


def test_only_the_composable_claim_kinds_exist():
    assert CLAIM_KINDS == ("certain", "nonzero")
    with pytest.raises(ValueError, match="unknown claim kind 'impossible'"):
        Statement("X", "Fbar", "n:20", "impossible", (("r", "tails"),), event=("w", "ok"))
