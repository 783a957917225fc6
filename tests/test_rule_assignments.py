"""The paper's claim across every rule assignment, not just the built-in rule sets.

Each of the six audited statements (the premise and the five statements of
the Frauchiger-Renner chain) is given one of the three assignment rules:
3**6 = 729 descriptions.  At a multiple of 2π exactly the 216 that let
``Fbar_02``, ``Wbar_22`` and ``Wbar_23`` all avoid ``collapse-aware``
contradict the exact halting probability; uniform ``unitary-global`` is among
them, so ``all-unitary`` escapes only through its starred statements.  At a
generic angle nothing contradicts.  The contradiction comes from the
description, not from the quantum dynamics.
"""

import itertools

import numpy as np
import pytest

from ewfs.perspectives import COLLAPSE_AWARE, RULE_KINDS, UNITARY_GLOBAL, AssignmentRule
from ewfs.reasoning import BUILTIN_AUDITS, HOLDS, PREMISE_ID, RuleSet, chain, premise_result

AUDITED = (PREMISE_ID, "Fbar_02", "F_12", "F_13", "Wbar_22", "Wbar_23")
# The statements whose collapse-aware description breaks the chain.
LINKS = ("Fbar_02", "Wbar_22", "Wbar_23")


def _contradicting(theta):
    """Every assignment of rules to the audited statements whose audit contradicts."""
    statements = BUILTIN_AUDITS["fr-mixed"][1]
    assert tuple(st.id for st in statements) == AUDITED[1:]
    out = set()
    for kinds in itertools.product(RULE_KINDS, repeat=len(AUDITED)):
        overrides = tuple((sid, AssignmentRule(kind)) for sid, kind in zip(AUDITED, kinds))
        rs = RuleSet("scan", AssignmentRule(UNITARY_GLOBAL), overrides)
        # The premise holds under every rule, so the chain alone decides.
        assert premise_result(rs, theta).status == HOLDS
        if chain(statements, rs, theta).contradiction:
            out.add(kinds)
    return out


@pytest.mark.parametrize("theta", [0.0, 2 * np.pi])
def test_contradiction_needs_the_three_links_off_collapse(theta):
    found = _contradicting(theta)
    expected = {
        kinds
        for kinds in itertools.product(RULE_KINDS, repeat=len(AUDITED))
        if all(kinds[AUDITED.index(sid)] != COLLAPSE_AWARE for sid in LINKS)
    }
    assert len(found) == 216
    assert found == expected
    assert (UNITARY_GLOBAL,) * len(AUDITED) in found


def test_no_assignment_contradicts_at_a_generic_angle():
    assert _contradicting(0.7) == set()
