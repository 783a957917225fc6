"""Each θ computes each quantity once: purity in one pass, one Born read per description.

* ``DensityMatrix.purity`` sums Σ|ρᵢⱼ|² in one pass; on the sweep grid it
  stays within 1e-15 of the matrix-product trace kept in ``_oracles``.
* ``chain`` keeps no reads of its own: at a fresh angle the three built-in
  audits make one Born read per θ-dependent (kernel, spec) pair they touch,
  whichever speaker or chain link asks, and reading off the shared views
  changes no verdict and no value against ``evaluate`` one statement at a
  time.
* an audit, cold or warm, constructs no ``Statement``.
* ``chain`` rejects an empty chain and an override id that names no
  statement, instead of concluding from nothing or ignoring the override.
"""

import itertools

import numpy as np
import pytest

from ewfs import perspectives, reasoning
from ewfs.perspectives import COLLAPSE_AWARE, RULE_KINDS, UNITARY_GLOBAL, AssignmentRule
from ewfs.reasoning import (
    BUILTIN_AUDITS,
    FBAR_02,
    PREMISE_ID,
    RULESET_NAMES,
    WBAR_23,
    RuleSet,
    audit,
    chain,
    evaluate,
)

import _engine
from _oracles import SWEEP_GRID, default_registers, purity
from test_rule_assignments import AUDITED
from test_sweep_invariants import GENERIC, MULTIPLES_OF_2PI


def test_purity_matches_the_matrix_product_trace():
    for theta in MULTIPLES_OF_2PI + GENERIC:
        for agent, time, cond, rule in SWEEP_GRID:
            p = perspectives.Perspective(agent, time, cond, AssignmentRule(rule))
            rho = perspectives.assign(p, default_registers(time), theta)
            assert abs(rho.purity() - purity(rho)) <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.7, 2 * np.pi])
def test_audits_read_each_perspective_once_per_chain(monkeypatch, theta):
    for name in RULESET_NAMES:  # warm-up at another angle: θ-free reads made, views replaced
        audit(name, theta + 1.0)
    predicted = _engine.calls(monkeypatch, perspectives, "predict_distribution", record=True, everywhere=True)
    read = _engine.calls(monkeypatch, perspectives, "born_distribution", record=True)
    for name in RULESET_NAMES:
        audit(name, theta)
    # A not-evaluable read raises, before any Born read, and is not recorded.
    touched = {
        (id(_engine.kernel(p, spec.target)), spec)
        for (p, spec, *_), _ in predicted.records
        if not _engine.theta_free(p, spec.target)
    }
    born = [args[0] for args, _ in read.records]
    assert touched
    assert len(born) == len(touched)
    assert sorted(map(id, born)) == sorted(id(spec) for _, spec in touched)


def _same_as_one_at_a_time(statements, rs, theta):
    assert chain(statements, rs, theta).results == tuple(
        evaluate(st, rs, theta) for st in statements
    )


@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("name", RULESET_NAMES)
def test_shared_reads_change_no_builtin_result(name, theta):
    rs, statements = BUILTIN_AUDITS[name]
    _same_as_one_at_a_time(statements, rs, theta)


def test_shared_reads_change_no_result_over_every_rule_assignment():
    statements = BUILTIN_AUDITS["fr-mixed"][1]
    for kinds in itertools.product(RULE_KINDS, repeat=len(AUDITED)):
        overrides = tuple((sid, AssignmentRule(kind)) for sid, kind in zip(AUDITED, kinds))
        _same_as_one_at_a_time(
            statements, RuleSet("scan", AssignmentRule(UNITARY_GLOBAL), overrides), 0.0
        )


def test_chain_rejects_an_override_that_names_no_statement():
    # "Fbar02" misspells Fbar_02: silently ignored, the chain would hold at 1.0.
    collapse = AssignmentRule(COLLAPSE_AWARE)
    rs = RuleSet("custom", AssignmentRule(UNITARY_GLOBAL), overrides=(("Fbar02", collapse),))
    with pytest.raises(ValueError, match="'Fbar02'"):
        chain((FBAR_02,), rs)
    # The premise and statements nested in a chain statement are overridable.
    overrides = tuple((sid, collapse) for sid in (PREMISE_ID, "F_13", "Fbar_02"))
    nested = RuleSet("custom", AssignmentRule(UNITARY_GLOBAL), overrides)
    assert chain((WBAR_23,), nested).results[0].statement_id == "Wbar_23"


def test_chain_rejects_an_empty_chain():
    with pytest.raises(ValueError, match="empty chain"):
        chain((), BUILTIN_AUDITS["fr-mixed"][0])


def test_a_rule_set_with_a_builtin_name_is_still_checked():
    # Every call checks its chain against its rule set, whatever the rule
    # set is named: a built-in name vouches for nothing.
    for name in RULESET_NAMES:
        rs, statements = BUILTIN_AUDITS[name]
        misspelt = RuleSet(name, rs.default, rs.overrides + (("Fbar02", rs.default),))
        with pytest.raises(ValueError, match="'Fbar02'"):
            chain(statements, misspelt)
        with pytest.raises(ValueError, match="duplicate statement ids"):
            chain(statements + statements[:1], rs)
        with pytest.raises(ValueError, match="empty chain"):
            chain((), rs)
        assert chain(list(statements), rs) == chain(statements, rs)


def test_an_audit_constructs_no_statement_cold_or_warm(monkeypatch):
    # A nested certainty reads its inner statement under the value the outer
    # speaker is certain of, as a conditioning, so no copy of it is built.
    angles = MULTIPLES_OF_2PI + GENERIC
    built = _engine.calls(monkeypatch, reasoning.Statement, "__post_init__")
    _engine.clear()
    for _ in ("cold", "warm"):
        for theta in angles:
            for name in RULESET_NAMES:
                audit(name, theta)
        assert not built.counts
