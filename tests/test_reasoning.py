import numpy as np
import pytest

from ewfs import protocol, qcore
from ewfs.reasoning import (
    BUILTIN_AUDITS,
    CERTAIN,
    F_12,
    F_13,
    FAILS,
    FBAR_02,
    FBAR_02_STAR,
    HOLDS,
    NONZERO,
    NOT_EVALUABLE,
    PREMISE_ID,
    RULESET_NAMES,
    WBAR_22,
    WBAR_23,
    RuleSet,
    Statement,
    StatementResult,
    audit,
    chain,
    evaluate,
    exact_halting_probability,
    premise_result,
)
from ewfs.perspectives import (
    AssignmentRule,
    COLLAPSE_AWARE,
    UNITARY_GLOBAL,
    Perspective,
    assign,
    record_distribution,
)
from ewfs.qcore import pure_density

import _engine
from _oracles import fidelity


def test_statement_validation():
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", "maybe", (), event=("w", "fail"))
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", CERTAIN, ())  # neither event nor inner
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", CERTAIN, (), event=("w", "fail"), inner=FBAR_02)
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", CERTAIN, (), event=("spin", "fail"))  # not a record
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", CERTAIN, (), event=("w", "okk"))  # not a value
    with pytest.raises(ValueError):
        Statement("X", "F", "n:20", CERTAIN, (("z", "sideways"),), event=("w", "fail"))


def test_audit_report_enforces_contradiction_invariant():
    from ewfs.reasoning import AuditReport

    # Only impossible(halt) against a positive exact halting probability contradicts.
    assert AuditReport("x", (), "impossible(halt)", 0.0, 1.0 / 12.0).contradiction is True
    for conclusion, witness in (
        ("nonzero(halt)", 1.0 / 12.0),
        ("impossible(halt)", None),
        ("impossible(halt)", 0.0),
    ):
        assert AuditReport("x", (), conclusion, 0.0, witness).contradiction is False


def test_fail_prediction_holds_only_with_own_record_conditioning():
    st = FBAR_02
    assert evaluate(st, BUILTIN_AUDITS["fr-mixed"][0]).status == HOLDS
    res = evaluate(st, BUILTIN_AUDITS["all-collapse"][0])
    assert res.status == FAILS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_star_statement_nonzero_half():
    res = evaluate(FBAR_02_STAR, BUILTIN_AUDITS["all-unitary"][0])
    assert res.status == HOLDS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_tails_inference_holds_everywhere():
    for name in RULESET_NAMES:
        res = evaluate(F_12, BUILTIN_AUDITS[name][0])
        assert res.status == HOLDS
        assert res.value == pytest.approx(1.0, abs=1e-10)


def test_announcement_certainty_depends_on_rule():
    res = evaluate(WBAR_22, BUILTIN_AUDITS["fr-mixed"][0])
    assert res.status == HOLDS
    res = evaluate(WBAR_22, BUILTIN_AUDITS["all-collapse"][0])
    assert res.status == FAILS
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_nested_statement_follows_inner_claim():
    assert evaluate(F_13, BUILTIN_AUDITS["fr-mixed"][0]).status == HOLDS
    res = evaluate(F_13, BUILTIN_AUDITS["all-collapse"][0])
    assert res.status == FAILS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_doubly_nested_statement():
    assert evaluate(WBAR_23, BUILTIN_AUDITS["fr-mixed"][0]).status == HOLDS
    res = evaluate(WBAR_23, BUILTIN_AUDITS["all-collapse"][0])
    # the observer is not even certain of the spin record under collapse
    assert res.status == FAILS
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_nested_claim_is_read_under_the_value_its_speaker_is_certain_of(theta):
    # Y names r=heads, but F is certain of r=tails given z=+1/2, so X reads Y
    # under r=tails: the value of Y built on r=tails, not of Y as written.
    rs = BUILTIN_AUDITS["fr-mixed"][0]
    y = Statement("Y", "Fbar", "n:20", CERTAIN, (("r", "heads"),), event=("w", "fail"))
    y_tails = Statement("Y", "Fbar", "n:20", CERTAIN, (("r", "tails"),), event=("w", "fail"))
    x = evaluate(Statement("X", "F", "n:20", CERTAIN, (("z", "+1/2"),), inner=y), rs, theta)
    assert (x.status, x.value) == (HOLDS, 1.0)
    assert x.value == evaluate(y_tails, rs, theta).value
    assert evaluate(y, rs, theta).status == FAILS

    # Given z=-1/2, F is not certain of r: the nested claim fails with F's
    # largest probability for a value of r.
    uncertain = Statement("X", "F", "n:20", CERTAIN, (("z", "-1/2"),), inner=y)
    dist = record_distribution(Perspective("F", "n:20", (("z", "-1/2"),), rs.rule_for("X")), "r", theta)
    assert max(dist.values()) < 1.0
    assert evaluate(uncertain, rs, theta) == StatementResult(
        "X", uncertain.describe(), FAILS, max(dist.values())
    )


def test_not_evaluable_is_distinct_from_fails():
    st = Statement(
        "F_12_heads", "F", "n:20", CERTAIN,
        (("r", "heads"), ("z", "+1/2")), event=("r", "tails"),
    )
    for name in RULESET_NAMES:
        rs = BUILTIN_AUDITS[name][0]
        rule = rs.rule_for("F_12_heads")
        if rule.kind == "own-record-pure":
            continue  # two-record conditioning is outside that rule's shape
        res = evaluate(st, rs)
        assert res.status == NOT_EVALUABLE
        assert res.value is None


def test_premise_holds_under_every_ruleset():
    for name in RULESET_NAMES:
        res = premise_result(BUILTIN_AUDITS[name][0])
        assert res.status == HOLDS
        assert res.value == pytest.approx(1.0, abs=1e-10)


PREMISE_ANGLES = [0.0, np.pi, 2 * np.pi] + list(np.random.default_rng(15).uniform(-20.0, 20.0, 50))


def test_premise_value_is_the_fidelity_with_the_x_polarized_spin():
    # The oracle builds the assigned spin state and its Uhlmann fidelity with
    # the pure x-polarized reference; the audit reads it as a Born certainty.
    reference = pure_density(protocol.SPIN_RIGHT_STATE)
    for name in RULESET_NAMES:
        rs = BUILTIN_AUDITS[name][0]
        persp = Perspective("Fbar", protocol.T10, (("r", protocol.TAILS),), rs.rule_for(PREMISE_ID))
        for theta in PREMISE_ANGLES:
            res = premise_result(rs, theta)
            assert res.status == HOLDS, (name, theta)
            want = fidelity(assign(persp, (protocol.S,), theta), reference)
            assert abs(res.value - want) <= 1e-12, (name, theta, res.value, want)


def test_warm_audit_builds_no_density_matrix_and_no_eigendecomposition(monkeypatch):
    for theta in (0.0, 0.7):  # warm-up: a chain that holds and chains that break
        for name in RULESET_NAMES:
            audit(name, theta)
    seen = _engine.calls(monkeypatch, qcore.DensityMatrix, "__post_init__", key="DensityMatrix")
    for fname in ("eigh", "eigvalsh"):
        _engine.calls(monkeypatch, np.linalg, fname, into=seen)
    for theta in (2 * np.pi, -4 * np.pi, 2.2, -13.7):
        for name in RULESET_NAMES:
            audit(name, theta)
    assert not seen.counts


def test_exact_halting_probability_is_one_twelfth():
    assert exact_halting_probability(0.0) == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert exact_halting_probability(np.pi) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_audit_fr_mixed_contradiction():
    rep = audit("fr-mixed")
    assert rep.contradiction is True
    assert rep.chain_conclusion == "impossible(halt)"
    assert rep.witness == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert all(r.status == HOLDS for r in rep.results)


def test_a_nonzero_chain_concludes_at_its_last_nonzero_value():
    # X's value is twice Fbar_02_star's at both angles: the order decides which one concludes.
    x = Statement("Wbar_z", "Wbar", "n:30", NONZERO, (("wbar", "okbar"),), event=("z", "+1/2"))
    rs = RuleSet("u", AssignmentRule(UNITARY_GLOBAL))
    for theta, last, first in ((0.0, 1.0, 0.5), (0.7, 0.68012607, 0.34006303)):
        for statements, want in (((FBAR_02_STAR, x), last), ((x, FBAR_02_STAR), first)):
            report = chain(statements, rs, theta)
            assert report.chain_conclusion == "nonzero(halt)"
            assert report.conclusion_value == pytest.approx(want, abs=1e-8), (theta, want)


def test_audit_all_collapse_chain_breaks_at_first_link():
    rep = audit("all-collapse")
    assert rep.contradiction is False
    assert rep.chain_conclusion is None
    res = rep.result("Fbar_02")
    assert res.status == FAILS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_audit_all_unitary_nonzero_conclusion():
    rep = audit("all-unitary")
    assert rep.contradiction is False
    assert rep.chain_conclusion == "nonzero(halt)"
    assert rep.conclusion_value == pytest.approx(0.5, abs=1e-10)
    res = rep.result("Fbar_02_star")
    assert res.status == HOLDS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_exactly_one_builtin_ruleset_contradicts():
    flags = {name: audit(name).contradiction for name in RULESET_NAMES}
    assert flags == {"fr-mixed": True, "all-collapse": False, "all-unitary": False}


def test_audit_deterministic():
    a = audit("fr-mixed")
    b = audit("fr-mixed")
    assert a == b


def test_chain_rejects_duplicate_ids():
    rs = BUILTIN_AUDITS["fr-mixed"][0]
    with pytest.raises(ValueError):
        chain((FBAR_02, FBAR_02), rs)


def test_cycle_detection():
    # a statement that nests one reusing its own id is malformed, and refused when built
    inner = Statement("Loop", "Fbar", "n:20", CERTAIN, (("r", "tails"),), event=("w", "fail"))
    with pytest.raises(ValueError, match="'Loop' repeats in its nested chain"):
        Statement("Loop", "F", "n:20", CERTAIN, (("z", "+1/2"),), inner=inner)


def test_a_nested_id_clash_is_refused_at_any_depth():
    # frozen statements cannot form a cycle: a clash is an outer id reused anywhere below it
    leaf = Statement("A", "Fbar", "n:20", CERTAIN, (("r", "tails"),), event=("w", "fail"))
    middle = Statement("B", "F", "n:20", CERTAIN, (("z", "+1/2"),), inner=leaf)
    with pytest.raises(ValueError, match="'A' repeats in its nested chain"):
        Statement("A", "Wbar", "n:30", CERTAIN, (("wbar", "okbar"),), inner=middle)
    top = Statement("C", "Wbar", "n:30", CERTAIN, (("wbar", "okbar"),), inner=middle)
    assert evaluate(top, BUILTIN_AUDITS["fr-mixed"][0]).status == HOLDS


def test_custom_ruleset_override():
    rs = RuleSet(
        "custom",
        AssignmentRule(UNITARY_GLOBAL),
        overrides=(("Fbar_02", AssignmentRule(COLLAPSE_AWARE)),),
    )
    assert rs.rule_for("Fbar_02").kind == COLLAPSE_AWARE
    assert rs.rule_for("F_12").kind == UNITARY_GLOBAL
    res = evaluate(FBAR_02, rs)
    assert res.status == FAILS
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_standard_chain_contents():
    assert [s.id for s in BUILTIN_AUDITS["fr-mixed"][1]] == [
        "Fbar_02", "F_12", "F_13", "Wbar_22", "Wbar_23",
    ]
    assert [s.id for s in BUILTIN_AUDITS["all-unitary"][1]] == [
        "Fbar_02_star", "F_12", "Wbar_22", "Wbar_23_star",
    ]


def test_evaluation_is_seed_free():
    # nothing in the audit consumes randomness; repeated calls are identical
    values = [evaluate(WBAR_22, BUILTIN_AUDITS["all-collapse"][0]).value for _ in range(3)]
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize(
    "theta, unitary_joints", [(0.0, 2), (2 * np.pi, 2), (0.7, 0), (2.2, 0), (3.0, 0)]
)
def test_audit_computes_the_unitary_joint_only_for_a_chain_that_holds(
    monkeypatch, theta, unitary_joints
):
    # The witness is read only when every chain statement holds: at multiples
    # of 2π that is fr-mixed and all-unitary, elsewhere no chain holds in full.
    joints = _engine.calls(monkeypatch, protocol, "exact_joint", record=True)
    reports = [audit(name, theta) for name in RULESET_NAMES]
    semantics = [config.semantics for (config,), _ in joints.records]
    assert semantics.count(protocol.UNITARY) == unitary_joints
    assert sum(r.witness is not None for r in reports) == unitary_joints
