import itertools

import numpy as np
import pytest

from ewfs import protocol
from ewfs.perspectives import (
    AGENTS,
    COLLAPSE_AWARE,
    OWN_RECORD_PURE,
    UNITARY_GLOBAL,
    AssignmentRule,
    NotEvaluableError,
    RECORDS,
    TIMES,
    Perspective,
    assign,
    predict_distribution,
    record_distribution,
)
from ewfs.qcore import dephase, pure_density

from _oracles import (
    collapse_record_leaves,
    compare,
    entangled_lab_spin_mixture,
    entangled_lab_spin_pure,
    lab_mixture_after_tails,
    lab_pure_after_tails,
    outcome_distribution,
    partial_trace,
    product_spec,
    trajectory_assignment,
)

LBAR_S = ("R", "Fbar", "S")
LAB_L = ("S", "F")


def persp(agent, time, cond=(), rule=UNITARY_GLOBAL):
    return Perspective(agent, time, tuple(cond), AssignmentRule(rule))


def test_rule_validation():
    with pytest.raises(ValueError):
        AssignmentRule("fancy")
    with pytest.raises(ValueError):
        Perspective("Fbar", "n:10", (), AssignmentRule("own-record-pure"))  # no record
    with pytest.raises(ValueError):
        Perspective("F", "n:20", (("r", "tails"),), AssignmentRule("own-record-pure"))


def test_conditioning_availability():
    with pytest.raises(ValueError):
        persp("F", "n:00", [("r", "tails")])  # record does not exist yet
    with pytest.raises(ValueError):
        persp("Wbar", "n:20", [("wbar", "okbar")])  # announcement completes at n:30
    with pytest.raises(ValueError):
        persp("W", "n:30", [("w", "ok")])  # never inside the checkpoint range
    persp("W", "n:20", [("r", "tails")])  # fine: the record exists by then


def test_records_table_is_read_only():
    with pytest.raises(TypeError):
        RECORDS["w"] = ("W", "n:30", ("ok", "fail"))
    with pytest.raises(TypeError):
        del RECORDS["r"]
    assert RECORDS["w"] == ("W", "n:40", ("ok", "fail"))


def test_unitary_global_unconditioned_is_pure_entangled_state():
    rho = assign(persp("Wbar", "n:10"), LBAR_S)
    want = np.outer(entangled_lab_spin_pure(0.0), entangled_lab_spin_pure(0.0).conj())
    assert np.allclose(rho.matrix, want, atol=1e-12)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_collapse_aware_unconditioned_is_mixture():
    rho = assign(persp("Wbar", "n:10", rule=COLLAPSE_AWARE), LBAR_S)
    assert np.allclose(rho.matrix, entangled_lab_spin_mixture(0.0), atol=1e-12)
    assert rho.purity() == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_own_record_tails_gives_pure_lab_state():
    rho = assign(persp("Fbar", "n:20", [("r", "tails")], OWN_RECORD_PURE), LAB_L)
    v = lab_pure_after_tails()
    assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)


def test_collapse_aware_tails_gives_lab_mixture():
    rho = assign(persp("W", "n:20", [("r", "tails")], COLLAPSE_AWARE), LAB_L)
    assert np.allclose(rho.matrix, lab_mixture_after_tails(), atol=1e-12)


def test_spin_premise_pure_under_every_rule():
    for rule in (OWN_RECORD_PURE, UNITARY_GLOBAL, COLLAPSE_AWARE):
        agent = "Fbar" if rule == OWN_RECORD_PURE else "W"
        rho = assign(persp(agent if rule != OWN_RECORD_PURE else "Fbar", "n:10",
                           [("r", "tails")], rule), ("S",), theta=1.3)
        want = pure_density(protocol.SPIN_RIGHT_STATE).matrix
        assert np.allclose(rho.matrix, want, atol=1e-12)


def test_predict_fail_certain_for_own_record():
    p = persp("Fbar", "n:20", [("r", "tails")], OWN_RECORD_PURE)
    assert predict_distribution(p, protocol.W_MEASUREMENT)["ok"] == pytest.approx(0.0, abs=1e-12)
    assert predict_distribution(p, protocol.W_MEASUREMENT)["fail"] == pytest.approx(1.0, abs=1e-12)


def test_predict_half_under_collapse_mixture():
    p = persp("W", "n:20", [("r", "tails")], COLLAPSE_AWARE)
    assert predict_distribution(p, protocol.W_MEASUREMENT)["ok"] == pytest.approx(0.5, abs=1e-12)


def test_predict_conditional_on_announcement():
    p = persp("Wbar", "n:30", [("wbar", "okbar")])
    assert predict_distribution(p, protocol.W_MEASUREMENT)["ok"] == pytest.approx(0.5, abs=1e-12)
    z = record_distribution(p, "z")
    assert z["+1/2"] == pytest.approx(1.0, abs=1e-12)


def test_predict_joint_event_pure_vs_mixture():
    joint = product_spec(protocol.WBAR_MEASUREMENT, protocol.SPIN_MEASUREMENT)
    pure = predict_distribution(persp("Wbar", "n:10"), joint)["okbar&-1/2"]
    mixed = predict_distribution(persp("Wbar", "n:10", rule=COLLAPSE_AWARE), joint)["okbar&-1/2"]
    assert pure == pytest.approx(0.0, abs=1e-12)
    assert mixed == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_predict_distribution_sums_to_one():
    for rule in (UNITARY_GLOBAL, COLLAPSE_AWARE):
        p = persp("Wbar", "n:10", rule=rule)
        dist = predict_distribution(p, protocol.WBAR_MEASUREMENT)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_compare_identical():
    rho = assign(persp("Wbar", "n:10"), LBAR_S)
    res = compare(rho, rho)
    assert res.trace_distance == pytest.approx(0.0, abs=1e-12)
    assert res.fidelity == pytest.approx(1.0, abs=1e-10)


def test_compare_pure_vs_mixture_lab_l():
    rho4 = assign(persp("Fbar", "n:20", [("r", "tails")], OWN_RECORD_PURE), LAB_L)
    rho8 = assign(persp("W", "n:20", [("r", "tails")], COLLAPSE_AWARE), LAB_L)
    res = compare(rho4, rho8)
    assert res.trace_distance == pytest.approx(0.5, abs=1e-10)
    assert res.fidelity == pytest.approx(0.5, abs=1e-10)


def test_compare_entangled_vs_dephased():
    rho5 = assign(persp("Wbar", "n:10"), LBAR_S)
    rho7 = assign(persp("Wbar", "n:10", rule=COLLAPSE_AWARE), LBAR_S)
    res = compare(rho5, rho7)
    # eigenvalues of the difference are +-sqrt(2)/3: the erased coherence block
    assert res.trace_distance == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-10)
    assert res.fidelity == pytest.approx(5.0 / 9.0, abs=1e-10)


def _bridge_cases():
    yield persp("Wbar", "n:10", rule=COLLAPSE_AWARE), LBAR_S, ("R", "Fbar"), ()
    yield persp("W", "n:10", rule=COLLAPSE_AWARE), ("S",), ("R", "Fbar"), ()
    yield persp("W", "n:20", [("r", "tails")], COLLAPSE_AWARE), LAB_L, ("R", "Fbar", "S", "F"), ()
    yield persp("W", "n:20", rule=COLLAPSE_AWARE), LAB_L, ("R", "Fbar", "S", "F"), ()
    yield persp("Wbar", "n:20", [("z", "+1/2")], COLLAPSE_AWARE), ("R", "Fbar"), ("R", "Fbar", "S", "F"), ()
    yield persp("F", "n:20", [("r", "heads")], COLLAPSE_AWARE), LAB_L, ("R", "Fbar", "S", "F"), ()


@pytest.mark.parametrize("theta", [0.0, 0.85, np.pi])
def test_collapse_aware_equals_dephased_unitary(theta):
    # trajectory filtering == projective slicing + dephasing in the pointer
    # bases of every measurement completed by that time
    for collapse_persp, target, pointer_names, _ in _bridge_cases():
        unit_persp = Perspective(
            collapse_persp.agent,
            collapse_persp.time,
            collapse_persp.conditioning,
            AssignmentRule(UNITARY_GLOBAL),
        )
        lhs = assign(collapse_persp, target, theta)
        global_rho = assign(unit_persp, protocol.LAYOUT.names, theta)
        names = [n for n in pointer_names]
        rhs = partial_trace(dephase(global_rho, names), target)
        assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-10), (
            collapse_persp,
            target,
            theta,
        )


def test_no_signaling_at_first_checkpoint():
    # at n:10 only the coin lab has measured; any statistics outside it agree
    # between the full collapse-aware and unitary-global rules
    spin = protocol.SPIN_MEASUREMENT
    d_unitary = predict_distribution(persp("Wbar", "n:10"), spin)
    d_collapse = predict_distribution(persp("Wbar", "n:10", rule=COLLAPSE_AWARE), spin)
    for label in d_unitary:
        assert d_unitary[label] == pytest.approx(d_collapse[label], abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.85, np.pi])
def test_no_signaling_per_lab(theta):
    # whether ONE lab's internal measurement collapsed or stayed unitary is
    # invisible to every measurement on that lab's complement
    cases = (
        ("n:10", ("R", "Fbar"), protocol.SPIN_MEASUREMENT),
        ("n:20", ("R", "Fbar"), protocol.W_MEASUREMENT),
        ("n:20", ("S", "F"), protocol.WBAR_MEASUREMENT),
    )
    for time, lab, spec in cases:
        rho = assign(persp("W", time), protocol.LAYOUT.names, theta)
        d_plain = outcome_distribution(partial_trace(rho, spec.target), spec)
        d_dephased = outcome_distribution(
            partial_trace(dephase(rho, lab), spec.target), spec
        )
        for label in d_plain:
            assert d_plain[label] == pytest.approx(d_dephased[label], abs=1e-10)


def test_not_evaluable_conditioning():
    with pytest.raises(NotEvaluableError):
        assign(persp("F", "n:20", [("r", "heads"), ("z", "+1/2")], COLLAPSE_AWARE), LAB_L)
    with pytest.raises(NotEvaluableError):
        assign(persp("F", "n:20", [("r", "heads"), ("z", "+1/2")]), LAB_L)


def test_assign_rejects_repeated_register():
    for p in (
        persp("W", "n:20", rule=COLLAPSE_AWARE),
        persp("W", "n:20", rule=UNITARY_GLOBAL),
        persp("F", "n:20", [("z", "+1/2")], OWN_RECORD_PURE),
    ):
        with pytest.raises(ValueError, match="named twice"):
            assign(p, ("S", "S"))


def test_phase_survives_slicing_but_not_collapse():
    # conditioned on tails, both rules give phase-independent descriptions of S
    for theta in (0.0, 1.0, np.pi):
        rho_unit = assign(persp("W", "n:10", [("r", "tails")]), ("S",), theta)
        rho_coll = assign(persp("W", "n:10", [("r", "tails")], COLLAPSE_AWARE), ("S",), theta)
        want = pure_density(protocol.SPIN_RIGHT_STATE).matrix
        assert np.allclose(rho_unit.matrix, want, atol=1e-12)
        assert np.allclose(rho_coll.matrix, want, atol=1e-12)


SUBSYSTEM_SETS = (("R", "Fbar"), ("S", "F"), ("R", "Fbar", "S"), ("S",), ("R", "Fbar", "S", "F"))


def _conditionings(time):
    """No conditioning, each single record, and each pair of records that exist at the checkpoint."""
    live = [var for var in ("r", "z", "wbar") if TIMES.index(RECORDS[var][1]) <= TIMES.index(time)]
    singles = [((var, value),) for var in live for value in RECORDS[var][2]]
    pairs = [a + b for a, b in itertools.combinations(singles, 2) if a[0][0] != b[0][0]]
    return [()] + singles + pairs


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi, 2.2])
def test_collapse_aware_matches_trajectory_filtering(theta):
    for steps, time in enumerate(TIMES):
        for cond in _conditionings(time):
            for names in SUBSYSTEM_SETS:
                axes = [protocol.LAYOUT.names.index(n) for n in names]
                want = trajectory_assignment(theta, steps, cond, axes)
                for agent in AGENTS:
                    p = persp(agent, time, cond, COLLAPSE_AWARE)
                    if want is None:
                        with pytest.raises(NotEvaluableError):
                            assign(p, names, theta)
                        continue
                    got = assign(p, names, theta).matrix
                    assert np.max(np.abs(got - want)) <= 1e-12, (agent, time, cond, names)
    leaves = collapse_record_leaves(theta)
    table = protocol.exact_record_distribution(protocol.ProtocolConfig("collapse", theta))
    assert list(table) == list(leaves)
    for key, p in leaves.items():
        assert abs(table[key] - p) <= 1e-15
