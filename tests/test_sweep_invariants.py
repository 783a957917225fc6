"""Exact invariants of a θ sweep: the audit verdicts and the assigned purities.

The fractions are the paper's closed forms, written here and not read from
the package: the halting witness is 1/12, only ``fr-mixed`` contradicts and
only at multiples of 2π, and each assigned state's purity depends on the
rule and checkpoint alone.  Every state the sweep assigns is Gram-built:
it runs the shape, Hermitian and trace checks and is positive by
construction, so it needs no eigendecomposition.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ewfs import perspectives, qcore
from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.protocol import ProtocolConfig, exact_joint
from ewfs.reasoning import RULESET_NAMES, audit

import _engine
from _oracles import SWEEP_GRID, default_registers

PURITY = {
    ("collapse-aware", "n:00"): Fraction(1),
    ("collapse-aware", "n:10"): Fraction(5, 9),
    ("collapse-aware", "n:20"): Fraction(5, 9),
    ("collapse-aware", "n:30"): Fraction(5, 9),
    ("unitary-global", "n:00"): Fraction(1),
    ("unitary-global", "n:10"): Fraction(1),
    ("unitary-global", "n:20"): Fraction(7, 9),
    ("unitary-global", "n:30"): Fraction(7, 9),
}
HALT = Fraction(1, 12)

MULTIPLES_OF_2PI = [2 * np.pi * k for k in range(4)]
GENERIC = list(np.random.default_rng(20).uniform(-50.0, 50.0, 20))


def test_generic_angles_are_away_from_multiples_of_2pi():
    assert len(SWEEP_GRID) == 44
    assert min(abs(math.remainder(t, 2 * np.pi)) for t in GENERIC) > 1e-3


@pytest.mark.parametrize("theta", MULTIPLES_OF_2PI)
def test_fr_mixed_contradicts_at_multiples_of_2pi(theta):
    report = audit("fr-mixed", theta)
    assert report.contradiction
    assert abs(report.witness - float(HALT)) <= 1e-12
    assert not audit("all-collapse", theta).contradiction
    assert not audit("all-unitary", theta).contradiction


def test_no_rule_set_contradicts_at_generic_angles():
    for theta in GENERIC:
        for name in ("fr-mixed", "all-collapse", "all-unitary"):
            assert not audit(name, theta).contradiction, (name, theta)


def test_grid_purities_follow_rule_and_checkpoint():
    for theta in MULTIPLES_OF_2PI + GENERIC:
        for agent, time, cond, rule in SWEEP_GRID:
            p = Perspective(agent, time, cond, AssignmentRule(rule))
            rho = assign(p, default_registers(time), theta)
            want = Fraction(1) if rule == "own-record-pure" else PURITY[(rule, time)]
            assert abs(rho.purity() - float(want)) <= 1e-9, (agent, time, cond, rule, theta)


def _sweep_op(theta):
    """The benchmark's θ-sweep op: both exact joints, the three audits, the assignment grid."""
    for semantics in ("collapse", "unitary"):
        exact_joint(ProtocolConfig(semantics=semantics, theta=theta))
    for name in RULESET_NAMES:
        audit(name, theta)
    for agent, time, cond, rule in SWEEP_GRID:
        assign(Perspective(agent, time, cond, AssignmentRule(rule)), default_registers(time), theta)


def test_every_density_matrix_runs_its_checks_on_the_sweep(monkeypatch):
    angles = MULTIPLES_OF_2PI + GENERIC
    for theta in angles:  # warm-up: every θ-free value is built by now
        _sweep_op(theta)
    seen = _engine.calls(monkeypatch, np.linalg, "eigvalsh")
    _engine.calls(monkeypatch, qcore.DensityMatrix, "__post_init__", key="public", into=seen)
    _engine.calls(monkeypatch, qcore.DensityMatrix, "_gram", key="gram", into=seen)
    _engine.calls(monkeypatch, qcore, "_check_hermitian_unit_trace", key="checks", into=seen)
    counts = seen.counts
    for theta in angles:
        _sweep_op(theta)
    # Every assignment is Gram-built: shape, Hermitian and trace checked, no
    # eigendecomposition.  A θ-free state was built and checked with its
    # kernel, during the warm-up; the 14 θ-dependent assignments share 4
    # distinct states, each built once per angle.
    theta_dependent = [
        (agent, time, cond, rule)
        for agent, time, cond, rule in SWEEP_GRID
        if not _engine.theta_free(Perspective(agent, time, cond, rule), default_registers(time))
    ]
    assert len(theta_dependent) == 14
    assert counts["gram"] == 4 * len(angles)
    assert counts["checks"] == counts["gram"]
    assert counts["eigvalsh"] == 0
    assert counts["public"] == 0


def test_a_warm_sweep_op_reads_and_builds_only_what_depends_on_theta(monkeypatch):
    # After warm-up a θ-free Born read, state and purity are all kept: one
    # op makes the 2 distinct θ-dependent Born reads of its 12, builds the 4
    # distinct θ-dependent grid states and computes the purity of those 4 only.
    angles = MULTIPLES_OF_2PI + GENERIC
    for theta in angles:
        _sweep_op(theta)
    seen = _engine.calls(monkeypatch, perspectives, "born_distribution", key="born")
    _engine.calls(monkeypatch, qcore.DensityMatrix, "_gram", key="gram", into=seen)
    _engine.calls(monkeypatch, np, "vdot", key="purity", into=seen)
    counts = seen.counts
    for theta in angles:
        counts.clear()
        for semantics in ("collapse", "unitary"):
            exact_joint(ProtocolConfig(semantics=semantics, theta=theta))
        for name in RULESET_NAMES:
            audit(name, theta)
        for agent, time, cond, rule in SWEEP_GRID:
            rho = assign(Perspective(agent, time, cond, AssignmentRule(rule)), default_registers(time), theta)
            assert rho.purity() == rho.purity()
        assert counts == {"born": 2, "gram": 4, "purity": 4}, theta
