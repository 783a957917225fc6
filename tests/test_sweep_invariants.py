"""Exact invariants of a θ sweep: the audit verdicts and the assigned purities.

The fractions are the paper's closed forms, written here and not read from
the package: the halting witness is 1/12, only ``fr-mixed`` contradicts and
only at multiples of 2π, and each assigned state's purity depends on the
rule and checkpoint alone.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.reasoning import audit

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
