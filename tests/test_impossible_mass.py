"""Every "impossible" threshold decides at exactly ``IMPOSSIBLE_MASS``.

A mass of exactly ``IMPOSSIBLE_MASS`` is possible for ``certain``'s
leftover (it is at most the threshold), impossible for ``nonzero`` (it does
not exceed it), and live for a branch (its weight reaches it).  Each test
feeds that exact mass, so flipping one comparison to its strict or lax
twin fails it.
"""

import numpy as np

from ewfs.perspectives import _contract
from ewfs.qcore import IMPOSSIBLE_MASS
from ewfs.reasoning import FAILS, HOLDS, NONZERO, _certain, _status


def test_the_threshold_is_a_binary64_square():
    # a branch amplitude of 1e-6 weighs exactly the threshold
    assert 1e-6 ** 2 == abs(1e-6 + 0j) ** 2 == IMPOSSIBLE_MASS == 1e-12


def test_certain_holds_when_the_other_values_carry_exactly_the_threshold():
    assert _certain({"a": 1.0 - IMPOSSIBLE_MASS, "b": IMPOSSIBLE_MASS}, "a")
    assert not _certain({"a": 1.0 - 2 * IMPOSSIBLE_MASS, "b": 2 * IMPOSSIBLE_MASS}, "a")


def test_nonzero_fails_at_exactly_the_threshold():
    assert _status(NONZERO, {"a": IMPOSSIBLE_MASS, "b": 1.0 - IMPOSSIBLE_MASS}, "a") == FAILS
    assert _status(NONZERO, {"a": 2 * IMPOSSIBLE_MASS, "b": 1.0 - 2 * IMPOSSIBLE_MASS}, "a") == HOLDS


def test_a_branch_of_exactly_the_threshold_stays_live():
    # branches (heads, tails) x (branch, kept 1, rest 1); the coin starts in heads
    m = np.zeros((2, 3, 1, 1), dtype=np.complex128)
    m[0, :, 0, 0] = (1e-6, 1.0, 0.0)
    amplitudes = np.array([1.0, 0.0], dtype=np.complex128)
    # a dead branch beside it: the mask decides, and keeps the one at the threshold
    psi, total = _contract(m, amplitudes)
    assert psi[:, 0, 0].tolist() == [1e-6, 1.0]
    assert total == 1.0 + IMPOSSIBLE_MASS
    # no dead branch: every branch is kept as it is
    psi, total = _contract(m[:, :2], amplitudes)
    assert psi[:, 0, 0].tolist() == [1e-6, 1.0]
