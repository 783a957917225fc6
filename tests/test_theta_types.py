"""θ enters the arithmetic as a Python float, whatever real number type it is given.

``ProtocolConfig`` stores ``float(theta)`` and ``perspectives`` converts θ
the same way, each after its finiteness check.  So a numpy ``float32`` θ is
not carried into single precision (``1j * float32`` is ``complex64``), and
an ``int``, a ``Fraction`` or a numpy ``float64`` gives what ``float(θ)``
gives, byte for byte.  Every memo is emptied before each side, so each side
does its own arithmetic.  A ``str`` or complex θ is refused with
``TypeError``, as ``math.isfinite`` refuses it.
"""

from fractions import Fraction

import numpy as np
import pytest

from ewfs import perspectives, protocol, reasoning
from ewfs.perspectives import NotEvaluableError, Perspective, assign

import _engine
from _oracles import SWEEP_GRID, default_registers


def _bytes(theta):
    """Every value the sweep op sets at ``theta``, as bytes, computed with every memo emptied first."""
    _engine.clear()
    out = []
    for semantics in ("collapse", "unitary"):
        config = protocol.ProtocolConfig(semantics, theta)
        out.append(repr(sorted(protocol.exact_joint(config).entries.items())))
        out.append(repr(list(protocol.exact_record_distribution(config).items())))
    for name in reasoning.RULESET_NAMES:
        out.append(repr(reasoning.audit(name, theta)))
    for agent, time, cond, rule in SWEEP_GRID:
        try:
            rho = assign(Perspective(agent, time, cond, rule), default_registers(time), theta)
        except NotEvaluableError as exc:
            out.append(repr(exc))
        else:
            out.append(rho.matrix.tobytes() + repr(rho.purity()).encode())
    return out


@pytest.mark.parametrize(
    "theta", [np.float32(0.7), np.float64(0.7), 1, Fraction(1, 2), np.float32(-2.2)], ids=repr
)
def test_a_real_theta_of_any_type_gives_the_bytes_of_its_float(theta):
    want = _bytes(float(theta))
    assert _bytes(theta) == want
    assert type(protocol.ProtocolConfig("unitary", theta).theta) is float


def test_a_float32_theta_gives_a_unitary_joint_that_sums_to_one():
    joint = protocol.exact_joint(protocol.ProtocolConfig("unitary", np.float32(0.7)))
    assert abs(sum(joint.entries.values()) - 1.0) <= 1e-15


@pytest.mark.parametrize("theta", ["0.7", 0.7 + 0j], ids=repr)
def test_a_str_or_complex_theta_is_refused_with_type_error(theta):
    p = Perspective("W", "n:30", (("wbar", "okbar"),), "unitary-global")
    with pytest.raises(TypeError):
        protocol.ProtocolConfig("unitary", theta)
    with pytest.raises(TypeError):
        assign(p, ("S", "F"), theta)
    with pytest.raises(TypeError):
        perspectives.record_distribution(p, "w", theta)
    for name in reasoning.RULESET_NAMES:
        with pytest.raises(TypeError):
            reasoning.audit(name, theta)
