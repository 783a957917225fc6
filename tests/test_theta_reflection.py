"""θ ↦ −θ is an exact symmetry, pinned bit for bit: relations that hold on every host.

The checkpoint branches (``protocol._BRANCHES``) and every observer and
readout basis are real, so negating θ conjugates the coin amplitude and,
with it, exactly, every amplitude computed from it.  Every probability is a
squared modulus of such amplitudes, so it is the same bytes at θ and −θ,
and every assigned state at −θ is the conjugate of the one at θ.  A hash
pin holds on one numeric configuration; these relations hold on any.

* Library: both exact joints, both record tables, every audit's statuses,
  values and witness, and every sweep-grid purity are the same bytes at θ
  and −θ; each assigned matrix equals the conjugate of the other.
* CLI: at every ``cli_digest.THETAS`` angle, the ``exact``, ``audit`` and
  ``mc`` payloads at −θ are those at θ but for the echoed ``theta``, and
  each ``perspectives --json`` matrix is the conjugate of the other, as
  numbers, with every other field the same bytes.
"""

import json
import math
import os
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import protocol, reasoning
from ewfs.perspectives import NotEvaluableError, Perspective, assign

import cli_digest
from _oracles import SWEEP_GRID, default_registers


def _values(theta):
    """(what must be the same bytes at θ and −θ, the assigned matrices) at one angle."""
    same, matrices = [], []
    for semantics in ("collapse", "unitary"):
        config = protocol.ProtocolConfig(semantics, theta)
        same.append(repr(list(protocol.exact_joint(config).entries.items())))
        same.append(repr(list(protocol.exact_record_distribution(config).items())))
    for name in reasoning.RULESET_NAMES:
        same.append(repr(reasoning.audit(name, theta)))
    for agent, time, cond, rule in SWEEP_GRID:
        try:
            rho = assign(Perspective(agent, time, cond, rule), default_registers(time), theta)
        except NotEvaluableError as exc:
            same.append(repr(exc))
            matrices.append(None)
        else:
            same.append(repr(rho.purity()))
            matrices.append(rho.matrix)
    return same, matrices


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@example(0.0)
@example(-0.0)
@example(math.pi)
@example(1e6)
@example(1e-5)
def test_negating_theta_conjugates_every_state_and_moves_no_probability(theta):
    same, matrices = _values(theta)
    mirrored_same, mirrored = _values(-theta)
    assert mirrored_same == same
    for rho, mirror in zip(matrices, mirrored):
        assert (rho is None) == (mirror is None)
        assert rho is None or np.array_equal(mirror, rho.conj())


def _negated(theta: str) -> str:
    return theta[1:] if theta.startswith("-") else "-" + theta


@mock.patch.dict(os.environ, {"COLUMNS": "10000"})  # usage lines as ``cli_digest.recorded`` prints them
def test_the_cli_at_minus_theta_prints_the_payloads_at_theta():
    for theta in cli_digest.THETAS:
        runs = cli_digest.recorded(theta)
        for argv in cli_digest.grid(theta) + cli_digest.mc_grid(theta):
            assert argv[-2:] == ["--theta", theta]
            code, out, err = runs[(*argv, "--json")]
            mirror_code, mirror_out, mirror_err = cli_digest.run(
                argv[:-2] + [f"--theta={_negated(theta)}", "--json"]
            )
            assert (mirror_code, mirror_err) == (code, err), argv
            if code != 0:
                assert mirror_out == out, argv
                continue
            payload, mirror = json.loads(out), json.loads(mirror_out)
            assert repr(mirror.pop("theta")) == repr(-payload.pop("theta"))
            if payload["command"] == "perspectives":
                matrix, mirror_matrix = payload.pop("matrix"), mirror.pop("matrix")
                assert np.array_equal(mirror_matrix["real"], matrix["real"]), argv
                assert np.array_equal(mirror_matrix["imag"], -np.array(matrix["imag"])), argv
            assert json.dumps(mirror) == json.dumps(payload), argv
