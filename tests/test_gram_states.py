"""Assigned states are Gram-built: positive by construction, checked for the rest.

``assign`` builds each state as ``rows @ rows† / total`` through the private
``DensityMatrix._gram``, which runs the shape, Hermitian and trace checks
but no eigendecomposition.  These tests give back the skipped check as
evidence: on the sweep grid and on every ``perspectives`` run of the digest
grid, the assigned matrix passes the public constructor's full check, its
smallest eigenvalue is at least -1e-14 (four orders inside
``DEFAULT_ATOL``), and it is read-only.
"""

import re

import numpy as np
import pytest

from ewfs import perspectives
from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.qcore import DensityMatrix, SpaceLayout

import _engine
from _oracles import SWEEP_GRID, default_registers
from cli_digest import THETAS, grid, run
from test_sweep_invariants import GENERIC, MULTIPLES_OF_2PI

MARGIN = 1e-14


def _check_assigned(rho):
    assert isinstance(rho, DensityMatrix)
    assert rho.matrix.flags.writeable is False
    DensityMatrix(rho.layout, rho.matrix)  # the public check, eigvalsh included
    mat = rho.matrix
    assert np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min() >= -MARGIN


def test_sweep_grid_states_pass_the_full_check():
    for theta in MULTIPLES_OF_2PI + GENERIC:
        for agent, time, cond, rule in SWEEP_GRID:
            p = Perspective(agent, time, cond, AssignmentRule(rule))
            _check_assigned(assign(p, default_registers(time), theta))


@pytest.mark.parametrize("theta", THETAS)
def test_cli_perspectives_states_pass_the_full_check(theta, monkeypatch):
    # A θ-free state is built once, with its kernel, so the check is on what
    # ``assign`` returns to the CLI, built now or earlier.
    assigned = _engine.calls(monkeypatch, perspectives, "assign", record=True)
    ok = sum(run(argv)[0] == 0 for argv in grid(theta) if argv[0] == "perspectives")
    assert ok > 0
    built = [rho for _, rho in assigned.records]
    assert len(built) == ok  # one assigned state per command that succeeds
    for rho in built:
        _check_assigned(rho)


def test_gram_path_keeps_the_shape_and_trace_checks():
    rows = np.array([[0.6, 0.0], [0.0, 0.8j]])
    rho = DensityMatrix._gram(SpaceLayout((("A", 2),)), rows, 1.0)
    assert rho.matrix.dtype == np.complex128
    assert np.array_equal(rho.matrix, rows @ rows.conj().T / 1.0)
    with pytest.raises(ValueError, match=re.escape("density matrix has shape (2, 2), layout expects (3, 3)")):
        DensityMatrix._gram(SpaceLayout((("A", 3),)), rows, 1.0)
    with pytest.raises(ValueError, match=re.escape("density matrix trace is (0.5+0j), expected 1")):
        DensityMatrix._gram(SpaceLayout((("A", 2),)), rows, 2.0)
