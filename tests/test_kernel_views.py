"""Each description is computed once per angle: a kernel keeps its view of the latest angle.

A view holds the live branches, state and Born reads of one description at
one angle.  A θ-dependent kernel keeps the view of the latest angle it was
asked for, keyed by that exact θ as a float (the same value and sign, so
``0.0`` and ``-0.0`` are apart); a θ-free kernel keeps one view, under the key
``None``, for every angle.

* A warm answer, a view hit or a view replaced, is byte for byte the
  answer of a cold kernel after ``_engine.clear()``, over the sweep
  grid and every record read it allows.
* Asking A, then B, then A again gives A's values again.
* ``0.0``, ``-0.0``, ``0`` and ``np.float64`` zeros each answer as a cold
  kernel does.
* Threads sweeping different angles over the same kernels each get their
  own angle's values.
* Memory stays flat over 2,000 fresh angles: each kernel holds one view.
"""

import gc
import sys
import threading
import tracemalloc

import numpy as np

from ewfs.perspectives import (
    RECORD_READOUTS,
    RECORDS,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    record_distribution,
)

import _engine
from _oracles import SWEEP_GRID, default_registers

GRID = [Perspective(agent, time, cond, AssignmentRule(rule)) for agent, time, cond, rule in SWEEP_GRID]


def _bytes(fn, *args):
    """The answer as bytes (a state's matrix, a read's values in order); None if not evaluable."""
    try:
        value = fn(*args)
    except NotEvaluableError:
        return None
    if isinstance(value, dict):
        return tuple((label, float(p).hex()) for label, p in value.items())
    return value.matrix.tobytes()


def _answers(theta):
    """Every grid state and every record read of every grid perspective at θ, as bytes."""
    out = []
    for p in GRID:
        out.append(_bytes(assign, p, default_registers(p.time), theta))
        for var in RECORDS:
            out.append(_bytes(record_distribution, p, var, theta))
    return out


def _cold(theta):
    _engine.clear()
    return _answers(theta)


def test_a_warm_answer_is_a_cold_one_byte_for_byte():
    angles = np.random.default_rng(25).uniform(-50.0, 50.0, 8)
    _answers(0.3)
    for theta in angles:
        replaced = _answers(theta)  # warm kernels, every θ-dependent view replaced
        hit = _answers(theta)  # every view found
        assert replaced == hit == _cold(theta), theta


def test_interleaved_angles_return_each_angle_s_values():
    a, b = 0.9, -2.6
    want_a, want_b = _cold(a), _cold(b)
    assert want_a != want_b
    assert _answers(a) == want_a
    assert _answers(b) == want_b
    assert _answers(a) == want_a
    assert _answers(b) == want_b


def test_zeros_of_every_type_answer_as_a_cold_kernel():
    zeros = (0.0, -0.0, 0, np.float64(0.0), np.float64(-0.0))
    cold = [_cold(theta) for theta in zeros]
    _answers(1.3)
    for order in (zeros, zeros[::-1]):
        for theta in order:
            assert _answers(theta) == cold[zeros.index(theta)], repr(theta)


def test_threads_sweeping_different_angles_get_their_own_values():
    # Three threads, each sweeping its own angles over the same kernels.
    mine = ([0.3, 1.1, -2.0], [0.31, 4.0, -7.5], [2.2, -0.4, 9.0])
    want = {theta: _cold(theta) for angles in mine for theta in angles}
    wrong, barrier = [], threading.Barrier(len(mine))

    def sweep(angles):
        try:
            barrier.wait(timeout=30)
            for _ in range(10):
                for theta in angles:
                    if _answers(theta) != want[theta]:
                        wrong.append(theta)
        except Exception as exc:  # reported below, not lost in the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-call
    try:
        threads = [threading.Thread(target=sweep, args=(angles,)) for angles in mine]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _theta_dependent_calls():
    """One grid assignment or record read per θ-dependent kernel and spec: what keeps a view."""
    calls = {}
    for p in GRID:
        for var, names in [(None, default_registers(p.time))] + [
            (var, RECORD_READOUTS[var].target) for var in RECORDS
        ]:
            if not _engine.theta_free(p, names):
                calls.setdefault((id(_engine.kernel(p, names)), var), (p, var, names))
    return list(calls.values())


# Measured: over the 2,000 angles the traced memory grows by 5–14 KiB
# (tracemalloc, Python 3.11.7, numpy 2.4.6), and no further past ~2,500
# angles: allocator free lists filling up.  One view kept per angle would add
# megabytes.
GROWTH_BOUND = 64 * 1024


def test_memory_stays_flat_over_fresh_angles():
    calls = _theta_dependent_calls()
    assert len(calls) == 22

    def sweep(theta):
        for p, var, names in calls:
            try:
                assign(p, names, theta) if var is None else record_distribution(p, var, theta)
            except NotEvaluableError:
                pass

    angles = np.random.default_rng(26).uniform(-1e3, 1e3, 2_100)
    tracemalloc.start()
    try:
        for theta in angles[:100]:
            sweep(theta)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for theta in angles[100:]:
            sweep(theta)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown <= GROWTH_BOUND, grown
