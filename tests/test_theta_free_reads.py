"""θ-free Born reads and states are computed once, on first use, and never served stale.

A θ-free kernel's one view keeps each spec's Born read in ``reads``, weakly
keyed by the spec, and builds its state on the first ``assign``.

* Every call returns a fresh dict: mutating one changes no later read.
* ``_engine.clear()`` takes the reads with the kernels: every
  perspective read again matches the per-angle oracles.
* Over the full 1,200-key enumeration a kernel holds at most one read per
  spec, a θ-dependent one none, and a spec the caller drops leaves.
* Reading predictions builds no state; the first ``assign`` does.
"""

import gc
import itertools
from collections import Counter
from functools import reduce

import pytest

from ewfs import protocol, qcore
from ewfs.measurement import pointer_readout_spec
from ewfs.perspectives import (
    RECORD_READOUTS,
    RECORDS,
    Perspective,
    assign,
    predict_distribution,
    record_distribution,
)

import _engine
import test_theta_free
from _oracles import product_spec
from test_assignment_kernels import PERSPECTIVES
from test_theta_free import _cases, _outcome


def _register_spec(name):
    dim = protocol.LAYOUT.dim(name)
    return pointer_readout_spec(protocol.LAYOUT, name, tuple(f"{name}{i}" for i in range(dim)))


# One computational-basis spec per non-empty register set, targets in declaration order.
SUBSET_SPECS = tuple(
    reduce(product_spec, map(_register_spec, names))
    for k in range(1, 5)
    for names in itertools.combinations(protocol.LAYOUT.names, k)
)


def _theta_free_reads():
    """(perspective, record) pairs whose record read is θ-free and evaluable."""
    return [
        (p, var)
        for p in PERSPECTIVES
        for var in RECORDS
        if _engine.theta_free(p, RECORD_READOUTS[var].target)
        and _outcome(record_distribution, p, var, 0.0) is not None
    ]


def test_mutating_a_returned_read_changes_no_later_read():
    pairs = _theta_free_reads()
    assert len(pairs) > 100
    for p, var in pairs:
        want = repr(record_distribution(p, var, 0.7))
        spec = RECORD_READOUTS[var]
        raw = repr(predict_distribution(p, spec, 0.7))
        for dist in (record_distribution(p, var, -1.0), predict_distribution(p, spec, 2.0)):
            first = next(iter(dist))
            dist[first] = 2.0
            dist["junk"] = 1.0
        assert record_distribution(p, var, 1e6) is not record_distribution(p, var, 1e6)
        assert repr(record_distribution(p, var, 3.0)) == want, (p, var)
        assert repr(predict_distribution(p, spec, 3.0)) == raw, (p, var)


def test_cache_clear_leaves_no_stale_read_or_state():
    for p, names in _cases():  # fill every kernel's reads and state
        _outcome(assign, p, names, 0.0)
    for p in PERSPECTIVES:
        for var in RECORDS:
            _outcome(record_distribution, p, var, 0.0)
    p, var = _theta_free_reads()[0]
    names = RECORD_READOUTS[var].target
    old = _engine.kernel(p, names)
    assert len(_engine.kept_reads(p, names)) >= 1
    _engine.clear()
    assert _engine.kernel(p, names) is not old and len(_engine.kept_reads(p, names)) == 0
    assert _engine.kernel_count() == 1
    for theta in (0.7, 2.0):  # the per-angle oracle comparison, on fresh kernels
        test_theta_free.test_states_match_the_per_angle_contraction.hypothesis.inner_test(theta=theta)


def test_at_most_one_read_per_kernel_and_spec_over_every_key():
    # Every valid perspective, every order of its conditioning and every
    # register set: the 1,200 kernel keys of ``test_kernel_cache_is_keyed_canonically``.
    assert len(SUBSET_SPECS) == 15
    _engine.clear()
    kernels, free = {}, set()  # kernel id -> a (perspective, registers) that reads it
    for theta in (0.3, -2.0):
        for p in PERSPECTIVES:
            for cond in itertools.permutations(p.conditioning):
                q = Perspective(p.agent, p.time, cond, p.rule)
                for spec in SUBSET_SPECS:
                    k = id(_engine.kernel(q, spec.target))
                    kernels.setdefault(k, (q, spec.target))
                    evaluable = _outcome(predict_distribution, q, spec, theta) is not None
                    if evaluable and _engine.theta_free(q, spec.target):
                        free.add(k)
        assert _engine.kernel_count() == 1_200
        assert len(kernels) == 1_200
        sizes = Counter(len(_engine.kept_reads(*key)) for key in kernels.values())
        assert sizes == Counter({1: len(free), 0: 1_200 - len(free)})
        assert all(len(_engine.kept_reads(*kernels[k])) == 1 for k in free)
    assert 0 < len(free) < 1_200


def test_a_dropped_spec_leaves_the_reads():
    p = Perspective("W", "n:30", (), "collapse-aware")
    assert _engine.theta_free(p, ("R",))
    before = len(_engine.kept_reads(p, ("R",)))
    spec = _register_spec("R")
    want = predict_distribution(p, spec, 0.5)
    assert len(_engine.kept_reads(p, ("R",))) == before + 1
    assert predict_distribution(p, spec, 1.5) == want
    del spec
    gc.collect()
    assert len(_engine.kept_reads(p, ("R",))) == before


def test_a_wrong_target_is_refused_at_every_read():
    # The target check runs with the first read, and nothing is kept when it
    # fails: a spec on a three-level R, and one listing S before R.
    p = Perspective("W", "n:30", (), "collapse-aware")
    three_level = pointer_readout_spec(qcore.SpaceLayout((("R", 3),)), "R", ("a", "b", "c"))
    reversed_order = product_spec(_register_spec("S"), _register_spec("R"))
    for spec, names in ((three_level, ("R",)), (reversed_order, ("R", "S"))):
        assert _engine.theta_free(p, names)
        before = len(_engine.kept_reads(p, names))
        for theta in (0.5, 1.5):
            with pytest.raises(ValueError, match="measurement targets"):
                predict_distribution(p, spec, theta)
        assert len(_engine.kept_reads(p, names)) == before


def test_predictions_build_no_state_and_the_first_assign_builds_it(monkeypatch):
    _engine.clear()
    grams = _engine.calls(monkeypatch, qcore.DensityMatrix, "_gram", record=True)
    pairs = []
    for p in PERSPECTIVES:
        for var in RECORDS:
            if _outcome(record_distribution, p, var, 0.4) is not None:
                pairs.append((p, RECORD_READOUTS[var].target))
    assert not grams.counts
    free = [(p, names) for p, names in pairs if _engine.theta_free(p, names)]
    assert free
    states = {}
    for p, names in free:
        rho = assign(p, names, 0.9)
        assert rho is _engine.free_state(p, names)
        states[id(rho)] = rho
    # One build per θ-free kernel, none at a later angle.
    assert {id(rho) for _, rho in grams.records} == set(states)
    for p, names in free:
        assign(p, names, -0.2)
    assert grams.counts["_gram"] == len(states)
