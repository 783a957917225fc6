"""One Born rule: every outcome distribution is read off a spec's basis matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewfs import protocol, qcore
from ewfs.measurement import MeasurementSpec, outcome_distribution, pointer_readout_spec
from ewfs.perspectives import (
    RECORDS,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    predict_distribution,
    record_distribution,
)
from ewfs.qcore import DensityMatrix, StateVector, pure_density

from _oracles import SWEEP_GRID, project_component

LAYOUT = protocol.LAYOUT
TARGETS = (("S", "F"), ("Fbar",), ("R", "Fbar"), ("F",))
SUB_LAYOUTS = (("R", "Fbar", "S", "F"), ("R", "Fbar", "S"), ("Fbar", "S", "F"), ("S", "F"),
               ("R", "Fbar"), ("Fbar",), ("F",))
# A listed basis that spans its target, and one that the spec completes.
LISTED_SPECS = {
    ("S", "F"): protocol.w_measurement,
    ("Fbar",): lambda: pointer_readout_spec(LAYOUT, "Fbar"),
    ("R", "Fbar"): protocol.wbar_measurement,
    ("F",): lambda: pointer_readout_spec(LAYOUT, "F"),
}
PROTOCOL_SPECS = (
    protocol.coin_measurement,
    protocol.spin_measurement,
    protocol.wbar_measurement,
    protocol.w_measurement,
)


def _random_ket(layout, rng):
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, v / np.linalg.norm(v))


def _random_spec(target, listed, rng):
    """The first ``listed`` columns of a random unitary on the target registers."""
    sub = LAYOUT.sub(target)
    d = sub.total_dim
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return MeasurementSpec(target, tuple((f"v{i}", StateVector(sub, q[:, i])) for i in range(listed)))


def _oracle(ket, spec):
    return {label: project_component(ket, spec.target, vec.amplitudes)[0] for label, vec in spec.outcomes}


def _assert_close(got, want, tol=1e-12):
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= tol, (got, want)


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    names=st.sampled_from(SUB_LAYOUTS),
    listed=st.integers(0, 6),
    weight=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ket_density_and_projection_agree(target, names, listed, weight, seed):
    if not set(target) <= set(names):
        names = tuple(n for n in LAYOUT.names if n in set(names) | set(target))
    layout = LAYOUT.sub(names)
    rng = np.random.default_rng(seed)
    d = LAYOUT.sub(target).total_dim
    spec = LISTED_SPECS[target]() if listed == 0 else _random_spec(target, min(listed, d), rng)
    assert len(spec.outcomes) == d
    ket, other = _random_ket(layout, rng), _random_ket(layout, rng)
    want = _oracle(ket, spec)
    _assert_close(outcome_distribution(ket, spec), want)
    _assert_close(outcome_distribution(pure_density(ket), spec), want)
    mixed = DensityMatrix(
        layout,
        weight * pure_density(ket).matrix + (1.0 - weight) * pure_density(other).matrix,
    )
    want_other = _oracle(other, spec)
    _assert_close(
        outcome_distribution(mixed, spec),
        {k: weight * want[k] + (1.0 - weight) * want_other[k] for k in want},
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotEvaluableError:
        return None


# The sweep grid plus a conditioning that the global description cannot
# evaluate near θ = 0 mod 2π (its okbar weight is (1 - cos θ)/3).
PREDICT_PERSPECTIVES = [
    Perspective(agent, time, cond, AssignmentRule(rule)) for agent, time, cond, rule in SWEEP_GRID
] + [
    Perspective("Wbar", "n:30", (("z", "-1/2"), ("wbar", "okbar")), AssignmentRule(rule))
    for rule in ("unitary-global", "collapse-aware")
]
PREDICT_ANGLES = (0.0, 1e-7, 1e-5, 0.3, 1.0, np.pi / 2, 2.0, np.pi, -2.5, 2 * np.pi, 13.7,
                  6 * np.pi + 1e-5)


def test_predict_distribution_is_the_born_rule_on_the_assigned_state():
    not_evaluable = 0
    for theta in PREDICT_ANGLES:
        for p in PREDICT_PERSPECTIVES:
            for build in PROTOCOL_SPECS:
                spec = build()
                rho = _outcome(assign, p, spec.target, theta)
                got = _outcome(predict_distribution, p, spec, theta)
                assert (rho is None) == (got is None), (p, spec.target, theta)
                if rho is None:
                    not_evaluable += 1
                else:
                    _assert_close(got, outcome_distribution(rho, spec))
    # The unitary-global zero at θ = 0, 1e-7 and 2π, for each spec.
    assert not_evaluable == 3 * len(PROTOCOL_SPECS)


def test_predict_distribution_checks_the_target_order():
    p = Perspective("W", "n:20")
    reordered = qcore.SpaceLayout((("F", 3), ("S", 2)))
    outcomes = tuple(
        (label, StateVector(reordered, vec.amplitudes.reshape(2, 3).T.reshape(-1)))
        for label, vec in protocol.w_measurement().outcomes
    )
    with pytest.raises(ValueError, match="measurement targets"):
        predict_distribution(p, MeasurementSpec(("F", "S"), outcomes))


def test_spec_basis_is_read_only_and_built_once():
    okbar = dict(protocol.wbar_measurement().outcomes)["okbar"]
    specs = [build() for build in PROTOCOL_SPECS] + [
        pointer_readout_spec(LAYOUT, "F"),
        MeasurementSpec(("R", "Fbar"), (("okbar", okbar),)),
    ]
    for spec in specs:
        assert spec.basis is spec.basis
        assert spec.basis.flags.writeable is False
        with pytest.raises(ValueError):
            spec.basis[0, 0] = 0.0
        rows = np.array([vec.amplitudes for _, vec in spec.outcomes])
        assert np.array_equal(spec.basis, rows)
        assert spec.basis.shape == (spec.target_layout.total_dim,) * 2


def _predict_grid(theta):
    for agent, time, cond, rule in SWEEP_GRID:
        p = Perspective(agent, time, cond, AssignmentRule(rule))
        for build in PROTOCOL_SPECS:
            predict_distribution(p, build(), theta)
        for var in RECORDS:
            _outcome(record_distribution, p, var, theta)


def test_predictions_build_no_density_matrix_or_layout(monkeypatch):
    _predict_grid(0.3)
    built = []
    for cls in (qcore.DensityMatrix, qcore.SpaceLayout):
        validate = cls.__post_init__

        def counted(self, validate=validate):
            built.append(type(self).__name__)
            validate(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for theta in np.random.default_rng(8).uniform(-20.0, 20.0, 20):
        _predict_grid(theta)
    assert built == []
