import dataclasses
import re

import numpy as np
import pytest

from ewfs import cli, measurement, perspectives, protocol, reasoning
from ewfs.measurement import (
    OTHER,
    DilationSpec,
    MeasurementSpec,
    born_distribution,
    build_dilation,
    pointer_readout_spec,
)
from ewfs.qcore import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
)

import _engine
from _oracles import (
    coin_state,
    collapse_trajectories,
    distributions_match,
    entangled_lab_spin_mixture,
    initial_state,
    lab_basis_rows,
    lab_l_state_from_right_spin,
    lab_lbar_spin_state,
    lab_mixture_after_tails,
    outcome_distribution,
    pointer_labels,
    product_spec,
    project_component,
    tensor,
    tensor_all,
)


def test_complete_single_vector_to_full_basis():
    okbar = dict(protocol.WBAR_MEASUREMENT.outcomes)["okbar"]
    spec = MeasurementSpec(("R", "Fbar"), (("okbar", okbar),))
    done = spec
    assert len(done.outcomes) == 6
    assert done.outcomes[0][0] == "okbar"
    rows = np.array([v.amplitudes for _, v in done.outcomes])
    assert np.allclose(rows.conj() @ rows.T, np.eye(6), atol=1e-10)


def test_protocol_bases_equal_raw_numpy_rows_bit_for_bit():
    # exact equality, no tolerance: a rebuilt basis that moves one float by an ulp fails
    assert np.array_equal(protocol.COIN_MEASUREMENT.basis, np.eye(2))
    assert np.array_equal(protocol.SPIN_MEASUREMENT.basis, np.eye(2))
    for spec in (protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT):
        assert np.array_equal(spec.basis[:2], lab_basis_rows())
    assert protocol.COIN_MEASUREMENT.labels == ("heads", "tails")
    assert protocol.SPIN_MEASUREMENT.labels == ("-1/2", "+1/2")
    assert protocol.WBAR_MEASUREMENT.labels[:2] == ("okbar", "failbar")
    assert protocol.W_MEASUREMENT.labels[:2] == ("ok", "fail")


def test_complete_already_complete_is_identity():
    # a spanning list gets no other rows: the spec holds exactly what was listed
    listed = pointer_readout_spec(protocol.LAYOUT, "R", ("heads", "tails")).outcomes
    spec = MeasurementSpec(("R",), listed)
    assert spec.labels == ("heads", "tails")
    assert all(a[1] is b[1] for a, b in zip(spec.outcomes, listed))


def test_completion_of_observer_basis():
    done = protocol.WBAR_MEASUREMENT
    assert done.labels == ("okbar", "failbar") + ("other",) * 4
    # the added vectors are orthogonal to the span of the two lab pointers
    lab = protocol.LAYOUT.sub(("R", "Fbar"))
    for _, vec in done.outcomes[2:]:
        for pointer in (basis_state(lab, (0, 1)), basis_state(lab, (1, 2))):
            assert abs(np.vdot(pointer.amplitudes, vec.amplitudes)) < 1e-12
    # deterministic: same input gives the same completion
    again = protocol._lab_basis(("R", "Fbar"), "okbar", "failbar")
    assert all(
        np.array_equal(a[1].amplitudes, b[1].amplitudes)
        for a, b in zip(done.outcomes, again.outcomes)
    )


def test_complete_basis_rejects_non_orthonormal_input():
    sub = protocol.LAYOUT.sub(("S",))
    good = basis_state(sub, (0,))
    with pytest.raises(ValueError):
        MeasurementSpec(("S",), (("a", good), ("b", good)))


def test_measure_coin_statistics():
    state = tensor_all(
        coin_state(0.0),
        basis_state(protocol.LAYOUT.sub(("Fbar",)), (0,)),
    )
    dist = outcome_distribution(state, protocol.COIN_MEASUREMENT)
    assert dist["heads"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist["tails"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the phase of the tails amplitude never changes the coin statistics
    for theta in (0.7, np.pi):
        state = tensor_all(
            coin_state(theta),
            basis_state(protocol.LAYOUT.sub(("Fbar",)), (0,)),
        )
        assert distributions_match(
            outcome_distribution(state, protocol.COIN_MEASUREMENT), dist, atol=1e-12
        )


def test_measure_eigenstate_is_deterministic():
    spec = protocol.SPIN_MEASUREMENT
    dist = outcome_distribution(dict(spec.outcomes)["-1/2"], spec)
    assert dist == pytest.approx({"-1/2": 1.0, "+1/2": 0.0}, abs=1e-12)


def test_measure_right_spin_is_unbiased():
    dist = outcome_distribution(protocol.SPIN_RIGHT_STATE, protocol.SPIN_MEASUREMENT)
    assert dist["-1/2"] == pytest.approx(0.5, abs=1e-12)
    assert dist["+1/2"] == pytest.approx(0.5, abs=1e-12)


def test_outcome_distribution_on_density_matrices():
    # collapse-picture lab-L description is unbiased against ok/fail
    layout = protocol.LAYOUT.sub(("S", "F"))
    rho = DensityMatrix(layout, lab_mixture_after_tails())
    dist = outcome_distribution(rho, protocol.W_MEASUREMENT)
    assert dist["ok"] == pytest.approx(0.5, abs=1e-12)
    assert dist["fail"] == pytest.approx(0.5, abs=1e-12)

    # pure lab-L state never announces ok
    dist_pure = outcome_distribution(lab_l_state_from_right_spin(), protocol.W_MEASUREMENT)
    assert dist_pure["ok"] == pytest.approx(0.0, abs=1e-12)

    # entangled coin-lab/spin mixture against the okbar (x) down projector
    lay = protocol.LAYOUT.sub(("R", "Fbar", "S"))
    rho2 = DensityMatrix(lay, entangled_lab_spin_mixture(0.0))
    joint = product_spec(protocol.WBAR_MEASUREMENT, protocol.SPIN_MEASUREMENT)
    dist2 = outcome_distribution(rho2, joint)
    assert dist2["okbar&-1/2"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_distribution_sums_to_one():
    for spec in (protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT):
        dist = outcome_distribution(protocol.global_state(0.7, "n:20"), spec)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_build_dilation_reproduces_entangled_state():
    got = lab_lbar_spin_state(0.0)
    want = np.zeros(12, dtype=complex)
    want[np.ravel_multi_index((0, 1, 0), (2, 3, 2))] = np.sqrt(1.0 / 3.0)
    want[np.ravel_multi_index((1, 2, 0), (2, 3, 2))] = np.sqrt(1.0 / 3.0)
    want[np.ravel_multi_index((1, 2, 1), (2, 3, 2))] = np.sqrt(1.0 / 3.0)
    assert np.allclose(got.amplitudes, want, atol=1e-12)


def test_dilation_single_branch():
    sub = protocol.LAYOUT.sub(("R", "Fbar", "S"))
    u = build_dilation(protocol.COIN_DILATION, sub)
    heads = basis_state(sub, (0, 0, 0))
    out = apply(u, heads)
    want = basis_state(sub, (0, 1, 0))
    assert np.allclose(out.amplitudes, want.amplitudes, atol=1e-12)


def test_dilation_chain_reaches_final_state():
    got = protocol.global_state(0.0, "n:20")
    # three equal-weight branches over (lab pointers)
    want = np.zeros((2, 3, 2, 3), dtype=complex)
    want[0, 1, 0, 1] = np.sqrt(1.0 / 3.0)  # heads-lab, minus-lab
    want[1, 2, 0, 1] = np.sqrt(1.0 / 3.0)  # tails-lab, minus-lab
    want[1, 2, 1, 2] = np.sqrt(1.0 / 3.0)  # tails-lab, plus-lab
    assert np.allclose(got.amplitudes, want.reshape(-1), atol=1e-12)


def test_dilations_are_unitary():
    for dilation in (protocol.COIN_DILATION, protocol.SPIN_DILATION):
        op = build_dilation(dilation, protocol.LAYOUT)
        assert op.kind == "unitary"
        m = op.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(36))) < 1e-10


def test_dilation_memory_too_small():
    layout = SpaceLayout((("R", 2), ("M", 2)))
    spec = MeasurementSpec(
        ("R",),
        (
            ("heads", basis_state(layout.sub(("R",)), (0,))),
            ("tails", basis_state(layout.sub(("R",)), (1,))),
        ),
    )
    dspec = DilationSpec(spec, "M", (("heads", 1), ("tails", 2)))
    with pytest.raises(ValueError):
        build_dilation(dspec, layout)


def test_a_dilation_gives_the_other_rows_one_pointer_slot():
    # ready, okbar, failbar and other: four slots, however many rows ``other`` spans
    layout = SpaceLayout((("R", 2), ("Fbar", 3), ("M", 4)))
    spec = MeasurementSpec(("R", "Fbar"), protocol.WBAR_MEASUREMENT.outcomes[:2])
    assert spec.labels.count("other") == 4
    dspec = DilationSpec(spec, "M", (("okbar", 1), ("failbar", 2), ("other", 3)))
    u = build_dilation(dspec, layout).matrix
    assert np.allclose(u.conj().T @ u, np.eye(24), atol=1e-12)
    small = SpaceLayout((("R", 2), ("Fbar", 3), ("M", 3)))
    with pytest.raises(ValueError, match="has dimension 3, needs at least 4"):
        build_dilation(DilationSpec(spec, "M", (("okbar", 1), ("failbar", 2))), small)


def test_pointer_map_must_be_injective():
    with pytest.raises(ValueError):
        DilationSpec(protocol.COIN_MEASUREMENT, "Fbar", (("heads", 1), ("tails", 1)))


def test_readout_memory_after_coin_interaction():
    state = protocol.global_state(0.0, "n:10")
    labels = pointer_labels(protocol.COIN_DILATION, 3)
    dist = outcome_distribution(state, pointer_readout_spec(protocol.LAYOUT, "Fbar", labels))
    assert dist["heads"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist["tails"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the interaction leaves no weight on the ready slot
    assert dist["init"] == pytest.approx(0.0, abs=1e-12)


def test_readout_unentangled_memory_is_init():
    spec = pointer_readout_spec(protocol.LAYOUT, "F", ("init", "slot_1", "slot_2"))
    dist = outcome_distribution(initial_state(0.0), spec)
    assert dist == pytest.approx({"init": 1.0, "slot_1": 0.0, "slot_2": 0.0}, abs=1e-12)


def test_readout_spin_memory_after_final_state():
    state = protocol.global_state(0.0, "n:20")
    labels = pointer_labels(protocol.SPIN_DILATION, 3)
    dist = outcome_distribution(state, pointer_readout_spec(protocol.LAYOUT, "F", labels))
    assert dist["-1/2"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert dist["+1/2"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def _deferred_pair(state, measurement, dilation, layout):
    """Exact collapse distribution vs dilate-then-read-memory distribution."""
    direct = outcome_distribution(state, measurement)
    mem_dim = layout.dim(dilation.memory)
    u = build_dilation(dilation, layout)
    shifted = apply(u, state)
    labels = pointer_labels(dilation, mem_dim)
    deferred = outcome_distribution(
        shifted, pointer_readout_spec(layout, dilation.memory, labels)
    )
    deferred.pop("init", None)
    return direct, deferred


def test_deferred_equivalence_friend_measurements():
    state0 = initial_state(0.4)
    direct, deferred = _deferred_pair(
        state0, protocol.COIN_MEASUREMENT, protocol.COIN_DILATION, protocol.LAYOUT
    )
    assert distributions_match(direct, deferred, atol=1e-12)

    state10 = protocol.global_state(0.4, "n:10")
    direct, deferred = _deferred_pair(
        state10, protocol.SPIN_MEASUREMENT, protocol.SPIN_DILATION, protocol.LAYOUT
    )
    assert distributions_match(direct, deferred, atol=1e-12)


def _observer_dilation(measurement, memory_name):
    completed = measurement
    pointer = tuple((label, i + 1) for i, label in enumerate(completed.labels))
    return completed, DilationSpec(completed, memory_name, pointer)


def test_deferred_equivalence_observer_measurements():
    # Observers measure whole labs; give each an auxiliary 7-dim memory.
    for measurement, mem in ((protocol.WBAR_MEASUREMENT, "Wbarmem"),
                             (protocol.W_MEASUREMENT, "Wmem")):
        layout = SpaceLayout(protocol.LAYOUT.subsystems + ((mem, 7),))
        completed, dspec = _observer_dilation(measurement, mem)
        state = tensor(protocol.global_state(0.9, "n:20"), basis_state(layout.sub((mem,)), (0,)))
        direct = outcome_distribution(protocol.global_state(0.9, "n:20"), completed)
        u = build_dilation(dspec, layout)
        shifted = apply(u, state)
        deferred = outcome_distribution(
            shifted, pointer_readout_spec(layout, mem, pointer_labels(dspec, 7))
        )
        deferred.pop("init", None)
        assert distributions_match(direct, deferred, atol=1e-12)


def test_observer_other_outcomes_unreachable():
    # every reachable pre-observation state keeps the completed outcomes dark
    checked = 0
    for theta in (0.0, 1.1, np.pi):
        state = protocol.global_state(theta, "n:20")
        for spec in (protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT):
            dist = outcome_distribution(state, spec)
            for label, p in dist.items():
                if label == "other":
                    assert p < 1e-12
                    checked += 1
    for prob, _records, amps in collapse_trajectories(0.8, 2):
        state = StateVector(protocol.LAYOUT, amps)
        for spec in (protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT):
            dist = outcome_distribution(state, spec)
            assert sum(p for l, p in dist.items() if l == "other") < 1e-12
            checked += "other" in dist
    assert checked > 0


def test_product_spec_rejects_overlap():
    with pytest.raises(ValueError):
        product_spec(protocol.COIN_MEASUREMENT, protocol.COIN_MEASUREMENT)



def test_protocol_specs_are_complete_at_construction():
    assert [f.name for f in dataclasses.fields(MeasurementSpec)] == ["target", "outcomes"]
    others = ("other",) * 4
    assert protocol.WBAR_MEASUREMENT.labels == ("okbar", "failbar") + others
    assert protocol.W_MEASUREMENT.labels == ("ok", "fail") + others
    assert protocol.COIN_MEASUREMENT.labels == ("heads", "tails")
    assert protocol.SPIN_MEASUREMENT.labels == ("-1/2", "+1/2")


def test_workloads_complete_no_basis(monkeypatch, capsys):
    calls = _engine.calls(monkeypatch, measurement, "_complement").counts
    # an incomplete list is completed once, when the spec is built
    protocol._lab_basis(("R", "Fbar"), "okbar", "failbar")
    assert calls == {"_complement": 1}
    # the protocol's bases exist already: measuring with them completes nothing
    protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT
    calls.clear()
    theta = 0.37
    for semantics in ("collapse", "unitary"):
        protocol.exact_joint(protocol.ProtocolConfig(semantics=semantics, theta=theta))
    for ruleset in reasoning.RULESET_NAMES:
        reasoning.audit(ruleset, theta)
    code = cli.main([
        "perspectives", "--agent", "W", "--time", "n:20", "--rule", "collapse",
        "--theta", str(theta), "--subsystems", "R,Fbar,S,F", "--json",
    ])
    assert code == 0
    assert len(capsys.readouterr().out) > 0
    assert not calls


# ``other`` is one outcome: the rows basis completion adds, whatever the listed outcomes leave out.


def test_completion_rows_are_one_other_outcome():
    assert OTHER == protocol.OTHER == "other"
    assert protocol.WBAR_MEASUREMENT.labels == ("okbar", "failbar") + ("other",) * 4
    assert protocol.W_MEASUREMENT.labels == ("ok", "fail") + ("other",) * 4


def test_a_listed_label_other_than_other_may_not_repeat():
    okbar, failbar = (v for _, v in protocol.WBAR_MEASUREMENT.outcomes[:2])
    with pytest.raises(ValueError, match="duplicate outcome labels"):
        MeasurementSpec(("R", "Fbar"), (("okbar", okbar), ("okbar", failbar)))
    # ``other`` may name several listed rows, as it names several completion rows
    spec = MeasurementSpec(("R", "Fbar"), (("okbar", okbar), ("other", failbar)))
    assert spec.labels == ("okbar",) + ("other",) * 5


def test_a_completed_spec_rebuilds_from_its_outcomes():
    for spec in (protocol.WBAR_MEASUREMENT, protocol.W_MEASUREMENT, reasoning._PREMISE_SPEC):
        again = MeasurementSpec(spec.target, spec.outcomes)
        assert again.labels == spec.labels
        assert np.array_equal(again.basis, spec.basis)


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
def test_a_prediction_has_one_entry_per_distinct_label_and_other_sums_its_rows(theta):
    # okbar listed alone: failbar's weight, and nothing else, lands on the five other rows
    okbar = protocol.WBAR_MEASUREMENT.outcomes[0][1]
    spec = MeasurementSpec(("R", "Fbar"), (("okbar", okbar),))
    p = perspectives.Perspective("W", "n:20", (), "unitary-global")
    dist = perspectives.predict_distribution(p, spec, theta)
    assert list(dist) == list(dict.fromkeys(spec.labels)) == ["okbar", "other"]
    state = protocol.global_state(theta, "n:20")
    rows = [project_component(state, spec.target, v.amplitudes)[0] for l, v in spec.outcomes if l == OTHER]
    assert len(rows) == 5
    assert abs(dist["other"] - sum(rows)) <= 1e-15
    assert dist["other"] > 0.1


def test_born_distribution_refuses_masses_that_miss_their_total():
    psi = np.zeros((1, 2, 1))
    psi[0, 0, 0] = 1.0
    assert born_distribution(protocol.COIN_MEASUREMENT, psi, 1.0) == {"heads": 1.0, "tails": 0.0}
    message = "outcome probabilities sum to 0.5, expected 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        born_distribution(protocol.COIN_MEASUREMENT, psi, 2.0)
