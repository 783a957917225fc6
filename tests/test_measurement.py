import dataclasses

import numpy as np
import pytest

from ewfs import cli, measurement, protocol, reasoning
from ewfs.measurement import (
    DilationSpec,
    MeasurementSpec,
    build_dilation,
    outcome_distribution,
    pointer_readout_spec,
)
from ewfs.qcore import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
    tensor,
    tensor_all,
)

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
    pointer_labels,
    product_spec,
)


def test_complete_single_vector_to_full_basis():
    okbar = dict(protocol.wbar_measurement().outcomes)["okbar"]
    spec = MeasurementSpec(("R", "Fbar"), (("okbar", okbar),))
    done = spec
    assert len(done.outcomes) == 6
    assert done.outcomes[0][0] == "okbar"
    rows = np.array([v.amplitudes for _, v in done.outcomes])
    assert np.allclose(rows.conj() @ rows.T, np.eye(6), atol=1e-10)


def test_protocol_bases_equal_raw_numpy_rows_bit_for_bit():
    # exact equality, no tolerance: a rebuilt basis that moves one float by an ulp fails
    assert np.array_equal(protocol.coin_measurement().basis, np.eye(2))
    assert np.array_equal(protocol.spin_measurement().basis, np.eye(2))
    for spec in (protocol.wbar_measurement(), protocol.w_measurement()):
        assert np.array_equal(spec.basis[:2], lab_basis_rows())
    assert protocol.coin_measurement().labels == ("heads", "tails")
    assert protocol.spin_measurement().labels == ("-1/2", "+1/2")
    assert protocol.wbar_measurement().labels[:2] == ("okbar", "failbar")
    assert protocol.w_measurement().labels[:2] == ("ok", "fail")


def test_complete_already_complete_is_identity():
    # a spanning list gets no other_k outcomes: the spec holds exactly what was listed
    listed = protocol.coin_measurement.__wrapped__().outcomes
    spec = MeasurementSpec(("R",), listed)
    assert spec.labels == ("heads", "tails")
    assert all(a[1] is b[1] for a, b in zip(spec.outcomes, listed))


def test_completion_of_observer_basis():
    done = protocol.wbar_measurement()
    assert done.labels == ("okbar", "failbar", "other_0", "other_1", "other_2", "other_3")
    # the added vectors are orthogonal to the span of the two lab pointers
    lab = protocol.LAYOUT.sub(("R", "Fbar"))
    for _, vec in done.outcomes[2:]:
        for pointer in (basis_state(lab, (0, 1)), basis_state(lab, (1, 2))):
            assert abs(np.vdot(pointer.amplitudes, vec.amplitudes)) < 1e-12
    # deterministic: same input gives the same completion
    again = protocol.wbar_measurement.__wrapped__()
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
    dist = outcome_distribution(state, protocol.coin_measurement())
    assert dist["heads"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist["tails"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the phase of the tails amplitude never changes the coin statistics
    for theta in (0.7, np.pi):
        state = tensor_all(
            coin_state(theta),
            basis_state(protocol.LAYOUT.sub(("Fbar",)), (0,)),
        )
        assert distributions_match(
            outcome_distribution(state, protocol.coin_measurement()), dist, atol=1e-12
        )


def test_measure_eigenstate_is_deterministic():
    spec = protocol.spin_measurement()
    dist = outcome_distribution(dict(spec.outcomes)["-1/2"], spec)
    assert dist == pytest.approx({"-1/2": 1.0, "+1/2": 0.0}, abs=1e-12)


def test_measure_right_spin_is_unbiased():
    dist = outcome_distribution(protocol.spin_right_state(), protocol.spin_measurement())
    assert dist["-1/2"] == pytest.approx(0.5, abs=1e-12)
    assert dist["+1/2"] == pytest.approx(0.5, abs=1e-12)


def test_outcome_distribution_on_density_matrices():
    # collapse-picture lab-L description is unbiased against ok/fail
    layout = protocol.LAYOUT.sub(("S", "F"))
    rho = DensityMatrix(layout, lab_mixture_after_tails())
    dist = outcome_distribution(rho, protocol.w_measurement())
    assert dist["ok"] == pytest.approx(0.5, abs=1e-12)
    assert dist["fail"] == pytest.approx(0.5, abs=1e-12)

    # pure lab-L state never announces ok
    dist_pure = outcome_distribution(lab_l_state_from_right_spin(), protocol.w_measurement())
    assert dist_pure["ok"] == pytest.approx(0.0, abs=1e-12)

    # entangled coin-lab/spin mixture against the okbar (x) down projector
    lay = protocol.LAYOUT.sub(("R", "Fbar", "S"))
    rho2 = DensityMatrix(lay, entangled_lab_spin_mixture(0.0))
    joint = product_spec(protocol.wbar_measurement(), protocol.spin_measurement())
    dist2 = outcome_distribution(rho2, joint)
    assert dist2["okbar&-1/2"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_distribution_sums_to_one():
    for spec in (protocol.wbar_measurement(), protocol.w_measurement()):
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
    u = build_dilation(protocol.coin_dilation(), sub)
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
    for op in (protocol.coin_interaction(), protocol.spin_interaction()):
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


def test_pointer_map_must_be_injective():
    with pytest.raises(ValueError):
        DilationSpec(protocol.coin_measurement(), "Fbar", (("heads", 1), ("tails", 1)))


def test_readout_memory_after_coin_interaction():
    state = protocol.global_state(0.0, "n:10")
    labels = pointer_labels(protocol.coin_dilation(), 3)
    dist = outcome_distribution(state, pointer_readout_spec(protocol.LAYOUT, "Fbar", labels))
    assert dist["heads"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist["tails"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the interaction leaves no weight on the ready slot
    assert dist["init"] == pytest.approx(0.0, abs=1e-12)


def test_readout_unentangled_memory_is_init():
    dist = outcome_distribution(
        initial_state(0.0), pointer_readout_spec(protocol.LAYOUT, "F")
    )
    assert dist == pytest.approx({"init": 1.0, "slot_1": 0.0, "slot_2": 0.0}, abs=1e-12)


def test_readout_spin_memory_after_final_state():
    state = protocol.global_state(0.0, "n:20")
    labels = pointer_labels(protocol.spin_dilation(), 3)
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
        state0, protocol.coin_measurement(), protocol.coin_dilation(), protocol.LAYOUT
    )
    assert distributions_match(direct, deferred, atol=1e-12)

    state10 = protocol.global_state(0.4, "n:10")
    direct, deferred = _deferred_pair(
        state10, protocol.spin_measurement(), protocol.spin_dilation(), protocol.LAYOUT
    )
    assert distributions_match(direct, deferred, atol=1e-12)


def _observer_dilation(measurement, memory_name):
    completed = measurement
    pointer = tuple((label, i + 1) for i, label in enumerate(completed.labels))
    return completed, DilationSpec(completed, memory_name, pointer)


def test_deferred_equivalence_observer_measurements():
    # Observers measure whole labs; give each an auxiliary 7-dim memory.
    for measurement, mem in ((protocol.wbar_measurement(), "Wbarmem"),
                             (protocol.w_measurement(), "Wmem")):
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
    for theta in (0.0, 1.1, np.pi):
        state = protocol.global_state(theta, "n:20")
        for spec in (protocol.wbar_measurement(), protocol.w_measurement()):
            dist = outcome_distribution(state, spec)
            for label, p in dist.items():
                if label.startswith("other_"):
                    assert p < 1e-12
    for prob, _records, amps in collapse_trajectories(0.8, 2):
        state = StateVector(protocol.LAYOUT, amps)
        for spec in (protocol.wbar_measurement(), protocol.w_measurement()):
            dist = outcome_distribution(state, spec)
            assert sum(p for l, p in dist.items() if l.startswith("other_")) < 1e-12


def test_product_spec_rejects_overlap():
    with pytest.raises(ValueError):
        product_spec(protocol.coin_measurement(), protocol.coin_measurement())



def test_protocol_specs_are_complete_at_construction():
    assert [f.name for f in dataclasses.fields(MeasurementSpec)] == ["target", "outcomes"]
    others = ("other_0", "other_1", "other_2", "other_3")
    assert protocol.wbar_measurement().labels == ("okbar", "failbar") + others
    assert protocol.w_measurement().labels == ("ok", "fail") + others
    assert protocol.coin_measurement().labels == ("heads", "tails")
    assert protocol.spin_measurement().labels == ("-1/2", "+1/2")


def test_workloads_complete_no_basis(monkeypatch, capsys):
    calls = []
    real = measurement._complement

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(measurement, "_complement", counting)
    # an incomplete list is completed once, when the spec is built
    protocol.wbar_measurement.__wrapped__()
    assert len(calls) == 1
    # the protocol's bases exist already: measuring with them completes nothing
    protocol.wbar_measurement(), protocol.w_measurement()
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
    assert calls == []
