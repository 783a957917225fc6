import numpy as np
import pytest

from ewfs import protocol
from ewfs.qcore import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
    dephase,
    embed,
    identity,
    inner,
    partial_trace,
    pure_density,
    superpose,
    tensor,
    tensor_all,
)

from _oracles import (
    entangled_lab_spin_mixture,
    lab_l_state_from_right_spin,
    lab_lbar_spin_state,
    loop_dephase,
    loop_partial_trace,
)

RNG = np.random.default_rng(20260809)


def random_state(layout: SpaceLayout, rng=RNG) -> StateVector:
    v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, v / np.linalg.norm(v))


def random_unitary(dim: int, rng=RNG) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_layout_validation():
    with pytest.raises(ValueError):
        SpaceLayout((("A", 2), ("A", 3)))
    with pytest.raises(ValueError):
        SpaceLayout((("A", 0),))
    layout = SpaceLayout((("A", 2), ("B", 3)))
    assert layout.total_dim == 6
    assert layout.sub(("B",)).dims == (3,)
    with pytest.raises(ValueError):
        layout.axis("C")


def test_sub_layout_rejects_repeated_names():
    with pytest.raises(ValueError, match="named twice"):
        protocol.LAYOUT.sub(("S", "S"))
    with pytest.raises(ValueError, match="named twice"):
        protocol.LAYOUT.sub(("R", "F", "R"))
    assert protocol.LAYOUT.sub(("F", "S")).names == ("S", "F")


def test_canonical_protocol_layout():
    assert protocol.LAYOUT.names == ("R", "Fbar", "S", "F")
    assert protocol.LAYOUT.dims == (2, 3, 2, 3)
    assert protocol.LAYOUT.total_dim == 36


def test_state_normalization_enforced():
    layout = SpaceLayout((("A", 2),))
    with pytest.raises(ValueError):
        StateVector(layout, np.array([1.0, 1.0]))
    StateVector(layout, np.array([1.0, 1.0]) / np.sqrt(2))


def test_tensor_basis_states():
    # |down>_S (x) |init>_F is a single unit amplitude in a 6-dim space
    s = basis_state(SpaceLayout((("S", 2),)), (0,))
    f = basis_state(SpaceLayout((("F", 3),)), (0,))
    v = tensor(s, f)
    assert v.layout.total_dim == 6
    assert np.allclose(v.amplitudes, np.eye(6)[0])


def test_tensor_identity_case():
    a = identity(SpaceLayout((("A", 2),)))
    b = identity(SpaceLayout((("B", 3),)))
    assert np.allclose(tensor(a, b).matrix, np.eye(6))


def test_tensor_builds_lab_pointer_state():
    # coin |heads> with memory slot 1 is the heads-lab pointer state, (okbar + failbar)/sqrt(2)
    r = basis_state(protocol.LAYOUT.sub(("R",)), (0,))
    m = basis_state(protocol.LAYOUT.sub(("Fbar",)), (1,))
    observer = dict(protocol.wbar_measurement().outcomes)
    heads_lab = np.sqrt(0.5) * (observer["okbar"].amplitudes + observer["failbar"].amplitudes)
    assert np.allclose(tensor(r, m).amplitudes, heads_lab)


def test_tensor_name_collision():
    a = basis_state(SpaceLayout((("A", 2),)), (0,))
    with pytest.raises(ValueError):
        tensor(a, a)


def test_tensor_is_associative_up_to_flattening():
    la, lb, lc = (SpaceLayout(((n, d),)) for n, d in (("A", 2), ("B", 3), ("C", 2)))
    for _ in range(50):
        a, b, c = random_state(la), random_state(lb), random_state(lc)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.layout.subsystems == right.layout.subsystems
        assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-12)


def test_inner_examples():
    ok = dict(protocol.w_measurement().outcomes)["ok"]
    assert inner(ok, ok) == pytest.approx(1.0, abs=1e-12)
    okbar = dict(protocol.wbar_measurement().outcomes)["okbar"]
    okbar_down = tensor(okbar, dict(protocol.spin_measurement().outcomes)["-1/2"])
    eq5 = lab_lbar_spin_state(0.0)
    assert abs(inner(okbar_down, eq5)) < 1e-12
    eq4 = lab_l_state_from_right_spin()
    assert abs(inner(ok, eq4)) < 1e-12


def test_inner_layout_mismatch():
    a = basis_state(SpaceLayout((("A", 2),)), (0,))
    b = basis_state(SpaceLayout((("B", 2),)), (0,))
    with pytest.raises(ValueError):
        inner(a, b)


def test_partial_trace_product_state_factor():
    la, lb = SpaceLayout((("A", 2),)), SpaceLayout((("B", 3),))
    a, b = random_state(la), random_state(lb)
    rho = pure_density(tensor(a, b))
    reduced = partial_trace(rho, ("A",))
    assert np.allclose(reduced.matrix, pure_density(a).matrix, atol=1e-12)


def test_partial_trace_spin_of_entangled_state():
    # spin marginal of the post-coin-interaction state: [[2/3, 1/3], [1/3, 1/3]]
    rho = pure_density(lab_lbar_spin_state(0.0))
    reduced = partial_trace(rho, ("S",))
    expected = np.array([[2.0, 1.0], [1.0, 1.0]]) / 3.0
    assert np.allclose(reduced.matrix, expected, atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    layout = SpaceLayout((("A", 2), ("B", 3), ("C", 2)))
    for keep in (("A",), ("B",), ("A", "C"), ("B", "C"), ("A", "B", "C")):
        state = random_state(layout)
        rho = pure_density(state)
        got = partial_trace(rho, keep).matrix
        keep_axes = tuple(layout.axis(n) for n in keep)
        want = loop_partial_trace(rho.matrix, layout.dims, keep_axes)
        assert np.allclose(got, want, atol=1e-12)
        assert abs(np.trace(got) - 1.0) < 1e-10


def test_partial_trace_all_names_is_identity():
    rho = pure_density(protocol.global_state(0.3, "n:20"))
    again = partial_trace(rho, protocol.LAYOUT.names)
    assert np.allclose(again.matrix, rho.matrix, atol=1e-12)


def test_partial_trace_unknown_name():
    rho = pure_density(random_state(SpaceLayout((("A", 2),))))
    with pytest.raises(ValueError):
        partial_trace(rho, ("nope",))


def test_dephase_entangled_state_gives_mixture():
    rho = pure_density(lab_lbar_spin_state(0.0))
    got = dephase(rho, "R")
    assert np.allclose(got.matrix, entangled_lab_spin_mixture(0.0), atol=1e-12)
    # dephasing the whole lab gives the same mixture here
    got2 = dephase(rho, ("R", "Fbar"))
    assert np.allclose(got2.matrix, entangled_lab_spin_mixture(0.0), atol=1e-12)


def test_dephase_fixed_point_on_diagonal_input():
    layout = SpaceLayout((("A", 2), ("B", 2)))
    diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho = DensityMatrix(layout, diag)
    assert np.allclose(dephase(rho, "A").matrix, diag, atol=1e-14)


def test_dephase_right_spin():
    rho = pure_density(protocol.spin_right_state())
    got = dephase(rho, "S")
    assert np.allclose(got.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_dephase_explicit_basis_and_gram_error():
    rho = pure_density(protocol.spin_right_state())
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    got = dephase(rho, "S", basis=basis)
    assert np.allclose(got.matrix, np.eye(2) / 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        dephase(rho, "S", basis=[np.array([1.0, 0.0]), np.array([0.6, 0.8]) * 1.01])
    with pytest.raises(ValueError):
        dephase(rho, "S", basis=[np.array([1.0, 0.0])])  # does not span


def test_dephase_matches_loop_oracle():
    layout = SpaceLayout((("A", 2), ("B", 3)))
    for names in (("A",), ("B",), ("A", "B")):
        rho = pure_density(random_state(layout))
        got = dephase(rho, names).matrix
        axes = tuple(layout.axis(n) for n in names)
        assert np.allclose(got, loop_dephase(rho.matrix, layout.dims, axes), atol=1e-12)


def test_density_matrix_psd_validation():
    layout = SpaceLayout((("A", 2),))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.array([[0.5, 0.5j], [0.5j, 0.5]]))


def test_embed_acts_as_identity_elsewhere():
    layout = SpaceLayout((("A", 2), ("B", 3), ("C", 2)))
    u = random_unitary(3)
    op = Operator(layout.sub(("B",)), u, kind="unitary")
    big = embed(op, layout)
    state = random_state(layout)
    # embed then apply vs reshape-contract by hand
    t = state.tensorized()
    want = np.tensordot(u, t, axes=([1], [1])).transpose(1, 0, 2).reshape(-1)
    assert np.allclose(apply(big, state).amplitudes, want, atol=1e-12)


def test_superpose_and_mix_validation():
    spin = dict(protocol.spin_measurement().outcomes)
    with pytest.raises(ValueError):
        superpose([(0.5, spin["-1/2"]), (0.5, spin["+1/2"])])


def test_unitary_flag_validation():
    layout = SpaceLayout((("A", 2),))
    with pytest.raises(ValueError):
        Operator(layout, np.array([[1.0, 1.0], [0.0, 1.0]]), kind="unitary")
    with pytest.raises(ValueError):
        Operator(layout, np.array([[0.5, 0.5], [0.5, 0.6]]), kind="projector")


def test_unitary_preserves_norm_random():
    layout = SpaceLayout((("A", 2), ("B", 3)))
    for _ in range(100):
        op = Operator(layout, random_unitary(6), kind="unitary")
        v = random_state(layout)
        assert abs(np.linalg.norm(apply(op, v).amplitudes) - 1.0) < 1e-10


def test_tensor_all_matches_pairwise():
    states = [
        random_state(SpaceLayout(((n, d),))) for n, d in (("A", 2), ("B", 2), ("C", 3))
    ]
    v = tensor_all(*states)
    w = tensor(tensor(states[0], states[1]), states[2])
    assert np.allclose(v.amplitudes, w.amplitudes)
