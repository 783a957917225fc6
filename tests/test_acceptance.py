"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red criterion is both visible in the log and fatal to CI.
"""

import time

import numpy as np

from ewfs import protocol
from ewfs.measurement import (
    DilationSpec,
    MeasurementSpec,
    build_dilation,
    pointer_readout_spec,
)
from ewfs.perspectives import (
    COLLAPSE_AWARE,
    AssignmentRule,
    Perspective,
    assign,
)
from ewfs.protocol import ProtocolConfig, exact_joint, sample_records
from ewfs.qcore import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    StateVector,
    apply,
    basis_state,
    dephase,
    pure_density,
)
from ewfs.reasoning import audit

from _oracles import (
    collapse_joint_cells,
    entangled_lab_spin_mixture,
    expand_histogram,
    geometric_mean_se,
    initial_state,
    inner,
    lab_l_state_from_right_spin,
    lab_lbar_spin_state,
    lab_mixture_after_tails,
    outcome_distribution,
    partial_trace,
    pointer_labels,
    product_spec,
    tensor,
    tv_distance,
    unitary_joint_numeric,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_halting_probability():
    start = time.perf_counter()
    p = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0)).prob("okbar", "ok")
    elapsed = time.perf_counter() - start
    ok = abs(p - 1.0 / 12.0) < 1e-12
    report(1, ok, f"P(okbar, ok) = {p!r} vs 1/12, computed in {elapsed * 1e3:.2f} ms")


def test_criterion_02_full_unitary_joint_vs_oracle():
    joint = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    oracle = unitary_joint_numeric(0.0)
    expected = {
        ("failbar", "fail"): 0.75,
        ("failbar", "ok"): 1.0 / 12.0,
        ("okbar", "fail"): 1.0 / 12.0,
        ("okbar", "ok"): 1.0 / 12.0,
    }
    worst = 0.0
    for cell, want in expected.items():
        worst = max(worst, abs(joint.prob(*cell) - want), abs(oracle[cell] - want))
    ok = worst < 1e-12
    report(2, ok, f"four-cell joint vs brute-force expansion, worst deviation {worst:.3e}")


def test_criterion_03_orthogonality_identities():
    ok = dict(protocol.W_MEASUREMENT.outcomes)["ok"]
    a = abs(inner(ok, lab_l_state_from_right_spin()))
    okbar = dict(protocol.WBAR_MEASUREMENT.outcomes)["okbar"]
    okbar_down = tensor(okbar, dict(protocol.SPIN_MEASUREMENT.outcomes)["-1/2"])
    b = abs(inner(okbar_down, lab_lbar_spin_state(0.0)))
    ok = a < 1e-12 and b < 1e-12
    report(3, ok, f"|<ok|lab-L pure>| = {a:.3e}, |<okbar,down|entangled>| = {b:.3e}")


def test_criterion_04_mixture_predictions():
    rho_l = assign(
        Perspective("W", "n:20", (("r", "tails"),), AssignmentRule(COLLAPSE_AWARE)),
        ("S", "F"),
    )
    p_ok = outcome_distribution(rho_l, protocol.W_MEASUREMENT)["ok"]
    rho_lbar_s = assign(
        Perspective("Wbar", "n:10", (), AssignmentRule(COLLAPSE_AWARE)),
        ("R", "Fbar", "S"),
    )
    joint_spec = product_spec(protocol.WBAR_MEASUREMENT, protocol.SPIN_MEASUREMENT)
    p_joint = outcome_distribution(rho_lbar_s, joint_spec)["okbar&-1/2"]
    ok = abs(p_ok - 0.5) < 1e-12 and abs(p_joint - 1.0 / 3.0) < 1e-12
    report(4, ok, f"<ok|rho_L|ok> = {p_ok!r} (want 1/2), tr(rho Pi_okbar Pi_down) = {p_joint!r} (want 1/3)")


def test_criterion_05_dephasing_bridges():
    pure5 = pure_density(lab_lbar_spin_state(0.0))
    bridged5 = dephase(pure5, ("R", "Fbar"))
    err5 = float(np.max(np.abs(bridged5.matrix - entangled_lab_spin_mixture(0.0))))

    pure4 = pure_density(lab_l_state_from_right_spin())
    bridged4 = dephase(pure4, ("S", "F"))
    err4 = float(np.max(np.abs(bridged4.matrix - lab_mixture_after_tails())))

    # the same mixtures come out of the collapse-aware assignment engine
    rho7 = assign(Perspective("Wbar", "n:10", (), AssignmentRule(COLLAPSE_AWARE)), ("R", "Fbar", "S"))
    err7 = float(np.max(np.abs(bridged5.matrix - rho7.matrix)))

    ok = max(err5, err4, err7) < 1e-12
    report(5, ok, f"pointer-basis dephasing bridges: entrywise errors {err5:.2e}, {err4:.2e}, {err7:.2e}")


def _deferred_gap(state, measurement, dilation, layout) -> float:
    direct = outcome_distribution(state, measurement)
    u = build_dilation(dilation, layout)
    shifted = apply(u, state)
    labels = pointer_labels(dilation, layout.dim(dilation.memory))
    deferred = outcome_distribution(shifted, pointer_readout_spec(layout, dilation.memory, labels))
    deferred.pop("init", None)
    keys = set(direct) | set(deferred)
    return max(abs(direct.get(k, 0.0) - deferred.get(k, 0.0)) for k in keys)


def test_criterion_06_deferred_measurement_equivalence():
    gaps = []
    gaps.append(
        _deferred_gap(initial_state(0.0), protocol.COIN_MEASUREMENT,
                      protocol.COIN_DILATION, protocol.LAYOUT)
    )
    gaps.append(
        _deferred_gap(protocol.global_state(0.0, "n:10"), protocol.SPIN_MEASUREMENT,
                      protocol.SPIN_DILATION, protocol.LAYOUT)
    )
    for measurement, mem in ((protocol.WBAR_MEASUREMENT, "Wbarmem"),
                             (protocol.W_MEASUREMENT, "Wmem")):
        layout = SpaceLayout(protocol.LAYOUT.subsystems + ((mem, 7),))
        completed = measurement
        dspec = DilationSpec(
            completed, mem, tuple((l, i + 1) for i, l in enumerate(completed.labels))
        )
        state = tensor(protocol.global_state(0.0, "n:20"), basis_state(layout.sub((mem,)), (0,)))
        gaps.append(_deferred_gap(state, completed, dspec, layout))
    worst = max(gaps)
    ok = worst < 1e-12
    report(6, ok, f"collapse vs dilate-and-read for all four measurements, worst gap {worst:.3e}")


def test_criterion_07_phase_erasure():
    thetas = (0.0, np.pi / 2, np.pi)
    collapse = [exact_joint(ProtocolConfig(semantics="collapse", theta=t)) for t in thetas]
    collapse_gap = max(
        tv_distance(collapse[0], collapse[1]), tv_distance(collapse[0], collapse[2])
    )
    oracle_quarter = {k: float(v) for k, v in collapse_joint_cells().items()}
    quarter_gap = max(
        abs(j.prob(*cell) - want) for j in collapse for cell, want in oracle_quarter.items()
    )

    j0 = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    jpi = exact_joint(ProtocolConfig(semantics="unitary", theta=np.pi))
    tv = tv_distance(j0, jpi)

    halting_gap = max(
        abs(exact_joint(ProtocolConfig(semantics="unitary", theta=t)).prob("okbar", "ok") - 1.0 / 12.0)
        for t in (0.0, 0.4, np.pi / 2, 2.0, np.pi)
    )
    oracle_gap = max(
        abs(exact_joint(ProtocolConfig(semantics="unitary", theta=t)).prob(*cell) - want)
        for t in (0.3, 2.4)
        for cell, want in unitary_joint_numeric(t).items()
    )
    ok = (
        collapse_gap < 1e-12
        and quarter_gap < 1e-12
        and abs(tv - 2.0 / 3.0) < 1e-10
        and halting_gap < 1e-12
        and oracle_gap < 1e-12
    )
    report(
        7,
        ok,
        "collapse joints phase-blind (gap "
        f"{collapse_gap:.2e}), unitary TV(0, pi) = {tv!r}, halting cell drift {halting_gap:.2e}",
    )


def test_criterion_08_monte_carlo_convergence():
    start = time.perf_counter()
    n = 100_000
    expected = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    records_u = sample_records(ProtocolConfig(semantics="unitary", seed=42), n)
    counts = protocol.tally_joint(records_u)
    cells_ok = True
    for cell, p in expected.entries.items():
        se = np.sqrt(p * (1.0 - p) / n)
        freq = counts.get(cell, 0) / n
        if se == 0.0:
            cells_ok &= counts.get(cell, 0) == 0
        else:
            cells_ok &= abs(freq - p) < 4 * se

    mean_u, se_u = geometric_mean_se(expand_histogram(records_u.lengths))
    records_c = sample_records(ProtocolConfig(semantics="collapse", seed=42), n)
    mean_c, se_c = geometric_mean_se(expand_histogram(records_c.lengths))
    elapsed = time.perf_counter() - start

    ok = (
        cells_ok
        and abs(mean_u - 12.0) < 4 * se_u
        and abs(mean_c - 4.0) < 4 * se_c
        and elapsed < 10.0
    )
    report(
        8,
        ok,
        f"100k rounds at seed 42: cells within 4se, halting means {mean_u:.3f}/{mean_c:.3f} "
        f"(want 12/4), runtime {elapsed:.2f} s",
    )


def test_criterion_09_reasoning_audit():
    mixed = audit("fr-mixed")
    coll = audit("all-collapse")
    unit = audit("all-unitary")
    checks = (
        mixed.contradiction is True,
        abs(mixed.witness - 1.0 / 12.0) < 1e-12,
        mixed.chain_conclusion == "impossible(halt)",
        coll.contradiction is False,
        coll.result("Fbar_02").status == "fails",
        abs(coll.result("Fbar_02").value - 0.5) < 1e-10,
        unit.contradiction is False,
        unit.result("Fbar_02_star").status == "holds",
        abs(unit.result("Fbar_02_star").value - 0.5) < 1e-10,
    )
    ok = all(checks)
    report(
        9,
        ok,
        "fr-mixed contradicts with witness 1/12; all-collapse fails at 1/2; "
        "all-unitary holds at 1/2",
    )


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(_random_complex(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_layout(rng, max_parts=2, max_dim=4):
    parts = rng.integers(1, max_parts + 1)
    subs = tuple((f"Q{i}", int(rng.integers(2, max_dim + 1))) for i in range(parts))
    return SpaceLayout(subs)


def test_criterion_10_property_suite():
    rng = np.random.default_rng(4242)
    cases = 1000
    tol = 1e-10

    worst_unitary = 0.0
    for _ in range(cases):
        layout = _random_layout(rng)
        u = Operator(layout, _random_unitary(rng, layout.total_dim), kind="unitary")
        v = _random_complex(rng, layout.total_dim)
        state = StateVector(layout, v / np.linalg.norm(v))
        worst_unitary = max(worst_unitary, abs(np.linalg.norm(apply(u, state).amplitudes) - 1.0))
    ok_unitary = worst_unitary < tol

    worst_norm = 0.0
    for _ in range(cases):
        la = SpaceLayout((("A", int(rng.integers(2, 5))),))
        lb = SpaceLayout((("B", int(rng.integers(2, 5))),))
        va = _random_complex(rng, la.total_dim)
        vb = _random_complex(rng, lb.total_dim)
        a = StateVector(la, va / np.linalg.norm(va))
        b = StateVector(lb, vb / np.linalg.norm(vb))
        prod = tensor(a, b)
        self_inner = inner(prod, prod)
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(prod.amplitudes) - 1.0),
            abs(self_inner.imag),
            max(0.0, -self_inner.real),
        )
    ok_norm = worst_norm < tol

    worst_psd = 0.0
    for _ in range(cases):
        layout = _random_layout(rng)
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        acc = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
        for w in weights:
            v = _random_complex(rng, layout.total_dim)
            v = v / np.linalg.norm(v)
            acc += w * np.outer(v, v.conj())
        rho = DensityMatrix(layout, acc)  # constructor enforces PSD/trace/hermiticity
        reduced = partial_trace(rho, (layout.names[0],))
        eig_min = float(np.min(np.linalg.eigvalsh(reduced.matrix)))
        worst_psd = max(worst_psd, -eig_min, abs(np.trace(reduced.matrix).real - 1.0))
    ok_psd = worst_psd < tol

    worst_trace = 0.0
    for _ in range(cases):
        layout = SpaceLayout((("A", int(rng.integers(2, 4))), ("B", int(rng.integers(2, 4)))))
        v = _random_complex(rng, layout.total_dim)
        rho = pure_density(StateVector(layout, v / np.linalg.norm(v)))
        deph = dephase(rho, "A")
        again = dephase(deph, "A")
        worst_trace = max(
            worst_trace,
            abs(np.trace(deph.matrix).real - 1.0),
            float(np.max(np.abs(again.matrix - deph.matrix))),
            max(0.0, deph.purity() - rho.purity()),
        )
    ok_trace = worst_trace < tol

    worst_basis = 0.0
    for _ in range(cases):
        dim = int(rng.integers(2, 7))
        layout = SpaceLayout((("Q", dim),))
        k = int(rng.integers(1, dim + 1))
        q, _ = np.linalg.qr(_random_complex(rng, dim, dim))
        listed = tuple(
            (f"v{i}", StateVector(layout, q[:, i])) for i in range(k)
        )
        spec = MeasurementSpec(("Q",), listed)
        rows = np.array([vec.amplitudes for _, vec in spec.outcomes])
        gram_gap = float(np.max(np.abs(rows.conj() @ rows.T - np.eye(dim))))
        resolution = sum(np.outer(r, r.conj()) for r in rows)
        res_gap = float(np.max(np.abs(resolution - np.eye(dim))))
        worst_basis = max(worst_basis, gram_gap, res_gap)
    ok_basis = worst_basis < tol

    ok = ok_unitary and ok_norm and ok_psd and ok_trace and ok_basis
    report(
        10,
        ok,
        f"{cases} cases each: unitarity {worst_unitary:.1e}, normalization {worst_norm:.1e}, "
        f"PSD {worst_psd:.1e}, trace/dephase {worst_trace:.1e}, completion {worst_basis:.1e}",
    )
