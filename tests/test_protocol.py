import dataclasses
import inspect
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import qcore
from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.protocol import (
    SAMPLE_CHUNK,
    ProtocolConfig,
    RoundRecord,
    RoundTally,
    JointDistribution,
    _draw,
    _record_cdf,
    _tally_chunks,
    exact_joint,
    exact_record_distribution,
    round_rng,
    run_round,
    sample_records,
    tally_joint,
)

from ewfs.reasoning import RULESET_NAMES, audit

import _engine
from _oracles import (
    collapse_joint_cells,
    collapse_round,
    collapse_record_table,
    expand_histogram,
    geometric_mean_se,
    loop_episode_lengths,
    loop_tally,
    tv_distance,
    unchunked_sample_index,
    unitary_joint_numeric,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(semantics="borken")
    with pytest.raises(ValueError):
        ProtocolConfig(theta=float("nan"))


def test_round_record_halting_consistency():
    assert RoundRecord(0, "tails", "+1/2", "okbar", "ok").halted is True
    for wbar, w in (("okbar", "fail"), ("failbar", "ok"), ("other", "other")):
        assert RoundRecord(0, "tails", "+1/2", wbar, w).halted is False


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution({("okbar", "ok"): 0.5})
    with pytest.raises(ValueError):
        JointDistribution({("okbar", "ok"): 1.5, ("okbar", "fail"): -0.5})


def test_joint_distribution_clamps_a_rounding_negative_to_zero():
    joint = JointDistribution({("okbar", "ok"): 1.0 + 5e-13, ("okbar", "fail"): -5e-13})
    assert joint.prob("okbar", "fail") == 0.0


def test_exact_joint_unitary_theta0():
    joint = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    assert joint.prob("okbar", "ok") == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert joint.prob("okbar", "fail") == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert joint.prob("failbar", "ok") == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert joint.prob("failbar", "fail") == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert joint.prob("other", "ok") == 0.0


def test_exact_joint_unitary_matches_symbolic_oracle():
    for theta in (0.0, 0.37, np.pi / 2, 2.2, np.pi):
        joint = exact_joint(ProtocolConfig(semantics="unitary", theta=theta))
        oracle = unitary_joint_numeric(theta)
        for cell, want in oracle.items():
            assert joint.prob(*cell) == pytest.approx(want, abs=1e-12)


def test_exact_joint_unitary_theta_pi():
    joint = exact_joint(ProtocolConfig(semantics="unitary", theta=np.pi))
    assert joint.prob("okbar", "fail") == pytest.approx(0.75, abs=1e-12)


def test_okbar_ok_cell_is_phase_independent():
    for theta in (0.0, 0.3, 1.0, np.pi / 2, 2.5, np.pi):
        joint = exact_joint(ProtocolConfig(semantics="unitary", theta=theta))
        assert joint.prob("okbar", "ok") == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_exact_joint_collapse_quarter_cells_any_theta():
    oracle = {k: float(v) for k, v in collapse_joint_cells().items()}
    joints = [exact_joint(ProtocolConfig(semantics="collapse", theta=t)) for t in (0.0, 1.57, np.pi)]
    for joint in joints:
        for cell, want in oracle.items():
            assert joint.prob(*cell) == pytest.approx(want, abs=1e-12)
    assert tv_distance(joints[0], joints[2]) < 1e-12


def test_tv_distance_between_phases():
    j0 = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    jpi = exact_joint(ProtocolConfig(semantics="unitary", theta=np.pi))
    assert tv_distance(j0, jpi) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert tv_distance(j0, jpi) > 0.6


def test_collapse_record_distribution_matches_fraction_oracle():
    table = exact_record_distribution(ProtocolConfig(semantics="collapse", theta=0.9))
    oracle = {k: float(v) for k, v in collapse_record_table().items()}
    assert set(table) == set(oracle)
    for key, want in oracle.items():
        assert table[key] == pytest.approx(want, abs=1e-12)


# The record table keeps the cells of at least IMPOSSIBLE_MASS.  Every cell is
# exactly 0 or at least 1/48 (the unitary ones that move read 5/48 ± cos θ/12),
# so no cell comes near that threshold: the keys, and so the mc CDF, never
# change with θ.
RECORD_KEYS = {"collapse": 12, "unitary": 16}


@pytest.mark.parametrize("semantics", sorted(RECORD_KEYS))
@settings(max_examples=40, deadline=None)
@example(theta=0.0)
@example(theta=np.pi)
@example(theta=2 * np.pi)
@example(theta=1e-6)
@example(theta=-1e-6)
@given(theta=st.floats(-20.0, 20.0))
def test_record_table_has_the_same_keys_at_every_theta(semantics, theta):
    reference = exact_record_distribution(ProtocolConfig(semantics=semantics, theta=0.7))
    assert len(reference) == RECORD_KEYS[semantics]
    table = exact_record_distribution(ProtocolConfig(semantics=semantics, theta=theta))
    assert set(table) == set(reference)
    assert min(table.values()) >= 1.0 / 48.0 - 1e-15


def test_collapse_conditionals():
    table = exact_record_distribution(ProtocolConfig(semantics="collapse"))
    p_ok_minus = sum(v for k, v in table.items() if k[2] == "okbar" and k[1] == "-1/2")
    p_ok = sum(v for k, v in table.items() if k[2] == "okbar")
    assert p_ok == pytest.approx(0.5, abs=1e-12)
    assert p_ok_minus == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert p_ok_minus / p_ok == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_unitary_record_distribution_consistency():
    table = exact_record_distribution(ProtocolConfig(semantics="unitary"))
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)
    # (wbar, w) marginal agrees with the exact joint
    joint = exact_joint(ProtocolConfig(semantics="unitary"))
    for wb in ("okbar", "failbar"):
        for w in ("ok", "fail"):
            got = sum(v for k, v in table.items() if k[2] == wb and k[3] == w)
            assert got == pytest.approx(joint.prob(wb, w), abs=1e-12)
    # conditioned on halting, the coin readout is a fair coin: the okbar
    # pointer mixes heads and tails symmetrically
    p_halt = sum(v for k, v in table.items() if k[2] == "okbar" and k[3] == "ok")
    p_halt_heads = sum(
        v for k, v in table.items() if k[2] == "okbar" and k[3] == "ok" and k[0] == "heads"
    )
    assert p_halt_heads / p_halt == pytest.approx(0.5, abs=1e-12)


def test_collapse_round_heads_forces_minus():
    cfg = ProtocolConfig(semantics="collapse", theta=0.6)
    for runner in (run_round, collapse_round):
        for i in range(300):
            rec = runner(cfg, round_rng(123, i), i)
            if rec.r == "heads":
                assert rec.z == "-1/2"
            assert rec.halted == (rec.wbar == "okbar" and rec.w == "ok")


def test_unitary_round_never_other():
    cfg = ProtocolConfig(semantics="unitary", theta=0.0)
    for i in range(300):
        rec = run_round(cfg, round_rng(77, i), i)
        assert rec.wbar in ("okbar", "failbar")
        assert rec.w in ("ok", "fail")
        assert rec.z in ("-1/2", "+1/2")


def test_sample_records_reproducible():
    cfg = ProtocolConfig(semantics="unitary", seed=9)
    a = sample_records(cfg, 500)
    b = sample_records(cfg, 500)
    assert a == b
    c = sample_records(dataclasses.replace(cfg, seed=10), 500)
    assert a != c


def test_sampled_frequencies_converge_to_exact():
    for semantics in ("unitary", "collapse"):
        cfg = ProtocolConfig(semantics=semantics, seed=42)
        n = 100_000
        records = sample_records(cfg, n)
        joint = exact_joint(cfg)
        counts = tally_joint(records)
        for cell, p in joint.entries.items():
            se = np.sqrt(p * (1 - p) / n)
            if se == 0:
                assert counts.get(cell, 0) == 0
            else:
                assert abs(counts.get(cell, 0) / n - p) < 4 * se


def test_per_round_runners_converge_to_exact():
    # one-draw rounds and the collapse state machine agree with the exact joint too
    for semantics, runner in (
        ("unitary", run_round), ("collapse", run_round), ("collapse", collapse_round)
    ):
        cfg = ProtocolConfig(semantics=semantics, seed=1)
        n = 4000
        records = [runner(cfg, round_rng(1, i), i) for i in range(n)]
        counts = Counter((r.wbar, r.w) for r in records)
        joint = exact_joint(cfg)
        for cell, p in joint.entries.items():
            if p == 0:
                continue
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(cell, 0) / n - p) < 5 * se


def test_halting_round_is_geometric():
    # mean episode length ~ 1/P(halt): 12 in the unitary picture, 4 in collapse
    for semantics, expected in (("unitary", 12.0), ("collapse", 4.0)):
        cfg = ProtocolConfig(semantics=semantics, seed=42)
        records = sample_records(cfg, 100_000)
        lengths = expand_histogram(records.lengths)
        mean, se = geometric_mean_se(lengths)
        assert abs(mean - expected) < 4 * se


def test_run_round_dispatch():
    rec = run_round(ProtocolConfig(semantics="collapse"), round_rng(5, 0))
    assert isinstance(rec, RoundRecord)
    rec = run_round(ProtocolConfig(semantics="unitary"), round_rng(5, 0))
    assert isinstance(rec, RoundRecord)


@pytest.mark.parametrize("semantics", ["unitary", "collapse"])
@pytest.mark.parametrize(
    "n_rounds",
    [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 7],
)
def test_chunked_sample_matches_single_draw(semantics, n_rounds):
    cfg = ProtocolConfig(semantics=semantics, seed=5)
    tally = sample_records(cfg, n_rounds)
    dist = exact_record_distribution(cfg)
    assert tally.keys == tuple(dist)
    assert tally.counts.dtype == tally.lengths.dtype == np.int64
    expected = unchunked_sample_index(list(dist.values()), n_rounds, seed=5).tolist()
    assert tally.counts.tolist() == [expected.count(k) for k in range(len(dist))]
    assert tally_joint(tally) == loop_tally(tally.keys, expected)
    lengths = loop_episode_lengths(tally.keys, expected)
    assert tally.lengths.tolist() == np.bincount(np.array(lengths, dtype=np.int64)).tolist()
    assert tally.leftover == n_rounds - sum(lengths)


def _tally_in_chunks(keys, index):
    return _tally_chunks(keys, (index[s:s + SAMPLE_CHUNK] for s in range(0, len(index), SAMPLE_CHUNK)))


def _chunk_edge_layouts(keys):
    """Two int64 round indices: halts on and next to chunk edges, and an episode open over two chunks."""
    halt = next(i for i, k in enumerate(keys) if k[2:] == ("okbar", "ok"))
    other = next(i for i, k in enumerate(keys) if k[2:] != ("okbar", "ok"))
    edges = np.full(2 * SAMPLE_CHUNK + 5, other, dtype=np.int64)
    edges[[0, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, 2 * SAMPLE_CHUNK]] = halt
    spanning = np.full(3 * SAMPLE_CHUNK + 5, other, dtype=np.int64)
    spanning[[0, 3 * SAMPLE_CHUNK + 2]] = halt
    return edges, spanning


def test_halts_on_chunk_edges():
    keys = tuple(exact_record_distribution(ProtocolConfig(semantics="collapse")))
    index, spanning = _chunk_edge_layouts(keys)
    tally = _tally_in_chunks(keys, index)
    lengths = loop_episode_lengths(keys, index.tolist())
    assert lengths == [1, SAMPLE_CHUNK - 1, 1, SAMPLE_CHUNK]
    assert tally.lengths.tolist() == np.bincount(lengths).tolist()
    assert tally.leftover == 4
    assert tally_joint(tally) == loop_tally(keys, index.tolist())
    # an episode open across two whole chunks without a halt
    tally = _tally_in_chunks(keys, spanning)
    assert loop_episode_lengths(keys, spanning.tolist()) == [1, 3 * SAMPLE_CHUNK + 2]
    assert np.flatnonzero(tally.lengths).tolist() == [1, 3 * SAMPLE_CHUNK + 2]
    assert (tally.lengths[[1, -1]].tolist(), tally.leftover) == ([1, 1], 2)


def _assert_draw_is_binary_search(cum, uniforms):
    want = np.searchsorted(cum[:-1], uniforms, side="right")
    got = _draw(cum, uniforms)
    assert got.dtype == np.min_scalar_type(len(cum) - 1)
    assert got.tolist() == want.tolist()


def _edge_uniforms(cum):
    """Every edge, its neighbours toward 0 and 1, and the extreme uniforms ``rng.random`` returns."""
    edges = cum[:-1]
    return np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, 1.0 - 2.0**-53]]
    )


@pytest.mark.parametrize("semantics", ["unitary", "collapse"])
@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi, 2 * np.pi])
def test_draw_equals_binary_search_at_the_edges(semantics, theta):
    _, cum = _record_cdf(ProtocolConfig(semantics=semantics, theta=theta))
    uniforms = _edge_uniforms(cum)
    _assert_draw_is_binary_search(cum, uniforms)
    _assert_draw_is_binary_search(cum, np.random.default_rng(17).random(SAMPLE_CHUNK))
    assert _draw(cum, uniforms).dtype == np.uint8
    # run_round draws from one Python float
    want = np.searchsorted(cum[:-1], uniforms, side="right").tolist()
    assert [int(_draw(cum, u)) for u in uniforms.tolist()] == want


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-10.0, 10.0), semantics=st.sampled_from(["unitary", "collapse"]))
def test_draw_equals_binary_search_at_any_theta(theta, semantics):
    _, cum = _record_cdf(ProtocolConfig(semantics=semantics, theta=theta))
    _assert_draw_is_binary_search(cum, _edge_uniforms(cum))


def test_run_round_takes_the_binary_search_record():
    for semantics in ("unitary", "collapse"):
        cfg = ProtocolConfig(semantics=semantics, theta=0.7)
        keys, cum = _record_cdf(cfg)
        for i in range(200):
            u = round_rng(11, i).random()
            r, z, wbar, w = keys[int(np.searchsorted(cum[:-1], u, side="right"))]
            assert run_round(cfg, round_rng(11, i), i) == RoundRecord(i, r, z, wbar, w)


def test_draw_on_synthetic_edges():
    # two empty records make three equal edges: a uniform on them skips both
    cum = np.cumsum([0.25, 0.0, 0.0, 0.25, 0.5])
    _assert_draw_is_binary_search(cum, _edge_uniforms(cum))
    assert _draw(cum, np.array([0.0, 0.25, 0.4, 0.5, 1.0 - 2.0**-53])).tolist() == [0, 3, 3, 4, 4]
    # more records than uint8 holds: the index widens instead of wrapping
    rng = np.random.default_rng(3)
    for n_records, dtype in ((256, np.uint8), (257, np.uint16), (300, np.uint16)):
        probs = rng.random(n_records)
        probs[::7] = 0.0
        probs[-1] = 1.0
        cum = np.cumsum(probs / probs.sum())
        uniforms = np.concatenate([_edge_uniforms(cum), rng.random(SAMPLE_CHUNK)])
        _assert_draw_is_binary_search(cum, uniforms)
        assert _draw(cum, uniforms).dtype == dtype
        assert int(_draw(cum, 1.0 - 2.0**-53)) == n_records - 1


@pytest.mark.parametrize("semantics", ["unitary", "collapse"])
def test_tally_does_not_depend_on_index_dtype(semantics):
    keys, cum = _record_cdf(ProtocolConfig(semantics=semantics, seed=4))
    drawn = _draw(cum, np.random.default_rng(4).random(2 * SAMPLE_CHUNK + 11))
    assert drawn.dtype == np.uint8
    for index in (*_chunk_edge_layouts(keys), drawn):
        assert _tally_in_chunks(keys, index.astype(np.uint8)) == _tally_in_chunks(
            keys, index.astype(np.int64)
        )


def test_round_tally_is_read_only_value():
    cfg = ProtocolConfig(semantics="unitary", seed=2)
    tally = sample_records(cfg, 100)
    for arr in (tally.counts, tally.lengths):
        with pytest.raises(ValueError):
            arr[...] = 0
    with pytest.raises(AttributeError):
        tally.leftover = 0
    assert isinstance(tally, RoundTally)
    assert tally == sample_records(cfg, 100)
    assert tally != sample_records(cfg, 101)
    empty = _tally_chunks(tally.keys, [])
    assert (empty.counts.sum(), tally_joint(empty), empty.lengths.tolist(), empty.leftover) == (
        0, {}, [], 0
    )


@pytest.mark.parametrize("semantics", ["unitary", "collapse"])
def test_sampler_memory_is_flat_in_rounds(semantics):
    cfg = ProtocolConfig(semantics=semantics, seed=3)
    sample_records(cfg, 10)  # warm the exact-distribution caches

    def peak(n_rounds):
        tracemalloc.start()
        try:
            sample_records(cfg, n_rounds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * SAMPLE_CHUNK + 1), peak(40 * SAMPLE_CHUNK + 1)
    assert large - small <= 64 * 1024, (small, large)


_PERIODIC_PERSPECTIVES = [
    Perspective("W", time, (), AssignmentRule(rule))
    for time in ("n:00", "n:10", "n:20", "n:30")
    for rule in ("collapse-aware", "unitary-global")
] + [Perspective("Fbar", "n:20", (("r", "tails"),), AssignmentRule("own-record-pure"))]


@settings(max_examples=20, deadline=None)
@given(
    theta=st.one_of(st.just(0.0), st.floats(-2 * np.pi, 2 * np.pi)),
    k=st.integers(-3, 3),
)
def test_theta_is_2pi_periodic(theta, k):
    shifted = theta + 2 * np.pi * k
    for semantics in ("unitary", "collapse"):
        a = exact_joint(ProtocolConfig(semantics=semantics, theta=theta))
        b = exact_joint(ProtocolConfig(semantics=semantics, theta=shifted))
        for cell, p in a.entries.items():
            assert abs(p - b.prob(*cell)) <= 1e-12
    for p in _PERIODIC_PERSPECTIVES:
        names = ("R", "Fbar", "S") if p.time in ("n:00", "n:10") else ("S", "F")
        assert abs(assign(p, names, theta).purity() - assign(p, names, shifted).purity()) <= 1e-12
    for name in RULESET_NAMES:
        assert audit(name, theta).contradiction == audit(name, shifted).contradiction


def test_no_cache_is_keyed_on_theta():
    # a cache keyed on a raw float angle grows with every new angle
    # ewfs.cli loads perspectives and reasoning only in the commands that use them.
    import ewfs.cli  # noqa: F401
    import ewfs.perspectives  # noqa: F401
    import ewfs.reasoning  # noqa: F401

    for name, module in list(sys.modules.items()):
        if name != "ewfs" and not name.startswith("ewfs."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info"):
                assert "theta" not in inspect.signature(value).parameters, f"{name}.{attr}"


def test_joint_entries_are_read_only():
    joint = exact_joint(ProtocolConfig(semantics="unitary", theta=0.0))
    with pytest.raises(TypeError):
        joint.entries[("okbar", "ok")] = 0.5
    assert joint.prob("okbar", "ok") == pytest.approx(1.0 / 12.0, abs=1e-12)


def _exact_both_semantics(theta):
    for semantics in ("collapse", "unitary"):
        config = ProtocolConfig(semantics=semantics, theta=theta)
        exact_joint(config)
        exact_record_distribution(config)


def test_exact_paths_build_no_state_vector(monkeypatch):
    _exact_both_semantics(0.3)
    built = _engine.calls(monkeypatch, qcore.StateVector, "__post_init__")
    for theta in np.random.default_rng(9).uniform(-20.0, 20.0, 20):
        _exact_both_semantics(theta)
    assert not built.counts


def _collapse_reprs(theta):
    """The collapse joint's cells and record table at θ, each float as its ``repr``."""
    config = ProtocolConfig(semantics="collapse", theta=theta)
    joint = [(cell, repr(p)) for cell, p in exact_joint(config).entries.items()]
    return joint, [(key, repr(p)) for key, p in exact_record_distribution(config).items()]


@settings(max_examples=40, deadline=None)
@example(theta=0.0)
@example(theta=-0.0)
@example(theta=1e6)
@example(theta=-1e6)
@example(theta=np.pi)
@given(theta=st.floats(-1e6, 1e6))
def test_collapse_tables_are_the_same_bytes_at_every_angle(theta):
    # The first reader's angle does not reach the kept tables: cold at θ is cold at 0.
    _engine.clear()
    cold = _collapse_reprs(theta)
    _engine.clear()
    assert _collapse_reprs(0.0) == cold
    # Warm, every angle reads the same bytes, and within 1e-15 of the closed form.
    assert _collapse_reprs(theta) == _collapse_reprs(-theta) == cold
    joint = exact_joint(ProtocolConfig(semantics="collapse", theta=theta))
    assert all(abs(joint.prob(*cell) - float(p)) <= 1e-15 for cell, p in collapse_joint_cells().items())
    # Each caller gets its own record table; the joint is one read-only value.
    table = exact_record_distribution(ProtocolConfig(semantics="collapse", theta=theta))
    table.clear()
    assert _collapse_reprs(theta) == cold
    assert exact_joint(ProtocolConfig(semantics="collapse", theta=1.0)) is joint
