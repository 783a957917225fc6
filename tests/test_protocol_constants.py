"""The protocol's fixed description is built once, at import, as read-only module values."""

import numpy as np
import pytest

from ewfs import cli, measurement, perspectives, protocol, qcore, reasoning

# The getters the module constants replaced.
GONE = {
    protocol: (
        "coin_measurement", "spin_measurement", "spin_right_state", "spin_preparation_rotation",
        "coin_dilation", "spin_dilation", "coin_interaction", "spin_interaction",
        "wbar_measurement", "w_measurement", "_coin_branches", "_observers",
    ),
    perspectives: ("record_readout_spec", "_projectors"),
}


def _cached_functions(module):
    return sorted(
        name for name, value in vars(module).items()
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__
    )


def test_only_the_perspective_keyed_caches_remain():
    modules = (qcore, measurement, protocol, perspectives, reasoning, cli)
    caches = {m.__name__: _cached_functions(m) for m in modules}
    assert caches == {
        "ewfs.qcore": [],
        "ewfs.measurement": [],
        "ewfs.protocol": [],
        "ewfs.perspectives": ["_kernel"],
        "ewfs.reasoning": ["_perspective"],
        "ewfs.cli": [],
    }


def test_the_replaced_getters_are_gone():
    for module, names in GONE.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__


def test_checkpoint_branches_and_observer_factors_are_read_only():
    assert sorted(protocol._BRANCHES) == ["n:00", "n:10", "n:20"]
    with pytest.raises(TypeError):
        protocol._BRANCHES["n:30"] = protocol._BRANCHES["n:20"]
    for heads, tails in protocol._BRANCHES.values():
        assert heads.flags.writeable is False and tails.flags.writeable is False
    factors = (
        protocol.WBAR_MEASUREMENT.bras, protocol.W_MEASUREMENT.bras,
        protocol._LBAR_WEIGHTS, protocol._L_WEIGHTS, protocol._R_READ, protocol._Z_READ,
    )
    assert all(arr.flags.writeable is False for arr in factors)
    assert protocol.WBAR_MEASUREMENT.labels == ("okbar", "failbar") + ("other",) * 4
    assert protocol.W_MEASUREMENT.labels == ("ok", "fail") + ("other",) * 4
    with pytest.raises(ValueError, match="no unitary checkpoint state at 'n:30'"):
        protocol.global_state(0.0, "n:30")


def test_checkpoint_branches_are_the_dilations_applied_in_turn():
    coin = measurement.build_dilation(protocol.COIN_DILATION, protocol.LAYOUT).matrix
    spin = measurement.build_dilation(protocol.SPIN_DILATION, protocol.LAYOUT).matrix
    heads, tails = np.eye(36)[0], np.eye(36)[18]  # coin heads / tails, every memory ready
    for time, steps in (("n:00", ()), ("n:10", (coin,)), ("n:20", (coin, spin))):
        want = [heads, tails]
        for step in steps:
            want = [step @ v for v in want]
        assert np.allclose(protocol._BRANCHES[time], want, atol=1e-15), time
