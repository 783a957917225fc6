"""The paper's claim, read off the actual records: no consistent description yields the chain.

The Frauchiger-Renner chain needs three certainties at once: a tails coin
makes the lab-L observer announce fail, a +1/2 spin record means the coin
read tails, and an okbar announcement means the spin record reads +1/2.
Under either semantics the joint of the actual records (r, z, wbar, w)
gives the three links as conditional probabilities, and at every angle
the weakest of them is at most 1/2.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewfs import protocol, reasoning
from ewfs.protocol import ProtocolConfig, exact_record_distribution

SEMANTICS = (protocol.COLLAPSE, protocol.UNITARY)


def _conditional(dist, event, given):
    """P(event | given), each a (record position, value) pair over (r, z, wbar, w) keys."""
    mass = sum(p for key, p in dist.items() if key[given[0]] == given[1])
    joint = sum(
        p for key, p in dist.items() if key[given[0]] == given[1] and key[event[0]] == event[1]
    )
    return joint / mass


def chain_links(semantics, theta):
    """P(w=fail | r=tails), P(r=tails | z=+1/2) and P(z=+1/2 | wbar=okbar)."""
    dist = exact_record_distribution(ProtocolConfig(semantics=semantics, theta=theta))
    return (
        _conditional(dist, (3, protocol.FAIL), (0, protocol.TAILS)),
        _conditional(dist, (0, protocol.TAILS), (1, protocol.Z_PLUS)),
        _conditional(dist, (1, protocol.Z_PLUS), (2, protocol.OKBAR)),
    )


@pytest.mark.parametrize(
    "semantics, want",
    [(protocol.COLLAPSE, (1 / 2, 1.0, 1 / 3)), (protocol.UNITARY, (5 / 6, 1 / 2, 1 / 2))],
)
def test_chain_links_at_theta_zero(semantics, want):
    got = chain_links(semantics, 0.0)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), (semantics, got)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-20.0, 20.0))
@example(theta=0.0)
@example(theta=2 * np.pi)
def test_some_link_is_at_most_one_half(theta):
    for semantics in SEMANTICS:
        links = chain_links(semantics, theta)
        assert min(links) <= 0.5 + 1e-12, (semantics, theta, links)


@pytest.mark.parametrize(
    "theta, contradiction",
    [
        (5e-7, True),
        (-5e-7, True),
        (2 * np.pi + 5e-7, True),
        (2e-6, False),
        (-2e-6, False),
        (2 * np.pi + 2e-6, False),
    ],
)
def test_fr_mixed_contradiction_window_near_theta_zero(theta, contradiction):
    # 1 - Wbar_22 is about theta^2, and a certainty allows its other values IMPOSSIBLE_MASS =
    # 1e-12, so the float audit still reads a contradiction within about 1e-6 of 2*pi*k.  Both
    # sides are pinned well away from that edge: 1 - Wbar_22 is 2.5e-13 inside and 4e-12 outside.
    assert reasoning.audit("fr-mixed", theta).contradiction is contradiction
