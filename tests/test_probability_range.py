"""Every probability the package reports lies in [0, 1], not just within ulps of it.

``born_distribution`` divides each outcome's mass by the sum of the masses,
so in floating point no quotient exceeds 1; dividing by the branch weight
instead let merged predictions reach 1 + 4.4e-16.  Two scans check it:

* every ``probability.value`` and audit statement ``value`` in every
  ``--json`` payload of the digest grid (``tests/cli_digest.py``, ``mc``
  included);
* every merged Born prediction of the four protocol measurements, for every
  agent x checkpoint x rule x single-record conditioning, at 20 angles.

The output schema bounds the audit's statement and conclusion values to
[0, 1] as well, so a payload outside it fails validation.
"""

import copy
import json

import jsonschema
import numpy as np
import pytest

from ewfs import perspectives, protocol
from ewfs.perspectives import AGENTS, RECORDS, RULE_KINDS, TIMES, NotEvaluableError, Perspective

from _schema import VALIDATOR
from cli_digest import THETAS, grid, mc_grid, recorded

SPECS = (
    protocol.COIN_MEASUREMENT,
    protocol.SPIN_MEASUREMENT,
    protocol.WBAR_MEASUREMENT,
    protocol.W_MEASUREMENT,
)
CONDITIONS = ((),) + tuple(((var, value),) for var, (_, _, values) in RECORDS.items() for value in values)
ANGLES = np.linspace(0.0, 2 * np.pi, 20)


def _probability_values(node):
    """``value`` of every probability object, and of every audit statement."""
    if isinstance(node, dict):
        if node.keys() == {"value", "fraction"} or "status" in node:
            if node["value"] is not None:
                yield node["value"]
        for child in node.values():
            yield from _probability_values(child)
    elif isinstance(node, list):
        for child in node:
            yield from _probability_values(child)


def test_json_probabilities_on_the_digest_grid_lie_in_the_unit_interval():
    outside, checked = [], 0
    for theta in THETAS:
        for argv in grid(theta) + mc_grid(theta):
            code, out, _ = recorded(theta)[(*argv, "--json")]
            if code == 0:
                values = list(_probability_values(json.loads(out)))
                checked += len(values)
                outside += [(argv, v) for v in values if not 0.0 <= v <= 1.0]
    assert checked > 4_000
    assert outside == []


def test_merged_predictions_lie_in_the_unit_interval():
    outside, checked = [], 0
    for agent in AGENTS:
        for time in TIMES:
            for rule in RULE_KINDS:
                for cond in CONDITIONS:
                    try:
                        p = Perspective(agent, time, cond, rule)
                    except ValueError:
                        continue  # a record that does not exist yet, or another agent's own record
                    for spec in SPECS:
                        for theta in ANGLES:
                            try:
                                dist = perspectives.predict_distribution(p, spec, theta)
                            except NotEvaluableError:
                                continue
                            checked += len(dist)
                            outside += [
                                (p, label, v) for label, v in dist.items() if not 0.0 <= v <= 1.0
                            ]
    assert checked > 10_000
    assert outside == []



def test_schema_bounds_audit_values_to_the_unit_interval():
    payloads = [
        json.loads(recorded(theta)[(*argv, "--json")][1])
        for theta in THETAS
        for argv in grid(theta)
        if argv[0] == "audit"
    ]
    for payload in payloads:
        VALIDATOR.validate(payload)
    statement, conclusion = copy.deepcopy(payloads[0]), copy.deepcopy(payloads[0])
    statement["statements"][0]["value"] = 1.0000000000000004
    conclusion["conclusion_value"]["value"] = -1e-300
    for broken in (statement, conclusion):
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate(broken)
