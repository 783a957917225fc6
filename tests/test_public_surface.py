"""The package's public names, and the helpers that live only in the test oracles."""

import dataclasses
import inspect

import ewfs
from ewfs import measurement, perspectives, protocol, qcore, reasoning

PUBLIC = [
    "AssignmentRule",
    "AuditReport",
    "DensityMatrix",
    "DilationSpec",
    "JointDistribution",
    "MeasurementSpec",
    "NotEvaluableError",
    "Operator",
    "Perspective",
    "ProtocolConfig",
    "RoundRecord",
    "RoundTally",
    "RuleSet",
    "SpaceLayout",
    "Statement",
    "StateVector",
    "__version__",
    "assign",
    "audit",
    "build_dilation",
    "chain",
    "dephase",
    "evaluate",
    "exact_joint",
    "run_round",
    "sample_records",
]

# Nothing in the package calls these; tests/_oracles.py keeps them.
ORACLE_ONLY = (
    "tensor",
    "tensor_all",
    "inner",
    "identity",
    "partial_trace",
    "trace_distance",
    "fidelity",
    "compare",
    "StateComparison",
    "outcome_distribution",
)


def test_public_names_are_pinned():
    assert ewfs.__all__ == PUBLIC
    assert all(hasattr(ewfs, name) for name in PUBLIC)


def test_oracle_only_helpers_are_not_in_the_package():
    for module in (ewfs, qcore, measurement, perspectives):
        assert [name for name in ORACLE_ONLY if hasattr(module, name)] == [], module.__name__


def test_restatements_and_unused_defaults_are_gone():
    # One path to a Born probability, and no reshape alias on StateVector.
    assert not hasattr(ewfs, "predict") and not hasattr(perspectives, "predict")
    assert not hasattr(qcore.StateVector, "tensorized")
    # The derived flags are read off the fields they follow from, not stored next to them.
    assert "contradiction" not in [f.name for f in dataclasses.fields(reasoning.AuditReport)]
    assert "halted" not in [f.name for f in dataclasses.fields(protocol.RoundRecord)]
    for fn in (measurement.pointer_readout_spec, measurement.born_distribution):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == [], fn.__name__


def test_a_statement_has_no_reconditioned_copy():
    # A nested certainty passes the inner statement its conditioning instead.
    assert not hasattr(reasoning.Statement, "reconditioned")
