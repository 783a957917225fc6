"""The package's public names, and the helpers that live only in the test oracles."""

import ewfs
from ewfs import measurement, perspectives, qcore

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
    "predict",
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
