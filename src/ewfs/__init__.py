"""ewfs: exact simulator and reasoning auditor for the extended Wigner's-friend experiment.

The package is organized bottom-up:

* :mod:`ewfs.qcore`        dense kets, operators, density matrices and
  dephasing on small named-register spaces;
* :mod:`ewfs.measurement`  labeled projective measurements whose bases
  complete themselves, the one Born rule (``born_distribution``), and their
  unitary dilations onto memory registers;
* :mod:`ewfs.protocol`     the four-agent protocol's global states, exact
  joint distributions under collapse or unitary semantics (one engine:
  collapse is the unitary picture with pointer dephasing), and
  reproducible Monte Carlo;
* :mod:`ewfs.perspectives` the state-assignment engine (collapse-aware,
  unitary-global, own-record-pure) and its Born predictions;
* :mod:`ewfs.reasoning`    the agents' statements, rule sets, certainty
  chaining, and the contradiction audit;
* :mod:`ewfs.cli`          the ``ewfs`` command-line front end.
"""

from .measurement import DilationSpec, MeasurementSpec, build_dilation
from .perspectives import (
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
)
from .protocol import (
    JointDistribution,
    ProtocolConfig,
    RoundRecord,
    RoundTally,
    exact_joint,
    run_round,
    sample_records,
)
from .qcore import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    StateVector,
    dephase,
)
from .reasoning import AuditReport, RuleSet, Statement, audit, chain, evaluate

__version__ = "0.1.0"

__all__ = [
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
