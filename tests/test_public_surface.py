"""The package's public names, and the helpers that live only in the test oracles.

Every public function and method in ``ewfs`` is called by the package
itself or by the benchmark in ``perfbench``: a name that only tests call
moves to ``tests/_oracles.py`` or leaves.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

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
    "RoundTally",
    "RuleSet",
    "SpaceLayout",
    "StateVector",
    "Statement",
    "__version__",
    "assign",
    "audit",
    "build_dilation",
    "chain",
    "evaluate",
    "exact_joint",
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


SRC = sorted(Path(ewfs.__file__).resolve().parent.glob("*.py"))
PERFBENCH = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    if not p.name.startswith("test_")
)


def _public_functions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and class method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item.name)
                for item in node.body if isinstance(item, ast.FunctionDef)
            ]
    return [(qual, name) for qual, name in out if not name.startswith("_")]


def _referenced(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The bare names a module reads, and the attribute names it reads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def _uncalled(public: list[tuple[str, str]], names: set[str], attributes: set[str]) -> set[str]:
    """The public functions nothing reads; a method is read only as an attribute."""
    return {
        qual for qual, name in public
        if name not in attributes and ("." in qual or name not in names)
    }


def test_the_caller_check_sees_only_reads():
    tree = ast.parse("def f(): pass\nclass C:\n    def m(self): f()\n    def _p(self): pass\n")
    assert _public_functions(tree) == [("f", "f"), ("C.m", "m")]
    assert _uncalled(_public_functions(tree), *_referenced(tree)) == {"C.m"}
    # a local name, read or written, is not a call of the method it shares a name with
    tree = ast.parse("class C:\n    def m(self): pass\ndef g():\n    m = 1\n    return m\n")
    assert _uncalled(_public_functions(tree), *_referenced(tree)) == {"C.m", "g"}
    tree = ast.parse("class C:\n    def m(self): pass\ndef g(c):\n    return c.m()\n")
    assert _uncalled(_public_functions(tree), *_referenced(tree)) == {"g"}


def test_every_public_function_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in SRC + PERFBENCH}
    names, attributes = (set().union(*sets) for sets in zip(*map(_referenced, trees.values())))
    uncalled = {
        f"{path.stem}.{qual}"
        for path in SRC
        for qual in _uncalled(_public_functions(trees[path]), names, attributes)
    }
    assert uncalled == {
        # Leaves with RoundRecord once the benchmark's probe stops calling the
        # per-round runner.
        "protocol.RoundRecord.halted",
        # The public lookup of one statement's result on a report; library
        # users and the tests read it, the CLI walks ``results`` instead.
        "reasoning.AuditReport.result",
    }
