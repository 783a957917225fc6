"""Every product and squared modulus that sets a value goes through ``qcore``'s numeric seam.

``qcore._dot`` (the one place that decides whether BLAS runs) and
``qcore._sqmod`` are the seam.  An AST scan of ``protocol``,
``perspectives`` and ``measurement`` finds every ``@`` and every call of
``np.abs``, ``np.vdot``, ``np.einsum``, ``np.dot``, ``np.matmul`` or
``np.linalg.*``; each one outside the seam must be on ``ALLOWED``, which
gives its reason.  The list holds import-time builders and validation-only
checks, none of which sets a per-angle or per-description value, and each
entry must still be found, so the list cannot go stale.  Each per-angle and
per-description path calls the seam by name.
"""

import ast
from pathlib import Path

import ewfs

SRC = Path(ewfs.__file__).resolve().parent
SCANNED = ("protocol.py", "perspectives.py", "measurement.py")
CALLS = ("np.abs", "np.vdot", "np.einsum", "np.dot", "np.matmul", "np.linalg")

# (file, enclosing function or "<module>", operation) -> why it may bypass the seam
ALLOWED = {
    ("measurement.py", "MeasurementSpec.__post_init__", "@"):
        "validation only: the Gram matrix of the listed outcomes, checked for orthonormality",
    ("measurement.py", "MeasurementSpec.__post_init__", "np.abs"):
        "validation only: the deviation of that Gram matrix from the identity",
    ("measurement.py", "_complement", "np.vdot"):
        "import-time builder: Gram-Schmidt completion of a basis, built once per spec",
    ("measurement.py", "_complement", "np.linalg.norm"):
        "import-time builder: normalisation of a completion row, built once per spec",
    ("measurement.py", "build_dilation", "@"):
        "import-time builder: the friends' controlled unitaries, built once",
    ("protocol.py", "<module>", "np.einsum"):
        "import-time builder: the θ-free collapse record table, built once and the same at every θ",
}

# The per-angle and per-description paths, and the seam functions each calls.
PATHS = {
    ("protocol.py", "_global_amplitudes"): {"_dot"},
    ("protocol.py", "_announcement_probs"): {"_dot", "_sqmod"},
    ("perspectives.py", "_contract"): {"_dot", "_sqmod"},
    ("perspectives.py", "_build"): {"_dot", "_sqmod"},
    ("measurement.py", "born_distribution"): {"_dot", "_sqmod"},
    ("qcore.py", "DensityMatrix._gram"): {"_dot"},
}


def _dotted(node):
    """``np.linalg.norm`` for that attribute chain; ``None`` if it is not rooted at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _scan(path):
    """{(enclosing qualified name, operation): count} of every seam-bypassing operation in a module."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        op = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            op = "@"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name and any(name == c or name.startswith(c + ".") for c in CALLS):
                op = name
        if op:
            found[(scope, op)] = found.get((scope, op), 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _functions(path):
    """{qualified name: the names it reads} of every function in a module."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name if scope is None else f"{scope}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    out[name] = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
                visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return out


def test_no_product_or_squared_modulus_bypasses_the_seam_unless_allowed():
    found = {(name, scope, op) for name in SCANNED for scope, op in _scan(SRC / name)}
    assert sorted(found - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - found) == []  # every allowance is still needed


def test_every_value_setting_path_calls_the_seam():
    for (name, function), seam in PATHS.items():
        assert seam <= _functions(SRC / name)[function], (name, function)


def test_the_scan_finds_each_kind_of_bypass(tmp_path):
    path = tmp_path / "mutant.py"
    path.write_text(
        "import numpy as np\n"
        "X = np.einsum('i->', np.ones(2))\n"
        "class K:\n"
        "    def f(self, a, b):\n"
        "        return np.abs(a @ b) ** 2 + np.linalg.norm(a) + np.vdot(a, b)\n"
    )
    assert _scan(path) == {
        ("<module>", "np.einsum"): 1,
        ("K.f", "@"): 1, ("K.f", "np.abs"): 1, ("K.f", "np.linalg.norm"): 1, ("K.f", "np.vdot"): 1,
    }
