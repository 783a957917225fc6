"""Every memo stays bounded over fresh angles, is keyed by no angle, and one clear empties it.

A memo here is any non-dunder module-level ``dict`` or ``lru_cache`` of a
loaded ``ewfs`` module, so a memo the package adds is covered without being
named.  The run is made in a fresh interpreter, where no earlier test has
filled a memo that ``_engine.clear()`` would miss: it clears, records each
container's size, runs the benchmark's sweep op (both exact joints, the
three audits, the assignment grid) at 20 fresh angles and then at 40 more,
and clears again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import _engine
import ewfs
from _oracles import SWEEP_GRID, default_registers
from ewfs import cli, perspectives, protocol, reasoning  # noqa: F401  (every layer is loaded)

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(ewfs.__file__).parents[1]), str(Path(__file__).parent),
                      os.environ.get("PYTHONPATH")))
    ),
}

# The memos the sweep op fills, each emptied by ``_engine.clear()``.
MEMOS = {
    "ewfs.perspectives._KERNELS",
    "ewfs.perspectives._STANDPOINTS",
    "ewfs.perspectives._kernel",
    "ewfs.reasoning._perspective",
}


def _containers():
    """Each non-dunder module-level ``dict`` and ``lru_cache`` of the loaded ``ewfs`` modules."""
    return {
        f"{module_name}.{attr}": value
        for module_name, module in list(sys.modules.items())
        if module_name.partition(".")[0] == "ewfs"
        for attr, value in vars(module).items()
        if not attr.startswith("__") and (isinstance(value, dict) or hasattr(value, "cache_info"))
    }


def _sizes(containers):
    return {
        name: value.cache_info().currsize if hasattr(value, "cache_info") else len(value)
        for name, value in containers.items()
    }


def _has_float(key):
    return isinstance(key, float) or (isinstance(key, tuple) and any(map(_has_float, key)))


def _sweep_op(theta):
    for semantics in ("collapse", "unitary"):
        protocol.exact_joint(protocol.ProtocolConfig(semantics=semantics, theta=theta))
    for name in reasoning.RULESET_NAMES:
        reasoning.audit(name, theta)
    for agent, time, cond, rule in SWEEP_GRID:
        p = perspectives.Perspective(agent, time, cond, rule)
        try:
            perspectives.assign(p, default_registers(time), theta)
        except perspectives.NotEvaluableError:
            pass


def findings():
    """Run the sweep op at 20 then 40 fresh angles between two clears; return what each container did."""
    _engine.clear()
    containers = _containers()
    start = _sizes(containers)
    thetas = np.random.default_rng(35).uniform(-10.0, 10.0, 60).tolist()
    for theta in thetas[:20]:
        _sweep_op(theta)
    warm = _sizes(containers)
    for theta in thetas[20:]:
        _sweep_op(theta)
    end = _sizes(containers)
    grown = sorted(name for name in containers if end[name] > start[name])
    float_keyed = sorted(
        name for name in grown
        if isinstance(containers[name], dict) and any(map(_has_float, containers[name]))
    )
    _engine.clear()
    cleared = _sizes(containers)
    return {
        "containers": len(containers),
        "grown": grown,
        "grown_late": sorted(name for name in containers if end[name] > warm[name]),
        "float_keyed": float_keyed,
        "not_emptied": sorted(name for name in containers if cleared[name] != start[name]),
    }


def test_every_memo_is_bounded_keyed_by_no_angle_and_emptied_by_one_clear():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, test_memo_inventory as t; print(json.dumps(t.findings()))"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["containers"] >= len(MEMOS)
    assert found["grown_late"] == []
    assert found["float_keyed"] == []
    assert found["not_emptied"] == []
    assert set(found["grown"]) == MEMOS
