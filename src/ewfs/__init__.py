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
  reproducible Monte Carlo; it also names the agents, checkpoints, records,
  assignment rules and built-in rule sets the layers above share;
* :mod:`ewfs.perspectives` the state-assignment engine (collapse-aware,
  unitary-global, own-record-pure) and its Born predictions;
* :mod:`ewfs.reasoning`    the agents' statements, rule sets, certainty
  chaining, and the contradiction audit;
* :mod:`ewfs.cli`          the ``ewfs`` command-line front end.

Importing the package loads none of them.  Each name below, and each of
these modules, loads its layer (and the layers under it) on first access.
So ``ewfs exact``, ``ewfs mc`` and ``ewfs --version`` load only ``cli``,
``protocol``, ``measurement`` and ``qcore``; ``ewfs perspectives`` adds
``perspectives``, and ``ewfs audit`` adds ``perspectives`` and ``reasoning``.
"""

import sys

__version__ = "0.1.0"

# Each module and the names the package re-exports from it.
_EXPORTS = {
    "qcore": ("DensityMatrix", "Operator", "SpaceLayout", "StateVector"),
    "measurement": ("DilationSpec", "MeasurementSpec", "build_dilation"),
    "protocol": ("JointDistribution", "ProtocolConfig", "RoundTally", "exact_joint", "sample_records"),
    "perspectives": ("AssignmentRule", "NotEvaluableError", "Perspective", "assign"),
    "reasoning": ("AuditReport", "RuleSet", "Statement", "audit", "chain", "evaluate"),
    "cli": (),
}
# Each name loaded on first access -> the module that holds it; a module maps to itself.
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

# Derived from _EXPORTS, so each public name is spelled once.
__all__ = sorted([*(name for names in _EXPORTS.values() for name in names), "__version__"])


def __getattr__(name: str):
    """Load a name's home module on first access, and keep the name here for later reads."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, unlike importlib's, shows under ``-X importtime``.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
