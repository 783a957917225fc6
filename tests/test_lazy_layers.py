"""Each command loads only the layers it runs; the package resolves its names on first access.

The help texts and the choice errors are pinned from commit e81f729, before
the parser took its choices from ``protocol``, at an 80-column terminal.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import ewfs
from ewfs import cli

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(ewfs.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}

BASE = {"ewfs", "ewfs.cli", "ewfs.measurement", "ewfs.protocol", "ewfs.qcore"}

# Runs ``cli.main`` on argv in a fresh interpreter; prints the exit code and the ewfs modules loaded.
RUN_COMMAND = """
import contextlib, io, json, sys
from ewfs import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "ewfs")]))
"""

# Imports the package, then reads each name of argv in turn; prints dir() and what each step loaded.
READ_NAMES = """
import json, sys
import ewfs
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "ewfs" or m == "numpy")
steps = [loaded()]
listed = dir(ewfs)
assert not hasattr(ewfs, "bogus")
steps.append(loaded())
for name in sys.argv[1:]:
    getattr(ewfs, name)
    steps.append(loaded())
print(json.dumps({"dir": listed, "steps": steps}))
"""


def _child(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["--version"], set()),
        (["exact", "--json"], set()),
        (["mc", "--rounds", "10"], set()),
        (["perspectives", "--agent", "F", "--time", "n:20", "--rule", "collapse"], {"ewfs.perspectives"}),
        (["audit", "--ruleset", "fr-mixed"], {"ewfs.perspectives", "ewfs.reasoning"}),
    ],
)
def test_each_command_loads_only_its_layers(argv, layers):
    code, loaded = _child(RUN_COMMAND, *argv)
    assert code == 0, argv
    assert set(loaded) == BASE | layers, argv


def test_the_package_loads_a_layer_when_one_of_its_names_is_read():
    out = _child(READ_NAMES, "__version__", "ProtocolConfig", "Perspective", "audit")
    steps = [set(step) for step in out["steps"]]
    protocol = {"ewfs.measurement", "ewfs.protocol", "ewfs.qcore", "numpy"}
    assert steps == [
        {"ewfs"},  # import ewfs
        {"ewfs"},  # dir(ewfs) and a missing name
        {"ewfs"},  # __version__
        {"ewfs"} | protocol,
        {"ewfs", "ewfs.perspectives"} | protocol,
        {"ewfs", "ewfs.perspectives", "ewfs.reasoning"} | protocol,
    ]
    layers = ("qcore", "measurement", "protocol", "perspectives", "reasoning", "cli")
    assert set(ewfs.__all__) | set(layers) <= set(out["dir"])


def test_each_public_name_is_its_home_module_object():
    for name in ewfs.__all__:
        value = getattr(ewfs, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        assert getattr(sys.modules[value.__module__], name) is value, name
    for layer in ("qcore", "measurement", "protocol", "perspectives", "reasoning", "cli"):
        assert getattr(ewfs, layer) is sys.modules[f"ewfs.{layer}"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ewfs' has no attribute 'bogus'$"):
        ewfs.bogus  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'bogus'"):
        from ewfs import bogus  # noqa: F401


def test_the_moved_names_are_the_ones_the_layers_use():
    from ewfs import perspectives, protocol, reasoning

    for name in ("AGENTS", "TIMES", "RECORDS", "COLLAPSE_AWARE", "UNITARY_GLOBAL",
                 "OWN_RECORD_PURE", "RULE_KINDS"):
        assert getattr(perspectives, name) is getattr(protocol, name), name
    assert reasoning.RULESET_NAMES is protocol.RULESET_NAMES
    assert tuple(reasoning.BUILTIN_AUDITS) == protocol.RULESET_NAMES
    assert [rs.name for rs, _ in reasoning.BUILTIN_AUDITS.values()] == list(protocol.RULESET_NAMES)


HELP = {
    (): """\
usage: ewfs [-h] [--version] {exact,mc,perspectives,audit} ...

Exact simulator and reasoning auditor for the four-agent extended
Wigner's-friend experiment.

positional arguments:
  {exact,mc,perspectives,audit}
    exact               exact joint announcement distribution
    mc                  Monte Carlo rounds with halting histogram
    perspectives        density matrix an agent assigns
    audit               statement-chain audit under a rule set

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("exact",): """\
usage: ewfs exact [-h] [--semantics {collapse,unitary}] [--theta THETA]
                  [--json] [--out DIR]

options:
  -h, --help            show this help message and exit
  --semantics {collapse,unitary}
  --theta THETA         coin phase in radians
  --json                print the JSON payload instead of a table
  --out DIR             write JSON (and CSV) outputs plus a run manifest into
                        DIR
""",
    ("mc",): """\
usage: ewfs mc [-h] [--semantics {collapse,unitary}] [--theta THETA]
               [--rounds ROUNDS] [--seed SEED] [--json] [--out DIR]

options:
  -h, --help            show this help message and exit
  --semantics {collapse,unitary}
  --theta THETA
  --rounds ROUNDS
  --seed SEED
  --json                print the JSON payload instead of a table
  --out DIR             write JSON (and CSV) outputs plus a run manifest into
                        DIR
""",
    ("perspectives",): """\
usage: ewfs perspectives [-h] --agent {Fbar,F,Wbar,W} --time
                         {n:00,n:10,n:20,n:30} --rule
                         {collapse,unitary,own-record} [--cond VAR=VALUE]
                         [--theta THETA] [--subsystems NAMES] [--json]
                         [--out DIR]

options:
  -h, --help            show this help message and exit
  --agent {Fbar,F,Wbar,W}
  --time {n:00,n:10,n:20,n:30}
  --rule {collapse,unitary,own-record}
  --cond VAR=VALUE      condition on a record, e.g. r=tails (repeatable)
  --theta THETA
  --subsystems NAMES    comma-separated registers (default depends on --time)
  --json                print the JSON payload instead of a table
  --out DIR             write JSON (and CSV) outputs plus a run manifest into
                        DIR
""",
    ("audit",): """\
usage: ewfs audit [-h] --ruleset {fr-mixed,all-collapse,all-unitary}
                  [--theta THETA] [--json] [--out DIR]

options:
  -h, --help            show this help message and exit
  --ruleset {fr-mixed,all-collapse,all-unitary}
  --theta THETA
  --json                print the JSON payload instead of a table
  --out DIR             write JSON (and CSV) outputs plus a run manifest into
                        DIR
""",
}

_PERSPECTIVES = ("perspectives", "--agent", "F", "--time", "n:20")

# argv -> the error line after the subcommand's usage.
ERRORS = {
    ("perspectives", "--agent", "X", "--time", "n:20", "--rule", "collapse"):
        "argument --agent: invalid choice: 'X' (choose from 'Fbar', 'F', 'Wbar', 'W')",
    ("perspectives", "--agent", "F", "--time", "n:99", "--rule", "collapse"):
        "argument --time: invalid choice: 'n:99' (choose from 'n:00', 'n:10', 'n:20', 'n:30')",
    _PERSPECTIVES + ("--rule", "bogus"):
        "argument --rule: invalid choice: 'bogus' (choose from 'collapse', 'unitary', 'own-record')",
    ("audit", "--ruleset", "bogus"):
        "argument --ruleset: invalid choice: 'bogus' (choose from 'fr-mixed', 'all-collapse', 'all-unitary')",
    _PERSPECTIVES + ("--rule", "collapse", "--cond", "q=1"):
        "argument --cond: unknown record 'q'; choose from ['r', 'wbar', 'z']",
    _PERSPECTIVES + ("--rule", "collapse", "--cond", "r=up"):
        "argument --cond: unknown value 'up' for record 'r'; choose from ('heads', 'tails')",
    _PERSPECTIVES + ("--rule", "own-record", "--cond", "wbar=okbar"):
        "record 'wbar' does not exist yet at n:20 (available n:30)",
    ("perspectives", "--agent", "W", "--time", "n:20", "--rule", "own-record"):
        "own-record-pure conditions on exactly one record",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "top")
def test_help_is_unchanged(command):
    assert _run(command + ("--help",)) == (0, HELP[command], "")


@pytest.mark.parametrize("argv", list(ERRORS), ids=lambda a: " ".join(a))
def test_choice_errors_are_unchanged(argv):
    usage = HELP[argv[:1]].split("\n\n")[0]
    assert _run(argv) == (2, "", f"{usage}\newfs {argv[0]}: error: {ERRORS[argv]}\n")


def test_not_evaluable_and_version_are_unchanged():
    argv = _PERSPECTIVES + ("--rule", "collapse", "--cond", "r=heads", "--cond", "z=+1/2")
    want = "not-evaluable: conditioning {'r': 'heads', 'z': '+1/2'} has probability zero\n"
    assert _run(argv) == (1, "", want)
    assert _run(["--version"]) == (0, "ewfs 0.1.0\n", "")
