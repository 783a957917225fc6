"""Byte digest of the CLI over a fixed grid, for comparing two checkouts.

    python tests/cli_digest.py [--runs]

Runs ``ewfs.cli.main`` in process, loaded from this checkout's ``src/``,
over a fixed grid and prints the number of runs and one sha256 over every
run's argv, exit code, stdout and stderr:

* ``exact`` for both semantics and ``audit`` for all three rule sets;
* ``perspectives`` for every agent x checkpoint x rule x conditioning in
  {none, r=tails, z=+1/2, wbar=okbar};
* ``mc`` for both semantics with ``--rounds 2000 --seed 7`` (``MC_ARGS``);
* ``perspectives`` for every agent x checkpoint x rule with the default
  registers named in reverse through ``--subsystems`` (``reversed_grid``);
* each as a table and as ``--json``, at every angle in ``THETAS``.

The digest also covers the ``repr`` of every assigned-state purity on the
benchmark's sweep grid at the same angles.  An optimisation that claims
unchanged output prints the same two lines on its parent and on the change.

With ``--runs`` it first prints one line per run (argv, exit code, sha256 of
stdout + stderr) and one line per sweep purity (angle, perspective, ``repr``
of the value), so ``diff`` of two checkouts' output names what moved.

Register order changes no output: a reversed-order run whose exit code or
output differs from its default-order twin is named on a ``moved by
register order`` line, and the script exits 1.

Every table is its payload rendered: when an argv exits 0 both as a table
and with ``--json``, the table must equal the command's renderer applied to
``json.loads`` of the ``--json`` output, the round trip a stored payload
takes.  An argv whose table differs is named on a ``table differs from its
payload`` line, and the script exits 1.

This module is the one place the grid is run: ``recorded(theta)`` makes each
run once and keeps it read-only, ``defects(theta)`` reads both checks off that
record, and the script and every test that reads grid output use the record.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import types
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ewfs import cli, perspectives, reasoning  # noqa: E402

from _oracles import SWEEP_GRID, default_registers  # noqa: E402

THETAS = ("0", "0.7", "1.57", repr(math.pi), "2.2", "-1", repr(2 * math.pi), "1e-05")
CONDITIONS = ((), ("r=tails",), ("z=+1/2",), ("wbar=okbar",))
MC_ARGS = ("--rounds", "2000", "--seed", "7")


def grid(theta: str) -> list[list[str]]:
    """Every argv at one angle, without the ``--json`` switch."""
    argvs = [["exact", "--semantics", sem] for sem in ("collapse", "unitary")]
    argvs += [["audit", "--ruleset", name] for name in reasoning.RULESET_NAMES]
    for agent in perspectives.AGENTS:
        for time in perspectives.TIMES:
            for rule in cli.RULE_FLAGS:
                for cond in CONDITIONS:
                    argvs.append(
                        ["perspectives", "--agent", agent, "--time", time, "--rule", rule]
                        + [f"--cond={c}" for c in cond]
                    )
    return [argv + ["--theta", theta] for argv in argvs]


def mc_grid(theta: str) -> list[list[str]]:
    """The ``mc`` argvs at one angle, kept out of ``grid`` so its golden groups stay as pinned."""
    return [["mc", "--semantics", sem, *MC_ARGS, "--theta", theta] for sem in ("collapse", "unitary")]


def reversed_grid(theta: str) -> list[tuple[list[str], list[str]]]:
    """(reversed-register argv, its default-order twin in ``grid``) at one angle.

    Kept out of ``grid`` so its golden groups stay as pinned.
    """
    pairs = []
    for agent in perspectives.AGENTS:
        for time in perspectives.TIMES:
            for rule in cli.RULE_FLAGS:
                twin = ["perspectives", "--agent", agent, "--time", time, "--rule", rule, "--theta", theta]
                registers = ",".join(reversed(default_registers(time)))
                pairs.append((twin[:7] + ["--subsystems", registers] + twin[7:], twin))
    return pairs


def argvs(theta: str) -> list[list[str]]:
    """Every digest argv at one angle, without the ``--json`` switch, in digest order."""
    return grid(theta) + mc_grid(theta) + [argv for argv, _ in reversed_grid(theta)]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def table_differs(table: tuple[int, str, str], as_json: tuple[int, str, str]) -> bool:
    """True when both runs of one argv exit 0 and the table is not its payload rendered."""
    (code, out, _), (json_code, json_out, _) = table, as_json
    if code != 0 or json_code != 0:
        return False
    payload = json.loads(json_out)
    return out != cli._RENDERERS[payload["command"]](payload) + "\n"


@functools.cache
def recorded(theta: str) -> types.MappingProxyType:
    """Read-only ``{tuple(argv): (code, stdout, stderr)}`` of each ``argvs(theta)`` run, table then JSON."""
    with mock.patch.dict(os.environ, {"COLUMNS": "10000"}):  # argparse's usage on one line
        return types.MappingProxyType({(*a, *f): run(a + f) for a in argvs(theta) for f in ([], ["--json"])})


def defects(theta: str) -> tuple[list[str], list[str]]:
    """(runs moved by register order, argvs whose table is not their payload rendered) at one angle."""
    runs = recorded(theta)
    moved = [" ".join(argv + fmt) for argv, twin in reversed_grid(theta) for fmt in ([], ["--json"])
             if runs[(*argv, *fmt)] != runs[(*twin, *fmt)]]
    unrendered = [" ".join(argv) for argv in argvs(theta)
                  if table_differs(runs[tuple(argv)], runs[(*argv, "--json")])]
    return moved, unrendered


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Byte digest of the CLI over a fixed grid.")
    parser.add_argument(
        "--runs", action="store_true", help="also print one line per run and per sweep purity"
    )
    show = parser.parse_args(args).runs
    digest = hashlib.sha256()
    moved, unrendered = [], []
    for theta in THETAS:
        for argv, (code, out, err) in recorded(theta).items():
            digest.update(repr((list(argv), code, out, err)).encode("utf-8"))
            if show:
                output = hashlib.sha256((out + err).encode("utf-8")).hexdigest()
                print(f"run {' '.join(argv)}  exit {code}  sha256 {output}")
        theta_moved, theta_unrendered = defects(theta)
        moved += theta_moved
        unrendered += theta_unrendered
        for agent, time, cond, rule in SWEEP_GRID:
            p = perspectives.Perspective(agent, time, cond, perspectives.AssignmentRule(rule))
            rho = perspectives.assign(p, default_registers(time), float(theta))
            purity = rho.purity()
            digest.update(repr((theta, agent, time, cond, rule, purity)).encode("utf-8"))
            if show:
                print(f"purity {theta} {agent} {time} {cond} {rule} {purity!r}")
    print(f"runs {sum(len(recorded(theta)) for theta in THETAS)}")
    print(f"sha256 {digest.hexdigest()}")
    for argv in moved:
        print(f"moved by register order: {argv}")
    for argv in unrendered:
        print(f"table differs from its payload: {argv}")
    return 1 if moved or unrendered else 0


if __name__ == "__main__":
    sys.exit(main())
