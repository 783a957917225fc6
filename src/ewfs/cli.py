"""Command-line front end: exact tables, Monte Carlo runs, perspective dumps, audits.

Subcommands
-----------
exact         exact observer-announcement joint for either semantics
mc            sampled rounds with frequencies, standard errors and the
              halting-round histogram (CSV alongside the JSON)
perspectives  the density matrix an agent assigns, with Born predictions
audit         statement-chain evaluation under a rule set

Each command computes one payload.  Human tables go to stdout, each rendered
from the payload alone, so the table, ``--json`` and ``--out`` cannot disagree;
``--json`` swaps in the payload itself, and ``--out DIR`` writes the payload
(plus any CSV) together with a manifest that echoes the flags for bit-exact
replay.  JSON payloads validate against the schema shipped at
``ewfs/data/output.schema.json``.  Exit codes: 0 on success, 2 on flag
errors, 1 when a request is not evaluable.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

# ``perspectives`` and ``reasoning`` load in the commands that use them, so
# ``exact``, ``mc`` and ``--version`` never build them.
from . import __version__, protocol
from .protocol import ProtocolConfig

# Small-denominator rationals (up to 1/144) round-trip exactly in golden tests.
MAX_DENOMINATOR = 144
SCHEMA_VERSION = "1"

RULE_FLAGS = {
    "collapse": protocol.COLLAPSE_AWARE,
    "unitary": protocol.UNITARY_GLOBAL,
    "own-record": protocol.OWN_RECORD_PURE,
}

_PREDICTION_SPECS = (
    ("coin", protocol.COIN_MEASUREMENT),
    ("spin", protocol.SPIN_MEASUREMENT),
    ("wbar", protocol.WBAR_MEASUREMENT),
    ("w", protocol.W_MEASUREMENT),
)


def fraction_of(p: float) -> str | None:
    """The fraction nearest p with denominator up to ``MAX_DENOMINATOR``, if within 1e-12 of p; else None."""
    frac = Fraction(p).limit_denominator(MAX_DENOMINATOR)
    if abs(float(frac) - p) < 1e-12:
        return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 else str(frac.numerator)
    return None


def prob_json(p: float) -> dict:
    return {"value": float(p), "fraction": fraction_of(float(p))}


def _prob_cell(prob: dict) -> str:
    """A ``prob_json`` object as a table cell: the value, then its fraction when it has one."""
    frac = prob["fraction"]
    return f"{prob['value']:.10f}" + (f"  ({frac})" if frac is not None else "")


# ---------------------------------------------------------------------------
# Subcommands: ``_cmd_*`` computes a payload, ``_render_*`` its table from the payload alone.
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> tuple[dict, list]:
    joint = protocol.exact_joint(ProtocolConfig(semantics=args.semantics, theta=args.theta))
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "exact",
        "semantics": args.semantics,
        "theta": args.theta,
        "cells": [
            {"wbar": wbar, "w": w, "probability": prob_json(joint.prob(wbar, w))}
            for wbar in protocol.WBAR_VALUES
            for w in protocol.W_VALUES
        ],
    }, []


def _cmd_mc(args) -> tuple[dict, list]:
    config = ProtocolConfig(semantics=args.semantics, theta=args.theta, seed=args.seed)
    tally = protocol.sample_records(config, args.rounds)
    joint = protocol.exact_joint(config)
    counts = protocol.tally_joint(tally)
    n = args.rounds

    freqs = []
    for wbar in protocol.WBAR_VALUES:
        for w in protocol.W_VALUES:
            c = counts.get((wbar, w), 0)
            f_hat = c / n
            freqs.append(
                {
                    "wbar": wbar,
                    "w": w,
                    "count": c,
                    "frequency": f_hat,
                    "std_error": float(np.sqrt(f_hat * (1.0 - f_hat) / n)),
                    "exact": prob_json(joint.prob(wbar, w)),
                }
            )

    hist = [(k, int(tally.lengths[k])) for k in np.flatnonzero(tally.lengths).tolist()]
    episodes, leftover = int(tally.lengths.sum()), tally.leftover
    # Exact integer total (n - leftover) over the count: the same float as the mean length.
    mean_round = (n - leftover) / episodes if episodes else None

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["length", "count"])
    writer.writerows(hist)

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "semantics": args.semantics,
        "theta": args.theta,
        "rounds": n,
        "seed": args.seed,
        "frequencies": freqs,
        "halting": {
            "episodes": episodes,
            "mean_round": mean_round,
            "expected_mean": 1.0 / joint.prob(protocol.OKBAR, protocol.OK),
            "histogram": [{"length": k, "count": c} for k, c in hist],
            "leftover_rounds": leftover,
        },
    }, [("halting_histogram.csv", buf.getvalue())]


def _default_subsystems(time: str) -> tuple[str, ...]:
    if time in (protocol.T00, protocol.T10):
        return (protocol.R, protocol.FBAR, protocol.S)
    return (protocol.S, protocol.F)


def _cmd_perspectives(args) -> tuple[dict, list]:
    from . import perspectives

    rule = perspectives.AssignmentRule(RULE_FLAGS[args.rule])
    conditioning = tuple(args.cond or ())
    subsystems = args.subsystems or _default_subsystems(args.time)
    persp = perspectives.Perspective(args.agent, args.time, conditioning, rule)
    rho = perspectives.assign(persp, subsystems, args.theta)

    predictions = []
    for name, spec in _PREDICTION_SPECS:
        if not set(spec.target) <= set(subsystems):
            continue
        dist = perspectives.predict_distribution(persp, spec, args.theta)
        predictions.append(
            {
                "measurement": name,
                "outcomes": [{"label": l, "probability": prob_json(p)} for l, p in dist.items()],
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "perspectives",
        "agent": args.agent,
        "time": args.time,
        "rule": rule.kind,
        "conditioning": [{"var": k, "value": v} for k, v in conditioning],
        "theta": args.theta,
        "subsystems": list(rho.layout.names),
        "matrix": {"real": rho.matrix.real.tolist(), "imag": rho.matrix.imag.tolist()},
        "purity": rho.purity(),
        "predictions": predictions,
    }, []


def _cmd_audit(args) -> tuple[dict, list]:
    from . import reasoning

    report = reasoning.audit(args.ruleset, args.theta)
    statements = [
        {"id": res.statement_id, "description": res.description, "status": res.status, "value": res.value}
        for res in report.results
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "audit",
        "ruleset": args.ruleset,
        "theta": args.theta,
        "statements": statements,
        "chain_conclusion": report.chain_conclusion,
        "conclusion_value": None if report.conclusion_value is None else prob_json(report.conclusion_value),
        "contradiction": report.contradiction,
        "witness": None if report.witness is None else prob_json(report.witness),
    }, []


def _render_exact(payload: dict) -> str:
    lines = [
        f"exact (wbar, w) joint  semantics={payload['semantics']}  theta={payload['theta']}",
        f"{'wbar':<9}{'w':<7}probability",
    ]
    lines += [f"{c['wbar']:<9}{c['w']:<7}{_prob_cell(c['probability'])}" for c in payload["cells"]]
    return "\n".join(lines)


def _render_mc(payload: dict) -> str:
    lines = [
        f"monte carlo  semantics={payload['semantics']}  theta={payload['theta']}"
        f"  rounds={payload['rounds']}  seed={payload['seed']}",
        f"{'wbar':<9}{'w':<7}{'count':>8}  {'frequency':>12}  {'std_error':>11}  exact",
    ]
    lines += [
        f"{f['wbar']:<9}{f['w']:<7}{f['count']:>8}  {f['frequency']:>12.6f}"
        f"  {f['std_error']:>11.6f}  {_prob_cell(f['exact'])}"
        for f in payload["frequencies"]
    ]
    halting = payload["halting"]
    mean_round = halting["mean_round"]
    lines += [
        "",
        f"halting: episodes={halting['episodes']}"
        f"  mean round={mean_round if mean_round is None else round(mean_round, 4)}"
        f"  expected={halting['expected_mean']:.4f}  leftover rounds={halting['leftover_rounds']}",
    ]
    return "\n".join(lines)


def _render_perspectives(payload: dict) -> str:
    conditioning = {c["var"]: c["value"] for c in payload["conditioning"]}
    lines = [
        f"assigned state  agent={payload['agent']}  time={payload['time']}  rule={payload['rule']}"
        f"  conditioning={conditioning or '-'}  theta={payload['theta']}",
        f"subsystems: {', '.join(payload['subsystems'])}   purity: {payload['purity']:.10f}",
    ]
    for part in ("real", "imag"):
        lines.append(f"{part} part:")
        # A cell that rounds to zero prints as +0.0000 whatever the sign of its noise.
        cells = ([f"{x:+.4f}".replace("-0.0000", "+0.0000") for x in row]
                 for row in payload["matrix"][part])
        lines += ["  " + " ".join(row) for row in cells]
    lines.append("predictions:")
    lines += [
        f"  {pred['measurement']:<5} "
        + "  ".join(f"P({o['label']})={_prob_cell(o['probability'])}" for o in pred["outcomes"])
        for pred in payload["predictions"]
    ] or ["  (none: no protocol measurement fits the subsystems)"]
    return "\n".join(lines)


def _render_audit(payload: dict) -> str:
    lines = [
        f"reasoning audit  ruleset={payload['ruleset']}  theta={payload['theta']}",
        f"{'statement':<14}{'status':<15}{'value':<14}claim",
    ]
    for stmt in payload["statements"]:
        value = "-" if stmt["value"] is None else f"{stmt['value']:.10f}"
        lines.append(f"{stmt['id']:<14}{stmt['status']:<15}{value:<14}{stmt['description']}")
    lines += ["", f"chain conclusion: {payload['chain_conclusion'] or '(chain broken)'}"]
    if payload["conclusion_value"] is not None:
        lines.append(f"conclusion value: {_prob_cell(payload['conclusion_value'])}")
    if payload["witness"] is not None:
        lines.append(f"exact P(halt): {_prob_cell(payload['witness'])}")
    lines.append(f"contradiction: {payload['contradiction']}")
    return "\n".join(lines)


_RENDERERS = {
    "exact": _render_exact,
    "mc": _render_mc,
    "perspectives": _render_perspectives,
    "audit": _render_audit,
}


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


def _parse_condition(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"conditions look like var=value, got {text!r}")
    var, value = (part.strip() for part in text.split("=", 1))
    # Only records that exist at a checkpoint ``--time`` offers can be conditioned on.
    records = {k: v for k, v in protocol.RECORDS.items() if v[1] in protocol.TIMES}
    if var not in records:
        raise argparse.ArgumentTypeError(
            f"unknown record {var!r}; choose from {sorted(records)}"
        )
    if value not in records[var][2]:
        raise argparse.ArgumentTypeError(
            f"unknown value {value!r} for record {var!r}; "
            f"choose from {records[var][2]}"
        )
    return var, value


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _register_names(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(","))
    for name in names:
        if name not in protocol.LAYOUT.names:
            raise argparse.ArgumentTypeError(
                f"unknown register {name!r}; choose from {protocol.LAYOUT.names}"
            )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"register named twice in {text!r}")
    return names


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewfs",
        description="Exact simulator and reasoning auditor for the four-agent "
        "extended Wigner's-friend experiment.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, func) -> None:
        p.add_argument("--json", action="store_true", help="print the JSON payload instead of a table")
        p.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="write JSON (and CSV) outputs plus a run manifest into DIR")
        # Errors found after parsing are reported by the subcommand's own parser.
        p.set_defaults(func=func, parser=p)

    p_exact = sub.add_parser("exact", help="exact joint announcement distribution")
    p_exact.add_argument("--semantics", choices=(protocol.COLLAPSE, protocol.UNITARY),
                         default=protocol.UNITARY)
    p_exact.add_argument("--theta", type=_finite_float, default=0.0, help="coin phase in radians")
    add_common(p_exact, _cmd_exact)

    p_mc = sub.add_parser("mc", help="Monte Carlo rounds with halting histogram")
    p_mc.add_argument("--semantics", choices=(protocol.COLLAPSE, protocol.UNITARY),
                      default=protocol.UNITARY)
    p_mc.add_argument("--theta", type=_finite_float, default=0.0)
    p_mc.add_argument("--rounds", type=_positive_int, default=10_000)
    p_mc.add_argument("--seed", type=_non_negative_int, default=0)
    add_common(p_mc, _cmd_mc)

    p_persp = sub.add_parser("perspectives", help="density matrix an agent assigns")
    p_persp.add_argument("--agent", choices=protocol.AGENTS, required=True)
    p_persp.add_argument("--time", choices=protocol.TIMES, required=True)
    p_persp.add_argument("--rule", choices=tuple(RULE_FLAGS), required=True)
    p_persp.add_argument("--cond", action="append", type=_parse_condition, metavar="VAR=VALUE",
                         help="condition on a record, e.g. r=tails (repeatable)")
    p_persp.add_argument("--theta", type=_finite_float, default=0.0)
    p_persp.add_argument("--subsystems", type=_register_names, default=None, metavar="NAMES",
                         help="comma-separated registers (default depends on --time)")
    add_common(p_persp, _cmd_perspectives)

    p_audit = sub.add_parser("audit", help="statement-chain audit under a rule set")
    p_audit.add_argument("--ruleset", choices=protocol.RULESET_NAMES, required=True)
    p_audit.add_argument("--theta", type=_finite_float, default=0.0)
    add_common(p_audit, _cmd_audit)
    return parser


def _config_echo(args) -> dict:
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "parser", "json", "out") and v is not None
    }
    if "cond" in config:
        config["cond"] = [list(c) for c in config["cond"]]
    return config


def _write_outputs(args, payload: dict, extra_files: list) -> None:
    """Write the payload, its extra files and a manifest into ``--out``: all of them or none."""
    out: Path = args.out
    files = {f"{payload['command']}.json": json.dumps(payload, indent=2) + "\n", **dict(extra_files)}
    # The manifest echoes the run: the command, its flags, the tool version, every other file.
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "manifest",
        "described_command": payload["command"],
        "tool_version": __version__,
        "config": _config_echo(args),
        "outputs": list(files),
    }
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    # Stage every file in DIR, then rename each over its target: a failed write leaves none behind.
    with tempfile.TemporaryDirectory(prefix=".ewfs-", dir=out) as stage:
        for name, text in files.items():
            (Path(stage) / name).write_text(text, encoding="utf-8")
        for name in files:
            os.replace(Path(stage) / name, out / name)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, extra_files = args.func(args)
    except ValueError as exc:
        from .perspectives import NotEvaluableError  # loaded here only on an error

        if not isinstance(exc, NotEvaluableError):  # a flag combination the library refuses
            args.parser.error(str(exc))
        print(f"not-evaluable: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        # Files first: an --out that cannot be written is a flag error, and nothing is printed.
        try:
            _write_outputs(args, payload, extra_files)
        except OSError as exc:
            args.parser.error(f"argument --out: {exc}")
    print(json.dumps(payload, indent=2) if args.json else _RENDERERS[payload["command"]](payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
