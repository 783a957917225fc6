"""Command-line front end: exact tables, Monte Carlo runs, perspective dumps, audits.

Subcommands
-----------
exact         exact observer-announcement joint for either semantics
mc            sampled rounds with frequencies, standard errors and the
              halting-round histogram (CSV alongside the JSON)
perspectives  the density matrix an agent assigns, with Born predictions
audit         statement-chain evaluation under a rule set

Human tables go to stdout; ``--json`` swaps in the machine-readable payload,
and ``--out DIR`` writes the payload (plus any CSV) together with a manifest
that echoes the flags for bit-exact replay.  JSON payloads validate against
the schema shipped at ``ewfs/data/output.schema.json``.  Exit codes: 0 on
success, 2 on flag errors, 1 when a request is not evaluable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, perspectives, protocol, reasoning
from .measurement import outcome_distribution
from .perspectives import AssignmentRule, NotEvaluableError, Perspective
from .protocol import ProtocolConfig

# Small-denominator rationals (up to 1/144) round-trip exactly in golden tests.
MAX_DENOMINATOR = 144
SCHEMA_VERSION = "1"

RULE_FLAGS = {
    "collapse": perspectives.COLLAPSE_AWARE,
    "unitary": perspectives.UNITARY_GLOBAL,
    "own-record": perspectives.OWN_RECORD_PURE,
}

_PREDICTION_SPECS = (
    ("coin", protocol.coin_measurement),
    ("spin", protocol.spin_measurement),
    ("wbar", protocol.wbar_measurement),
    ("w", protocol.w_measurement),
)


def fraction_of(p: float) -> str | None:
    """Exact small-denominator rational for p, or None when it is not one."""
    frac = Fraction(p).limit_denominator(MAX_DENOMINATOR)
    if abs(float(frac) - p) < 1e-12:
        return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 else str(frac.numerator)
    return None


def prob_json(p: float) -> dict:
    return {"value": float(p), "fraction": fraction_of(float(p))}


def _prob_cell(p: float) -> str:
    frac = fraction_of(p)
    return f"{p:.10f}" + (f"  ({frac})" if frac is not None else "")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> tuple[dict, str, list]:
    config = ProtocolConfig(semantics=args.semantics, theta=args.theta)
    joint = protocol.exact_joint(config)
    cells = []
    lines = [
        f"exact (wbar, w) joint  semantics={args.semantics}  theta={args.theta}",
        f"{'wbar':<9}{'w':<7}probability",
    ]
    for wbar in protocol.WBAR_VALUES:
        for w in protocol.W_VALUES:
            p = joint.prob(wbar, w)
            cells.append({"wbar": wbar, "w": w, "probability": prob_json(p)})
            lines.append(f"{wbar:<9}{w:<7}{_prob_cell(p)}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "exact",
        "semantics": args.semantics,
        "theta": args.theta,
        "cells": cells,
    }
    return payload, "\n".join(lines), []


def _cmd_mc(args) -> tuple[dict, str, list]:
    config = ProtocolConfig(semantics=args.semantics, theta=args.theta, seed=args.seed)
    tally = protocol.sample_records(config, args.rounds)
    joint = protocol.exact_joint(config)
    counts = protocol.tally_joint(tally)
    n = args.rounds

    freqs = []
    lines = [
        f"monte carlo  semantics={args.semantics}  theta={args.theta}"
        f"  rounds={n}  seed={args.seed}",
        f"{'wbar':<9}{'w':<7}{'count':>8}  {'frequency':>12}  {'std_error':>11}  exact",
    ]
    for wbar in protocol.WBAR_VALUES:
        for w in protocol.W_VALUES:
            c = counts.get((wbar, w), 0)
            f_hat = c / n
            se = float(np.sqrt(f_hat * (1.0 - f_hat) / n))
            freqs.append(
                {
                    "wbar": wbar,
                    "w": w,
                    "count": c,
                    "frequency": f_hat,
                    "std_error": se,
                    "exact": prob_json(joint.prob(wbar, w)),
                }
            )
            lines.append(
                f"{wbar:<9}{w:<7}{c:>8}  {f_hat:>12.6f}  {se:>11.6f}  {_prob_cell(joint.prob(wbar, w))}"
            )

    halt_p = joint.prob(protocol.OKBAR, protocol.OK)
    hist = [(k, int(tally.lengths[k])) for k in np.flatnonzero(tally.lengths).tolist()]
    episodes, leftover = int(tally.lengths.sum()), tally.leftover
    # Exact integer total (n - leftover) over the count: the same float as the mean length.
    mean_round = (n - leftover) / episodes if episodes else None
    halting = {
        "episodes": episodes,
        "mean_round": mean_round,
        "expected_mean": (1.0 / halt_p) if halt_p > 0 else float("inf"),
        "histogram": [{"length": k, "count": c} for k, c in hist],
        "leftover_rounds": leftover,
    }
    lines.append("")
    lines.append(
        f"halting: episodes={episodes}  mean round={mean_round if mean_round is None else round(mean_round, 4)}"
        f"  expected={1.0 / halt_p:.4f}  leftover rounds={leftover}"
    )

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["length", "count"])
    writer.writerows(hist)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "mc",
        "semantics": args.semantics,
        "theta": args.theta,
        "rounds": n,
        "seed": args.seed,
        "frequencies": freqs,
        "halting": halting,
    }
    return payload, "\n".join(lines), [("halting_histogram.csv", buf.getvalue())]


def _default_subsystems(time: str) -> tuple[str, ...]:
    if time in (protocol.T00, protocol.T10):
        return (protocol.R, protocol.FBAR, protocol.S)
    return (protocol.S, protocol.F)


def _cmd_perspectives(args) -> tuple[dict, str, list]:
    rule = AssignmentRule(RULE_FLAGS[args.rule])
    conditioning = tuple(args.cond or ())
    subsystems = args.subsystems or _default_subsystems(args.time)
    persp = Perspective(args.agent, args.time, conditioning, rule)
    rho = perspectives.assign(persp, subsystems, args.theta)

    predictions = []
    pred_lines = []
    for name, build in _PREDICTION_SPECS:
        spec = build()
        if not set(spec.target) <= set(subsystems):
            continue
        merged = protocol.merge_other(outcome_distribution(rho, spec))
        predictions.append(
            {
                "measurement": name,
                "outcomes": [{"label": l, "probability": prob_json(p)} for l, p in merged.items()],
            }
        )
        pred_lines.append(
            f"  {name:<5} " + "  ".join(f"P({l})={_prob_cell(p)}" for l, p in merged.items())
        )

    mat = rho.matrix
    lines = [
        f"assigned state  agent={args.agent}  time={args.time}  rule={rule.kind}"
        f"  conditioning={dict(conditioning) or '-'}  theta={args.theta}",
        f"subsystems: {', '.join(rho.layout.names)}   purity: {rho.purity():.10f}",
    ]
    for part, rows in (("real", mat.real), ("imag", mat.imag)):
        lines.append(f"{part} part:")
        # A cell that rounds to zero prints as +0.0000 whatever the sign of its noise.
        cells = ([f"{x:+.4f}".replace("-0.0000", "+0.0000") for x in row] for row in rows)
        lines += ["  " + " ".join(row) for row in cells]
    lines.append("predictions:")
    lines.extend(pred_lines or ["  (none: no protocol measurement fits the subsystems)"])

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "perspectives",
        "agent": args.agent,
        "time": args.time,
        "rule": rule.kind,
        "conditioning": [{"var": k, "value": v} for k, v in conditioning],
        "theta": args.theta,
        "subsystems": list(rho.layout.names),
        "matrix": {"real": mat.real.tolist(), "imag": mat.imag.tolist()},
        "purity": rho.purity(),
        "predictions": predictions,
    }
    return payload, "\n".join(lines), []


def _cmd_audit(args) -> tuple[dict, str, list]:
    report = reasoning.audit(args.ruleset, args.theta)
    lines = [
        f"reasoning audit  ruleset={args.ruleset}  theta={args.theta}",
        f"{'statement':<14}{'status':<15}{'value':<14}claim",
    ]
    statements = []
    for res in report.results:
        value = "-" if res.value is None else f"{res.value:.10f}"
        lines.append(f"{res.statement_id:<14}{res.status:<15}{value:<14}{res.description}")
        statements.append(
            {
                "id": res.statement_id,
                "description": res.description,
                "status": res.status,
                "value": res.value,
            }
        )
    lines.append("")
    lines.append(f"chain conclusion: {report.chain_conclusion or '(chain broken)'}")
    if report.conclusion_value is not None:
        lines.append(f"conclusion value: {_prob_cell(report.conclusion_value)}")
    if report.witness is not None:
        lines.append(f"exact P(halt): {_prob_cell(report.witness)}")
    lines.append(f"contradiction: {report.contradiction}")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "audit",
        "ruleset": args.ruleset,
        "theta": args.theta,
        "statements": statements,
        "chain_conclusion": report.chain_conclusion,
        "conclusion_value": report.conclusion_value,
        "contradiction": report.contradiction,
        "witness": None if report.witness is None else prob_json(report.witness),
    }
    return payload, "\n".join(lines), []


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


def _parse_condition(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"conditions look like var=value, got {text!r}")
    var, value = (part.strip() for part in text.split("=", 1))
    # Only records that exist at a checkpoint ``--time`` offers can be conditioned on.
    records = {k: v for k, v in perspectives.RECORDS.items() if v[1] in perspectives.TIMES}
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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="print the JSON payload instead of a table")
        p.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="write JSON (and CSV) outputs plus a run manifest into DIR")

    p_exact = sub.add_parser("exact", help="exact joint announcement distribution")
    p_exact.add_argument("--semantics", choices=(protocol.COLLAPSE, protocol.UNITARY),
                         default=protocol.UNITARY)
    p_exact.add_argument("--theta", type=_finite_float, default=0.0, help="coin phase in radians")
    add_common(p_exact)
    p_exact.set_defaults(func=_cmd_exact)

    p_mc = sub.add_parser("mc", help="Monte Carlo rounds with halting histogram")
    p_mc.add_argument("--semantics", choices=(protocol.COLLAPSE, protocol.UNITARY),
                      default=protocol.UNITARY)
    p_mc.add_argument("--theta", type=_finite_float, default=0.0)
    p_mc.add_argument("--rounds", type=_positive_int, default=10_000)
    p_mc.add_argument("--seed", type=_non_negative_int, default=0)
    add_common(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    p_persp = sub.add_parser("perspectives", help="density matrix an agent assigns")
    p_persp.add_argument("--agent", choices=perspectives.AGENTS, required=True)
    p_persp.add_argument("--time", choices=perspectives.TIMES, required=True)
    p_persp.add_argument("--rule", choices=tuple(RULE_FLAGS), required=True)
    p_persp.add_argument("--cond", action="append", type=_parse_condition, metavar="VAR=VALUE",
                         help="condition on a record, e.g. r=tails (repeatable)")
    p_persp.add_argument("--theta", type=_finite_float, default=0.0)
    p_persp.add_argument("--subsystems", type=_register_names, default=None, metavar="NAMES",
                         help="comma-separated registers (default depends on --time)")
    add_common(p_persp)
    p_persp.set_defaults(func=_cmd_perspectives)

    p_audit = sub.add_parser("audit", help="statement-chain audit under a rule set")
    p_audit.add_argument("--ruleset", choices=reasoning.RULESET_NAMES, required=True)
    p_audit.add_argument("--theta", type=_finite_float, default=0.0)
    add_common(p_audit)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


@dataclass(frozen=True)
class RunManifest:
    """Echo of one run: the command, its flags, the tool version, every emitted file."""

    schema_version: str
    command: str
    described_command: str
    tool_version: str
    config: dict
    outputs: list[str]


def _config_echo(args) -> dict:
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "json", "out") and v is not None
    }
    if "cond" in config:
        config["cond"] = [list(c) for c in config["cond"]]
    return config


def _write_outputs(args, payload: dict, extra_files: list) -> None:
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    written = []
    main_name = f"{payload['command']}.json"
    (out / main_name).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    written.append(main_name)
    for name, content in extra_files:
        (out / name).write_text(content, encoding="utf-8")
        written.append(name)
    manifest = RunManifest(
        schema_version=SCHEMA_VERSION,
        command="manifest",
        described_command=payload["command"],
        tool_version=__version__,
        config=_config_echo(args),
        outputs=written,
    )
    (out / "manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, human, extra_files = args.func(args)
    except NotEvaluableError as exc:
        print(f"not-evaluable: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a flag combination the library refuses
        parser.error(str(exc))
    print(json.dumps(payload, indent=2) if args.json else human)
    if args.out is not None:
        _write_outputs(args, payload, extra_files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
