"""Correctness checks on every op's output, against exact values fixed here.

The expected values are the paper's closed forms, written as fractions and
not computed by the package under test:

* unitary semantics: P(okbar, ok) = 1/12 at every theta, and at theta = 0 the
  whole joint is 1/12, 1/12, 1/12, 3/4;
* collapse semantics: 1/4 in each of the four announcement cells at every
  theta (the phase is erased);
* ``fr-mixed`` reports a contradiction exactly when theta is a multiple of
  2 pi, ``all-collapse`` and ``all-unitary`` never do;
* the purities of the assigned states on the sweep grid do not depend on theta.

Each check returns a list of failure messages; an empty list means the op
passed.  ``EXPECTED`` is module state on purpose: the self-tests swap one value
for a wrong one and expect every op that uses it to fail.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

TOL = 1e-12
PURITY_TOL = 1e-9
MC_SIGMAS = 5.0

EXPECTED = {
    "halt": Fraction(1, 12),
    "unitary_theta0": {
        ("okbar", "ok"): Fraction(1, 12),
        ("okbar", "fail"): Fraction(1, 12),
        ("failbar", "ok"): Fraction(1, 12),
        ("failbar", "fail"): Fraction(3, 4),
    },
    "collapse": {
        ("okbar", "ok"): Fraction(1, 4),
        ("okbar", "fail"): Fraction(1, 4),
        ("failbar", "ok"): Fraction(1, 4),
        ("failbar", "fail"): Fraction(1, 4),
    },
    # Purity of the assigned state by (rule, checkpoint); the same at every theta.
    "purity": {
        ("collapse-aware", "n:00"): Fraction(1),
        ("collapse-aware", "n:10"): Fraction(5, 9),
        ("collapse-aware", "n:20"): Fraction(5, 9),
        ("collapse-aware", "n:30"): Fraction(5, 9),
        ("unitary-global", "n:00"): Fraction(1),
        ("unitary-global", "n:10"): Fraction(1),
        ("unitary-global", "n:20"): Fraction(7, 9),
        ("unitary-global", "n:30"): Fraction(7, 9),
        ("own-record-pure", None): Fraction(1),
    },
}

AGENTS = ("Fbar", "F", "Wbar", "W")
TIMES = ("n:00", "n:10", "n:20", "n:30")
# Own-record cases: (agent, record, checkpoints where it exists, values).
OWN_RECORDS = (
    ("Fbar", "r", ("n:10", "n:20", "n:30"), ("heads", "tails")),
    ("F", "z", ("n:20", "n:30"), ("-1/2", "+1/2")),
    ("Wbar", "wbar", ("n:30",), ("okbar", "failbar")),
)


def default_subsystems(time: str) -> tuple[str, ...]:
    """The registers the CLI shows by default at a checkpoint."""
    return ("R", "Fbar", "S") if time in ("n:00", "n:10") else ("S", "F")


def sweep_grid() -> list[tuple[str, str, tuple, str]]:
    """(agent, checkpoint, conditioning, rule) of every assignment in one sweep op."""
    grid = [
        (agent, time, (), rule)
        for agent in AGENTS
        for time in TIMES
        for rule in ("collapse-aware", "unitary-global")
    ]
    for agent, var, times, values in OWN_RECORDS:
        grid += [(agent, time, ((var, v),), "own-record-pure") for time in times for v in values]
    return grid


def is_zero_mod_2pi(theta: float) -> bool:
    """True for the generated multiples k * 2 pi (rounding leaves at most a few ulps)."""
    return abs(math.remainder(theta, 2.0 * math.pi)) < 1e-9


def _close(got: float, want: Fraction, tol: float = TOL) -> bool:
    return abs(got - float(want)) <= tol


def _joint_failures(cells: dict, semantics: str, theta: float) -> list[str]:
    bad = []
    total = sum(cells.values())
    if abs(total - 1.0) > TOL:
        bad.append(f"{semantics} joint sums to {total!r}")
    if semantics == "unitary":
        p = cells.get(("okbar", "ok"), 0.0)
        if not _close(p, EXPECTED["halt"]):
            bad.append(f"unitary P(okbar, ok) = {p!r} at theta={theta!r}")
    else:
        for key in cells.keys() | EXPECTED["collapse"].keys():
            want = EXPECTED["collapse"].get(key, Fraction(0))
            if not _close(cells.get(key, 0.0), want):
                bad.append(f"collapse cell {key} = {cells.get(key)!r}, want {want}")
    return bad


def _audit_failures(ruleset: str, contradiction: bool, witness, theta: float) -> list[str]:
    want = ruleset == "fr-mixed" and is_zero_mod_2pi(theta)
    bad = []
    if contradiction != want:
        bad.append(f"{ruleset} contradiction={contradiction} at theta={theta!r}")
    if want and (witness is None or not _close(witness, EXPECTED["halt"])):
        bad.append(f"{ruleset} witness {witness!r}")
    return bad


def _purity_failures(rule: str, time: str, purity: float) -> list[str]:
    want = EXPECTED["purity"][(rule, None if rule == "own-record-pure" else time)]
    if abs(purity - float(want)) > PURITY_TOL:
        return [f"{rule} purity at {time} = {purity!r}, want {want}"]
    return []


# ---------------------------------------------------------------------------
# CLI payloads.
# ---------------------------------------------------------------------------


class SchemaCheck:
    """JSON-schema validation against the schema shipped with the package."""

    def __init__(self, schema_path: Path) -> None:
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft7Validator(schema)

    def failures(self, payload) -> list[str]:
        return [f"schema: {e.message}" for e in self._validator.iter_errors(payload)]


def _prob(entry: dict) -> float:
    return float(entry["value"])


def cli_failures(argv: list[str], payload: dict) -> list[str]:
    """Exact checks on the ``--json`` payload of one non-``mc`` command."""
    command = argv[0]
    theta = float(payload["theta"])
    if command == "exact":
        cells = {(c["wbar"], c["w"]): _prob(c["probability"]) for c in payload["cells"]}
        return _joint_failures(cells, payload["semantics"], theta)
    if command == "audit":
        witness = payload["witness"]
        return _audit_failures(
            payload["ruleset"], payload["contradiction"],
            None if witness is None else _prob(witness), theta,
        )
    if command == "perspectives":
        bad = _purity_failures(payload["rule"], payload["time"], payload["purity"])
        if payload["rule"] == "own-record-pure" and payload["conditioning"] == [
            {"var": "r", "value": "tails"}
        ]:
            # The coin friend's premise: given tails, lab L announces fail with certainty.
            w = {o["label"]: _prob(o["probability"]) for p in payload["predictions"]
                 if p["measurement"] == "w" for o in p["outcomes"]}
            if not _close(w.get("fail", 0.0), Fraction(1), 1e-10):
                bad.append(f"P(w=fail | r=tails) = {w.get('fail')!r}")
        return bad
    return [f"unexpected command {command!r}"]


def mc_failures(payload: dict, rounds: int) -> list[str]:
    """Counts sum to the rounds, cells sit within 5 standard errors, episodes add up."""
    bad = []
    if payload["rounds"] != rounds:
        bad.append(f"payload rounds {payload['rounds']} != {rounds}")
    exact = EXPECTED["collapse"] if payload["semantics"] == "collapse" else EXPECTED["unitary_theta0"]
    counts = {(f["wbar"], f["w"]): f["count"] for f in payload["frequencies"]}
    if sum(counts.values()) != rounds:
        bad.append(f"counts sum to {sum(counts.values())}, not {rounds}")
    for key in counts.keys() | exact.keys():
        p = float(exact.get(key, 0))
        se = math.sqrt(p * (1.0 - p) / rounds)
        freq = counts.get(key, 0) / rounds
        if abs(freq - p) > MC_SIGMAS * se + 1e-15:
            bad.append(f"cell {key}: frequency {freq!r} vs exact {p!r} (se {se:.3g})")
    halting = payload["halting"]
    hist = halting["histogram"]
    if sum(h["count"] for h in hist) != halting["episodes"]:
        bad.append("histogram counts do not sum to the episode count")
    covered = sum(h["length"] * h["count"] for h in hist) + halting["leftover_rounds"]
    if covered != rounds:
        bad.append(f"episode lengths plus leftover rounds = {covered}, not {rounds}")
    return bad


def sweep_failures(theta: float, result: dict) -> list[str]:
    """Checks on one in-process theta-sweep op."""
    bad = []
    for semantics in ("collapse", "unitary"):
        cells = {(wb, w): p for wb, w, p in result["joints"][semantics]}
        bad += _joint_failures(cells, semantics, theta)
    for ruleset, (contradiction, witness) in result["audits"].items():
        bad += _audit_failures(ruleset, contradiction, witness, theta)
    for (agent, time, cond, rule), purity in zip(sweep_grid(), result["purities"]):
        bad += _purity_failures(rule, time, purity)
    if len(result["purities"]) != len(sweep_grid()):
        bad.append("assignment grid incomplete")
    return bad
