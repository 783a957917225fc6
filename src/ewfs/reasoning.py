"""Statements, rule sets, and the contradiction audit.

The agents' published claims are formalized as conditional-probability
assertions over the round records (r, z, wbar, w):

* ``certain(event | condition)``    holds iff P = 1,
* ``impossible(event | condition)`` holds iff P = 0,
* ``nonzero(event | condition)``    holds iff P > 0,

with P computed from the state the speaker assigns under a configurable
rule set.  Nested claims ("A is certain that B is certain that ...") unfold
by the minimal rule sufficient for the argument audited here: the outer
speaker must assign probability one to some value of the inner speaker's
record, and the inner claim re-conditioned on that value must hold.  No
general epistemic logic is attempted.

Three built-in rule sets drive the audit:

* ``all-collapse``  -- every speaker uses collapse-aware mixtures; the chain
  breaks at its first link and no contradiction appears.
* ``all-unitary``   -- every speaker uses the global unitary description;
  the certainty claim about the final outcome is replaced by its honest
  nonzero counterpart and again nothing contradicts.
* ``fr-mixed``      -- speakers condition on their own records as if
  collapsed while simultaneously using global superposition descriptions of
  the sealed labs.  This combination validates the whole chain, concludes
  that halting is impossible, and collides with the exact halting
  probability of 1/12: the audit reports a contradiction with that witness.

One note on conventions: "knows that" and "is certain that" are both
treated as probability-one conditioning; the distinction is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import protocol
from .perspectives import (
    COLLAPSE_AWARE,
    OWN_RECORD_PURE,
    RECORDS,
    UNITARY_GLOBAL,
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    assign,
    compare,
    record_distribution,
)
from .qcore import pure_density

CERTAIN = "certain"
IMPOSSIBLE = "impossible"
NONZERO = "nonzero"
CLAIM_KINDS = (CERTAIN, IMPOSSIBLE, NONZERO)

HOLDS = "holds"
FAILS = "fails"
NOT_EVALUABLE = "not-evaluable"

# Certainty/impossibility are exact up to the global tolerance; "nonzero"
# uses the impossibility mass threshold.
CERTAINTY_ATOL = 1e-10
NONZERO_FLOOR = 1e-12

RULESET_NAMES = ("fr-mixed", "all-collapse", "all-unitary")

# The uncontested premise: conditioned on her own tails record, the coin
# friend describes the outgoing spin as the pure x-polarized state.
PREMISE_ID = "Fbar_01"


@dataclass(frozen=True)
class Statement:
    """A speaker-tagged claim about round records, possibly nesting another."""

    id: str
    speaker: str
    time: str
    kind: str
    condition: tuple[tuple[str, str], ...]
    event: tuple[str, str] | None = None
    inner: "Statement | None" = None

    def __post_init__(self) -> None:
        if self.kind not in CLAIM_KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if (self.event is None) == (self.inner is None):
            raise ValueError("statement needs exactly one of: terminal event, nested statement")
        object.__setattr__(self, "condition", tuple((str(k), str(v)) for k, v in self.condition))
        for var, value in self.condition + ((self.event,) if self.event else ()):
            if var not in RECORDS:
                raise ValueError(f"statement references unknown record {var!r}")
            if value not in RECORDS[var][2]:
                raise ValueError(f"unknown value {value!r} for record {var!r}")
        if self.inner is not None and self.kind != CERTAIN:
            raise ValueError("nested statements express certainty about the inner claim")
        if self.inner is not None and len(self.inner.condition) != 1:
            raise ValueError("nested statements require a single-record inner conditioning")

    def reconditioned(self, var: str, value: str) -> "Statement":
        """Copy of this statement with its conditioning on ``var`` replaced."""
        cond = tuple((k, value if k == var else v) for k, v in self.condition)
        if var not in dict(self.condition):
            cond = cond + ((var, value),)
        return Statement(self.id, self.speaker, self.time, self.kind, cond, self.event, self.inner)

    def describe(self) -> str:
        cond = ", ".join(f"{k}={v}" for k, v in self.condition) or "-"
        if self.inner is not None:
            return f"{self.kind}([{self.inner.id}] | {cond})"
        return f"{self.kind}({self.event[0]}={self.event[1]} | {cond})"


@dataclass(frozen=True)
class RuleSet:
    """Which assignment rule each statement's speaker uses while evaluating."""

    name: str
    default: AssignmentRule
    overrides: tuple[tuple[str, AssignmentRule], ...] = ()

    def rule_for(self, statement_id: str) -> AssignmentRule:
        for sid, rule in self.overrides:
            if sid == statement_id:
                return rule
        return self.default


@dataclass(frozen=True)
class StatementResult:
    statement_id: str
    description: str
    status: str
    value: float | None


@dataclass(frozen=True)
class AuditReport:
    """Outcome of evaluating a rule set's statement chain."""

    ruleset: str
    results: tuple[StatementResult, ...]
    chain_conclusion: str | None
    conclusion_value: float | None
    contradiction: bool
    witness: float | None

    def __post_init__(self) -> None:
        impossible_halt = (
            self.chain_conclusion == "impossible(halt)"
            and self.witness is not None
            and self.witness > NONZERO_FLOOR
        )
        if self.contradiction != impossible_halt:
            raise ValueError(
                "contradiction flag must mean: the chain concludes impossible(halt) "
                "while the exact halting probability is positive"
            )

    def result(self, statement_id: str) -> StatementResult:
        for res in self.results:
            if res.statement_id == statement_id:
                return res
        raise KeyError(statement_id)


# ---------------------------------------------------------------------------
# The published statements.
# ---------------------------------------------------------------------------


def stmt_fbar_02() -> Statement:
    """Coin friend, own tails record: the lab-L observer must announce fail."""
    return Statement(
        "Fbar_02", "Fbar", protocol.T20, CERTAIN, (("r", protocol.TAILS),),
        event=("w", protocol.FAIL),
    )


def stmt_fbar_02_star() -> Statement:
    """Weakened replacement: given okbar, the ok announcement has nonzero probability."""
    return Statement(
        "Fbar_02_star", "Fbar", protocol.T30, NONZERO, (("wbar", protocol.OKBAR),),
        event=("w", protocol.OK),
    )


def stmt_f_12() -> Statement:
    """Spin friend, own +1/2 record: the coin friend's record must read tails."""
    return Statement(
        "F_12", "F", protocol.T20, CERTAIN, (("z", protocol.Z_PLUS),),
        event=("r", protocol.TAILS),
    )


def stmt_f_13() -> Statement:
    """Spin friend: nested certainty about the coin friend's fail prediction."""
    return Statement(
        "F_13", "F", protocol.T20, CERTAIN, (("z", protocol.Z_PLUS),),
        inner=stmt_fbar_02(),
    )


def stmt_wbar_22() -> Statement:
    """Lab-Lbar observer, own okbar record: the spin record must read +1/2."""
    return Statement(
        "Wbar_22", "Wbar", protocol.T30, CERTAIN, (("wbar", protocol.OKBAR),),
        event=("z", protocol.Z_PLUS),
    )


def stmt_wbar_23() -> Statement:
    """Lab-Lbar observer: nested certainty reaching down to the fail prediction."""
    return Statement(
        "Wbar_23", "Wbar", protocol.T30, CERTAIN, (("wbar", protocol.OKBAR),),
        inner=stmt_f_13(),
    )


def stmt_wbar_23_star() -> Statement:
    """Weakened replacement drawn directly from the final global state."""
    return Statement(
        "Wbar_23_star", "Wbar", protocol.T30, NONZERO, (("wbar", protocol.OKBAR),),
        event=("w", protocol.OK),
    )


def builtin_ruleset(name: str) -> RuleSet:
    if name == "all-collapse":
        return RuleSet(name, AssignmentRule(COLLAPSE_AWARE))
    if name == "all-unitary":
        return RuleSet(name, AssignmentRule(UNITARY_GLOBAL))
    if name == "fr-mixed":
        # Friends treat their own records as collapse facts; the observers'
        # inferences run on the global superposition description.  The premise
        # and both friend statements use own-record conditioning.
        own = AssignmentRule(OWN_RECORD_PURE)
        return RuleSet(
            name,
            AssignmentRule(UNITARY_GLOBAL),
            overrides=(
                (PREMISE_ID, own),
                ("Fbar_02", own),
                ("F_12", own),
                ("F_13", own),
            ),
        )
    raise ValueError(f"unknown rule set {name!r}; choose from {RULESET_NAMES}")


def standard_chain(ruleset_name: str) -> tuple[Statement, ...]:
    """The statement chain a rule set is audited with."""
    if ruleset_name in ("fr-mixed", "all-collapse"):
        return (stmt_fbar_02(), stmt_f_12(), stmt_f_13(), stmt_wbar_22(), stmt_wbar_23())
    if ruleset_name == "all-unitary":
        return (stmt_fbar_02_star(), stmt_f_12(), stmt_wbar_22(), stmt_wbar_23_star())
    raise ValueError(f"unknown rule set {ruleset_name!r}; choose from {RULESET_NAMES}")


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def _status(kind: str, value: float) -> str:
    if kind == CERTAIN:
        return HOLDS if abs(value - 1.0) <= CERTAINTY_ATOL else FAILS
    if kind == IMPOSSIBLE:
        return HOLDS if abs(value) <= CERTAINTY_ATOL else FAILS
    return HOLDS if value > NONZERO_FLOOR else FAILS


def evaluate(st: Statement, rs: RuleSet, theta: float = 0.0) -> StatementResult:
    """Evaluate one statement under a rule set; exact, no sampling."""
    return _evaluate(st, rs, theta, seen=())


def _evaluate(st: Statement, rs: RuleSet, theta: float, seen: tuple[str, ...]) -> StatementResult:
    if st.id in seen:
        raise ValueError(f"cyclic statement dependency through {st.id!r}")
    seen = seen + (st.id,)
    rule = rs.rule_for(st.id)

    if st.inner is None:
        try:
            persp = Perspective(st.speaker, st.time, st.condition, rule)
            dist = record_distribution(persp, st.event[0], theta)
        except NotEvaluableError:
            return StatementResult(st.id, st.describe(), NOT_EVALUABLE, None)
        value = dist.get(st.event[1], 0.0)
        return StatementResult(st.id, st.describe(), _status(st.kind, value), value)

    inner_var = st.inner.condition[0][0]
    try:
        persp = Perspective(st.speaker, st.time, st.condition, rule)
        dist = record_distribution(persp, inner_var, theta)
    except NotEvaluableError:
        return StatementResult(st.id, st.describe(), NOT_EVALUABLE, None)
    certain_values = [v for v, p in dist.items() if abs(p - 1.0) <= CERTAINTY_ATOL]
    if not certain_values:
        # The outer speaker is not certain of the inner record; the nested
        # certainty fails.  Report the speaker's best branch weight.
        return StatementResult(st.id, st.describe(), FAILS, max(dist.values()))
    inner = st.inner.reconditioned(inner_var, certain_values[0])
    inner_result = _evaluate(inner, rs, theta, seen)
    status = inner_result.status if inner_result.status != NOT_EVALUABLE else NOT_EVALUABLE
    return StatementResult(st.id, st.describe(), status, inner_result.value)


@lru_cache(maxsize=None)
def _premise_reference():
    """The pure x-polarized spin the premise compares against; θ-free, built once."""
    return pure_density(protocol.spin_right_state())


def premise_result(rs: RuleSet, theta: float = 0.0) -> StatementResult:
    """Check the premise: given tails, the spin is the pure x-polarized state."""
    rule = rs.rule_for(PREMISE_ID)
    persp = Perspective("Fbar", protocol.T10, (("r", protocol.TAILS),), rule)
    try:
        rho = assign(persp, (protocol.S,), theta)
    except NotEvaluableError:
        return StatementResult(PREMISE_ID, "spin is pure x-polarized | r=tails", NOT_EVALUABLE, None)
    fid = compare(rho, _premise_reference()).fidelity
    status = HOLDS if abs(fid - 1.0) <= CERTAINTY_ATOL else FAILS
    return StatementResult(PREMISE_ID, "spin is pure x-polarized | r=tails", status, fid)


def chain(statements: Sequence[Statement], rs: RuleSet, theta: float = 0.0) -> AuditReport:
    """Forward-chain the statements and test the composed conclusion.

    A chain of pure certainty claims that all hold composes into
    ``impossible(halt)``; if the exact halting probability is nonetheless
    positive, the report flags a contradiction and carries that probability
    as the witness.  A chain whose surviving final claim is ``nonzero``
    composes into ``nonzero(halt)`` and cannot contradict the dynamics.
    """
    ids = [st.id for st in statements]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate statement ids in chain: {ids}")
    results = tuple(evaluate(st, rs, theta) for st in statements)
    halt_prob = exact_halting_probability(theta)

    all_hold = all(res.status == HOLDS for res in results)
    conclusion: str | None = None
    conclusion_value: float | None = None
    contradiction = False
    witness: float | None = None
    if all_hold:
        kinds = {st.kind for st in statements}
        if kinds == {CERTAIN}:
            conclusion = "impossible(halt)"
            conclusion_value = 0.0
            witness = halt_prob
            contradiction = halt_prob > NONZERO_FLOOR
        else:
            conclusion = "nonzero(halt)"
            nz = [res for st, res in zip(statements, results) if st.kind == NONZERO]
            conclusion_value = nz[-1].value if nz else None
            witness = halt_prob
            contradiction = False
    return AuditReport(rs.name, results, conclusion, conclusion_value, contradiction, witness)


def exact_halting_probability(theta: float = 0.0) -> float:
    """P(okbar and ok) in one round of the actual (unitary) dynamics."""
    joint = protocol.exact_joint(protocol.ProtocolConfig(semantics=protocol.UNITARY, theta=theta))
    return joint.prob(protocol.OKBAR, protocol.OK)


def audit(ruleset_name: str, theta: float = 0.0) -> AuditReport:
    """Evaluate a built-in rule set's standard chain, premise row included."""
    rs = builtin_ruleset(ruleset_name)
    report = chain(standard_chain(ruleset_name), rs, theta)
    premise = premise_result(rs, theta)
    return AuditReport(
        report.ruleset,
        (premise,) + report.results,
        report.chain_conclusion,
        report.conclusion_value,
        report.contradiction,
        report.witness,
    )
