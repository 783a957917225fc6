"""Statements, rule sets, and the contradiction audit.

The agents' published claims are formalized as conditional-probability
assertions over the round records (r, z, wbar, w):

* ``nonzero(event | condition)`` holds iff P > ``qcore.IMPOSSIBLE_MASS``,
* ``certain(event | condition)`` holds iff the record's other values carry
  at most ``qcore.IMPOSSIBLE_MASS``: no other value is nonzero,

with P computed from the state the speaker assigns under a configurable
rule set; the assignment kernels prune branches at that same mass.  A
certainty reads the small mass left off the event, not the difference of
its probability from one, so it keeps full precision: near θ ≡ 0 mod 2π,
where 1 − P(z=+1/2 | wbar=okbar) is about θ², the ``fr-mixed`` chain holds
only within about 1e-6 of 2πℤ.

Nested claims ("A is certain that B is certain that ...") unfold by the
minimal rule sufficient for the argument audited here: the outer speaker
must be certain of some value of the inner speaker's record, and the inner
claim must hold when its speaker conditions on ``((record, that value),)``
in place of its own conditioning.  No general epistemic logic is attempted.
Evaluation builds no ``Statement`` and keeps no values of its own: a nested
certainty, or another speaker with the same checkpoint, conditioning and
rule, reads its record off the same ``perspectives`` view as an earlier link.

``BUILTIN_AUDITS`` is the one table of the three built-in rule sets, each
with the chain of statements it is audited with, and ``audit`` is its one
reader:

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
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from . import protocol
from .measurement import MeasurementSpec
from .perspectives import (
    AssignmentRule,
    NotEvaluableError,
    Perspective,
    predict_distribution,
    record_distribution,
)
from .protocol import COLLAPSE_AWARE, OWN_RECORD_PURE, RECORDS, RULESET_NAMES, UNITARY_GLOBAL
from .qcore import IMPOSSIBLE_MASS

CERTAIN = "certain"
NONZERO = "nonzero"
CLAIM_KINDS = (CERTAIN, NONZERO)

HOLDS = "holds"
FAILS = "fails"
NOT_EVALUABLE = "not-evaluable"

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
        nested = self.inner
        while nested is not None:  # each inner statement ran this check on its own chain
            if nested.id == self.id:
                raise ValueError(f"statement id {self.id!r} repeats in its nested chain")
            nested = nested.inner

    def describe(self) -> str:
        return self._description

    # θ-free and the statement never changes: written on first use and kept.
    @cached_property
    def _description(self) -> str:
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
    witness: float | None

    @property
    def contradiction(self) -> bool:
        """The chain concludes impossible(halt) while the exact halting probability is positive."""
        return (
            self.chain_conclusion == "impossible(halt)"
            and self.witness is not None
            and self.witness > IMPOSSIBLE_MASS
        )

    def result(self, statement_id: str) -> StatementResult:
        for res in self.results:
            if res.statement_id == statement_id:
                return res
        raise KeyError(statement_id)


# ---------------------------------------------------------------------------
# The published statements and the built-in audits.
# ---------------------------------------------------------------------------

# Coin friend, own tails record: the lab-L observer must announce fail.
FBAR_02 = Statement(
    "Fbar_02", "Fbar", protocol.T20, CERTAIN, (("r", protocol.TAILS),), event=("w", protocol.FAIL)
)
# Weakened replacement: given okbar, the ok announcement has nonzero probability.
FBAR_02_STAR = Statement(
    "Fbar_02_star", "Fbar", protocol.T30, NONZERO, (("wbar", protocol.OKBAR),),
    event=("w", protocol.OK),
)
# Spin friend, own +1/2 record: the coin friend's record must read tails.
F_12 = Statement(
    "F_12", "F", protocol.T20, CERTAIN, (("z", protocol.Z_PLUS),), event=("r", protocol.TAILS)
)
# Spin friend: nested certainty about the coin friend's fail prediction.
F_13 = Statement("F_13", "F", protocol.T20, CERTAIN, (("z", protocol.Z_PLUS),), inner=FBAR_02)
# Lab-Lbar observer, own okbar record: the spin record must read +1/2.
WBAR_22 = Statement(
    "Wbar_22", "Wbar", protocol.T30, CERTAIN, (("wbar", protocol.OKBAR),),
    event=("z", protocol.Z_PLUS),
)
# Lab-Lbar observer: nested certainty reaching down to the fail prediction.
WBAR_23 = Statement(
    "Wbar_23", "Wbar", protocol.T30, CERTAIN, (("wbar", protocol.OKBAR),), inner=F_13
)
# Weakened replacement drawn directly from the final global state.
WBAR_23_STAR = Statement(
    "Wbar_23_star", "Wbar", protocol.T30, NONZERO, (("wbar", protocol.OKBAR),),
    event=("w", protocol.OK),
)

_UNITARY = AssignmentRule(UNITARY_GLOBAL)
_OWN = AssignmentRule(OWN_RECORD_PURE)
_FR_CHAIN = (FBAR_02, F_12, F_13, WBAR_22, WBAR_23)
# In fr-mixed, friends treat their own records as collapse facts: the premise
# and both friend statements use own-record conditioning, while the
# observers' inferences run on the global superposition description.
_FR_OWN_IDS = (PREMISE_ID, FBAR_02.id, F_12.id, F_13.id)


def _check_chain(statements: Sequence[Statement], rs: RuleSet) -> None:
    """Refuse an empty chain, a repeated statement id, or an override that names no statement of it."""
    if not statements:
        raise ValueError("empty chain: no statement to conclude from")
    ids = [st.id for st in statements]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate statement ids in chain: {ids}")
    known = {PREMISE_ID}
    for nested in statements:
        while nested is not None:
            known.add(nested.id)
            nested = nested.inner
    for sid, _ in rs.overrides:
        if sid not in known:
            raise ValueError(
                f"rule set {rs.name!r} overrides {sid!r}, which names no statement of the chain"
            )


# Each built-in rule set and the statement chain it is audited with, in CLI order.
_FR_MIXED, _ALL_COLLAPSE, _ALL_UNITARY = RULESET_NAMES
BUILTIN_AUDITS: Mapping[str, tuple[RuleSet, tuple[Statement, ...]]] = MappingProxyType({
    _FR_MIXED: (RuleSet(_FR_MIXED, _UNITARY, tuple((i, _OWN) for i in _FR_OWN_IDS)), _FR_CHAIN),
    _ALL_COLLAPSE: (RuleSet(_ALL_COLLAPSE, AssignmentRule(COLLAPSE_AWARE)), _FR_CHAIN),
    _ALL_UNITARY: (RuleSet(_ALL_UNITARY, _UNITARY), (FBAR_02_STAR, F_12, WBAR_22, WBAR_23_STAR)),
})


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


def _certain(dist: Mapping[str, float], value: str) -> bool:
    """The record's other values carry at most ``IMPOSSIBLE_MASS``: no other value is nonzero."""
    other = 0.0  # a loop costs half of sum() over a generator on these few entries
    for v, p in dist.items():
        if v != value:
            other += p
    return other <= IMPOSSIBLE_MASS


def _status(kind: str, dist: Mapping[str, float], value: str) -> str:
    """Whether a claim of this kind holds for one value of a record's distribution."""
    holds = _certain(dist, value) if kind == CERTAIN else dist.get(value, 0.0) > IMPOSSIBLE_MASS
    return HOLDS if holds else FAILS


def evaluate(st: Statement, rs: RuleSet, theta: float = 0.0) -> StatementResult:
    """Evaluate one statement under a rule set; exact, no sampling."""
    return StatementResult(st.id, st.describe(), *_evaluate(st, rs, theta, st.condition))


def _evaluate(
    st: Statement, rs: RuleSet, theta: float, condition: tuple[tuple[str, str], ...]
) -> tuple[str, float | None]:
    # The (status, value) under ``condition``: the statement's own, or, for a nested
    # claim's inner statement, the one record value the outer speaker is certain of.
    rule = rs.rule_for(st.id)
    # A terminal claim reads its event's record; a nested one the inner speaker's record.
    var = st.event[0] if st.inner is None else st.inner.condition[0][0]
    persp = _perspective(st.speaker, st.time, condition, rule)
    # An assignment depends only on the checkpoint, conditioning and rule
    # (``perspectives._kernel`` takes no agent), so a repeated read, by this
    # speaker or another, is a hit on the same view.
    try:
        dist = record_distribution(persp, var, theta)
    except NotEvaluableError:
        return NOT_EVALUABLE, None
    if st.inner is None:
        return _status(st.kind, dist, st.event[1]), dist.get(st.event[1], 0.0)

    # Only the most likely value can be certain: the others then carry at most IMPOSSIBLE_MASS.
    best = max(dist, key=dist.__getitem__)
    if not _certain(dist, best):
        # The outer speaker is not certain of the inner record; the nested
        # certainty fails.  Report the speaker's best branch weight.
        return FAILS, dist[best]
    return _evaluate(st.inner, rs, theta, ((var, best),))


@lru_cache(maxsize=None)
def _perspective(
    speaker: str, time: str, condition: tuple[tuple[str, str], ...], rule: AssignmentRule
) -> Perspective:
    """A speaker's standpoint; θ-free, so each one is built and validated once."""
    return Perspective(speaker, time, condition, rule)


# The premise reads the spin in the x basis; θ-free, built once.
_PREMISE_SPEC = MeasurementSpec((protocol.S,), (("right", protocol.SPIN_RIGHT_STATE),))
_PREMISE_DESCRIPTION = "spin is pure x-polarized | r=tails"


def premise_result(rs: RuleSet, theta: float = 0.0) -> StatementResult:
    """Check the premise: given tails, an x-basis read of the spin gives right with certainty.

    For the pure x-polarized reference this Born probability ⟨→|ρ|→⟩ is the
    squared-overlap fidelity of the assigned spin state with it.
    """
    rule = rs.rule_for(PREMISE_ID)
    persp = _perspective("Fbar", protocol.T10, (("r", protocol.TAILS),), rule)
    try:
        dist = predict_distribution(persp, _PREMISE_SPEC, theta)
    except NotEvaluableError:
        return StatementResult(PREMISE_ID, _PREMISE_DESCRIPTION, NOT_EVALUABLE, None)
    status = _status(CERTAIN, dist, "right")
    return StatementResult(PREMISE_ID, _PREMISE_DESCRIPTION, status, dist["right"])


def chain(statements: Sequence[Statement], rs: RuleSet, theta: float = 0.0) -> AuditReport:
    """Forward-chain the statements and test the composed conclusion.

    A chain of pure certainty claims that all hold composes into
    ``impossible(halt)``; if the exact halting probability is nonetheless
    positive, the report flags a contradiction and carries that probability
    as the witness.  A chain whose surviving final claim is ``nonzero``
    composes into ``nonzero(halt)`` and cannot contradict the dynamics.

    Raises ``ValueError`` for an empty chain, a repeated statement id, or an
    override id that is neither ``PREMISE_ID`` nor the id of a chain
    statement or of a statement nested in one; every chain, a built-in one
    too, is checked on every call.  The chain keeps no reads of
    its own: each record distribution comes off its description's view, whose
    Born read is made once per angle, whichever statement asks first.
    """
    _check_chain(statements, rs)
    results = tuple(evaluate(st, rs, theta) for st in statements)

    conclusion: str | None = None
    conclusion_value: float | None = None
    witness: float | None = None
    if all(res.status == HOLDS for res in results):
        # Only a chain that holds in full needs the unitary joint.
        witness = exact_halting_probability(theta)
        if {st.kind for st in statements} == {CERTAIN}:
            conclusion = "impossible(halt)"
            conclusion_value = 0.0
        else:
            conclusion = "nonzero(halt)"
            nz = [res for st, res in zip(statements, results) if st.kind == NONZERO]
            conclusion_value = nz[-1].value if nz else None
    return AuditReport(rs.name, results, conclusion, conclusion_value, witness)


def exact_halting_probability(theta: float = 0.0) -> float:
    """P(okbar and ok) in one round of the actual (unitary) dynamics."""
    joint = protocol.exact_joint(protocol.ProtocolConfig(semantics=protocol.UNITARY, theta=theta))
    return joint.prob(protocol.OKBAR, protocol.OK)


def audit(ruleset_name: str, theta: float = 0.0) -> AuditReport:
    """Evaluate a built-in rule set's standard chain, premise row included."""
    try:
        rs, statements = BUILTIN_AUDITS[ruleset_name]
    except KeyError:
        raise ValueError(f"unknown rule set {ruleset_name!r}; choose from {RULESET_NAMES}") from None
    report = chain(statements, rs, theta)
    results = (premise_result(rs, theta),) + report.results
    return AuditReport(rs.name, results, report.chain_conclusion, report.conclusion_value, report.witness)
