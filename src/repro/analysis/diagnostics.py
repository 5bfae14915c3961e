"""Typed diagnostics: rule ids, severities, plan paths, fix hints.

Every finding of the plan verifier is a :class:`Diagnostic` carrying a rule
id from the :data:`RULES` registry.  Rule ids are stable identifiers (tests
and CI grep for them); the registry maps each id to its default severity
and a one-line description, so ``repro lint --rules`` can print the whole
catalogue.

Rule id namespaces:

* ``A0xx`` — schema/scope resolution (unbound columns, unknown tables);
* ``G1xx`` — grouped-table discipline (Apply/Group shape, aggregate
  pushdown below joins);
* ``N3xx`` — three-valued-logic / null-safety hazards;
* ``T4xx`` — expression type checking;
* ``C5xx`` — rewrite-certificate auditing;
* ``L6xx`` — SQL-level lint findings (parse/binding failures);
* ``R7xx`` — certified-rewrite (pushdown/pruning/reordering) equivalence
  checking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import TransformationError


class Severity(enum.IntEnum):
    """Finding severity; ordering is meaningful (ERROR > WARNING > INFO)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One registered analysis rule."""

    rule_id: str
    severity: Severity
    description: str


def _registry(rules: Sequence[Rule]) -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in rules}


#: The rule catalogue.  Ids are stable; add, never renumber.
RULES: Dict[str, Rule] = _registry(
    [
        Rule(
            "A001",
            Severity.ERROR,
            "unbound column: a column reference is not produced by the "
            "operator's input schema",
        ),
        Rule(
            "A002",
            Severity.ERROR,
            "unknown table: a Relation leaf names a table missing from the catalog",
        ),
        Rule(
            "A003",
            Severity.WARNING,
            "duplicate output column: an operator produces the same column "
            "name more than once",
        ),
        Rule(
            "A004",
            Severity.ERROR,
            "ambiguous column: a bare column name matches more than one "
            "input column",
        ),
        Rule(
            "G101",
            Severity.ERROR,
            "Apply (F[AA]) over a non-grouped input: its child must be a "
            "Group (grouped table)",
        ),
        Rule(
            "G102",
            Severity.ERROR,
            "grouping column not produced by the grouped operator's input",
        ),
        Rule(
            "G103",
            Severity.WARNING,
            "duplicate-sensitive aggregate (SUM/COUNT/AVG) computed below a "
            "join without a rewrite certificate — join fan-out would scale "
            "the aggregate (the paper requires FD1/FD2 or count-multiplication)",
        ),
        Rule(
            "G104",
            Severity.ERROR,
            "aggregate expression references a grouping output that does not exist",
        ),
        Rule(
            "N301",
            Severity.WARNING,
            "comparison with a NULL literal is always UNKNOWN under 3VL; use "
            "IS [NOT] NULL (or the null-aware =ⁿ duplicate semantics of "
            "Figure 3)",
        ),
        Rule(
            "N302",
            Severity.INFO,
            "equality between two nullable columns silently drops NULL "
            "pairs: '=' yields UNKNOWN where the null-aware =ⁿ of "
            "Figure 3 would match",
        ),
        Rule(
            "T401",
            Severity.ERROR,
            "type mismatch: comparison between incomparable SQL types",
        ),
        Rule(
            "T402",
            Severity.ERROR,
            "arithmetic over a non-numeric operand",
        ),
        Rule(
            "T403",
            Severity.ERROR,
            "SUM/AVG over a non-numeric argument",
        ),
        Rule(
            "T404",
            Severity.ERROR,
            "LIKE over a non-string operand",
        ),
        Rule(
            "C501",
            Severity.ERROR,
            "rewrite certificate failed independent re-validation (closure, "
            "keys or FD1/FD2 do not re-derive)",
        ),
        Rule(
            "C502",
            Severity.ERROR,
            "E1/E2 output schemas diverge: the rewritten plan does not "
            "produce the standard plan's columns",
        ),
        Rule(
            "L601",
            Severity.ERROR,
            "SQL statement failed to parse or bind",
        ),
        Rule(
            "R700",
            Severity.ERROR,
            "rewrite did not preserve the plan's output schema (columns, "
            "order, types, or nullability changed)",
        ),
        Rule(
            "R701",
            Severity.ERROR,
            "predicate-pushdown premise failure: a pushed conjunct is not a "
            "pure grouping-key predicate, its conjunct accounting does not "
            "balance, or a recorded 3VL verdict does not re-derive",
        ),
        Rule(
            "R702",
            Severity.ERROR,
            "projection pruning altered the plan skeleton or dropped a "
            "column some surviving expression still resolves to",
        ),
        Rule(
            "R703",
            Severity.ERROR,
            "join-reordering premise failure: leaf or conjunct multisets "
            "changed, the region is not order-insulated, or recorded costs "
            "do not re-derive",
        ),
    ]
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id, where in the plan, what, and how to fix it."""

    rule_id: str
    severity: Severity
    path: str
    message: str
    hint: str = ""

    def __str__(self) -> str:
        suffix = f" (hint: {self.hint})" if self.hint else ""
        where = f" at {self.path}" if self.path else ""
        return f"{self.rule_id} {self.severity}{where}: {self.message}{suffix}"


@dataclass
class DiagnosticSink:
    """Collects diagnostics during an analysis walk."""

    diagnostics: list = field(default_factory=list)

    def report(
        self,
        rule_id: str,
        path: str,
        message: str,
        hint: str = "",
        severity: "Severity | None" = None,
    ) -> None:
        rule = RULES[rule_id]
        self.diagnostics.append(
            Diagnostic(
                rule_id,
                severity if severity is not None else rule.severity,
                path,
                message,
                hint or "",
            )
        )

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= Severity.ERROR)

    def at_least(self, severity: Severity) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity >= severity)


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line rendering, most severe first (stable within a severity)."""
    ordered = sorted(
        enumerate(diagnostics), key=lambda pair: (-pair[1].severity, pair[0])
    )
    return "\n".join(str(d) for __, d in ordered)


def raise_on_errors(diagnostics: Iterable[Diagnostic], headline: str) -> None:
    """How every self-auditing pass ends: ERROR findings abort the pass
    with :class:`~repro.errors.TransformationError` (``headline`` over
    their rendering) rather than hand out an unproven plan."""
    problems = [d for d in diagnostics if d.severity >= Severity.ERROR]
    if problems:
        raise TransformationError(f"{headline}:\n" + render_diagnostics(problems))
