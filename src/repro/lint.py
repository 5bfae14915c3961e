"""``repro lint``: static analysis of SQL scripts without executing queries.

:func:`lint_sql` runs a script's DDL/DML into a scratch database to build
the catalog, then *statically* analyzes every SELECT — the plans
:func:`repro.statement.plan_statement` returns for it, which are the plans a
:class:`~repro.session.Session` over the same catalog would choose from and
run: the standard (E1) plan always, and — when TestFD proves the rewrite
valid — the eager (E2) plan with the certificate the planner issued and
audited for it.  No query is executed; INSERTs do run (the linter needs the
catalog, and constraint violations in the script's own data are worth
surfacing).

Statements that fail to parse, bind or plan are reported as rule ``L601``
with the statement index, and linting continues with the next statement.
An eager certificate or a certified rewrite that fails its audit fails the
planning of its statement, so neither can lint clean.

This module sits at the session rank, above the planner it drives
(``tests/test_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Severity,
    render_diagnostics,
)
from repro.analysis.verifier import analyze_plan
from repro.catalog.catalog import Database
from repro.engine.executor import ExecutorConfig
from repro.errors import ReproError
from repro.parser.ast_nodes import SelectStatement, SetOperationStatement
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.statement import plan_statement
from repro.workloads.schemas import (
    make_employee_department,
    make_part_supplier,
    make_printer_schema,
)


@dataclass
class LintReport:
    """The outcome of linting one SQL script."""

    statements: int = 0
    selects: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Source file the script came from ("" for inline/stdin text).
    path: str = ""
    #: 1-based start line of each statement, keyed by statement index.
    statement_lines: dict = field(default_factory=dict)
    #: Certified rewrites applied and re-verified during ``--rewrites`` lint.
    rewrites_certified: int = 0
    rewrites_checked: bool = False

    @property
    def ok(self) -> bool:
        """No ERROR-severity diagnostics (warnings do not fail a lint)."""
        return not any(
            d.severity >= Severity.ERROR for d in self.diagnostics
        )

    def _statement_line(self, diagnostic_path: str) -> Optional[int]:
        if diagnostic_path.startswith("statement["):
            closing = diagnostic_path.find("]")
            if closing > 0:
                try:
                    index = int(diagnostic_path[len("statement["):closing])
                except ValueError:
                    return None
                return self.statement_lines.get(index)
        return None

    def to_payload(self) -> dict:
        """A JSON-ready dict with stable codes and file/position fields."""
        payload = {
            "ok": self.ok,
            "file": self.path or None,
            "statements": self.statements,
            "selects": self.selects,
            "diagnostics": [
                {
                    "rule": d.rule_id,
                    "severity": str(d.severity),
                    "path": d.path,
                    "message": d.message,
                    "hint": d.hint or None,
                    "file": self.path or None,
                    "line": self._statement_line(d.path),
                }
                for d in self.diagnostics
            ],
        }
        if self.rewrites_checked:
            payload["rewrites_certified"] = self.rewrites_certified
        return payload

    def render(self) -> str:
        summary = (
            f"{self.statements} statements, {self.selects} queries analyzed: "
        )
        if self.rewrites_checked:
            summary = (
                f"{self.statements} statements, {self.selects} queries, "
                f"{self.rewrites_certified} certified rewrites analyzed: "
            )
        if not self.diagnostics:
            return summary + "clean"
        counts: dict = {}
        for diagnostic in self.diagnostics:
            counts[str(diagnostic.severity)] = (
                counts.get(str(diagnostic.severity), 0) + 1
            )
        breakdown = ", ".join(
            f"{count} {name}" for name, count in sorted(counts.items())
        )
        return summary + breakdown + "\n" + render_diagnostics(self.diagnostics)


def _analyze_select(
    database: Database,
    statement: SelectStatement,
    sink: DiagnosticSink,
    where: str,
    min_severity: Severity,
    rewrites: bool = False,
) -> int:
    """Statically analyze one SELECT: every access plan the planner built
    for it (E1 always, E2 when valid), never executed.

    With ``rewrites=True`` the statement is planned with every certified
    rewrite enabled, so the pass runs — audited by the independent checker,
    as in a session — over the plan that would run, and the rewritten plan is
    analyzed too; returns the number of rule certificates issued (0
    otherwise)."""
    planned = plan_statement(
        database, statement, "cost",
        ExecutorConfig(rewrites="all") if rewrites else ExecutorConfig(),
    )
    plans = planned.candidates + ((planned.plan,) if planned.rewrites else ())
    for plan in plans:
        for diagnostic in analyze_plan(plan, database, min_severity=min_severity):
            sink.add(
                Diagnostic(
                    diagnostic.rule_id,
                    diagnostic.severity,
                    f"{where}/{diagnostic.path}",
                    diagnostic.message,
                    diagnostic.hint,
                )
            )
    return len(planned.rewrites)


def _split_statements(text: str) -> List[Tuple[str, int]]:
    """Split a script on top-level ``;`` into (statement, start line).

    String literals and ``--`` comments are respected, so one malformed
    statement does not hide the rest of the script from the linter; the
    1-based start line points at the first non-blank character of each
    statement (for editor-friendly ``--format json`` output)."""
    pieces: List[Tuple[str, int]] = []
    current: List[str] = []
    piece_start = 1
    has_content = False
    i, n = 0, len(text)
    line = 1
    in_string = False
    in_comment = False
    while i < n:
        ch = text[i]
        if not has_content and not ch.isspace():
            has_content = True
        if in_comment:
            current.append(ch)
            if ch == "\n":
                in_comment = False
        elif in_string:
            current.append(ch)
            if ch == "'":
                # '' escapes a quote inside the literal
                if i + 1 < n and text[i + 1] == "'":
                    current.append("'")
                    i += 1
                else:
                    in_string = False
        elif ch == "'":
            in_string = True
            current.append(ch)
        elif ch == "-" and i + 1 < n and text[i + 1] == "-":
            in_comment = True
            current.append(ch)
        elif ch == ";":
            pieces.append(("".join(current), piece_start))
            current = []
            piece_start = line
            has_content = False
        else:
            current.append(ch)
        if ch == "\n":
            line += 1
            if not has_content:
                # statement has not started yet: advance its anchor
                piece_start = line
        i += 1
    pieces.append(("".join(current), piece_start))
    return [(piece, start) for piece, start in pieces if piece.strip()]


def lint_sql(
    text: str,
    database: Optional[Database] = None,
    min_severity: Severity = Severity.WARNING,
    rewrites: bool = False,
    path: str = "",
) -> LintReport:
    """Lint a ``;``-separated SQL script.

    DDL/INSERT statements execute into ``database`` (a scratch one by
    default) so later SELECTs can resolve the catalog; SELECTs are
    analyzed statically and never executed.  A statement that fails to
    parse, bind or plan yields an ``L601`` diagnostic and linting continues
    with the next statement.  With ``rewrites=True`` the certified rewrite
    pass additionally runs over the plan each query would execute, every
    certificate audited by the independent equivalence checker (a failed
    audit is that statement's ``L601``, naming the R7xx findings).
    """
    report = LintReport(path=path, rewrites_checked=rewrites)
    sink = DiagnosticSink()
    db = database if database is not None else Database()

    def selects_of(statement: "object") -> List[SelectStatement]:
        if isinstance(statement, SetOperationStatement):
            return selects_of(statement.left) + selects_of(statement.right)
        assert isinstance(statement, SelectStatement)
        return [statement]

    for index, (sql, start_line) in enumerate(_split_statements(text)):
        report.statements += 1
        report.statement_lines[index] = start_line
        where = f"statement[{index}]"
        try:
            statement = parse_statement(sql)
            if isinstance(statement, (SelectStatement, SetOperationStatement)):
                for select in selects_of(statement):
                    report.selects += 1
                    report.rewrites_certified += _analyze_select(
                        db, select, sink, where, min_severity, rewrites
                    )
            else:
                execute_statement(db, statement)
        except ReproError as error:
            sink.report(
                "L601", where, str(error),
                hint="fix this statement; later statements were still linted",
            )
    report.diagnostics = list(sink.at_least(min_severity))
    return report


#: name -> (schema builder, representative paper queries).  These are the
#: ``repro lint --workloads`` targets: the paper's example schemas with
#: their canonical queries, which must always lint clean.
_WORKLOADS = {
    "example1": (
        make_employee_department,
        (
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS headcount "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        ),
    ),
    "example2": (
        make_part_supplier,
        (
            "SELECT P.ClassCode, S.SupplierNo, S.Name, "
            "COUNT(P.PartNo) AS parts "
            "FROM Part P, Supplier S "
            "WHERE P.SupplierNo = S.SupplierNo "
            "GROUP BY P.ClassCode, S.SupplierNo, S.Name",
        ),
    ),
    "example3": (
        make_printer_schema,
        (
            "SELECT U.UserName, SUM(A.Usage) AS pages "
            "FROM UserAccount U, PrinterAuth A "
            "WHERE U.UserId = A.UserId AND U.Machine = A.Machine "
            "AND U.Machine = 'dragon' "
            "GROUP BY A.UserId, A.Machine, U.UserName",
        ),
    ),
}


def lint_workloads(
    min_severity: Severity = Severity.WARNING, rewrites: bool = False
) -> LintReport:
    """Lint every built-in workload query (the CI smoke target).

    Loads each paper example schema into a scratch database and statically
    analyzes its canonical queries; the seed workloads must come back
    clean, so this doubles as a self-check of the analyzer.
    """
    report = LintReport(rewrites_checked=rewrites)
    sink = DiagnosticSink()
    for name, (builder, queries) in sorted(_WORKLOADS.items()):
        database = builder()
        for qi, sql in enumerate(queries):
            report.statements += 1
            report.selects += 1
            where = f"{name}.query[{qi}]"
            sub = lint_sql(
                sql,
                database=database,
                min_severity=min_severity,
                rewrites=rewrites,
            )
            report.rewrites_certified += sub.rewrites_certified
            for diagnostic in sub.diagnostics:
                sink.add(
                    Diagnostic(
                        diagnostic.rule_id,
                        diagnostic.severity,
                        f"{where}/{diagnostic.path}",
                        diagnostic.message,
                        diagnostic.hint,
                    )
                )
    report.diagnostics = list(sink.at_least(min_severity))
    return report
