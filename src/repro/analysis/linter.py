"""``repro lint``: static analysis of SQL scripts without executing queries.

:func:`lint_sql` runs a script's DDL/DML into a scratch database to build
the catalog, then *statically* analyzes every SELECT: the standard (E1)
plan always, and — when TestFD proves the rewrite valid — the eager (E2)
plan together with its freshly issued and audited certificate.  No query
is executed; INSERTs do run (the linter needs the catalog, and constraint
violations in the script's own data are worth surfacing).

Statements that fail to parse or bind are reported as rule ``L601`` with
the statement index, and linting continues with the next statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.algebra.ops import Apply, Group, Project, fuse_group_apply
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Severity,
    render_diagnostics,
)
from repro.analysis.equivalence import verify_rewrite
from repro.analysis.verifier import analyze_plan, analyze_query
from repro.catalog.catalog import Database
from repro.core.having import grouped_plan_with_having
from repro.core.partition import to_group_by_join_query
from repro.core.planbuild import build_join_tree
from repro.core.transform import build_standard_plan
from repro.errors import ReproError, TransformationError
from repro.parser.ast_nodes import SelectStatement, SetOperationStatement
from repro.parser.binder import bind_select, execute_statement
from repro.parser.parser import parse_statement
from repro.parser.viewmerge import merge_aggregated_view
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


def _lint_plan_rewrites(database: Database, plan: "object", emit) -> int:
    """Apply the certified rewrites to ``plan`` and re-verify every
    certificate with the independent checker, emitting any R7xx findings.

    Returns the number of certificates that were issued (each one is
    audited; a failed audit shows up as ERROR diagnostics, so an
    uncertified rewrite can never lint clean)."""
    # Deferred: the pass imports this package (tests/test_layering.py).
    from repro.optimizer.rewrites import apply_rewrites

    try:
        outcome = apply_rewrites(fuse_group_apply(plan), database, verify=False)
    except Exception as error:  # a crash in the rewriter is a finding, not a lint crash
        emit(
            Diagnostic(
                "R700",
                Severity.ERROR,
                "rewrites",
                f"certified rewrite pass failed: {error}",
            )
        )
        return 0
    for certificate in outcome.certificates:
        for diagnostic in verify_rewrite(database, certificate):
            emit(
                Diagnostic(
                    diagnostic.rule_id,
                    diagnostic.severity,
                    f"rewrites/{certificate.rule}@{diagnostic.path}",
                    diagnostic.message,
                    diagnostic.hint,
                )
            )
    return len(outcome.certificates)


def _analyze_select(
    database: Database,
    statement: "object",
    sink: DiagnosticSink,
    where: str,
    min_severity: Severity,
    rewrites: bool = False,
) -> int:
    """Statically analyze one bound SELECT (E1 always, E2 when valid).

    With ``rewrites=True`` the certified rewrite pass also runs over the
    executed-shape plan and every certificate is independently re-verified;
    returns the number of certificates issued (0 otherwise)."""

    def emit(diagnostic: Diagnostic) -> None:
        sink.add(
            Diagnostic(
                diagnostic.rule_id,
                diagnostic.severity,
                f"{where}/{diagnostic.path}",
                diagnostic.message,
                diagnostic.hint,
            )
        )

    if any(t.name in database.views for t in statement.from_tables):
        # A view in FROM: merge it back into one grouped query, the same
        # normalization the session applies before planning (§8).
        merged = merge_aggregated_view(database, statement)
        for diagnostic in analyze_query(
            database, merged, min_severity=min_severity
        ):
            emit(diagnostic)
        if rewrites:
            return _lint_plan_rewrites(
                database, build_standard_plan(merged), emit
            )
        return 0

    flat = bind_select(database, statement)
    if flat.group_by:
        try:
            query = to_group_by_join_query(flat)
        except TransformationError:
            query = None
        if query is not None:
            for diagnostic in analyze_query(
                database, query, min_severity=min_severity
            ):
                emit(diagnostic)
            if rewrites:
                return _lint_plan_rewrites(
                    database, build_standard_plan(query), emit
                )
            return 0
    # Ungrouped (or unpartitionable grouped) query: analyze the plan the
    # session would run, built the same way but never executed.
    tree = build_join_tree(flat.bindings, flat.where)
    if flat.group_by or flat.aggregates:
        columns = flat.select_group_columns + tuple(
            spec.name for spec in flat.aggregates
        )
        if flat.group_by:
            plan = grouped_plan_with_having(
                tree, flat.group_by, flat.aggregates, flat.having,
                columns, flat.distinct,
            )
        else:
            plan = Apply(Group(tree, ()), flat.aggregates)
    else:
        plan = Project(tree, flat.select_group_columns, flat.distinct)
    for diagnostic in analyze_plan(plan, database, min_severity=min_severity):
        emit(diagnostic)
    if rewrites:
        return _lint_plan_rewrites(database, plan, emit)
    return 0


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
    parse or bind yields an ``L601`` diagnostic and linting continues with
    the next statement.  With ``rewrites=True`` the certified rewrite pass
    additionally runs over every query plan and each certificate is
    re-verified by the independent equivalence checker (rule ids R7xx).
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
