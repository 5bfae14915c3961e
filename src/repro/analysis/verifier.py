"""The plan verifier: semantic analysis passes over a plan tree.

:func:`analyze_plan` walks a :class:`~repro.algebra.ops.PlanNode` tree
without executing it and returns typed diagnostics from four passes:

1. **Schema/scope resolution** — every column reference in every
   ``Select``/``Project``/``Join``/``Group``/``Apply``/``Sort`` must be
   bound by its child's inferred output schema (rules A001–A004, G102);
2. **Grouped-table discipline** — ``Apply`` only over ``Group`` (G101),
   grouping columns present, and duplicate-sensitive aggregates
   (SUM/COUNT/AVG) flagged when they sit below a join *without* a rewrite
   certificate proving the paper's FD conditions (G103);
3. **3VL/null-safety** — comparisons that conflate ``=`` with the
   null-aware ``=ⁿ`` of Figure 3 (N301, N302);
4. **Type checking** of all expressions (T401–T404).

The **certificate audit** (C501, C502) is not one of them: a plan's
certificate only says G103 is licensed.  :func:`certify` is where every
certificate is issued and independently re-validated — once, before the
eager plan can reach an executor — and its callers are the only three ways
an eager plan comes to exist: :func:`transform`, :func:`analyze_query` and
:meth:`repro.optimizer.planner.Planner.choose`.
"""

from __future__ import annotations

from typing import List

from repro.algebra.ops import (
    Apply,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Select,
    Sort,
)
from repro.analysis.certificates import (
    attach_certificate,
    audit_certificate,
    get_certificate,
    issue_certificate,
    output_columns,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Severity,
    raise_on_errors,
)
from repro.analysis.schema import (
    AmbiguousColumn,
    PlanSchema,
    infer_schemas,
    node_path,
)
from repro.analysis.typecheck import check_expression
from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import (
    TransformationDecision,
    build_eager_plan,
    build_standard_plan,
    check_transformable,
)
from repro.errors import TransformationError
from repro.expressions.ast import Aggregate, Expression
from repro.expressions.ast import walk as walk_expression

#: Aggregate functions whose value changes under join-induced duplication.
DUPLICATE_SENSITIVE = ("SUM", "COUNT", "AVG")


def _has_duplicate_sensitive(expression: Expression) -> bool:
    return any(
        isinstance(node, Aggregate)
        and node.function in DUPLICATE_SENSITIVE
        and not node.distinct
        for node in walk_expression(expression)
    )


def analyze_plan(
    plan: PlanNode,
    database: Database,
    certificate: "object | None" = None,
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Statically verify ``plan`` against ``database``'s catalog.

    ``certificate`` is the :class:`~repro.analysis.certificates.RewriteCertificate`
    covering the plan, if any; when omitted, one attached to the plan root
    by :func:`transform` is picked up automatically.
    A (valid) certificate licenses aggregation below a join, so rule G103
    is suppressed for certified plans.

    Returns diagnostics of at least ``min_severity`` (default WARNING —
    pass ``Severity.INFO`` for the pedantic notes as well).
    """
    if certificate is None:
        certificate = get_certificate(plan)

    sink = DiagnosticSink()
    schemas = infer_schemas(plan, database, sink)
    _check_expressions(plan, schemas, sink, "$")
    _check_pushdown(plan, sink, certificate, "$")
    return list(sink.at_least(min_severity))


def certify(
    database: Database,
    query: GroupByJoinQuery,
    decision: TransformationDecision,
    standard: PlanNode,
    eager: PlanNode,
    assume_unique_keys: bool = False,
) -> List[Diagnostic]:
    """Turn a YES from TestFD into a licence for ``eager``: issue the
    FD1/FD2 certificate, audit it, attach it to the plan root.

    ``standard`` and ``eager`` are the E1/E2 the caller built for ``query``
    (and will run), so their output schemas are inferred once and shared by
    issue and audit instead of each rebuilding both plans.  The audit is
    the checker's own: :func:`repro.fd.closure.closure` over the recorded
    atoms, the catalog's keys as declared now, E1's columns against E2's.
    Returns its findings — every caller but :func:`analyze_query` hands
    them to ``raise_on_errors``, so an eager plan whose certificate does
    not stand never leaves the function that built it.
    """
    assert decision.testfd is not None
    columns = output_columns(database, query, (standard, eager))
    certificate = issue_certificate(
        database, query, decision.testfd, assume_unique_keys, columns
    )
    attach_certificate(eager, certificate)
    return audit_certificate(database, query, certificate, columns)


def analyze_query(
    database: Database,
    query: GroupByJoinQuery,
    min_severity: Severity = Severity.WARNING,
) -> List[Diagnostic]:
    """Analyze both access plans (E1, and E2 when valid) of one query.

    The eager plan is only built — and analyzed — when TestFD proves the
    rewrite valid, in which case its certificate is issued and audited as
    part of the analysis.
    """
    standard = build_standard_plan(query)
    diagnostics = analyze_plan(standard, database, min_severity=min_severity)
    decision = check_transformable(database, query)
    if decision.valid:
        eager = build_eager_plan(query)
        audit = certify(database, query, decision, standard, eager)
        diagnostics.extend(analyze_plan(eager, database, min_severity=min_severity))
        diagnostics.extend(d for d in audit if d.severity >= min_severity)
    return diagnostics


def transform(
    database: Database,
    query: GroupByJoinQuery,
    assume_unique_keys: bool = False,
    paper_strict: bool = False,
) -> PlanNode:
    """Return the eager (E2) plan, or raise if validity cannot be shown.

    The returned plan carries a
    :class:`~repro.analysis.certificates.RewriteCertificate` recording the
    keys, equality classes and closures that establish FD1/FD2.  The
    certificate is independently re-validated and the plan statically
    verified before being returned — a defect in either (which would mean a
    bug in TestFD or the plan builders) raises :class:`TransformationError`
    rather than handing out an unsound plan.  It lives here, not beside the
    plan builders in :mod:`repro.core.transform`, because it calls the checker.
    """
    decision = check_transformable(
        database, query,
        assume_unique_keys=assume_unique_keys,
        paper_strict=paper_strict,
    )
    if not decision.valid:
        raise TransformationError(decision.reason)
    plan = build_eager_plan(query)
    raise_on_errors(
        certify(
            database, query, decision, build_standard_plan(query), plan,
            assume_unique_keys,
        )
        + analyze_plan(plan, database),
        "rewrite failed self-verification",
    )
    return plan


# -- pass: expression scope / types / null-safety ---------------------------


def _check_expressions(
    plan: PlanNode,
    schemas: dict,
    sink: DiagnosticSink,
    prefix: str,
) -> None:
    path = node_path(prefix, plan)
    if isinstance(plan, Select) and plan.condition is not None:
        child_schema = schemas[id(plan.child)]
        check_expression(plan.condition, child_schema, sink, path)
    elif isinstance(plan, Join) and plan.condition is not None:
        joined = PlanSchema(
            schemas[id(plan.left)].columns + schemas[id(plan.right)].columns
        )
        check_expression(plan.condition, joined, sink, path)
    elif isinstance(plan, (Apply, GroupApply)):
        input_schema = schemas[id(plan.child)]
        for spec in plan.aggregates:
            check_expression(spec.expression, input_schema, sink, path)
    elif isinstance(plan, Sort):
        child_schema = schemas[id(plan.child)]
        for column in plan.columns:
            _resolve_or_report(column, child_schema, sink, path)
    for i, child in enumerate(plan.children()):
        _check_expressions(child, schemas, sink, f"{prefix}.{i}")


def _resolve_or_report(
    name: str, schema: PlanSchema, sink: DiagnosticSink, path: str
) -> None:
    try:
        info = schema.resolve(name)
    except AmbiguousColumn:
        sink.report(
            "A004", path,
            f"column {name!r} is ambiguous in [{', '.join(schema.names())}]",
        )
        return
    if info is None:
        sink.report(
            "A001",
            path,
            f"column {name!r} is not produced by the input "
            f"(columns: {', '.join(schema.names()) or '(none)'})",
        )


# -- pass: duplicate-sensitive aggregate pushdown ---------------------------


def _check_pushdown(
    plan: PlanNode,
    sink: DiagnosticSink,
    certificate: "object | None",
    prefix: str,
    below_join: bool = False,
) -> None:
    if isinstance(plan, (Apply, GroupApply)) and below_join:
        sensitive = [
            spec
            for spec in plan.aggregates
            if _has_duplicate_sensitive(spec.expression)
        ]
        if sensitive and certificate is None:
            path = node_path(prefix, plan)
            names = ", ".join(spec.name for spec in sensitive)
            sink.report(
                "G103",
                path,
                f"duplicate-sensitive aggregate(s) {names} computed below a "
                "join without a rewrite certificate",
                hint="obtain the plan via transform() so TestFD issues an "
                "FD1/FD2 certificate, or multiply by the join fan-out count",
            )
    below = below_join or isinstance(plan, (Join, Product))
    for i, child in enumerate(plan.children()):
        _check_pushdown(child, sink, certificate, f"{prefix}.{i}", below)
