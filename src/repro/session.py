"""The top-level user API: a SQL session over an in-memory database.

:class:`Session` ties the whole stack together — parse, bind, normalize,
test the transformation, choose a plan cost-based, execute::

    >>> from repro import Session
    >>> session = Session()
    >>> session.execute("CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, "
    ...                 "Name VARCHAR(30))")
    >>> session.execute("INSERT INTO Department VALUES (1, 'Engineering')")
    >>> result = session.query("SELECT D.DeptID, D.Name, COUNT(E.EmpID) "
    ...                        "FROM Employee E, Department D "
    ...                        "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name")
    >>> print(result.to_pretty())

``query`` returns a :class:`~repro.engine.dataset.DataSet`; ``report``
returns the full :class:`QueryReport` (chosen strategy, estimated costs,
TestFD verdict, executed statistics) without hiding anything.

A session plans each statement once per catalog state
(:class:`~repro.statement.PlanMemo`): reporting it again skips bind,
TestFD, costing, the certificate audit and the rewrites, and only
executes — until a DDL statement, a declared shard layout or a write to
a table the plan reads, or a new ``policy`` or ``executor_config``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.algebra.display import render_annotated
from repro.algebra.ops import PlanNode
from repro.analysis.certificates import distribution_certificate, get_certificate
from repro.catalog.catalog import Database
from repro.engine.aggregation import evaluate_aggregate_expression
from repro.engine.dataset import DataSet
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.setops import apply_set_operation
from repro.engine.sorting import sort_dataset
from repro.engine.stats import ExecutionStats
from repro.errors import BindingError, ParseError
from repro.expressions.ast import (
    Expression,
    InList,
    InSubquery,
    Literal,
    transform_expression,
)
from repro.optimizer.planner import PlanChoice
from repro.parser.ast_nodes import SelectStatement, SetOperationStatement
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.sqltypes.values import SqlValue, group_key
from repro.statement import PlanMemo


@dataclass
class QueryReport:
    """Everything the session knows about one executed query.

    ``result`` and ``stats`` belong to this run.  ``plan``, ``choice`` and
    ``rewrites`` come from the session's plan memo: a later report of the
    same statement over the same catalog state shares those (frozen)
    objects with this one.
    """

    result: DataSet
    plan: PlanNode
    strategy: str  # "eager" | "standard" | "simple" | "scalar-aggregate"
    stats: ExecutionStats
    choice: Optional[PlanChoice] = None
    rewrites: Tuple = ()  # RuleCertificates of applied certified rewrites
    #: The commit epoch this query's snapshot was pinned at, when the
    #: query ran through the multi-session server (None otherwise).
    snapshot_epoch: Optional[int] = None

    @property
    def certificate(self):
        """The rewrite certificate attached to the executed plan, if any."""
        return get_certificate(self.plan)

    @property
    def distribution_certificate(self):
        """The R704 shard-exchange certificate, when the plan was sharded."""
        return distribution_certificate(self.plan)

    def explain(self, certify: bool = False) -> str:
        """The plan-choice story; ``certify=True`` appends the rewrite
        certificate (re-audited first) when the plan carries one."""
        lines = [f"strategy: {self.strategy}"]
        if self.choice is not None:
            lines.append(f"standard cost (est.): {self.choice.standard_cost:.1f}")
            if self.choice.eager_cost is not None:
                lines.append(f"eager cost (est.):    {self.choice.eager_cost:.1f}")
            lines.append(f"transformable: {self.choice.decision.valid} "
                         f"({self.choice.decision.reason})")
        if self.rewrites:
            lines.append(
                "certified rewrites: "
                + ", ".join(certificate.rule for certificate in self.rewrites)
            )
        lines.append(render_annotated(self.plan, self.stats.cardinality_map()))
        pipelines = self.stats.pipelines
        if pipelines is not None:
            lines.append(
                f"pipelines: {pipelines.segments} segments, "
                f"{pipelines.morsels} morsels, max in-flight "
                f"~{pipelines.max_inflight_bytes} bytes"
            )
        for exchange in self.stats.exchanges:
            lines.append(f"exchange: {exchange.describe()}")
        distribution = self.distribution_certificate
        if distribution is not None:
            estimated = distribution.premise_values("estimated-shipped-rows")
            if estimated:
                lines.append(
                    f"exchange estimate: ~{float(estimated[0]):.0f} rows to ship "
                    f"({distribution.premise_values('strategy')[0]})"
                )
        if certify:
            certificate = self.certificate
            if certificate is None and not self.rewrites:
                lines.append(
                    "no rewrite certificate (plan is not a certified eager plan)"
                )
            if certificate is not None:
                lines.append(certificate.render())
            for rule_certificate in self.rewrites:
                lines.append(rule_certificate.render())
        return "\n".join(lines)


class Session:
    """A SQL session: DDL/DML via :meth:`execute`, queries via :meth:`query`."""

    def __init__(
        self,
        database: Optional[Database] = None,
        policy: str = "cost",
        executor_config: ExecutorConfig = ExecutorConfig(),
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database if database is not None else Database()
        self.policy = policy
        self.executor_config = executor_config
        self.params = params
        self._plans = PlanMemo()

    # -- statements -------------------------------------------------------------

    def execute(self, sql: str) -> None:
        """Run a DDL or INSERT statement."""
        statement = parse_statement(sql)
        if isinstance(statement, (SelectStatement, SetOperationStatement)):
            raise ParseError("use query() for SELECT statements")
        execute_statement(self.database, statement)

    def query(self, sql: str, params: Optional[Mapping[str, SqlValue]] = None) -> DataSet:
        """Run a SELECT and return its result."""
        return self.report(sql, params).result

    def report(
        self, sql: str, params: Optional[Mapping[str, SqlValue]] = None
    ) -> QueryReport:
        """Run a SELECT and return the result plus plan/cost/stats detail."""
        statement = parse_statement(sql)
        if not isinstance(statement, (SelectStatement, SetOperationStatement)):
            raise ParseError("report()/query() take a SELECT statement")
        return self.report_statement(statement, params)

    def report_statement(
        self,
        statement: "SelectStatement | SetOperationStatement",
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> QueryReport:
        """Run an already-parsed SELECT or set operation."""
        effective = params if params is not None else self.params
        if isinstance(statement, SetOperationStatement):
            return self._run_set_operation(statement, effective)
        return self._run_select(statement, effective)

    def _run_set_operation(
        self, statement: SetOperationStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        """UNION/EXCEPT/INTERSECT: run both sides, combine with =ⁿ
        duplicate semantics (§4.2), apply any trailing ORDER BY."""
        left = self.report_statement(statement.left, params)
        right = self.report_statement(statement.right, params)
        combined, __ = apply_set_operation(
            statement.operator, left.result, right.result, statement.all_rows
        )
        stats = ExecutionStats()
        for source in (left.stats, right.stats):
            for node_id in source.order:
                stats.record(node_id, source.nodes[node_id])
        report = QueryReport(
            combined,
            left.plan,
            f"set-{statement.operator}{'-all' if statement.all_rows else ''}",
            stats,
        )
        return self._apply_order_by(report, statement)

    # -- internals -----------------------------------------------------------

    def _run_select(
        self, statement: SelectStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> QueryReport:
        """Materialize the IN-subqueries, plan the statement
        (:func:`repro.statement.plan_statement` — the chosen, certified,
        prepared plan — once per catalog state, through the session's
        :class:`~repro.statement.PlanMemo`), execute it, patch the empty
        scalar aggregate, sort."""
        planned = self._plans.plan(
            self.database,
            self._resolve_subqueries(statement, params),
            self.policy,
            self.executor_config,
        )
        executor = Executor(self.database, self.executor_config, params)
        result, stats = executor.run_prepared(planned.plan)
        if planned.aggregates and result.cardinality == 0:
            # Scalar aggregate: SQL yields exactly one row even on empty
            # input (unlike GROUP BY ()); patch the empty case explicitly.
            empty_input = DataSet((), [])
            row = tuple(
                evaluate_aggregate_expression(spec.expression, empty_input, [], params)
                for spec in planned.aggregates
            )
            result = DataSet(result.columns, [row])
        report = QueryReport(
            result, planned.plan, planned.strategy, stats, planned.choice,
            planned.rewrites,
        )
        return self._apply_order_by(report, statement)

    def _resolve_subqueries(
        self, statement: SelectStatement, params: Optional[Mapping[str, SqlValue]]
    ) -> SelectStatement:
        """Materialize uncorrelated IN-subqueries into value lists.

        ``x IN (SELECT c FROM ...)`` becomes ``x IN (v1, ..., vn)`` over the
        subquery's distinct values.  A NULL in the subquery result stays in
        the list, so the rewritten :class:`InList` reproduces SQL's
        three-valued IN semantics (a non-matching x then yields UNKNOWN).
        An empty result rewrites to constant FALSE (TRUE for NOT IN).
        Correlated subqueries surface as binding errors inside the nested
        run, with a hint appended.
        """
        def resolve(node: Expression):
            if not isinstance(node, InSubquery):
                return None
            subquery = node.subquery
            if not isinstance(subquery, SelectStatement):
                raise ParseError("IN-subquery has no parsed SELECT")
            try:
                inner = self._run_select(subquery, params)
            except BindingError as error:
                raise BindingError(
                    f"{error} (note: correlated subqueries are not supported; "
                    "IN-subqueries must be self-contained)"
                ) from error
            if len(inner.result.columns) != 1:
                raise ParseError(
                    "IN-subquery must produce exactly one column, got "
                    f"{len(inner.result.columns)}"
                )
            seen = {}
            for (value,) in inner.result.rows:
                seen.setdefault(group_key((value,)), value)
            values = list(seen.values())
            if not values:
                return Literal(bool(node.negated))
            items = tuple(Literal(value) for value in values)
            return InList(node.operand, items, node.negated)

        def rewrite(expression):
            if expression is None:
                return None
            return transform_expression(expression, resolve)

        new_where = rewrite(statement.where)
        new_having = rewrite(statement.having)
        if new_where is statement.where and new_having is statement.having:
            return statement
        return SelectStatement(
            statement.distinct,
            statement.items,
            statement.from_tables,
            new_where,
            statement.group_by,
            new_having,
            statement.order_by,
        )

    def _apply_order_by(
        self,
        report: QueryReport,
        statement: "SelectStatement | SetOperationStatement",
    ) -> QueryReport:
        """ORDER BY is presentation-level: sort the finished result.

        Keys may be output column names (qualified or bare) or SELECT
        aliases; :meth:`DataSet.index_of` resolves both.
        """
        if not statement.order_by:
            return report
        columns = [item.column.qualified for item in statement.order_by]
        descending = [item.descending for item in statement.order_by]
        ordered, __ = sort_dataset(report.result, columns, descending)
        report.result = ordered
        return report
