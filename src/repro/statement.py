"""The front half: one SELECT becomes its chosen, certified, prepared plan.

:func:`plan_statement` is the only place under ``src/repro`` where a parsed
statement turns into a plan — view merge (§8), bind, R1/R2 partition (§3),
then :meth:`~repro.optimizer.planner.Planner.choose` (TestFD, costing, the
audited FD1/FD2 certificate) or, outside the group-by-join class, the one
standard / scalar-aggregate / simple plan, then
:func:`~repro.optimizer.prepare.prepare_plan` (fuse, certified rewrites,
shard Exchange, opt-in verification).  :class:`repro.session.Session`
executes what it returns; :func:`repro.lint.lint_sql` analyzes what it
returns; neither builds a plan of its own, so the two cannot disagree about
what a statement would run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.algebra.ops import AggregateSpec, Apply, Group, PlanNode, Project
from repro.analysis.certificates import RuleCertificate
from repro.catalog.catalog import Database
from repro.core.having import grouped_plan_with_having
from repro.core.partition import to_group_by_join_query
from repro.core.planbuild import build_join_tree
from repro.core.query_class import GroupByJoinQuery
from repro.engine.executor import ExecutorConfig
from repro.errors import TransformationError
from repro.optimizer.planner import PlanChoice, Planner
from repro.optimizer.prepare import prepare_plan
from repro.parser.ast_nodes import SelectStatement
from repro.parser.binder import bind_select
from repro.parser.viewmerge import merge_aggregated_view


@dataclass(frozen=True)
class PlannedStatement:
    """One SELECT, planned and prepared but not executed."""

    #: What the executor runs (``Executor.run_prepared``).
    plan: PlanNode
    strategy: str  # "eager" | "standard" | "simple" | "scalar-aggregate"
    #: The planner's record, for a query with an R1/R2 partition.
    choice: Optional[PlanChoice]
    #: Rule certificates of the rewrites :func:`prepare_plan` applied.
    rewrites: Tuple[RuleCertificate, ...]
    #: The access plans as built, before preparation: E1 and — when TestFD
    #: said yes — E2 carrying its certificate, or the one plan of a query
    #: outside the class.  ``plan`` is one of them, prepared.
    candidates: Tuple[PlanNode, ...]
    #: The aggregates of a ``scalar-aggregate`` statement (whose one row
    #: must exist even over an empty input).
    aggregates: Tuple[AggregateSpec, ...] = ()


def plan_statement(
    database: Database,
    statement: SelectStatement,
    policy: str,
    config: ExecutorConfig,
) -> PlannedStatement:
    """Plan one SELECT (IN-subqueries already materialized) for ``config``
    under the planner ``policy``; nothing is executed."""
    query: Optional[GroupByJoinQuery] = None
    if any(t.name in database.views for t in statement.from_tables):
        query = merge_aggregated_view(database, statement)
    else:
        flat = bind_select(database, statement)
        if flat.group_by:
            try:
                query = to_group_by_join_query(flat)
            except TransformationError:
                # No R1/R2 partition (a single-table GROUP BY, or aggregation
                # columns everywhere): the standard plan, no choice to make.
                pass

    choice = None
    aggregates: Tuple[AggregateSpec, ...] = ()
    if query is not None:
        choice = Planner(
            database, policy=policy, engine=config.engine, workers=config.workers
        ).choose(query)
        plan, strategy = choice.plan, choice.strategy
        candidates = (choice.standard,) + (
            (choice.eager,) if choice.eager is not None else ()
        )
    else:
        tree = build_join_tree(flat.bindings, flat.where)
        if flat.group_by:
            strategy = "standard"
            plan = grouped_plan_with_having(
                tree, flat.group_by, flat.aggregates, flat.having,
                flat.select_group_columns + tuple(s.name for s in flat.aggregates),
                flat.distinct,
            )
        elif flat.aggregates:
            strategy, aggregates = "scalar-aggregate", flat.aggregates
            plan = Apply(Group(tree, ()), aggregates)
        else:
            strategy = "simple"
            plan = Project(tree, flat.select_group_columns, flat.distinct)
        candidates = (plan,)

    prepared = prepare_plan(plan, database, config)
    return PlannedStatement(
        prepared.plan, strategy, choice, prepared.certificates, candidates,
        aggregates,
    )
