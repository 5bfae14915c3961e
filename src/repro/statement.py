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

A session asks through its :class:`PlanMemo`, which calls
:func:`plan_statement` once per statement and catalog state.  TestFD and
the FD1/FD2 certificate read only constraints and predicates (§6), the
cost choice reads statistics (§7): a plan stays valid until the schema or
a table it reads changes, and the memo's stamp proves neither has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    PlanNode,
    Project,
    Relation,
    walk_plan,
)
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
from repro.storage.table import Table

#: How many planned statements a :class:`PlanMemo` keeps; the oldest
#: stored is evicted first.
PLAN_MEMO_SIZE = 64


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


@dataclass(frozen=True)
class _Entry:
    """A stored plan and the catalog state it was planned against."""

    planned: PlannedStatement
    database: Database
    schema_epoch: int
    #: ``(name, table, version)`` of every table the candidates and the
    #: plan scan, taken once when the entry is stored.
    tables: Tuple[Tuple[str, Table, int], ...]

    def holds(self, database: Database) -> bool:
        """Nothing the plan read has changed: the same catalog at the same
        schema epoch, and each table the same object at the same version
        (a swapped-in table may carry its predecessor's version)."""
        if database is not self.database or database.schema_epoch != self.schema_epoch:
            return False
        tables = database.tables
        return all(
            tables.get(name) is table and table.version == version
            for name, table, version in self.tables
        )


class PlanMemo:
    """One :class:`PlannedStatement` per statement and catalog state.

    The key is the statement (IN-subqueries already materialized, so their
    values are part of it), the planner policy and the whole
    ``ExecutorConfig``; parameters are not, because :func:`plan_statement`
    never sees them.  An entry is served only while its stamp holds
    (:meth:`_Entry.holds`).  Only a plan :func:`plan_statement` returned is
    stored — a bind error, a refused certificate or rewrite audit, a failed
    verification stores nothing — and at most :data:`PLAN_MEMO_SIZE` of
    them.  A hit hands back the same frozen plan objects.
    """

    def __init__(self) -> None:
        self._entries: Dict[Hashable, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def plan(
        self,
        database: Database,
        statement: SelectStatement,
        policy: str,
        config: ExecutorConfig,
    ) -> PlannedStatement:
        """:func:`plan_statement`'s answer, planned now or earlier."""
        key = (statement, policy, config)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.holds(database):
                return entry.planned
            del self._entries[key]  # stale: stored again below, as the newest
        planned = plan_statement(database, statement, policy, config)
        tables = {
            node.table_name: database.tables[node.table_name]
            for root in (planned.plan,) + planned.candidates
            for node in walk_plan(root)
            if isinstance(node, Relation)
        }
        while len(self._entries) >= PLAN_MEMO_SIZE:
            del self._entries[next(iter(self._entries))]  # the oldest
        self._entries[key] = _Entry(
            planned, database, database.schema_epoch,
            tuple((name, table, table.version) for name, table in tables.items()),
        )
        return planned
