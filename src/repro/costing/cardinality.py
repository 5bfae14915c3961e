"""Cardinality estimation for logical plans.

A deliberately classic (System-R-flavoured) estimator: per-column distinct
counts drive equality selectivities, joins divide by the larger key NDV,
grouping caps the group count by the product of grouping-column NDVs.  The
paper's Section 7 says the eager/standard choice "is determined by the
estimated cost of the two plans" without giving a model — this estimator
plus :mod:`repro.costing.cost` is our concrete instantiation, and the
benchmarks show it reproduces the paper's qualitative calls (Figure 1:
eager wins; Figure 8: standard wins).

Statistics are collected from the actual stored tables
(:func:`collect_statistics`, one scan per table version) or supplied
synthetically for what-if studies (:class:`ColumnStats` /
:class:`TableStats` are plain read-only data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.algebra.ops import (
    Apply,
    Exchange,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog.catalog import Database
from repro.expressions.analysis import classify_atomic, Type1Condition, Type2Condition
from repro.expressions.ast import (
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
)
from repro.expressions.normalize import split_conjuncts
from repro.sqltypes.values import group_key
from repro.storage.table import Table

#: Selectivity guesses for predicates we cannot analyse (System R defaults).
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25


@dataclass(frozen=True)
class ColumnStats:
    """Distinct-value count for one column."""

    distinct: int = 1


@dataclass(frozen=True)
class TableStats:
    """Row count and per-column NDVs for one stored table.

    Read-only once built: the statistics of a stored table are shared by
    every estimator (and server thread) that looks at that table version.
    """

    row_count: int = 0
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))

    def __reduce__(self):
        return (TableStats, (self.row_count, dict(self.columns)))


@dataclass
class Statistics:
    """Statistics for every table in a database, keyed by table name."""

    tables: Dict[str, TableStats] = field(default_factory=dict)

    def table(self, name: str) -> TableStats:
        return self.tables.get(name, TableStats())


def collect_statistics(database: Database) -> Statistics:
    """Exact statistics of the tables as stored now.

    Each table is scanned once per :attr:`~repro.storage.table.Table.version`
    (:meth:`~repro.storage.table.Table.derived`); until it mutates, every
    caller — planner, rewriter, distributor, certificate auditors — reads
    the same :class:`TableStats`.
    """
    return Statistics(
        {
            name: _table_statistics(table)
            for name, table in database.tables.items()
        }
    )


def _table_statistics(table: Table) -> TableStats:
    return table.derived("statistics", lambda: _scan_table(table))


def _scan_table(table: Table) -> TableStats:
    """One pass over ``table``: row count and per-column NDV under the
    null-aware duplicate equality ``=ⁿ`` (``group_key``)."""
    names = table.schema.column_names()
    rows = table.rows()
    values_by_column = (
        zip(*(row.values for row in rows)) if rows else [()] * len(names)
    )
    columns = {}
    for name, values in zip(names, values_by_column):
        distinct = len({group_key((value,)) for value in values})
        columns[name] = ColumnStats(max(1, distinct))
    return TableStats(len(rows), columns)


@dataclass
class EstimateContext:
    """Row count and column NDVs flowing up the plan."""

    rows: float
    ndv: Dict[str, float]

    def column_ndv(self, column: str) -> float:
        exact = self.ndv.get(column)
        if exact is not None:
            return max(1.0, min(exact, self.rows)) if self.rows else 1.0
        # Bare-name fallback.
        bare = column.rsplit(".", 1)[-1]
        matches = [v for k, v in self.ndv.items() if k.rsplit(".", 1)[-1] == bare]
        if len(matches) == 1:
            return max(1.0, min(matches[0], self.rows)) if self.rows else 1.0
        return max(1.0, self.rows * DEFAULT_EQ_SELECTIVITY)


class CardinalityEstimator:
    """Estimates output cardinalities for every node of a logical plan."""

    def __init__(self, database: Database, statistics: Optional[Statistics] = None) -> None:
        self.database = database
        self.statistics = statistics or collect_statistics(database)

    # -- public API -----------------------------------------------------------

    def estimate(self, plan: PlanNode) -> EstimateContext:
        """Estimated (rows, column NDVs) of the plan's output."""
        if isinstance(plan, Relation):
            return self._relation(plan)
        if isinstance(plan, Select):
            return self._select(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, (Join, Product)):
            return self._join(plan)
        if isinstance(plan, GroupApply):
            return self._group(plan.child, plan.grouping_columns, len(plan.aggregates))
        if isinstance(plan, Apply):
            if isinstance(plan.child, Group):
                return self._group(
                    plan.child.child, plan.child.grouping_columns, len(plan.aggregates)
                )
            return self.estimate(plan.child)
        if isinstance(plan, (Group, Sort)):
            return self.estimate(plan.child)
        if isinstance(plan, Exchange):
            # The merged stream has the child's cardinality: merge=False
            # concatenates shard outputs, merge=True re-aggregates partials
            # back to one row per global group.
            return self.estimate(plan.child)
        raise TypeError(f"cannot estimate {type(plan).__name__}")

    def rows(self, plan: PlanNode) -> float:
        return self.estimate(plan).rows

    # -- node estimators ---------------------------------------------------

    def _relation(self, plan: Relation) -> EstimateContext:
        table_stats = self.statistics.table(plan.table_name)
        correlation = plan.correlation
        ndv = {
            f"{correlation}.{column}": float(stats.distinct)
            for column, stats in table_stats.columns.items()
        }
        return EstimateContext(float(table_stats.row_count), ndv)

    def _select(self, plan: Select) -> EstimateContext:
        child = self.estimate(plan.child)
        selectivity = self._condition_selectivity(plan.condition, child, child)
        rows = child.rows * selectivity
        ndv = {k: min(v, max(rows, 1.0)) for k, v in child.ndv.items()}
        return EstimateContext(rows, ndv)

    def _project(self, plan: Project) -> EstimateContext:
        child = self.estimate(plan.child)
        kept = {
            k: v
            for k, v in child.ndv.items()
            if k in plan.columns or k.rsplit(".", 1)[-1] in plan.columns
        }
        if not plan.distinct:
            return EstimateContext(child.rows, kept)
        distinct_rows = _group_count(child, plan.columns)
        ndv = {k: min(v, max(distinct_rows, 1.0)) for k, v in kept.items()}
        return EstimateContext(distinct_rows, ndv)

    def _join(self, plan: "Join | Product") -> EstimateContext:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        ndv = dict(left.ndv)
        ndv.update(right.ndv)
        rows = left.rows * right.rows
        if isinstance(plan, Join) and plan.condition is not None:
            rows *= self._condition_selectivity(plan.condition, left, right)
        capped = {k: min(v, max(rows, 1.0)) for k, v in ndv.items()}
        return EstimateContext(rows, capped)

    def _group(
        self, child_plan: PlanNode, grouping_columns: Tuple[str, ...], n_aggregates: int
    ) -> EstimateContext:
        child = self.estimate(child_plan)
        groups = _group_count(child, grouping_columns)
        ndv = {
            k: min(v, max(groups, 1.0))
            for k, v in child.ndv.items()
            if k in grouping_columns or k.rsplit(".", 1)[-1] in grouping_columns
        }
        return EstimateContext(groups, ndv)

    # -- selectivity ------------------------------------------------------------

    def _condition_selectivity(
        self,
        condition: Expression,
        left: EstimateContext,
        right: EstimateContext,
    ) -> float:
        combined = EstimateContext(
            max(left.rows, right.rows), {**left.ndv, **right.ndv}
        )
        selectivity = 1.0
        for conjunct in split_conjuncts(condition):
            selectivity *= self._conjunct_selectivity(conjunct, left, right, combined)
        return min(1.0, selectivity)

    def _conjunct_selectivity(
        self,
        conjunct: Expression,
        left: EstimateContext,
        right: EstimateContext,
        combined: EstimateContext,
    ) -> float:
        classified = classify_atomic(conjunct)
        if isinstance(classified, Type1Condition):
            return 1.0 / combined.column_ndv(classified.column.qualified)
        if isinstance(classified, Type2Condition):
            left_ndv = combined.column_ndv(classified.left.qualified)
            right_ndv = combined.column_ndv(classified.right.qualified)
            return 1.0 / max(left_ndv, right_ndv, 1.0)
        if isinstance(conjunct, Comparison) and conjunct.op in ("<", "<=", ">", ">="):
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, Comparison) and conjunct.op == "<>":
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        if isinstance(conjunct, IsNull):
            return DEFAULT_EQ_SELECTIVITY
        if isinstance(conjunct, InList) and isinstance(conjunct.operand, ColumnRef):
            per_item = 1.0 / combined.column_ndv(conjunct.operand.qualified)
            selectivity = min(1.0, len(conjunct.items) * per_item)
            return 1.0 - selectivity if conjunct.negated else selectivity
        if isinstance(conjunct, Between):
            # Two range bounds: the square of the single-bound default.
            selectivity = DEFAULT_RANGE_SELECTIVITY * DEFAULT_RANGE_SELECTIVITY * 2
            return 1.0 - selectivity if conjunct.negated else selectivity
        if isinstance(conjunct, Like):
            selectivity = DEFAULT_EQ_SELECTIVITY
            return 1.0 - selectivity if conjunct.negated else selectivity
        return DEFAULT_SELECTIVITY


def _group_count(child: EstimateContext, grouping_columns: Tuple[str, ...]) -> float:
    """Estimated distinct groups: capped product of grouping-column NDVs."""
    if not grouping_columns:
        return min(child.rows, 1.0)
    product = 1.0
    for column in grouping_columns:
        product *= child.column_ndv(column)
        if product >= child.rows:
            return max(child.rows, 0.0)
    return min(product, child.rows)
