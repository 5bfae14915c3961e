"""Partitioning FROM-clause tables into the R1/R2 groups of Section 3.

R1 must contain every table referenced by an aggregation column; R2 is the
rest.  A query where *every* table carries aggregation columns admits no
partition and is untransformable (concluding remarks, case (a)).

:class:`FlatQuery` is the pre-partition form — what the SQL binder produces
— and :func:`to_group_by_join_query` turns it into the normalized
:class:`~repro.core.query_class.GroupByJoinQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.algebra.ops import AggregateSpec
from repro.core.query_class import GroupByJoinQuery
from repro.errors import TransformationError
from repro.expressions.ast import (
    Expression,
    aggregates as collect_aggregates,
    column_refs,
)
from repro.fd.derivation import TableBinding


@dataclass(frozen=True)
class FlatQuery:
    """A bound query before R1/R2 partitioning.

    All column names are qualified.  ``select_group_columns`` are the
    non-aggregate SELECT items (SQL2 requires them to be a subset of
    ``group_by``).
    """

    bindings: Tuple[TableBinding, ...]
    where: Optional[Expression]
    group_by: Tuple[str, ...]
    select_group_columns: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]
    distinct: bool = False
    having: Optional[Expression] = None

    def __init__(
        self,
        bindings: Sequence[TableBinding],
        where: Optional[Expression],
        group_by: Sequence[str],
        select_group_columns: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        distinct: bool = False,
        having: Optional[Expression] = None,
    ) -> None:
        object.__setattr__(self, "bindings", tuple(bindings))
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "group_by", tuple(group_by))
        object.__setattr__(self, "select_group_columns", tuple(select_group_columns))
        object.__setattr__(self, "aggregates", tuple(aggregates))
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "having", having)


def aggregation_aliases(aggregates: Sequence[AggregateSpec]) -> FrozenSet[str]:
    """Correlation names referenced inside aggregate arguments (AA's homes)."""
    aliases = set()
    for spec in aggregates:
        for aggregate in collect_aggregates(spec.expression):
            if aggregate.argument is None:
                continue
            for ref in column_refs(aggregate.argument):
                aliases.add(ref.table)
    return frozenset(aliases)


def default_partition(
    flat: FlatQuery,
) -> Tuple[Tuple[TableBinding, ...], Tuple[TableBinding, ...]]:
    """The paper's canonical partition: R1 = aggregation tables, R2 = rest.

    With no aggregation columns at all (e.g. a bare COUNT(*) query), R1
    defaults to the tables that contribute no grouping column — pushing the
    count below the join then counts R1-group rows per group, which FD2
    makes correct; if every table contributes grouping columns, the first
    table is used.
    """
    agg_aliases = aggregation_aliases(flat.aggregates)
    if agg_aliases:
        r1 = tuple(b for b in flat.bindings if b.alias in agg_aliases)
        r2 = tuple(b for b in flat.bindings if b.alias not in agg_aliases)
        if not r2:
            raise TransformationError(
                "every FROM table carries aggregation columns; no R1/R2 "
                "partition exists (concluding remarks, case (a))"
            )
        return r1, r2
    grouping_aliases = {column.rsplit(".", 1)[0] for column in flat.group_by}
    non_grouping = tuple(
        b for b in flat.bindings if b.alias not in grouping_aliases
    )
    if non_grouping and len(non_grouping) < len(flat.bindings):
        r1 = non_grouping
        r2 = tuple(b for b in flat.bindings if b.alias in grouping_aliases)
        return r1, r2
    if len(flat.bindings) < 2:
        raise TransformationError("need at least two tables to partition")
    return (flat.bindings[0],), tuple(flat.bindings[1:])


def to_group_by_join_query(
    flat: FlatQuery,
    r1: Optional[Sequence[TableBinding]] = None,
) -> GroupByJoinQuery:
    """Normalize a flat query into the Section 3 form.

    ``r1`` overrides the default partition; it must cover all aggregation
    tables.
    """
    if r1 is None:
        r1_group, r2_group = default_partition(flat)
    else:
        r1_aliases = {b.alias for b in r1}
        agg_aliases = aggregation_aliases(flat.aggregates)
        if not agg_aliases <= r1_aliases:
            raise TransformationError(
                f"R1 {sorted(r1_aliases)} does not cover aggregation tables "
                f"{sorted(agg_aliases)}"
            )
        r1_group = tuple(r1)
        r2_group = tuple(b for b in flat.bindings if b.alias not in r1_aliases)
        if not r2_group:
            raise TransformationError("R2 group would be empty")

    r1_aliases = {b.alias for b in r1_group}
    ga1 = tuple(c for c in flat.group_by if c.rsplit(".", 1)[0] in r1_aliases)
    ga2 = tuple(c for c in flat.group_by if c.rsplit(".", 1)[0] not in r1_aliases)
    sga1 = tuple(
        c for c in flat.select_group_columns if c.rsplit(".", 1)[0] in r1_aliases
    )
    sga2 = tuple(
        c for c in flat.select_group_columns if c.rsplit(".", 1)[0] not in r1_aliases
    )
    return GroupByJoinQuery(
        r1_group,
        r2_group,
        flat.where,
        ga1,
        ga2,
        flat.aggregates,
        sga1,
        sga2,
        flat.distinct,
        flat.having,
    )
