"""Column substitution (concluding remarks, Section 9).

A query may fail TestFD under one syntactic form yet pass under an
equivalent one: equality conjuncts in the WHERE clause make columns
interchangeable on qualifying rows, so aggregation columns (and thereby the
R1/R2 partition) can be rewritten.  The paper proposes generating the set
of equivalent queries by column substitution, trying all partitions of
each, and testing every resulting query.

:func:`equivalent_queries` generates the variants (bounded);
:func:`find_transformable` walks variants × partitions until TestFD says
YES, returning the winning normalized query.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from repro.algebra.ops import AggregateSpec
from repro.catalog.catalog import Database
from repro.core.partition import (
    FlatQuery,
    enumerate_partitions,
    to_group_by_join_query,
)
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import test_fd
from repro.errors import TransformationError
from repro.expressions.analysis import Type2Condition, classify_atomic
from repro.expressions.ast import (
    Aggregate,
    ColumnRef,
    Expression,
    aggregates,
    column_refs,
    transform_expression,
)
from repro.expressions.normalize import split_conjuncts


def _equality_classes(where: Optional[Expression]) -> Dict[str, Set[str]]:
    """Column equivalence classes induced by Type-2 WHERE conjuncts."""
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for conjunct in split_conjuncts(where):
        classified = classify_atomic(conjunct)
        if isinstance(classified, Type2Condition):
            left = classified.left.qualified
            right = classified.right.qualified
            parent[find(left)] = find(right)

    classes: Dict[str, Set[str]] = {}
    for column in list(parent):
        classes.setdefault(find(column), set()).add(column)
    return {
        column: classes[find(column)]
        for column in parent
    }


def _substitute_in_expression(
    expression: Expression, mapping: Dict[str, str]
) -> Expression:
    """Rewrite column references per ``mapping`` (qualified -> qualified)."""

    def visit(node: Expression):
        if isinstance(node, ColumnRef):
            target = mapping.get(node.qualified)
            if target is None:
                return node
            table, bare = target.rsplit(".", 1)
            return ColumnRef(table, bare)
        return None

    return transform_expression(expression, visit)


def equivalent_queries(
    flat: FlatQuery, max_variants: int = 32
) -> Iterator[FlatQuery]:
    """The original query plus substitution variants.

    Each variant replaces *one* aggregation-column reference with an
    equality-class peer from a different table.  Substituting into
    aggregation arguments is the move that changes which tables carry
    aggregation columns — and hence which partitions exist.  (Deeper
    multi-column substitution compounds combinatorially; one step already
    covers the paper's motivating scenario and callers can iterate.)
    """
    yield flat
    produced = 1
    classes = _equality_classes(flat.where)
    for spec_index, spec in enumerate(flat.aggregates):
        for aggregate in aggregates(spec.expression):
            if aggregate.argument is None:
                continue
            for ref in column_refs(aggregate.argument):
                peers = classes.get(ref.qualified, set())
                for peer in sorted(peers - {ref.qualified}):
                    if produced >= max_variants:
                        return
                    mapping = {ref.qualified: peer}
                    new_specs = list(flat.aggregates)
                    new_specs[spec_index] = AggregateSpec(
                        spec.name,
                        _substitute_in_expression(spec.expression, mapping),
                    )
                    yield FlatQuery(
                        flat.bindings,
                        flat.where,
                        flat.group_by,
                        flat.select_group_columns,
                        new_specs,
                        flat.distinct,
                        flat.having,
                    )
                    produced += 1


def find_transformable(
    database: Database,
    flat: FlatQuery,
    assume_unique_keys: bool = False,
    max_variants: int = 32,
    max_partitions: int = 16,
) -> Optional[GroupByJoinQuery]:
    """Search substitution variants × partitions for a TestFD YES.

    Returns the first normalized query whose eager rewrite is provably
    valid, or ``None``.  The found query is *equivalent to* the input (same
    results on every instance) by construction.
    """
    for variant in equivalent_queries(flat, max_variants):
        tried = 0
        for r1, _r2 in enumerate_partitions(variant):
            if tried >= max_partitions:
                break
            tried += 1
            try:
                query = to_group_by_join_query(variant, r1)
            except TransformationError:
                continue
            result = test_fd(
                database, query, assume_unique_keys=assume_unique_keys
            )
            if result.decision:
                return query
    return None
