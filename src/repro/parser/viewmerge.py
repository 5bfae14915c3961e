"""Merging an aggregated view into its consuming query (Section 8).

An *aggregated view* is a view defined by grouping and aggregation.  A query
that joins such a view with other tables is naturally evaluated eagerly:
materialize the view (group-by first), then join — the E2 shape.  Section 8
observes that the paper's machinery also licenses the *reverse* order: merge
the view into the outer query, producing one grouped join (the E1 shape),
and let the optimizer pick.

:func:`merge_aggregated_view` performs the merge::

    CREATE VIEW UserInfo(UserId, Machine, TotUsage, ...) AS
      SELECT A.UserId, A.Machine, SUM(A.Usage), ... FROM PrinterAuth A, Printer P
      WHERE A.PNo = P.PNo GROUP BY A.UserId, A.Machine

    SELECT U.UserId, U.UserName, I.TotUsage, ...
    FROM UserInfo I, UserAccount U
    WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'

becomes the Example 3 query (R1 = {A, P}, R2 = {U}), whose E2 plan *is* the
view evaluation.  The merge is valid exactly when the view's grouping
columns coincide with the merged query's GA1+ — i.e. every view grouping
column is either selected or equated to an outer column, so the paper's
FD machinery applies; otherwise :class:`TransformationError` is raised.
"""

from __future__ import annotations

from typing import Dict, List

from repro.algebra.ops import AggregateSpec
from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.errors import BindingError, TransformationError
from repro.expressions.ast import (
    Aggregate,
    ColumnRef,
    Expression,
    contains_aggregate,
    transform_expression,
)
from repro.expressions.normalize import conjoin, split_conjuncts
from repro.fd.derivation import TableBinding
from repro.parser.ast_nodes import (
    CreateViewStatement,
    SelectStatement,
)
from repro.parser.binder import NameResolver, bind_select


def view_output_map(
    database: Database, view: CreateViewStatement
) -> Dict[str, Expression]:
    """Map view column names to their defining (qualified) expressions."""
    resolver = NameResolver(database, view.select.from_tables)
    mapping: Dict[str, Expression] = {}
    for i, item in enumerate(view.select.items):
        expression = resolver.qualify_expression(item.expression)
        if view.column_names:
            if i >= len(view.column_names):
                raise BindingError(
                    f"view {view.name}: more SELECT items than column names"
                )
            name = view.column_names[i]
        elif item.alias:
            name = item.alias
        elif isinstance(expression, ColumnRef):
            name = expression.column
        else:
            raise BindingError(
                f"view {view.name}: item {i} needs a column name or alias"
            )
        if name in mapping:
            raise BindingError(f"view {view.name}: duplicate column {name}")
        mapping[name] = expression
    return mapping


def merge_aggregated_view(
    database: Database, outer: SelectStatement
) -> GroupByJoinQuery:
    """Merge the (single) aggregated view in ``outer``'s FROM clause.

    Returns the unified :class:`GroupByJoinQuery` whose E2 plan reproduces
    the naive view materialization and whose E1 plan is the Section 8
    reverse evaluation.
    """
    view_refs = [t for t in outer.from_tables if t.name in database.views]
    base_refs = [t for t in outer.from_tables if t.name not in database.views]
    if len(view_refs) != 1:
        raise TransformationError(
            f"expected exactly one view in the FROM clause, found {len(view_refs)}"
        )
    view_ref = view_refs[0]
    view = database.view_definition(view_ref.name)
    if not isinstance(view, CreateViewStatement):
        raise TransformationError(f"{view_ref.name} has no parsed view definition")
    if not view.select.group_by:
        raise TransformationError(
            f"{view_ref.name} is not an aggregated view (no GROUP BY)"
        )
    if view.select.having is not None or view.select.distinct:
        raise TransformationError(
            "views with HAVING or DISTINCT are outside the class considered"
        )

    inner = bind_select(database, view.select)
    outputs = view_output_map(database, view)
    view_correlation = view_ref.correlation

    inner_aliases = {binding.alias for binding in inner.bindings}
    outer_aliases = {t.correlation for t in base_refs}
    clash = inner_aliases & outer_aliases
    if clash:
        raise TransformationError(
            f"correlation names used both inside the view and outside: {sorted(clash)}"
        )

    base_resolver = NameResolver(database, tuple(base_refs)) if base_refs else None

    def rewrite(expression: Expression, allow_aggregates: bool) -> Expression:
        """Replace view-column references by their definitions; qualify the
        rest against the outer base tables."""
        def visit(node: Expression):
            if isinstance(node, ColumnRef):
                if node.table == view_correlation:
                    if node.column not in outputs:
                        raise BindingError(
                            f"view {view_ref.name} has no column {node.column}"
                        )
                    replacement = outputs[node.column]
                    if contains_aggregate(replacement) and not allow_aggregates:
                        raise TransformationError(
                            f"view aggregate column {node.qualified} used in "
                            "a WHERE/GROUP BY position (would need HAVING)"
                        )
                    return replacement
                if base_resolver is None:
                    raise BindingError(f"unknown column {node.qualified}")
                return base_resolver.qualify(node)
            if isinstance(node, Aggregate):
                raise TransformationError(
                    "aggregates over view columns are not supported by the merge"
                )
            return None

        return transform_expression(expression, visit)

    # WHERE: view-group-column references become inner columns.
    merged_where_parts: List[Expression] = list(split_conjuncts(inner.where))
    for conjunct in split_conjuncts(outer.where):
        merged_where_parts.append(rewrite(conjunct, allow_aggregates=False))
    merged_where = conjoin(merged_where_parts)

    # SELECT: split into grouping columns and the view's aggregates.
    select_group: List[str] = []
    ga1: List[str] = []
    ga2: List[str] = []
    specs: List[AggregateSpec] = []
    for item in outer.items:
        expression = rewrite(item.expression, allow_aggregates=True)
        if contains_aggregate(expression):
            name = item.alias or (
                item.expression.column
                if isinstance(item.expression, ColumnRef)
                else str(expression)
            )
            specs.append(AggregateSpec(name, expression))
            continue
        if not isinstance(expression, ColumnRef):
            raise TransformationError(
                f"unsupported outer SELECT expression: {item.expression}"
            )
        qualified = expression.qualified
        select_group.append(qualified)
        if expression.table in inner_aliases:
            ga1.append(qualified)
        else:
            ga2.append(qualified)

    if outer.group_by:
        raise TransformationError(
            "outer queries with their own GROUP BY are not handled by the merge"
        )

    r1 = inner.bindings
    r2 = tuple(TableBinding(t.correlation, t.name) for t in base_refs)
    if not r2:
        raise TransformationError(
            "the outer query joins the view with no base table; nothing to merge"
        )
    merged = GroupByJoinQuery(
        r1, r2, merged_where, tuple(ga1), tuple(ga2), tuple(specs),
        distinct=outer.distinct,
    )

    # Validity of the merge itself: the view grouped on exactly GA1+ of the
    # merged query, otherwise E2-of-merged is not the view evaluation.
    if set(merged.ga1_plus) != set(inner.group_by):
        raise TransformationError(
            f"view grouping columns {sorted(inner.group_by)} do not match the "
            f"merged query's GA1+ {sorted(merged.ga1_plus)}; the view cannot "
            "be merged"
        )
    return merged
