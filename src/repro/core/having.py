"""HAVING-clause support for standard (group-after-join) plans.

The paper excludes HAVING from the *transformation* ("All queries
considered in this paper were assumed not to contain a HAVING clause" —
§9 lists relaxing this as further work), but a real system must still
*execute* such queries.  We evaluate HAVING the standard way: aggregate,
then filter the per-group rows.

Mechanically, every aggregate appearing in the HAVING condition must be
computed by the grouping operator.  :func:`rewrite_having` replaces each
aggregate subtree with a reference to an output column — reusing a SELECT
aggregate when one computes the same expression, otherwise synthesizing a
hidden spec (``#having0``, ``#having1``, …) that the final projection
drops.  :func:`grouped_plan_with_having` assembles the full plan fragment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    PlanNode,
    Project,
    Select,
)
from repro.expressions.ast import Aggregate, ColumnRef, Expression, transform_expression

HIDDEN_PREFIX = "#having"


def rewrite_having(
    having: Expression,
    specs: Sequence[AggregateSpec],
) -> Tuple[Expression, Tuple[AggregateSpec, ...]]:
    """Replace aggregate subtrees in ``having`` with output-column refs.

    Returns the rewritten condition and any *hidden* specs that the
    grouping operator must additionally compute.
    """
    by_expression = {spec.expression: spec.name for spec in specs}
    hidden: List[AggregateSpec] = []

    def name_for(aggregate: Aggregate) -> str:
        existing = by_expression.get(aggregate)
        if existing is not None:
            return existing
        name = f"{HIDDEN_PREFIX}{len(hidden)}"
        hidden.append(AggregateSpec(name, aggregate))
        by_expression[aggregate] = name
        return name

    def visit(node: Expression):
        if isinstance(node, Aggregate):
            return ColumnRef("", name_for(node))
        return None

    rewritten = transform_expression(having, visit)
    return rewritten, tuple(hidden)


def grouped_plan_with_having(
    tree: PlanNode,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    having: Optional[Expression],
    select_columns: Sequence[str],
    distinct: bool,
) -> PlanNode:
    """Group → (HAVING filter) → final projection.

    With no HAVING this degenerates to the plain ``π(F(G(tree)))`` shape;
    with one, hidden aggregates are computed alongside and projected away.
    """
    all_specs = tuple(specs)
    condition: Optional[Expression] = None
    if having is not None:
        condition, hidden = rewrite_having(having, all_specs)
        all_specs = all_specs + hidden
    plan: PlanNode = Apply(Group(tree, tuple(grouping_columns)), all_specs)
    if condition is not None:
        plan = Select(plan, condition)
    return Project(plan, tuple(select_columns), distinct)
