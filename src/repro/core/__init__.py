"""The paper's contribution: query class, theorems, TestFD, transformation."""

from repro.core.having import grouped_plan_with_having, rewrite_having
from repro.core.partition import (
    FlatQuery,
    default_partition,
    to_group_by_join_query,
)
from repro.core.pipelining import dayal_condition, pipelined_standard_plan
from repro.core.planbuild import build_join_tree
from repro.core.query_class import GroupByJoinQuery
from repro.core.sqlgen import eager_sql, render_expression, standard_sql
from repro.core.testfd import ComponentTrace, TestFDResult, test_fd
from repro.core.transform import (
    TransformationDecision,
    build_eager_plan,
    build_standard_plan,
    check_transformable,
    expand_predicates,
    reverse,
)

__all__ = [
    "FlatQuery", "default_partition",
    "to_group_by_join_query", "build_join_tree", "GroupByJoinQuery",
    "ComponentTrace", "TestFDResult", "test_fd",
    "TransformationDecision", "build_eager_plan", "build_standard_plan",
    "check_transformable", "expand_predicates", "reverse",
    "grouped_plan_with_having", "rewrite_having",
    "dayal_condition", "pipelined_standard_plan",
    "eager_sql", "render_expression", "standard_sql",
]
