"""Expression AST, three-valued evaluation, normalization, and analysis."""

from repro.expressions.ast import (
    Aggregate,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    HostVariable,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    aggregates,
    column_refs,
    contains_aggregate,
    transform_expression,
    walk,
)
from repro.expressions.eval import (
    RowScope,
    evaluate_predicate,
    evaluate_scalar,
    qualifies,
)
from repro.expressions.normalize import (
    conjoin,
    disjoin,
    split_conjuncts,
    split_disjuncts,
    to_cnf,
    to_dnf,
    to_nnf,
)
from repro.expressions.analysis import (
    PredicateSplit,
    Type1Condition,
    Type2Condition,
    classify_atomic,
    referenced_tables,
    split_predicate,
)

__all__ = [
    "Aggregate", "And", "Arithmetic", "Between", "ColumnRef", "Comparison",
    "Expression", "HostVariable", "InList", "IsNull", "Like", "Literal",
    "Negate", "Not", "Or", "aggregates", "column_refs", "contains_aggregate",
    "transform_expression", "walk",
    "RowScope", "evaluate_predicate", "evaluate_scalar", "qualifies",
    "conjoin", "disjoin", "split_conjuncts", "split_disjuncts",
    "to_cnf", "to_dnf", "to_nnf",
    "PredicateSplit", "Type1Condition", "Type2Condition", "classify_atomic",
    "referenced_tables", "split_predicate",
]
