"""Convenience constructors for building expression trees in Python code.

These helpers make tests, examples and benchmarks readable::

    >>> from repro.expressions.builder import col, lit, eq, and_
    >>> predicate = and_(eq(col("E.DeptID"), col("D.DeptID")),
    ...                  eq(col("U.Machine"), lit("dragon")))
"""

from __future__ import annotations

from typing import Optional

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
)
from repro.sqltypes.values import NULL, SqlValue


def col(name: str) -> ColumnRef:
    """Build a column reference from ``"T.column"`` or ``"column"``."""
    if "." in name:
        table, column = name.rsplit(".", 1)
        return ColumnRef(table, column)
    return ColumnRef("", name)


def lit(value: SqlValue) -> Literal:
    return Literal(value)


def null() -> Literal:
    return Literal(NULL)


def host(name: str) -> HostVariable:
    return HostVariable(name)


def _operand(value: "Expression | SqlValue | str") -> Expression:
    """Coerce a raw Python value to a Literal; strings stay literal.

    Column references must be built explicitly with :func:`col` — guessing
    whether a bare string is a column or a constant invites subtle bugs.
    """
    if isinstance(value, Expression):
        return value
    return Literal(value)


def eq(left, right) -> Comparison:
    return Comparison("=", _operand(left), _operand(right))


def ne(left, right) -> Comparison:
    return Comparison("<>", _operand(left), _operand(right))


def lt(left, right) -> Comparison:
    return Comparison("<", _operand(left), _operand(right))


def le(left, right) -> Comparison:
    return Comparison("<=", _operand(left), _operand(right))


def gt(left, right) -> Comparison:
    return Comparison(">", _operand(left), _operand(right))


def ge(left, right) -> Comparison:
    return Comparison(">=", _operand(left), _operand(right))


def and_(*terms: Expression) -> Expression:
    """Left-deep conjunction of one or more predicates."""
    if not terms:
        raise ValueError("and_() requires at least one term")
    result = terms[0]
    for term in terms[1:]:
        result = And(result, term)
    return result


def or_(*terms: Expression) -> Expression:
    """Left-deep disjunction of one or more predicates."""
    if not terms:
        raise ValueError("or_() requires at least one term")
    result = terms[0]
    for term in terms[1:]:
        result = Or(result, term)
    return result


def not_(term: Expression) -> Not:
    return Not(term)


def is_null_(term: Expression) -> IsNull:
    return IsNull(term)


def is_not_null(term: Expression) -> IsNull:
    return IsNull(term, negated=True)


def add(left, right) -> Arithmetic:
    return Arithmetic("+", _operand(left), _operand(right))


def sub(left, right) -> Arithmetic:
    return Arithmetic("-", _operand(left), _operand(right))


def mul(left, right) -> Arithmetic:
    return Arithmetic("*", _operand(left), _operand(right))


def div(left, right) -> Arithmetic:
    return Arithmetic("/", _operand(left), _operand(right))


def neg(term: Expression) -> Negate:
    return Negate(term)


def in_(operand: Expression, *items, negated: bool = False) -> InList:
    """``operand [NOT] IN (items...)``; raw values become literals."""
    return InList(operand, tuple(_operand(item) for item in items), negated)


def between(operand: Expression, low, high, negated: bool = False) -> Between:
    return Between(operand, _operand(low), _operand(high), negated)


def like(operand: Expression, pattern: str, negated: bool = False) -> Like:
    return Like(operand, pattern, negated)


def count_star() -> Aggregate:
    return Aggregate("COUNT", None)


def count(argument: "Expression | str", distinct: bool = False) -> Aggregate:
    arg = col(argument) if isinstance(argument, str) else argument
    return Aggregate("COUNT", arg, distinct)


def sum_(argument: "Expression | str", distinct: bool = False) -> Aggregate:
    arg = col(argument) if isinstance(argument, str) else argument
    return Aggregate("SUM", arg, distinct)


def avg(argument: "Expression | str", distinct: bool = False) -> Aggregate:
    arg = col(argument) if isinstance(argument, str) else argument
    return Aggregate("AVG", arg, distinct)


def min_(argument: "Expression | str") -> Aggregate:
    arg = col(argument) if isinstance(argument, str) else argument
    return Aggregate("MIN", arg)


def max_(argument: "Expression | str") -> Aggregate:
    arg = col(argument) if isinstance(argument, str) else argument
    return Aggregate("MAX", arg)
