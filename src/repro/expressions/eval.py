"""Expression evaluation under strict SQL2 three-valued logic.

An expression is evaluated against a *row scope*: a mapping from column
names to SQL values.  Scopes accept qualified names ("E.DeptID"); an
unqualified reference resolves when exactly one scope entry has that column
name.  Host variables are supplied through a separate ``params`` mapping.

Two entry points:

* :func:`evaluate_scalar` — value-producing expressions (NULL-propagating);
* :func:`evaluate_predicate` — boolean expressions, returning a
  :class:`~repro.sqltypes.truth.Truth`.

Aggregates are *not* evaluated here — they only make sense against a group
of rows and are handled by :mod:`repro.engine.aggregation`.  Encountering
one raises :class:`ExecutionError`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import BindingError, ExecutionError
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
from repro.sqltypes.truth import (
    FALSE,
    TRUE,
    UNKNOWN,
    Truth,
    from_bool,
    truth_and,
    truth_not,
    truth_or,
)
from repro.sqltypes.values import (
    NULL,
    SqlValue,
    is_null,
    sql_add,
    sql_compare_eq,
    sql_compare_ge,
    sql_compare_gt,
    sql_compare_le,
    sql_compare_lt,
    sql_compare_ne,
    sql_div,
    sql_mul,
    sql_neg,
    sql_sub,
)

def like_regex(pattern: str):
    """Compile a SQL LIKE pattern (``%`` any run, ``_`` one char) to a regex."""
    import re

    pieces = []
    for ch in pattern:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    return re.compile("".join(pieces), flags=re.DOTALL)


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` matches one character."""
    return like_regex(pattern).fullmatch(value) is not None


_COMPARATORS = {
    "=": sql_compare_eq,
    "<>": sql_compare_ne,
    "<": sql_compare_lt,
    "<=": sql_compare_le,
    ">": sql_compare_gt,
    ">=": sql_compare_ge,
}

_ARITHMETIC = {
    "+": sql_add,
    "-": sql_sub,
    "*": sql_mul,
    "/": sql_div,
}


class RowScope:
    """Resolves column references against a row's named values.

    ``values`` maps *qualified* names ("E.DeptID") to SQL values.  Lookups of
    unqualified names succeed when exactly one qualified entry matches the
    bare column name; ambiguity and misses raise :class:`BindingError`.
    """

    __slots__ = ("_values", "_by_bare")

    def __init__(self, values: Mapping[str, SqlValue]) -> None:
        self._values = dict(values)
        by_bare: dict[str, list[str]] = {}
        for qualified in self._values:
            bare = qualified.rsplit(".", 1)[-1]
            by_bare.setdefault(bare, []).append(qualified)
        self._by_bare = by_bare

    def lookup(self, ref: ColumnRef) -> SqlValue:
        if ref.table:
            qualified = ref.qualified
            if qualified in self._values:
                return self._values[qualified]
            raise BindingError(f"unknown column: {qualified}")
        candidates = self._by_bare.get(ref.column, [])
        if len(candidates) == 1:
            return self._values[candidates[0]]
        if not candidates:
            raise BindingError(f"unknown column: {ref.column}")
        raise BindingError(
            f"ambiguous column {ref.column}: matches {sorted(candidates)}"
        )

    def names(self) -> "tuple[str, ...]":
        return tuple(self._values)

    @classmethod
    def from_pairs(cls, names, values) -> "RowScope":
        """Build a scope by zipping parallel name/value sequences."""
        return cls(dict(zip(names, values)))


class ReusableRowScope:
    """A scope over a fixed column layout, rebound to a new row per lookup.

    Building a :class:`RowScope` allocates a dict (and a bare-name index)
    per row; inner loops that evaluate the same expression against millions
    of rows under one layout pay that allocation millions of times.  This
    variant resolves the layout once and :meth:`bind` merely swaps the row
    tuple — same resolution rules, same error messages, O(1) rebinding.
    """

    __slots__ = ("_names", "_qualified", "_by_bare", "_row")

    def __init__(self, names) -> None:
        self._names = tuple(names)
        # Duplicate qualified names: last one wins, matching dict(zip(...)).
        self._qualified: dict[str, int] = {}
        for i, name in enumerate(self._names):
            self._qualified[name] = i
        by_bare: dict[str, list[int]] = {}
        for qualified, i in self._qualified.items():
            bare = qualified.rsplit(".", 1)[-1]
            by_bare.setdefault(bare, []).append(i)
        self._by_bare = by_bare
        self._row: "tuple[SqlValue, ...]" = ()

    def bind(self, row) -> "ReusableRowScope":
        """Point the scope at a new row; returns self for call chaining."""
        self._row = row
        return self

    def lookup(self, ref: ColumnRef) -> SqlValue:
        if ref.table:
            index = self._qualified.get(ref.qualified)
            if index is None:
                raise BindingError(f"unknown column: {ref.qualified}")
            return self._row[index]
        candidates = self._by_bare.get(ref.column, ())
        if len(candidates) == 1:
            return self._row[candidates[0]]
        if not candidates:
            raise BindingError(f"unknown column: {ref.column}")
        raise BindingError(
            f"ambiguous column {ref.column}: matches "
            f"{sorted(self._names[i] for i in candidates)}"
        )

    def names(self) -> "tuple[str, ...]":
        return self._names


def evaluate_scalar(
    expression: Expression,
    scope: RowScope,
    params: Optional[Mapping[str, SqlValue]] = None,
) -> SqlValue:
    """Evaluate a value-producing expression against one row."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return scope.lookup(expression)
    if isinstance(expression, HostVariable):
        if params is None or expression.name not in params:
            raise ExecutionError(f"unbound host variable :{expression.name}")
        return params[expression.name]
    if isinstance(expression, Arithmetic):
        left = evaluate_scalar(expression.left, scope, params)
        right = evaluate_scalar(expression.right, scope, params)
        return _ARITHMETIC[expression.op](left, right)
    if isinstance(expression, Negate):
        return sql_neg(evaluate_scalar(expression.operand, scope, params))
    if isinstance(expression, Aggregate):
        raise ExecutionError(
            f"aggregate {expression} cannot be evaluated against a single row"
        )
    if isinstance(expression, (Comparison, And, Or, Not, IsNull, InList, Between, Like)):
        # A predicate used in value position: deliver TRUE/FALSE/NULL the way
        # SQL's BOOLEAN type would.
        truth = evaluate_predicate(expression, scope, params)
        if truth is TRUE:
            return True
        if truth is FALSE:
            return False
        return NULL
    raise ExecutionError(f"cannot evaluate expression node {type(expression).__name__}")


def evaluate_predicate(
    expression: Expression,
    scope: RowScope,
    params: Optional[Mapping[str, SqlValue]] = None,
) -> Truth:
    """Evaluate a boolean expression to a three-valued truth value."""
    if isinstance(expression, Comparison):
        left = evaluate_scalar(expression.left, scope, params)
        right = evaluate_scalar(expression.right, scope, params)
        return _COMPARATORS[expression.op](left, right)
    if isinstance(expression, And):
        return truth_and(
            evaluate_predicate(expression.left, scope, params),
            evaluate_predicate(expression.right, scope, params),
        )
    if isinstance(expression, Or):
        return truth_or(
            evaluate_predicate(expression.left, scope, params),
            evaluate_predicate(expression.right, scope, params),
        )
    if isinstance(expression, Not):
        return truth_not(evaluate_predicate(expression.operand, scope, params))
    if isinstance(expression, IsNull):
        value = evaluate_scalar(expression.operand, scope, params)
        result = from_bool(is_null(value))
        return truth_not(result) if expression.negated else result
    if isinstance(expression, InList):
        operand = evaluate_scalar(expression.operand, scope, params)
        result = FALSE
        for item in expression.items:
            value = evaluate_scalar(item, scope, params)
            result = truth_or(result, sql_compare_eq(operand, value))
            if result is TRUE:
                break
        return truth_not(result) if expression.negated else result
    if isinstance(expression, Between):
        operand = evaluate_scalar(expression.operand, scope, params)
        low = evaluate_scalar(expression.low, scope, params)
        high = evaluate_scalar(expression.high, scope, params)
        result = truth_and(
            sql_compare_le(low, operand), sql_compare_le(operand, high)
        )
        return truth_not(result) if expression.negated else result
    if isinstance(expression, Like):
        operand = evaluate_scalar(expression.operand, scope, params)
        if is_null(operand):
            return UNKNOWN
        if not isinstance(operand, str):
            raise ExecutionError(f"LIKE applied to non-string {operand!r}")
        result = from_bool(_like_match(operand, expression.pattern))
        return truth_not(result) if expression.negated else result
    if isinstance(expression, Literal):
        value = expression.value
        if is_null(value):
            return UNKNOWN
        if isinstance(value, bool):
            return from_bool(value)
        raise ExecutionError(f"literal {value!r} is not a boolean")
    # Anything value-shaped in predicate position (e.g. a BOOLEAN column).
    value = evaluate_scalar(expression, scope, params)
    if is_null(value):
        return UNKNOWN
    if isinstance(value, bool):
        return from_bool(value)
    raise ExecutionError(f"expression {expression} is not a predicate")


def qualifies(
    expression: Optional[Expression],
    scope: RowScope,
    params: Optional[Mapping[str, SqlValue]] = None,
) -> bool:
    """WHERE-clause admission test: ``⌊condition⌋``; ``None`` means no filter."""
    if expression is None:
        return True
    return evaluate_predicate(expression, scope, params).is_true()
