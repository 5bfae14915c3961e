"""Scalar and boolean expression AST.

These nodes represent the search conditions (C1, C0, C2 in the paper's
notation), CHECK/assertion constraints, and the arithmetic aggregation
expressions ``F(AA)`` such as ``COUNT(A1) + SUM(A2 + A3)``.

Nodes are immutable and hashable so they can be used as dictionary keys
during normalization and TestFD's closure computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sqltypes.values import SqlValue

#: Comparison operator spellings accepted throughout the engine.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")
AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Expression:
    """Base class of all expression nodes."""

    def children(self) -> Tuple["Expression", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (including NULL).

    Two literals are equal only when their values are of one type: ``1``,
    ``1.0`` and ``TRUE`` compare and hash alike in Python but type a
    result differently (``SUM(x + 1)`` against ``SUM(x + 1.0)``), so a
    statement holding one is not the statement holding the other.
    """

    value: SqlValue

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (type(self.value), self.value) == (type(other.value), other.value)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``E.DeptID``."""

    table: str  # correlation name / table alias; "" when unqualified
    column: str

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True)
class HostVariable(Expression):
    """A host variable (``:name``) — fixed at query-evaluation time.

    TestFD treats host variables like constants (Section 6.3): their value is
    fixed while the query runs.
    """

    name: str

    def __str__(self) -> str:
        return f":{self.name}"


@dataclass(frozen=True)
class Comparison(Expression):
    """A comparison ``left op right`` evaluated under three-valued logic."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"bad comparison operator: {self.op!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``operand IS [NOT] NULL`` — always two-valued."""

    operand: Expression
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {middle})"


@dataclass(frozen=True)
class InList(Expression):
    """``operand [NOT] IN (item, ...)`` with value-list items.

    Defined as the disjunction of equalities, so its three-valued behaviour
    follows from Figure 2: a NULL operand (or a NULL item that would have
    been the only match) yields UNKNOWN.
    """

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False

    def __init__(
        self, operand: Expression, items: "tuple[Expression, ...] | list", negated: bool = False
    ) -> None:
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "negated", negated)
        if not self.items:
            raise ValueError("IN requires at least one item")

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,) + self.items

    def __str__(self) -> str:
        middle = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {middle} ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``operand [NOT] IN (SELECT ...)`` — an *uncorrelated* subquery.

    The ``subquery`` is an opaque parsed SELECT (the expression layer does
    not depend on the parser).  The session resolves it before execution by
    materializing the subquery once and rewriting this node into an
    :class:`InList` (whose NULL-item semantics reproduce SQL's three-valued
    IN behaviour exactly) — see
    :meth:`repro.session.Session._resolve_subqueries`.  Reaching the
    evaluator unresolved is an error; correlated subqueries are rejected at
    resolution time.
    """

    operand: Expression
    subquery: object
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        middle = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {middle} (SELECT ...))"


@dataclass(frozen=True)
class Between(Expression):
    """``operand [NOT] BETWEEN low AND high`` ≡ ``low <= operand AND
    operand <= high`` (three-valued)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand, self.low, self.high)

    def __str__(self) -> str:
        middle = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {middle} {self.low} AND {self.high})"


@dataclass(frozen=True)
class Like(Expression):
    """``operand [NOT] LIKE 'pattern'`` with SQL ``%``/``_`` wildcards.

    The pattern is a literal string (SQL2 allows expressions; the paper
    never needs them).  NULL operand yields UNKNOWN.
    """

    operand: Expression
    pattern: str
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand} {middle} '{escaped}')"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left op right`` for op in ``+ - * /`` (NULL-propagating)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise ValueError(f"bad arithmetic operator: {self.op!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate function application, e.g. ``SUM(A.Usage)``.

    ``argument`` is ``None`` only for ``COUNT(*)``.  Aggregates may appear
    inside arithmetic (``COUNT(A1) + SUM(A2 + A3)``), matching the paper's
    definition of ``F[AA]``.
    """

    function: str
    argument: "Expression | None"
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"bad aggregate function: {self.function!r}")
        if self.argument is None and self.function != "COUNT":
            raise ValueError(f"{self.function}(*) is not valid SQL")

    def children(self) -> Tuple[Expression, ...]:
        return (self.argument,) if self.argument is not None else ()

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.function}({prefix}{inner})"


def transform_expression(expression: Expression, visit) -> Expression:
    """Rebuild an expression tree through a visitor.

    ``visit(node)`` returns a replacement expression, or ``None`` to mean
    "recurse into the children and rebuild me".  This is the single place
    that knows how to reconstruct every node type — rewriters (alias
    requalification, VALUE substitution, view-column inlining, …) supply
    only their interesting cases.
    """
    replacement = visit(expression)
    if replacement is not None:
        return replacement

    def recurse(node: Expression) -> Expression:
        return transform_expression(node, visit)

    if isinstance(expression, Comparison):
        return Comparison(expression.op, recurse(expression.left), recurse(expression.right))
    if isinstance(expression, And):
        return And(recurse(expression.left), recurse(expression.right))
    if isinstance(expression, Or):
        return Or(recurse(expression.left), recurse(expression.right))
    if isinstance(expression, Not):
        return Not(recurse(expression.operand))
    if isinstance(expression, IsNull):
        return IsNull(recurse(expression.operand), expression.negated)
    if isinstance(expression, InList):
        return InList(
            recurse(expression.operand),
            tuple(recurse(item) for item in expression.items),
            expression.negated,
        )
    if isinstance(expression, Between):
        return Between(
            recurse(expression.operand),
            recurse(expression.low),
            recurse(expression.high),
            expression.negated,
        )
    if isinstance(expression, Like):
        return Like(recurse(expression.operand), expression.pattern, expression.negated)
    if isinstance(expression, InSubquery):
        return InSubquery(
            recurse(expression.operand), expression.subquery, expression.negated
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(expression.op, recurse(expression.left), recurse(expression.right))
    if isinstance(expression, Negate):
        return Negate(recurse(expression.operand))
    if isinstance(expression, Aggregate):
        argument = recurse(expression.argument) if expression.argument is not None else None
        return Aggregate(expression.function, argument, expression.distinct)
    # Leaves: Literal, ColumnRef, HostVariable.
    return expression


def walk(expression: Expression):
    """Yield ``expression`` and all descendants, pre-order."""
    yield expression
    for child in expression.children():
        yield from walk(child)


def column_refs(expression: Expression) -> Tuple[ColumnRef, ...]:
    """All column references in ``expression``, in syntactic order."""
    return tuple(node for node in walk(expression) if isinstance(node, ColumnRef))


def aggregates(expression: Expression) -> Tuple[Aggregate, ...]:
    """All aggregate applications in ``expression``, in syntactic order."""
    return tuple(node for node in walk(expression) if isinstance(node, Aggregate))


def contains_aggregate(expression: Expression) -> bool:
    return any(isinstance(node, Aggregate) for node in walk(expression))
