"""Static type checking of expressions against an inferred plan schema.

Infers the SQL type of every expression node via
:mod:`repro.sqltypes.datatypes` and reports:

* ``T401`` — comparisons between incomparable type categories;
* ``T402`` — arithmetic over non-numeric operands;
* ``T403`` — SUM/AVG over non-numeric arguments;
* ``T404`` — LIKE over non-string operands;
* ``N301`` — comparisons against a NULL literal (always UNKNOWN in 3VL —
  the classic conflation of ``=`` with the null-aware ``=ⁿ`` of Figure 3);
* ``N302`` (info) — ``=`` between two nullable columns, where NULL pairs
  silently fail to match.

Unknown types (unbound columns, opaque subqueries) are *unconstrained*:
they type-check against anything, so one scope error does not cascade into
a wall of type errors.
"""

from __future__ import annotations

import datetime
import decimal
from typing import Optional

from repro.algebra.ops import AggregateSpec
from repro.analysis.columns import AmbiguousColumn, ColumnInfo, PlanSchema
from repro.analysis.diagnostics import DiagnosticSink
from repro.expressions.ast import (
    Aggregate,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    HostVariable,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Negate,
    aggregates as collect_aggregates,
)
from repro.sqltypes.datatypes import (
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    BooleanType,
    CharType,
    DataType,
    DateType,
    DecimalType,
    FloatType,
    IntegerType,
    SmallIntType,
    VarCharType,
)
from repro.sqltypes.values import is_null

#: Coarse type categories; comparison is defined within a category only.
NUMERIC = "numeric"
STRING = "string"
BOOL = "boolean"
TEMPORAL = "date"


def category(datatype: Optional[DataType]) -> Optional[str]:
    """The comparison category of a type (``None`` = unconstrained)."""
    if datatype is None:
        return None
    if isinstance(datatype, (SmallIntType, IntegerType, FloatType, DecimalType)):
        return NUMERIC
    if isinstance(datatype, (CharType, VarCharType)):
        return STRING
    if isinstance(datatype, BooleanType):
        return BOOL
    if isinstance(datatype, DateType):
        return TEMPORAL
    return None


def literal_type(value: object) -> Optional[DataType]:
    if is_null(value):
        return None
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, decimal.Decimal):
        return DecimalType()
    if isinstance(value, str):
        return VarCharType(max(len(value), 1))
    if isinstance(value, datetime.date):
        return DATE
    return None


def _numeric_join(left: Optional[DataType], right: Optional[DataType]) -> DataType:
    """The result type of arithmetic over two numeric operands."""
    for side in (left, right):
        if isinstance(side, FloatType):
            return FLOAT
    for side in (left, right):
        if isinstance(side, DecimalType):
            return side
    return INTEGER


class TypeChecker:
    """Checks one expression tree against one input schema."""

    def __init__(self, schema: PlanSchema, sink: DiagnosticSink, path: str) -> None:
        self.schema = schema
        self.sink = sink
        self.path = path

    # -- scope -----------------------------------------------------------

    def _resolve(self, ref: ColumnRef) -> Optional[ColumnInfo]:
        try:
            info = self.schema.resolve(ref.qualified)
        except AmbiguousColumn:
            self.sink.report(
                "A004",
                self.path,
                f"column {ref.qualified!r} is ambiguous in "
                f"[{', '.join(self.schema.names())}]",
            )
            return None
        if info is None:
            self.sink.report(
                "A001",
                self.path,
                f"column {ref.qualified!r} is not produced by the input "
                f"(columns: {', '.join(self.schema.names()) or '(none)'})",
                hint="check correlation names and the operator's placement "
                "in the plan",
            )
        return info

    # -- inference -------------------------------------------------------

    def infer(self, expression: Expression) -> Optional[DataType]:
        """Infer ``expression``'s type, reporting any defects found."""
        if isinstance(expression, Literal):
            return literal_type(expression.value)
        if isinstance(expression, ColumnRef):
            info = self._resolve(expression)
            return info.datatype if info is not None else None
        if isinstance(expression, HostVariable):
            return None  # value (and type) fixed at evaluation time
        if isinstance(expression, Comparison):
            return self._comparison(expression)
        if isinstance(expression, Arithmetic):
            return self._arithmetic(expression)
        if isinstance(expression, Negate):
            operand = self.infer(expression.operand)
            if category(operand) not in (None, NUMERIC):
                self.sink.report(
                    "T402", self.path,
                    f"negation of non-numeric operand {expression.operand} "
                    f"({operand})",
                )
            return operand
        if isinstance(expression, IsNull):
            self.infer(expression.operand)
            return BOOLEAN
        if isinstance(expression, InList):
            operand = self.infer(expression.operand)
            for item in expression.items:
                item_type = self.infer(item)
                self._check_comparable(expression, operand, item_type, "IN item")
                if isinstance(item, Literal) and is_null(item.value):
                    self.sink.report(
                        "N301",
                        self.path,
                        f"NULL literal in IN list of {expression}: it can "
                        "never make the predicate TRUE, only UNKNOWN",
                        hint="drop the NULL item or test IS NULL separately",
                    )
            return BOOLEAN
        if isinstance(expression, InSubquery):
            self.infer(expression.operand)
            return BOOLEAN
        if isinstance(expression, Between):
            operand = self.infer(expression.operand)
            for bound in (expression.low, expression.high):
                self._check_comparable(
                    expression, operand, self.infer(bound), "BETWEEN bound"
                )
            return BOOLEAN
        if isinstance(expression, Like):
            operand = self.infer(expression.operand)
            if category(operand) not in (None, STRING):
                self.sink.report(
                    "T404", self.path,
                    f"LIKE over non-string operand {expression.operand} "
                    f"({operand})",
                )
            return BOOLEAN
        if isinstance(expression, Aggregate):
            return self._aggregate(expression)
        # And/Or/Not and anything boolean-shaped: check children, type BOOLEAN.
        for child in expression.children():
            self.infer(child)
        return BOOLEAN

    # -- node kinds ------------------------------------------------------

    def _comparison(self, node: Comparison) -> DataType:
        left = self.infer(node.left)
        right = self.infer(node.right)
        for side in (node.left, node.right):
            if isinstance(side, Literal) and is_null(side.value):
                self.sink.report(
                    "N301",
                    self.path,
                    f"comparison {node} is always UNKNOWN: {side} is the "
                    "NULL literal",
                    hint="use IS [NOT] NULL for null tests",
                )
        self._check_comparable(node, left, right, "comparison")
        if node.op == "=":
            self._note_nullable_equality(node)
        return BOOLEAN

    def _note_nullable_equality(self, node: Comparison) -> None:
        sides = (node.left, node.right)
        if not all(isinstance(side, ColumnRef) for side in sides):
            return
        infos = []
        for side in sides:
            assert isinstance(side, ColumnRef)
            try:
                infos.append(self.schema.resolve(side.qualified))
            except AmbiguousColumn:
                return
        if all(info is not None and info.nullable for info in infos):
            self.sink.report(
                "N302",
                self.path,
                f"{node}: both columns are nullable, so NULL pairs never "
                "match under '=' (they would under the =ⁿ of Figure 3)",
                hint="intended for grouping/duplicate semantics? the engine "
                "uses =ⁿ there automatically",
            )

    def _check_comparable(
        self,
        node: Expression,
        left: Optional[DataType],
        right: Optional[DataType],
        what: str,
    ) -> None:
        left_category = category(left)
        right_category = category(right)
        if left_category is None or right_category is None:
            return
        if left_category != right_category:
            self.sink.report(
                "T401",
                self.path,
                f"{what} {node} mixes {left} ({left_category}) with "
                f"{right} ({right_category})",
                hint="comparisons are defined within one type category only",
            )

    def _arithmetic(self, node: Arithmetic) -> Optional[DataType]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        bad = [
            (side, side_type)
            for side, side_type in ((node.left, left), (node.right, right))
            if category(side_type) not in (None, NUMERIC)
        ]
        for side, side_type in bad:
            self.sink.report(
                "T402", self.path,
                f"arithmetic {node}: operand {side} has non-numeric type "
                f"{side_type}",
            )
        if bad:
            return None
        return _numeric_join(left, right)

    def _aggregate(self, node: Aggregate) -> Optional[DataType]:
        if node.argument is None:  # COUNT(*)
            return INTEGER
        argument = self.infer(node.argument)
        if node.function == "COUNT":
            return INTEGER
        if node.function in ("SUM", "AVG"):
            if category(argument) not in (None, NUMERIC):
                self.sink.report(
                    "T403", self.path,
                    f"{node.function} over non-numeric argument "
                    f"{node.argument} ({argument})",
                )
                return None
            if node.function == "AVG":
                return FLOAT
            return argument
        # MIN/MAX: any comparable type, result is the argument's type.
        return argument


def check_expression(
    expression: Expression,
    schema: PlanSchema,
    sink: DiagnosticSink,
    path: str,
) -> Optional[DataType]:
    """Type-check ``expression`` against ``schema``; returns its type."""
    return TypeChecker(schema, sink, path).infer(expression)


def aggregate_output(spec: AggregateSpec, input_schema: PlanSchema) -> ColumnInfo:
    """The output column one :class:`AggregateSpec` contributes to F[AA].

    Inference only — defects in the aggregate expression are reported by
    the verifier's own pass, not here (this runs with a throwaway sink).
    """
    checker = TypeChecker(input_schema, DiagnosticSink(), "")
    datatype = checker.infer(spec.expression)
    # COUNT never yields NULL; every other aggregate does on an empty group
    # (and the engine's group inputs are never empty, but NULL inputs can
    # still surface a NULL SUM/MIN/MAX).
    all_counts = all(
        aggregate.function == "COUNT"
        for aggregate in collect_aggregates(spec.expression)
    )
    has_aggregate = bool(collect_aggregates(spec.expression))
    nullable = not (has_aggregate and all_counts)
    return ColumnInfo(spec.name, datatype, nullable)
