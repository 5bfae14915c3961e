"""Compile expression ASTs to column-at-a-time kernels.

The row engine re-walks the :class:`~repro.expressions.ast.Expression` tree
for every tuple.  This module lowers a tree **once per operator** to nested
Python closures that each consume and produce whole columns:

* :func:`compile_scalar` — value expressions; returns a function
  ``(batch, params) -> column`` of SQL values (NULL-propagating, same
  semantics as :func:`repro.expressions.eval.evaluate_scalar`);
* :func:`compile_predicate` — boolean expressions; returns a function
  ``(batch, params) -> truth codes``;
* :func:`compile_selection` — a predicate's ``⌊P⌋`` as a selection
  vector, through a numpy mask where every operand is a null-free numeric
  array view and through :func:`compile_predicate`'s codes elsewhere.

Three-valued logic is encoded per batch as small integers —
``FALSE=0, UNKNOWN=1, TRUE=2`` — so Figure 2's connectives become branch
arithmetic: ``AND = min``, ``OR = max``, ``NOT = 2 - x``.  A row qualifies
(``⌊P⌋``) exactly when its code is :data:`TRUE_CODE`.

Column references are resolved to positions at compile time under the
operator's input layout, with the same qualification/ambiguity rules (and
error messages) as :class:`~repro.expressions.eval.RowScope`.

Aggregation support: :func:`compile_aggregate_arguments` lowers the
arguments of every aggregate in an ``F(AA)`` list, and
:func:`compile_group_expression` lowers the surrounding arithmetic to run
over *per-group* vectors — so ``COUNT(A1) + SUM(A2 + A3)`` costs one column
pass plus one pass over the groups.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.vector.batch import _Repeat, _np
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
    aggregates as collect_aggregates,
)
from repro.expressions.eval import like_regex
from repro.sqltypes.truth import FALSE, TRUE, UNKNOWN, Truth
from repro.sqltypes.values import (
    NULL,
    SqlValue,
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

#: Kleene truth codes: AND = min, OR = max, NOT = 2 - x.
FALSE_CODE = 0
UNKNOWN_CODE = 1
TRUE_CODE = 2

_CODE: Dict[Truth, int] = {FALSE: FALSE_CODE, UNKNOWN: UNKNOWN_CODE, TRUE: TRUE_CODE}
_CODE_VALUE: Dict[int, SqlValue] = {FALSE_CODE: False, UNKNOWN_CODE: NULL, TRUE_CODE: True}

_COMPARATORS = {
    "=": sql_compare_eq,
    "<>": sql_compare_ne,
    "<": sql_compare_lt,
    "<=": sql_compare_le,
    ">": sql_compare_gt,
    ">=": sql_compare_ge,
}

_ARITHMETIC = {"+": sql_add, "-": sql_sub, "*": sql_mul, "/": sql_div}

#: A compiled kernel: (batch, params) -> column (scalar) or codes (predicate).
ScalarKernel = Callable[[object, Optional[Mapping[str, SqlValue]]], Sequence[SqlValue]]
PredicateKernel = Callable[[object, Optional[Mapping[str, SqlValue]]], Sequence[int]]

_PREDICATE_NODES = (Comparison, And, Or, Not, IsNull, InList, Between, Like)


def resolve_column(names: Sequence[str], ref: ColumnRef) -> int:
    """Resolve a column reference to a position under ``names``.

    Same rules as :meth:`RowScope.lookup`: a qualified reference must match
    exactly; a bare one must match exactly one column's bare name.
    """
    if ref.table:
        qualified = ref.qualified
        for i, name in enumerate(names):
            if name == qualified:
                return i
        raise BindingError(f"unknown column: {qualified}")
    candidates = [
        i for i, name in enumerate(names) if name.rsplit(".", 1)[-1] == ref.column
    ]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise BindingError(f"unknown column: {ref.column}")
    raise BindingError(
        f"ambiguous column {ref.column}: matches "
        f"{sorted(names[i] for i in candidates)}"
    )


def _broadcast(value: SqlValue) -> ScalarKernel:
    return lambda batch, params: _Repeat(value, batch.length)


def compile_scalar(expression: Expression, names: Sequence[str]) -> ScalarKernel:
    """Lower a value expression to a whole-column closure."""
    if isinstance(expression, Literal):
        return _broadcast(expression.value)
    if isinstance(expression, ColumnRef):
        index = resolve_column(names, expression)
        return lambda batch, params: batch.columns[index]
    if isinstance(expression, HostVariable):
        name = expression.name

        def host(batch, params):
            if params is None or name not in params:
                raise ExecutionError(f"unbound host variable :{name}")
            return _Repeat(params[name], batch.length)

        return host
    if isinstance(expression, Arithmetic):
        left = compile_scalar(expression.left, names)
        right = compile_scalar(expression.right, names)
        op = _ARITHMETIC[expression.op]
        return lambda batch, params: [
            op(x, y) for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Negate):
        operand = compile_scalar(expression.operand, names)
        return lambda batch, params: [sql_neg(v) for v in operand(batch, params)]
    if isinstance(expression, Aggregate):
        raise ExecutionError(
            f"aggregate {expression} cannot be evaluated against a single row"
        )
    if isinstance(expression, _PREDICATE_NODES):
        # A predicate used in value position: TRUE/FALSE/NULL as BOOLEAN.
        predicate = compile_predicate(expression, names)
        return lambda batch, params: [
            _CODE_VALUE[code] for code in predicate(batch, params)
        ]
    raise ExecutionError(f"cannot evaluate expression node {type(expression).__name__}")


def compile_predicate(expression: Expression, names: Sequence[str]) -> PredicateKernel:
    """Lower a boolean expression to a whole-column truth-code closure."""
    if isinstance(expression, Comparison):
        left = compile_scalar(expression.left, names)
        right = compile_scalar(expression.right, names)
        compare = _COMPARATORS[expression.op]
        code = _CODE
        return lambda batch, params: [
            code[compare(x, y)]
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, And):
        left = compile_predicate(expression.left, names)
        right = compile_predicate(expression.right, names)
        return lambda batch, params: [
            x if x < y else y
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Or):
        left = compile_predicate(expression.left, names)
        right = compile_predicate(expression.right, names)
        return lambda batch, params: [
            x if x > y else y
            for x, y in zip(left(batch, params), right(batch, params))
        ]
    if isinstance(expression, Not):
        operand = compile_predicate(expression.operand, names)
        return lambda batch, params: [2 - x for x in operand(batch, params)]
    if isinstance(expression, IsNull):
        operand = compile_scalar(expression.operand, names)
        if expression.negated:
            return lambda batch, params: [
                FALSE_CODE if v is NULL else TRUE_CODE for v in operand(batch, params)
            ]
        return lambda batch, params: [
            TRUE_CODE if v is NULL else FALSE_CODE for v in operand(batch, params)
        ]
    if isinstance(expression, InList):
        operand = compile_scalar(expression.operand, names)
        items = [compile_scalar(item, names) for item in expression.items]
        negated = expression.negated
        code = _CODE

        def in_list(batch, params):
            values = list(operand(batch, params))
            acc = [FALSE_CODE] * batch.length
            for item in items:
                acc = [
                    a if a > c else c
                    for a, c in zip(
                        acc,
                        (
                            code[sql_compare_eq(x, y)]
                            for x, y in zip(values, item(batch, params))
                        ),
                    )
                ]
            return [2 - a for a in acc] if negated else acc

        return in_list
    if isinstance(expression, Between):
        operand = compile_scalar(expression.operand, names)
        low = compile_scalar(expression.low, names)
        high = compile_scalar(expression.high, names)
        negated = expression.negated
        code = _CODE

        def between(batch, params):
            values = list(operand(batch, params))
            lows = low(batch, params)
            highs = high(batch, params)
            out = []
            for x, lo, hi in zip(values, lows, highs):
                a = code[sql_compare_le(lo, x)]
                b = code[sql_compare_le(x, hi)]
                c = a if a < b else b
                out.append(2 - c if negated else c)
            return out

        return between
    if isinstance(expression, Like):
        operand = compile_scalar(expression.operand, names)
        regex = like_regex(expression.pattern)
        negated = expression.negated

        def like(batch, params):
            out = []
            for v in operand(batch, params):
                if v is NULL:
                    out.append(UNKNOWN_CODE)
                    continue
                if not isinstance(v, str):
                    raise ExecutionError(f"LIKE applied to non-string {v!r}")
                matched = regex.fullmatch(v) is not None
                out.append(
                    FALSE_CODE
                    if matched == negated
                    else TRUE_CODE
                )
            return out

        return like
    if isinstance(expression, Literal):
        value = expression.value
        if value is NULL:
            return lambda batch, params: [UNKNOWN_CODE] * batch.length
        if isinstance(value, bool):
            constant = TRUE_CODE if value else FALSE_CODE
            return lambda batch, params: [constant] * batch.length
        raise ExecutionError(f"literal {value!r} is not a boolean")
    # Anything value-shaped in predicate position (e.g. a BOOLEAN column).
    scalar = compile_scalar(expression, names)

    def coerce(batch, params):
        out = []
        for v in scalar(batch, params):
            if v is NULL:
                out.append(UNKNOWN_CODE)
            elif isinstance(v, bool):
                out.append(TRUE_CODE if v else FALSE_CODE)
            else:
                raise ExecutionError(f"expression {expression} is not a predicate")
        return out

    return coerce


# -- selection ---------------------------------------------------------------

#: A compiled selection: (batch, params) -> the row positions where ⌊P⌋.
SelectionKernel = Callable[[object, Optional[Mapping[str, SqlValue]]], Sequence[int]]

_MASK_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The Python ints each array dtype compares exactly: int64's range, and
#: the ints a float64 holds without rounding.
_EXACT_INTS = {"i": (-(2 ** 63), 2 ** 63 - 1), "f": (-(2 ** 53), 2 ** 53)}


def compile_selection(expression: Expression, names: Sequence[str]) -> SelectionKernel:
    """Lower a predicate to ``⌊P⌋`` (paper Figure 3) as a selection vector.

    Where every operand passes the mask gate (:func:`_compile_mask`) the
    rows are ``flatnonzero`` of one numpy mask; anything else takes
    :func:`compile_predicate`'s truth codes, which also raise every error
    the predicate raises — the mask path admits no operand that could.
    """
    predicate = compile_predicate(expression, names)
    mask = None if _np is None else _compile_mask(expression, names)

    def select(batch, params):
        if mask is not None:
            bits = mask(batch, params)
            if bits is not None:
                return _np.flatnonzero(bits)
        codes = predicate(batch, params)
        return [i for i, code in enumerate(codes) if code == TRUE_CODE]

    return select


def _compile_mask(expression: Expression, names: Sequence[str]):
    """A ``(batch, params) -> boolean mask | None`` closure for ``⌊P⌋``, or
    ``None`` when the predicate's shape has no mask.

    The gate admits comparisons whose operands are int64 / float64 array
    views (:meth:`ColumnBatch.as_array`) or non-bool ``int`` / ``float``
    literals and bound host variables, at least one of them an array, and
    ``AND`` / ``OR`` / ``NOT`` over admitted children.  Every such operand
    is null-free, so three-valued logic is two-valued there (Libkin): a
    comparison is its numpy comparison, and the connectives are ``&``,
    ``|`` and ``~``.  Per batch it refuses (``None``) a NaN, an int64
    array against a float, and an int that the other side's dtype cannot
    hold exactly (:data:`_EXACT_INTS`).
    """
    if isinstance(expression, Comparison):
        left = _mask_operand(expression.left, names)
        right = _mask_operand(expression.right, names)
        if left is None or right is None:
            return None
        compare = _MASK_COMPARATORS[expression.op]
        return lambda batch, params: _compare_mask(
            compare, left(batch, params), right(batch, params)
        )
    if isinstance(expression, (And, Or)):
        left = _compile_mask(expression.left, names)
        right = _compile_mask(expression.right, names)
        if left is None or right is None:
            return None
        combine = operator.and_ if isinstance(expression, And) else operator.or_

        def connect(batch, params):
            first = left(batch, params)
            if first is None:
                return None
            second = right(batch, params)
            return None if second is None else combine(first, second)

        return connect
    if isinstance(expression, Not):
        operand = _compile_mask(expression.operand, names)
        if operand is None:
            return None

        def negate(batch, params):
            bits = operand(batch, params)
            return None if bits is None else ~bits

        return negate
    return None


def _mask_operand(expression: Expression, names: Sequence[str]):
    """A ``(batch, params) -> array | int | float | None`` closure for one
    comparison operand, or ``None`` when no value of its shape qualifies."""
    if isinstance(expression, ColumnRef):
        index = resolve_column(names, expression)
        return lambda batch, params: batch.as_array(index)
    if isinstance(expression, Literal):
        value = expression.value
        if type(value) not in (int, float):
            return None
        return lambda batch, params: value
    if isinstance(expression, HostVariable):
        name = expression.name
        # Unbound: refused, so the closure raises as it always has.
        return lambda batch, params: None if params is None else params.get(name)
    return None


def _compare_mask(compare, left, right):
    """``left <op> right`` as a boolean mask, or ``None`` where numpy's
    answer could differ from :mod:`repro.sqltypes.values`'."""
    arrays = [x for x in (left, right) if isinstance(x, _np.ndarray)]
    if not arrays:
        return None
    kind = arrays[0].dtype.kind
    if any(array.dtype.kind != kind for array in arrays):
        return None  # int64 against float64
    for operand in (left, right):
        if isinstance(operand, _np.ndarray):
            if kind == "f" and _np.isnan(operand).any():
                return None
        elif type(operand) is float:
            if kind == "i" or operand != operand:
                return None
        elif type(operand) is int:
            low, high = _EXACT_INTS[kind]
            if not low <= operand <= high:
                return None
        else:
            return None  # NULL, bool, Decimal, str, date, unbound
    return compare(left, right)


# -- aggregation -------------------------------------------------------------


@dataclass
class CompiledAggregate:
    """One lowered aggregate call: function + compiled argument column."""

    node: Aggregate
    function: str
    distinct: bool
    argument: Optional[ScalarKernel]  # None for COUNT(*)


@dataclass
class GroupVectors:
    """Per-group evaluation context for the ``F(AA)`` arithmetic.

    ``source`` is the aggregation input batch; ``rep_indexes[g]`` is the
    input row standing for group ``g`` (its first row — only sound for
    grouping columns, which is all SQL permits outside aggregates);
    ``agg_columns[slot]`` holds one value per group for the slot's
    aggregate.
    """

    source: object
    rep_indexes: List[int]
    agg_columns: List[List[SqlValue]]

    @property
    def n(self) -> int:
        return len(self.rep_indexes)


GroupKernel = Callable[[GroupVectors, Optional[Mapping[str, SqlValue]]], Sequence[SqlValue]]


def compile_aggregate_arguments(
    specs: Sequence, names: Sequence[str]
) -> Tuple[List[CompiledAggregate], Dict[Aggregate, int]]:
    """Lower every distinct aggregate appearing in ``specs``.

    Textually identical aggregates (``Aggregate`` is a frozen dataclass)
    share one slot, so ``SUM(v) + SUM(v)`` scans its argument once.
    """
    compiled: List[CompiledAggregate] = []
    slots: Dict[Aggregate, int] = {}
    for spec in specs:
        for node in collect_aggregates(spec.expression):
            if node in slots:
                continue
            slots[node] = len(compiled)
            compiled.append(
                CompiledAggregate(
                    node,
                    node.function,
                    node.distinct,
                    None
                    if node.argument is None
                    else compile_scalar(node.argument, names),
                )
            )
    return compiled, slots


def compile_group_expression(
    expression: Expression,
    names: Sequence[str],
    slots: Dict[Aggregate, int],
) -> GroupKernel:
    """Lower an ``fᵢ(AA)`` — arithmetic over aggregates — to a per-group
    vector closure (mirrors
    :func:`repro.engine.aggregation.evaluate_aggregate_expression`)."""
    if isinstance(expression, Aggregate):
        slot = slots[expression]
        return lambda groups, params: groups.agg_columns[slot]
    if isinstance(expression, Arithmetic):
        left = compile_group_expression(expression.left, names, slots)
        right = compile_group_expression(expression.right, names, slots)
        op = _ARITHMETIC[expression.op]
        return lambda groups, params: [
            op(x, y) for x, y in zip(left(groups, params), right(groups, params))
        ]
    if isinstance(expression, Negate):
        operand = compile_group_expression(expression.operand, names, slots)
        return lambda groups, params: [sql_neg(v) for v in operand(groups, params)]
    if isinstance(expression, Literal):
        value = expression.value
        return lambda groups, params: [value] * groups.n
    if isinstance(expression, HostVariable):
        name = expression.name

        def host(groups, params):
            if params is None or name not in params:
                raise ExecutionError(f"unbound host variable :{name}")
            return [params[name]] * groups.n

        return host
    if isinstance(expression, ColumnRef):
        index = resolve_column(names, expression)
        return lambda groups, params: [
            groups.source.columns[index][i] for i in groups.rep_indexes
        ]
    raise ExecutionError(
        f"unsupported node in aggregation expression: {type(expression).__name__}"
    )
