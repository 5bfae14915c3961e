"""Three-valued-logic null-rejection analysis of predicates.

A predicate *rejects NULLs on column c* when it cannot evaluate to TRUE on
any row whose ``c`` is NULL.  This is the classic soundness premise for
moving filters across operators that treat NULLs asymmetrically (outer
joins, grouping on nullable keys): Franconi & Tessaris formalize why naive
pushdown goes wrong exactly when this property is assumed but absent.

The analysis is a small abstract interpreter over Kleene logic.  Scalar
subexpressions are abstracted to three states — definitely NULL, definitely
not NULL, or unknown — and boolean subexpressions to the *set* of truth
values they may take (a subset of {TRUE, FALSE, UNKNOWN}).  The abstraction
only ever over-approximates the possible truth values, so the exported
verdict is sound in one direction: :func:`rejects_null` answers ``True``
only when TRUE is provably unreachable.

Certificates record these verdicts as premises; the plan-equivalence
checker re-derives them here rather than trusting the rewriter.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

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
    InSubquery,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    column_refs,
)
from repro.sqltypes.values import is_null as _value_is_null

#: Kleene truth values.
TRUE = "T"
FALSE = "F"
UNKNOWN = "U"

ALL_TRUTHS: FrozenSet[str] = frozenset((TRUE, FALSE, UNKNOWN))
TWO_VALUED: FrozenSet[str] = frozenset((TRUE, FALSE))

#: Abstract scalar states.
_NULL = "null"          # the value is certainly NULL
_NOT_NULL = "not-null"  # the value is certainly not NULL
_ANY = "any"            # no information


def _scalar(expression: Expression, null_columns: FrozenSet[str]) -> str:
    """Abstract state of a scalar subexpression given NULL columns.

    Only an *exactly matching* qualified name is treated as the NULL
    column; a bare or differently-qualified reference stays ``any`` — the
    over-approximation that keeps :func:`rejects_null` sound.
    """
    if isinstance(expression, Literal):
        # The engine's NULL literal is the sqltypes sentinel, not None.
        return _NULL if _value_is_null(expression.value) else _NOT_NULL
    if isinstance(expression, ColumnRef):
        return _NULL if expression.qualified in null_columns else _ANY
    if isinstance(expression, HostVariable):
        return _ANY
    if isinstance(expression, Negate):
        return _scalar(expression.operand, null_columns)
    if isinstance(expression, Arithmetic):
        states = (
            _scalar(expression.left, null_columns),
            _scalar(expression.right, null_columns),
        )
        if _NULL in states:
            return _NULL  # arithmetic propagates NULL
        if all(state == _NOT_NULL for state in states):
            return _NOT_NULL
        return _ANY
    if isinstance(expression, Aggregate):
        return _ANY
    return _ANY


def _not3(truths: FrozenSet[str]) -> FrozenSet[str]:
    flip = {TRUE: FALSE, FALSE: TRUE, UNKNOWN: UNKNOWN}
    return frozenset(flip[t] for t in truths)


def _and3(left: FrozenSet[str], right: FrozenSet[str]) -> FrozenSet[str]:
    out = set()
    for a in left:
        for b in right:
            if a == FALSE or b == FALSE:
                out.add(FALSE)
            elif a == UNKNOWN or b == UNKNOWN:
                out.add(UNKNOWN)
            else:
                out.add(TRUE)
    return frozenset(out)


def _or3(left: FrozenSet[str], right: FrozenSet[str]) -> FrozenSet[str]:
    out = set()
    for a in left:
        for b in right:
            if a == TRUE or b == TRUE:
                out.add(TRUE)
            elif a == UNKNOWN or b == UNKNOWN:
                out.add(UNKNOWN)
            else:
                out.add(FALSE)
    return frozenset(out)


def possible_truth_values(
    predicate: Expression, null_columns: Iterable[str] = ()
) -> FrozenSet[str]:
    """Over-approximate the truth values ``predicate`` can take when every
    column in ``null_columns`` (exact qualified names) is NULL."""
    nulls = frozenset(null_columns)

    def recurse(node: Expression) -> FrozenSet[str]:
        if isinstance(node, Literal):
            if node.value is True:
                return frozenset((TRUE,))
            if node.value is False:
                return frozenset((FALSE,))
            if _value_is_null(node.value):
                return frozenset((UNKNOWN,))
            return ALL_TRUTHS
        if isinstance(node, And):
            return _and3(recurse(node.left), recurse(node.right))
        if isinstance(node, Or):
            return _or3(recurse(node.left), recurse(node.right))
        if isinstance(node, Not):
            return _not3(recurse(node.operand))
        if isinstance(node, Comparison):
            states = (_scalar(node.left, nulls), _scalar(node.right, nulls))
            if _NULL in states:
                return frozenset((UNKNOWN,))  # Figure 2: NULL compares UNKNOWN
            if all(state == _NOT_NULL for state in states):
                return TWO_VALUED
            return ALL_TRUTHS
        if isinstance(node, IsNull):
            state = _scalar(node.operand, nulls)
            if state == _NULL:
                base: FrozenSet[str] = frozenset((TRUE,))
            elif state == _NOT_NULL:
                base = frozenset((FALSE,))
            else:
                base = TWO_VALUED  # IS NULL is always two-valued
            return _not3(base) if node.negated else base
        if isinstance(node, InList):
            state = _scalar(node.operand, nulls)
            if state == _NULL:
                base = frozenset((UNKNOWN,))
            elif state == _NOT_NULL and all(
                _scalar(item, nulls) == _NOT_NULL for item in node.items
            ):
                base = TWO_VALUED
            else:
                base = ALL_TRUTHS
            return _not3(base) if node.negated else base
        if isinstance(node, Between):
            states = (
                _scalar(node.operand, nulls),
                _scalar(node.low, nulls),
                _scalar(node.high, nulls),
            )
            if states[0] == _NULL:
                # NULL operand: both bound comparisons are UNKNOWN.
                base = frozenset((UNKNOWN,))
            elif _NULL in states[1:]:
                # A NULL bound makes one conjunct UNKNOWN, so the
                # conjunction can never reach TRUE.
                base = frozenset((FALSE, UNKNOWN))
            elif all(state == _NOT_NULL for state in states):
                base = TWO_VALUED
            else:
                base = ALL_TRUTHS
            return _not3(base) if node.negated else base
        if isinstance(node, Like):
            state = _scalar(node.operand, nulls)
            if state == _NULL:
                base = frozenset((UNKNOWN,))
            elif state == _NOT_NULL:
                base = TWO_VALUED
            else:
                base = ALL_TRUTHS
            return _not3(base) if node.negated else base
        if isinstance(node, InSubquery):
            return ALL_TRUTHS  # opaque until the session resolves it
        return ALL_TRUTHS

    return recurse(predicate)


def rejects_null(predicate: Expression, column: str) -> bool:
    """``True`` iff ``predicate`` provably cannot be TRUE when ``column``
    (an exact qualified name) is NULL."""
    return TRUE not in possible_truth_values(predicate, (column,))


def null_rejection_premises(
    pushed: Sequence[Expression], canonical_keys: Sequence[str]
) -> Tuple[Tuple[str, str], ...]:
    """3VL verdicts for each pushed conjunct against each key it touches.

    The pushdown rewrite records them as certificate premises; the
    equivalence checker re-derives the very same facts and compares.
    """
    premises: List[Tuple[str, str]] = []
    key_set = set(canonical_keys)
    for conjunct in pushed:
        touched = sorted(
            {ref.qualified for ref in column_refs(conjunct)} & key_set
        )
        for key in touched:
            verdict = "rejecting" if rejects_null(conjunct, key) else "preserving"
            premises.append(("null-rejection", f"{conjunct} on {key}: {verdict}"))
    return tuple(premises)
