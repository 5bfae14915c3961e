"""SQL value domain: NULL and comparisons under three-valued logic.

SQL2 represents missing information by the special value NULL.  We model it
with a dedicated singleton :data:`NULL` rather than Python's ``None`` so that
(a) ``None`` coming from ordinary Python code cannot silently leak into query
results and (b) NULL renders distinctly in debug output.

Comparison of SQL values returns a :class:`~repro.sqltypes.truth.Truth`:
any comparison involving NULL yields UNKNOWN.  Equality used by *duplicate*
operations is the separate ``=ⁿ`` (:func:`null_equal`).
"""

from __future__ import annotations

import datetime
import decimal
from operator import itemgetter
from typing import Collection, Iterable, Sequence, Union

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqltypes.truth import UNKNOWN, Truth, floor_interpret, from_bool


class _Null:
    """The singleton SQL NULL marker."""

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        raise TypeError("NULL has no Python truth value; use is_null()")

    def __reduce__(self):
        # Keep the singleton property across pickling.
        return (_Null, ())


NULL = _Null()

#: The Python types a (non-NULL) SQL value may take in this engine.
SqlScalar = Union[int, float, str, bool, decimal.Decimal, datetime.date]
SqlValue = Union[SqlScalar, _Null]


def is_null(value: object) -> bool:
    """True when ``value`` is the SQL NULL marker."""
    return value is NULL


_NUMERIC_TYPES = (int, float, decimal.Decimal)


def _comparable(left: object, right: object) -> bool:
    """Whether two non-NULL values live in the same comparison domain."""
    if isinstance(left, bool) != isinstance(right, bool):
        # bool is an int subclass in Python; keep BOOLEAN separate from
        # numerics the way SQL does.
        return False
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return True
    return type(left) is type(right) or (
        isinstance(left, str) and isinstance(right, str)
    )


def _require_comparable(left: object, right: object) -> None:
    if type(left) is type(right):
        return  # one type is one domain: no isinstance census needed
    if not _comparable(left, right):
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )


def sql_compare_eq(left: object, right: object) -> Truth:
    """SQL ``=``: UNKNOWN if either side is NULL.  NaN = NaN is TRUE, as in
    PostgreSQL, :func:`group_key` and :func:`sort_key`."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left == right or (_is_nan(left) and _is_nan(right)))


def sql_compare_ne(left: object, right: object) -> Truth:
    """SQL ``<>``: the negation of :func:`sql_compare_eq`."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    return from_bool(left != right and not (_is_nan(left) and _is_nan(right)))


def sql_compare_lt(left: object, right: object) -> Truth:
    """SQL ``<`` in :func:`sort_key`'s order: a NaN sorts above every
    number and equals every NaN, as in PostgreSQL.  Only a float or a
    Decimal operand is read for NaN; others compare raw."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
        return from_bool(sorts_before(left, right))
    return from_bool(left < right)


def sql_compare_le(left: object, right: object) -> Truth:
    """SQL ``<=``: not ``right < left`` (:func:`sql_compare_lt`)."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
        return from_bool(not sorts_before(right, left))
    return from_bool(left <= right)


def sql_compare_gt(left: object, right: object) -> Truth:
    """SQL ``>``: ``right < left`` (:func:`sql_compare_lt`)."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
        return from_bool(sorts_before(right, left))
    return from_bool(left > right)


def sql_compare_ge(left: object, right: object) -> Truth:
    """SQL ``>=``: not ``left < right`` (:func:`sql_compare_lt`)."""
    if is_null(left) or is_null(right):
        return UNKNOWN
    _require_comparable(left, right)
    if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
        return from_bool(not sorts_before(left, right))
    return from_bool(left >= right)


def null_equal(left: object, right: object) -> bool:
    """The ``=ⁿ`` operator of Figure 3 (duplicate semantics).

    Returns a plain bool, per the paper's definition: TRUE when both operands
    are NULL, otherwise ``⌊left = right⌋``.  Used by GROUP BY, DISTINCT and the
    functional-dependency definitions of Section 4.3.
    """
    if is_null(left) and is_null(right):
        return True
    return floor_interpret(sql_compare_eq(left, right))


def null_equal_rows(left: Iterable[object], right: Iterable[object]) -> bool:
    """Row equivalence (Definition 1): pairwise ``=ⁿ`` over column values."""
    left_values = tuple(left)
    right_values = tuple(right)
    if len(left_values) != len(right_values):
        return False
    return all(null_equal(lv, rv) for lv, rv in zip(left_values, right_values))


def sql_add(left: object, right: object) -> SqlValue:
    """SQL ``+``: NULL-propagating arithmetic."""
    if is_null(left) or is_null(right):
        return NULL
    return left + right  # type: ignore[operator]


def sql_sub(left: object, right: object) -> SqlValue:
    if is_null(left) or is_null(right):
        return NULL
    return left - right  # type: ignore[operator]


def sql_mul(left: object, right: object) -> SqlValue:
    if is_null(left) or is_null(right):
        return NULL
    return left * right  # type: ignore[operator]


def sql_div(left: object, right: object) -> SqlValue:
    """SQL ``/``: NULL-propagating; division by zero is an execution error."""
    if is_null(left) or is_null(right):
        return NULL
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # SQL integer division truncates toward zero.
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right  # type: ignore[operator]


def sql_neg(value: object) -> SqlValue:
    if is_null(value):
        return NULL
    return -value  # type: ignore[operator]


class NullsFirstKey:
    """Sort key wrapper ordering NULL before every non-NULL value and NaN
    after every number.

    SQL2 leaves NULL placement implementation-defined; we fix NULLS FIRST so
    sort-based grouping and sort-merge joins are deterministic.  All NULLs
    compare equal to each other here (duplicate semantics), which is exactly
    what grouping by sorting requires.  Every NaN (a float, or a quiet
    ``Decimal``) sorts above every number and equals every other NaN, as in
    PostgreSQL and :func:`group_key`; ``<`` against a NaN is always false,
    so a raw sort would scatter NaN and non-NaN keys alike.
    """

    __slots__ = ("value",)

    def __init__(self, value: SqlValue) -> None:
        self.value = value

    def __lt__(self, other: "NullsFirstKey") -> bool:
        left, right = self.value, other.value
        left_null = is_null(left)
        right_null = is_null(right)
        if left_null:
            return not right_null
        if right_null:
            return False
        return sorts_before(left, right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NullsFirstKey):
            return NotImplemented
        left, right = self.value, other.value
        left_null = is_null(left)
        right_null = is_null(right)
        if left_null or right_null:
            return left_null and right_null
        if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
            left_nan, right_nan = _is_nan(left), _is_nan(right)
            if left_nan or right_nan:
                return left_nan and right_nan
        return left == right

    def __hash__(self) -> int:
        if is_null(self.value):
            return hash("<sql-null>")
        if _is_nan(self.value):
            return hash("<nan>")  # a NaN float hashes by identity
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NullsFirstKey({self.value!r})"


def sort_key(values: "tuple[SqlValue, ...] | list[SqlValue]") -> "tuple[NullsFirstKey, ...]":
    """Total-order sort key for a row of SQL values (NULLS FIRST)."""
    return tuple(NullsFirstKey(value) for value in values)


#: The types whose values can be NaN: a float, or a quiet ``Decimal``.
INEXACT_TYPES = frozenset((float, decimal.Decimal))


def _is_nan(value: SqlValue) -> bool:
    return type(value) in INEXACT_TYPES and value != value


#: What a NaN join-key component is keyed as: one token, so every NaN
#: matches every NaN, whatever object holds it (a raw float NaN equals only
#: itself, through the identity check a dict makes first).
NAN_TOKEN = ("<nan>",)


def nan_keyed(
    key: "tuple[SqlValue, ...]", positions: "tuple[int, ...]"
) -> "tuple[object, ...]":
    """``key`` with each NaN at ``positions`` replaced by :data:`NAN_TOKEN`.

    ``positions`` are the components whose census holds a float or a
    Decimal (:func:`inexact_positions`); the rest are left as they are."""
    if not any(_is_nan(key[i]) for i in positions):
        return key
    return tuple(
        NAN_TOKEN if i in positions and _is_nan(value) else value
        for i, value in enumerate(key)
    )


def inexact_positions(
    rows: "Collection[Sequence[SqlValue]]", columns: "Sequence[int]"
) -> "tuple[int, ...]":
    """The positions ``c`` in ``columns`` whose column ``columns[c]`` of
    ``rows`` holds a float or a Decimal: the only key components a NaN can
    sit in.  A C-speed census per column, stopped at the first inexact
    value."""
    return tuple(
        c for c, column in enumerate(columns)
        if not INEXACT_TYPES.isdisjoint(map(type, map(itemgetter(column), rows)))
    )


def sorts_before(left: SqlValue, right: SqlValue) -> bool:
    """``left < right`` for two non-NULL values in :func:`sort_key`'s
    order: every NaN above every number.  Only floats and Decimals are
    read for NaN."""
    if type(left) in INEXACT_TYPES or type(right) in INEXACT_TYPES:
        if _is_nan(left):
            return False
        if _is_nan(right):
            return True
    return left < right  # type: ignore[operator]


def group_key(values: "tuple[SqlValue, ...] | list[SqlValue]") -> "tuple[object, ...]":
    """Hashable duplicate-semantics key: NULLs collide with NULLs.

    Two rows produce the same key exactly when they are row-equivalent under
    ``=ⁿ`` (Definition 1 of the paper), so this key is safe for hash-based
    GROUP BY and DISTINCT.  Every NaN is one key, as in PostgreSQL: a raw
    NaN would be equal only to the very object it is, through the identity
    check a dict or a tuple comparison makes first.
    """
    return tuple(
        ("<sql-null>",) if is_null(value)
        else ("<nan>",) if type(value) in INEXACT_TYPES and value != value
        else (type(value).__name__ if isinstance(value, bool) else "", value)
        for value in values
    )
