"""SQL2 three-valued logic.

Implements Figure 2 of the paper (the AND/OR truth tables), the NOT
connective, and the machinery of Figure 3:

* the *interpretation operators* ``⌊P⌋`` (:func:`floor_interpret`, UNKNOWN
  becomes false) and ``⌈P⌉`` (:func:`ceil_interpret`, UNKNOWN becomes true),
* the *null-aware equality* ``=ⁿ``
  (:func:`repro.sqltypes.values.null_equal`) used by all SQL2
  duplicate operations (GROUP BY, DISTINCT, UNION, ...): two values are
  duplicates when they are equal and both non-NULL, or when both are NULL.

A search condition in a WHERE clause admits a row only when it evaluates to
:data:`TRUE`; :data:`UNKNOWN` is interpreted as false there (``⌊P⌋``).
"""

from __future__ import annotations

import enum
from typing import Iterable


class Truth(enum.Enum):
    """A truth value of SQL2's three-valued logic."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        # Deliberately forbid accidental two-valued use: callers must pick an
        # interpretation operator.  ``if truth_value:`` would silently treat
        # UNKNOWN as... whatever Python decided, which is exactly the class of
        # bug the paper's Figure 3 operators exist to prevent.
        raise TypeError(
            "Truth values are three-valued; use floor_interpret()/"
            "ceil_interpret() (or .is_true()) to collapse to bool"
        )

    def is_true(self) -> bool:
        """``⌊self⌋``: true only when the value is TRUE."""
        return self is Truth.TRUE

    def is_false(self) -> bool:
        return self is Truth.FALSE

    def is_unknown(self) -> bool:
        return self is Truth.UNKNOWN

    def __and__(self, other: "Truth") -> "Truth":
        return truth_and(self, other)

    def __or__(self, other: "Truth") -> "Truth":
        return truth_or(self, other)

    def __invert__(self) -> "Truth":
        return truth_not(self)


TRUE = Truth.TRUE
FALSE = Truth.FALSE
UNKNOWN = Truth.UNKNOWN


def truth_and(left: Truth, right: Truth) -> Truth:
    """SQL2 AND (Figure 2): FALSE dominates, then UNKNOWN."""
    if left is FALSE or right is FALSE:
        return FALSE
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return TRUE


def truth_or(left: Truth, right: Truth) -> Truth:
    """SQL2 OR (Figure 2): TRUE dominates, then UNKNOWN."""
    if left is TRUE or right is TRUE:
        return TRUE
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return FALSE


def truth_not(value: Truth) -> Truth:
    """SQL2 NOT: swaps TRUE/FALSE, leaves UNKNOWN fixed."""
    if value is TRUE:
        return FALSE
    if value is FALSE:
        return TRUE
    return UNKNOWN


def truth_all(values: Iterable[Truth]) -> Truth:
    """Fold :func:`truth_and` over ``values`` (empty -> TRUE)."""
    result = TRUE
    for value in values:
        result = truth_and(result, value)
        if result is FALSE:
            return FALSE
    return result


def truth_any(values: Iterable[Truth]) -> Truth:
    """Fold :func:`truth_or` over ``values`` (empty -> FALSE)."""
    result = FALSE
    for value in values:
        result = truth_or(result, value)
        if result is TRUE:
            return TRUE
    return result


def from_bool(value: bool) -> Truth:
    """Lift a Python bool into the three-valued domain."""
    return TRUE if value else FALSE


def floor_interpret(value: Truth) -> bool:
    """``⌊P⌋`` of Figure 3: interpret UNKNOWN as false.

    This is the WHERE-clause interpretation: a row qualifies only if the
    search condition is TRUE.
    """
    return value is TRUE


def ceil_interpret(value: Truth) -> bool:
    """``⌈P⌉`` of Figure 3: interpret UNKNOWN as true."""
    return value is not FALSE
