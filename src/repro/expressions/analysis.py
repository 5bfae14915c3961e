"""Static analysis of predicates: table attribution and atomic-condition
classification.

Two jobs live here:

* splitting a WHERE clause into the paper's ``C1 ∧ C0 ∧ C2`` form —
  conjuncts over R1 only, over both tables, and over R2 only (Section 3);
* classifying atomic conditions into TestFD's Type 1 (``v = c``) and
  Type 2 (``v1 = v2``) shapes (Section 6.3), where ``c`` is a constant or
  host variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.expressions.ast import (
    ColumnRef,
    Comparison,
    Expression,
    HostVariable,
    Literal,
    column_refs,
)
from repro.expressions.normalize import conjoin, split_conjuncts


def referenced_tables(expression: Expression) -> FrozenSet[str]:
    """The set of correlation names referenced by ``expression``.

    Column references must be qualified by the time analysis runs (binding
    resolves bare columns); an unqualified reference maps to the empty name
    and is reported as ``""``.
    """
    return frozenset(ref.table for ref in column_refs(expression))


@dataclass(frozen=True)
class PredicateSplit:
    """The ``C1 ∧ C0 ∧ C2`` decomposition of a WHERE clause.

    ``c1`` touches only tables in the R1 group, ``c2`` only the R2 group and
    every conjunct of ``c0`` touches both groups (join predicates).  Conjuncts
    referencing no column at all (e.g. ``1 = 1`` or a host-variable-only
    test) are folded into ``c1``; they filter everything or nothing and it
    does not matter which side evaluates them.
    """

    c1: Optional[Expression]
    c0: Optional[Expression]
    c2: Optional[Expression]

    def conjuncts(self) -> Tuple[Expression, ...]:
        return (
            split_conjuncts(self.c1)
            + split_conjuncts(self.c0)
            + split_conjuncts(self.c2)
        )

    def combined(self) -> Optional[Expression]:
        return conjoin(self.conjuncts())


def split_predicate(
    where: Optional[Expression],
    r1_tables: Iterable[str],
    r2_tables: Iterable[str],
) -> PredicateSplit:
    """Split ``where`` into C1 / C0 / C2 against the R1/R2 table partition.

    The split happens at the granularity of *top-level conjuncts*; each
    conjunct (which may itself be a disjunction) is attributed by the union
    of tables it references, as the paper prescribes for conjunctive normal
    form components.
    """
    r1_set = frozenset(r1_tables)
    r2_set = frozenset(r2_tables)
    overlap = r1_set & r2_set
    if overlap:
        raise ValueError(f"tables in both groups: {sorted(overlap)}")

    c1_parts: list[Expression] = []
    c0_parts: list[Expression] = []
    c2_parts: list[Expression] = []
    for conjunct in split_conjuncts(where):
        tables = referenced_tables(conjunct)
        touches_r1 = bool(tables & r1_set)
        touches_r2 = bool(tables & r2_set)
        unknown = tables - r1_set - r2_set
        if unknown:
            raise ValueError(
                f"predicate references tables outside both groups: {sorted(unknown)}"
            )
        if touches_r1 and touches_r2:
            c0_parts.append(conjunct)
        elif touches_r2:
            c2_parts.append(conjunct)
        else:
            # R1-only, or constant-only conjuncts.
            c1_parts.append(conjunct)
    return PredicateSplit(conjoin(c1_parts), conjoin(c0_parts), conjoin(c2_parts))


@dataclass(frozen=True)
class Type1Condition:
    """``v = c``: a column equated with a constant or host variable."""

    column: ColumnRef
    constant: Expression  # Literal or HostVariable


@dataclass(frozen=True)
class Type2Condition:
    """``v1 = v2``: two columns equated."""

    left: ColumnRef
    right: ColumnRef


def classify_atomic(
    condition: Expression,
) -> "Type1Condition | Type2Condition | None":
    """Classify an atomic condition per TestFD's taxonomy.

    Returns a :class:`Type1Condition`, a :class:`Type2Condition`, or ``None``
    when the condition is neither (not an equality, or not column/constant
    shaped).  Host variables count as constants (their value is fixed during
    query evaluation, Section 6.3).
    """
    if not isinstance(condition, Comparison) or condition.op != "=":
        return None
    left, right = condition.left, condition.right
    left_is_col = isinstance(left, ColumnRef)
    right_is_col = isinstance(right, ColumnRef)
    if left_is_col and right_is_col:
        return Type2Condition(left, right)
    if left_is_col and isinstance(right, (Literal, HostVariable)):
        return Type1Condition(left, right)
    if right_is_col and isinstance(left, (Literal, HostVariable)):
        return Type1Condition(right, left)
    return None
