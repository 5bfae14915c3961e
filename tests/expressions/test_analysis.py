"""Predicate analysis: C1/C0/C2 splitting and TestFD's atom taxonomy."""

import pytest

from repro.expressions.analysis import (
    Type1Condition,
    Type2Condition,
    classify_atomic,
    referenced_tables,
    split_predicate,
)
from repro.expressions.builder import and_, col, eq, gt, host, lit, lt, or_
from repro.expressions.normalize import split_conjuncts


class TestReferencedTables:
    def test_single(self):
        assert referenced_tables(eq(col("A.x"), 1)) == frozenset({"A"})

    def test_cross(self):
        assert referenced_tables(eq(col("A.x"), col("B.y"))) == frozenset({"A", "B"})

    def test_constant_only(self):
        assert referenced_tables(eq(lit(1), lit(1))) == frozenset()


class TestSplitPredicate:
    def test_example3_shape(self):
        """The paper's Example 3: C0/C1/C2 recovered exactly."""
        where = and_(
            eq(col("U.UserId"), col("A.UserId")),
            eq(col("U.Machine"), col("A.Machine")),
            eq(col("A.PNo"), col("P.PNo")),
            eq(col("U.Machine"), lit("dragon")),
        )
        split = split_predicate(where, r1_tables=["A", "P"], r2_tables=["U"])
        assert str(split.c1) == "A.PNo = P.PNo"
        assert "U.UserId = A.UserId" in str(split.c0)
        assert "U.Machine = A.Machine" in str(split.c0)
        assert str(split.c2) == "U.Machine = 'dragon'"

    def test_disjunctive_conjunct_attribution(self):
        """A whole disjunction is attributed by the union of its tables."""
        where = and_(
            or_(eq(col("A.x"), 1), eq(col("B.y"), 2)),  # touches both -> C0
            eq(col("A.x"), 3),
        )
        split = split_predicate(where, ["A"], ["B"])
        assert "OR" in str(split.c0)
        assert str(split.c1) == "A.x = 3"
        assert split.c2 is None

    def test_constant_conjunct_goes_to_c1(self):
        split = split_predicate(eq(lit(1), lit(1)), ["A"], ["B"])
        assert split.c1 is not None
        assert split.c0 is None and split.c2 is None

    def test_none_where(self):
        split = split_predicate(None, ["A"], ["B"])
        assert split.c1 is None and split.c0 is None and split.c2 is None
        assert split.combined() is None

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            split_predicate(eq(col("Z.x"), 1), ["A"], ["B"])

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            split_predicate(None, ["A"], ["A"])

    def test_combined_roundtrip(self):
        where = and_(eq(col("A.x"), col("B.y")), eq(col("A.x"), 1))
        split = split_predicate(where, ["A"], ["B"])
        assert set(map(str, split_conjuncts(split.combined()))) == set(
            map(str, split_conjuncts(where))
        )


class TestAtomClassification:
    def test_type1_column_constant(self):
        result = classify_atomic(eq(col("A.x"), lit(25)))
        assert isinstance(result, Type1Condition)
        assert result.column.qualified == "A.x"

    def test_type1_reversed(self):
        result = classify_atomic(eq(lit(25), col("A.x")))
        assert isinstance(result, Type1Condition)
        assert result.column.qualified == "A.x"

    def test_type1_host_variable(self):
        """Host variables count as constants (Section 6.3)."""
        result = classify_atomic(eq(col("A.x"), host("h")))
        assert isinstance(result, Type1Condition)

    def test_type2(self):
        result = classify_atomic(eq(col("A.x"), col("B.y")))
        assert isinstance(result, Type2Condition)

    def test_non_equality_is_neither(self):
        assert classify_atomic(lt(col("A.x"), 5)) is None
        assert classify_atomic(gt(col("A.x"), col("B.y"))) is None

    def test_constant_constant_is_neither(self):
        assert classify_atomic(eq(lit(1), lit(1))) is None
