"""The 3VL nullability interpreter (analysis.nullability)."""

from __future__ import annotations

from repro.analysis.nullability import (
    ALL_TRUTHS,
    FALSE,
    TRUE,
    TWO_VALUED,
    UNKNOWN,
    possible_truth_values,
    rejects_null,
)
from repro.expressions.builder import (
    and_,
    between,
    col,
    eq,
    gt,
    in_,
    is_not_null,
    is_null_,
    like,
    lit,
    not_,
    null,
    or_,
)


class TestPossibleTruthValues:
    def test_comparison_on_null_column_is_unknown_only(self):
        truths = possible_truth_values(eq(col("E.DeptID"), lit(1)), {"E.DeptID"})
        assert truths == frozenset({UNKNOWN})

    def test_comparison_of_literals_is_two_valued(self):
        truths = possible_truth_values(eq(lit(1), lit(2)), set())
        assert truths == TWO_VALUED

    def test_unmarked_column_keeps_all_truths(self):
        # A column not named in null_columns has unknown nullability, so
        # the sound over-approximation keeps the full Kleene domain.
        truths = possible_truth_values(eq(col("E.DeptID"), lit(1)), set())
        assert truths == ALL_TRUTHS

    def test_is_null_on_null_column_is_true(self):
        truths = possible_truth_values(is_null_(col("E.DeptID")), {"E.DeptID"})
        assert truths == frozenset({TRUE})

    def test_is_not_null_on_null_column_is_false(self):
        truths = possible_truth_values(is_not_null(col("E.DeptID")), {"E.DeptID"})
        assert truths == frozenset({FALSE})

    def test_kleene_and_absorbs_false(self):
        # U AND F = F: one conjunct unknown, the other false-capable.
        pred = and_(eq(col("A.x"), lit(1)), eq(col("A.y"), lit(2)))
        truths = possible_truth_values(pred, {"A.x"})
        assert TRUE not in truths
        assert truths == frozenset({FALSE, UNKNOWN})

    def test_kleene_or_can_recover_true(self):
        # U OR T = T: the non-null disjunct can still be satisfied.
        pred = or_(eq(col("A.x"), lit(1)), eq(col("A.y"), lit(2)))
        truths = possible_truth_values(pred, {"A.x"})
        assert TRUE in truths

    def test_not_maps_unknown_to_unknown(self):
        truths = possible_truth_values(not_(eq(col("A.x"), lit(1))), {"A.x"})
        assert truths == frozenset({UNKNOWN})

    def test_null_literal_bound_in_between_never_true(self):
        pred = between(col("A.x"), lit(1), null())
        truths = possible_truth_values(pred, set())
        assert TRUE not in truths

    def test_unreferenced_null_column_is_irrelevant(self):
        truths = possible_truth_values(eq(col("A.x"), lit(1)), {"B.z"})
        assert truths == possible_truth_values(eq(col("A.x"), lit(1)), set())


class TestRejectsNull:
    def test_equality_rejects_null(self):
        assert rejects_null(eq(col("E.DeptID"), lit(1)), "E.DeptID")

    def test_is_null_preserves_null(self):
        assert not rejects_null(is_null_(col("E.DeptID")), "E.DeptID")

    def test_or_with_is_null_preserves_null(self):
        pred = or_(eq(col("E.DeptID"), lit(1)), is_null_(col("E.DeptID")))
        assert not rejects_null(pred, "E.DeptID")

    def test_comparison_chain(self):
        assert rejects_null(gt(col("E.DeptID"), lit(0)), "E.DeptID")
        assert rejects_null(in_(col("E.DeptID"), lit(1), lit(2)), "E.DeptID")
        assert rejects_null(like(col("E.LastName"), "Y%"), "E.LastName")



class TestDomains:
    def test_truth_constants_are_consistent(self):
        assert TWO_VALUED < ALL_TRUTHS
        assert UNKNOWN in ALL_TRUTHS and UNKNOWN not in TWO_VALUED
