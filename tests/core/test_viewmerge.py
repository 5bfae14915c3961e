"""View merging (Section 8 / Example 5)."""

import pytest

from repro.core.transform import build_eager_plan, build_standard_plan
from repro.engine.executor import execute
from repro.errors import TransformationError
from repro.main_theorem import evaluate_both
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.parser.viewmerge import merge_aggregated_view, view_output_map

USERINFO_VIEW = """
CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS
SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
FROM PrinterAuth A, Printer P
WHERE A.PNo = P.PNo
GROUP BY A.UserId, A.Machine
"""

OUTER_QUERY = """
SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
FROM UserInfo I, UserAccount U
WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'
"""


@pytest.fixture
def db_with_view(printer_db):
    execute_statement(printer_db, parse_statement(USERINFO_VIEW))
    return printer_db


class TestViewOutputMap:
    def test_mapping(self, db_with_view):
        view = db_with_view.view_definition("UserInfo")
        outputs = view_output_map(db_with_view, view)
        assert str(outputs["UserId"]) == "A.UserId"
        assert "SUM" in str(outputs["TotUsage"])
        assert set(outputs) == {"UserId", "Machine", "TotUsage", "MaxSpeed", "MinSpeed"}


class TestExample5Merge:
    def test_merged_query_shape(self, db_with_view):
        outer = parse_statement(OUTER_QUERY)
        merged = merge_aggregated_view(db_with_view, outer)
        assert {b.alias for b in merged.r1} == {"A", "P"}
        assert {b.alias for b in merged.r2} == {"U"}
        assert merged.ga2 == ("U.UserId", "U.UserName")
        assert set(merged.ga1_plus) == {"A.UserId", "A.Machine"}
        assert [s.name for s in merged.aggregates] == [
            "TotUsage", "MaxSpeed", "MinSpeed",
        ]

    def test_merged_where_contains_view_predicates(self, db_with_view):
        outer = parse_statement(OUTER_QUERY)
        merged = merge_aggregated_view(db_with_view, outer)
        where = str(merged.where)
        assert "A.PNo = P.PNo" in where
        assert "A.UserId = U.UserId" in where
        assert "'dragon'" in where

    def test_both_evaluation_orders_agree(self, db_with_view):
        """The crux of Section 8: view materialization (E2) and merged
        grouped join (E1) return the same rows."""
        outer = parse_statement(OUTER_QUERY)
        merged = merge_aggregated_view(db_with_view, outer)
        e1, e2 = evaluate_both(db_with_view, merged)
        assert e1.equals_multiset(e2)
        assert e1.cardinality > 0  # dragon users exist in the fixture

    def test_merged_equals_manual_materialization(self, db_with_view, example3_query):
        """The merged query must equal the hand-built Example 3 query."""
        outer = parse_statement(OUTER_QUERY)
        merged = merge_aggregated_view(db_with_view, outer)
        ours, __ = execute(db_with_view, build_standard_plan(merged))
        reference, __ = execute(db_with_view, build_standard_plan(example3_query))
        assert ours.equals_multiset(reference)


class TestMergeRefusals:
    def test_aggregate_column_in_where_rejected(self, db_with_view):
        outer = parse_statement(
            "SELECT U.UserId, I.TotUsage FROM UserInfo I, UserAccount U "
            "WHERE I.UserId = U.UserId AND I.Machine = U.Machine "
            "AND I.TotUsage = 5"
        )
        with pytest.raises(TransformationError):
            merge_aggregated_view(db_with_view, outer)

    def test_view_without_group_by_rejected(self, printer_db):
        execute_statement(
            printer_db,
            parse_statement(
                "CREATE VIEW Flat AS SELECT P.PNo, P.Speed FROM Printer P"
            ),
        )
        outer = parse_statement(
            "SELECT F.PNo FROM Flat F, Printer P WHERE F.PNo = P.PNo"
        )
        with pytest.raises(TransformationError):
            merge_aggregated_view(printer_db, outer)

    def test_no_base_table_rejected(self, db_with_view):
        outer = parse_statement("SELECT I.UserId FROM UserInfo I")
        with pytest.raises(TransformationError):
            merge_aggregated_view(db_with_view, outer)

    def test_grouping_mismatch_rejected(self, db_with_view):
        """Joining on only one of the view's two grouping columns leaves
        GA1+ short of the view's GROUP BY — the merge must refuse."""
        outer = parse_statement(
            "SELECT U.UserId, U.UserName, I.TotUsage "
            "FROM UserInfo I, UserAccount U WHERE I.UserId = U.UserId"
        )
        with pytest.raises(TransformationError):
            merge_aggregated_view(db_with_view, outer)
