"""End-to-end SQL sessions."""

import pytest

from repro.errors import BindingError, ParseError
from repro.session import Session
from repro.sqltypes.values import NULL, is_null

SETUP = [
    "CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30))",
    """CREATE TABLE Employee (
        EmpID INTEGER PRIMARY KEY,
        LastName VARCHAR(30),
        DeptID INTEGER REFERENCES Department (DeptID))""",
    "INSERT INTO Department VALUES (1, 'Eng'), (2, 'Sales'), (3, 'Empty')",
    """INSERT INTO Employee VALUES
        (1, 'A', 1), (2, 'B', 1), (3, 'C', 2), (4, 'D', NULL)""",
]


@pytest.fixture
def session():
    s = Session()
    for sql in SETUP:
        s.execute(sql)
    return s


class TestGroupedQueries:
    def test_example1_shape(self, session):
        result = session.query(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
        )
        rows = {row[0]: row[2] for row in result.rows}
        assert rows == {1: 2, 2: 1}  # Empty dept and NULL emp drop out

    def test_report_contains_choice(self, session):
        report = session.report(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
        )
        assert report.strategy in ("eager", "standard")
        assert report.choice is not None
        assert "strategy:" in report.explain()

    def test_policies_agree(self):
        results = []
        for policy in ("cost", "always_eager", "never_eager"):
            s = Session(policy=policy)
            for sql in SETUP:
                s.execute(sql)
            results.append(
                s.query(
                    "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
                    "FROM Employee E, Department D "
                    "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
                )
            )
        assert results[0].equals_multiset(results[1])
        assert results[1].equals_multiset(results[2])

    def test_single_table_group_by(self, session):
        result = session.query(
            "SELECT E.DeptID, COUNT(E.EmpID) AS n FROM Employee E "
            "GROUP BY E.DeptID"
        )
        # NULL DeptID forms its own group (=ⁿ semantics).
        assert result.cardinality == 3

    def test_aggregate_having_falls_back_to_standard(self, session):
        report = session.report(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name "
            "HAVING COUNT(E.EmpID) > 0"
        )
        assert report.strategy == "standard"
        assert not report.choice.decision.valid

    def test_aggregate_free_having_folds_into_where(self, session):
        """The §9 relaxation: HAVING on grouping columns re-admits the
        query to the transformable class."""
        report = session.report(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name "
            "HAVING D.DeptID > 1"
        )
        assert report.choice.decision.valid
        assert all(row[0] > 1 for row in report.result.rows)


class TestUngroupedQueries:
    def test_simple_select(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID = 1"
        )
        assert sorted(row[0] for row in result.rows) == ["A", "B"]

    def test_distinct(self, session):
        result = session.query("SELECT DISTINCT E.DeptID FROM Employee E")
        assert result.cardinality == 3  # 1, 2, NULL

    def test_scalar_aggregate(self, session):
        result = session.query("SELECT COUNT(*) AS n FROM Employee E")
        assert result.rows == [(4,)]

    def test_scalar_aggregate_empty_input_one_row(self, session):
        result = session.query(
            "SELECT COUNT(E.EmpID) AS n, SUM(E.EmpID) AS s "
            "FROM Employee E WHERE E.DeptID = 99"
        )
        assert result.cardinality == 1
        assert result.rows[0][0] == 0
        assert is_null(result.rows[0][1])

    def test_join_without_group(self, session):
        result = session.query(
            "SELECT E.LastName, D.Name FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID"
        )
        assert result.cardinality == 3


class TestParamsAndErrors:
    def test_host_variable(self, session):
        result = session.query(
            "SELECT E.LastName FROM Employee E WHERE E.DeptID = :dept",
            params={"dept": 1},
        )
        assert result.cardinality == 2

    def test_execute_rejects_select(self, session):
        with pytest.raises(ParseError):
            session.execute("SELECT E.EmpID FROM Employee E")

    def test_query_rejects_ddl(self, session):
        with pytest.raises(ParseError):
            session.query("CREATE TABLE X (a INTEGER)")

    def test_binding_error_propagates(self, session):
        with pytest.raises(BindingError):
            session.query("SELECT E.Nope FROM Employee E")


class TestViewQueries:
    def test_aggregated_view_query_runs(self, session):
        session.execute(
            "CREATE VIEW DeptCount (DeptID, n) AS "
            "SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID"
        )
        result = session.query(
            "SELECT D.DeptID, D.Name, V.n FROM DeptCount V, Department D "
            "WHERE V.DeptID = D.DeptID"
        )
        rows = {row[0]: row[2] for row in result.rows}
        assert rows == {1: 2, 2: 1}

    def test_view_query_strategy_reported(self, session):
        session.execute(
            "CREATE VIEW DeptCount (DeptID, n) AS "
            "SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID"
        )
        report = session.report(
            "SELECT D.DeptID, D.Name, V.n FROM DeptCount V, Department D "
            "WHERE V.DeptID = D.DeptID"
        )
        # Either order is legal here; the report must expose the decision.
        assert report.strategy in ("eager", "standard")
        assert report.choice.decision.valid


def test_query_report_annotations_resolve():
    # Every name QueryReport's annotations use must be importable from
    # session.py (a missing ``Tuple`` import once made this raise).
    import typing

    from repro.session import QueryReport

    hints = typing.get_type_hints(QueryReport)
    assert hints["rewrites"] is typing.Tuple
