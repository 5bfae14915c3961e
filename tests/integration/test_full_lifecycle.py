"""A full application lifecycle in one scenario.

DDL → load → reports (eager + standard) → updates/deletes → re-query →
dump → restore → identical answers.  The closest thing to a user's whole
day with the library, as one test class with ordered steps.
"""

import pytest

from repro.parser.dump import dump_database, load_database
from repro.session import Session

REPORT = (
    "SELECT C.CustID, C.Name, SUM(O.Amount) AS total, COUNT(O.OrderID) AS n "
    "FROM Orders O, Customer C WHERE O.CustID = C.CustID "
    "GROUP BY C.CustID, C.Name ORDER BY total DESC"
)


@pytest.fixture(scope="class")
def session():
    s = Session()
    s.execute(
        "CREATE TABLE Customer (CustID INTEGER PRIMARY KEY, "
        "Name VARCHAR(30) NOT NULL, Tier VARCHAR(10))"
    )
    s.execute(
        "CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, "
        "CustID INTEGER REFERENCES Customer (CustID), "
        "Amount INTEGER CHECK (Amount > 0))"
    )
    s.execute(
        "INSERT INTO Customer VALUES (1, 'Acme', 'gold'), "
        "(2, 'Globex', 'silver'), (3, 'Initech', NULL)"
    )
    s.execute(
        "INSERT INTO Orders VALUES (1, 1, 100), (2, 1, 250), (3, 2, 80), "
        "(4, 2, 120), (5, 3, 60)"
    )
    return s


class TestLifecycle:
    def test_step1_report_is_transformable_and_correct(self, session):
        report = session.report(REPORT)
        assert report.choice.decision.valid
        totals = {row[0]: row[2] for row in report.result.rows}
        assert totals == {1: 350, 2: 200, 3: 60}
        # ORDER BY total DESC respected.
        assert [row[0] for row in report.result.rows] == [1, 2, 3]

    def test_step2_policies_agree(self, session):
        eager = Session(session.database, policy="always_eager").query(REPORT)
        lazy = Session(session.database, policy="never_eager").query(REPORT)
        assert eager.equals_multiset(lazy)

    def test_step3_update_reflected(self, session):
        session.execute("UPDATE Orders SET Amount = Amount + 10 WHERE CustID = 2")
        totals = {row[0]: row[2] for row in session.query(REPORT).rows}
        assert totals[2] == 220

    def test_step4_delete_with_restrict(self, session):
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            session.execute("DELETE FROM Customer WHERE CustID = 3")
        session.execute("DELETE FROM Orders WHERE CustID = 3")
        session.execute("DELETE FROM Customer WHERE CustID = 3")
        totals = {row[0]: row[2] for row in session.query(REPORT).rows}
        assert set(totals) == {1, 2}

    def test_step5_subquery_and_set_ops(self, session):
        big_spenders = session.query(
            "SELECT C.Name FROM Customer C WHERE C.CustID IN "
            "(SELECT O.CustID FROM Orders O GROUP BY O.CustID "
            "HAVING SUM(O.Amount) > 300)"
        )
        assert [row[0] for row in big_spenders.rows] == ["Acme"]
        union = session.query(
            "SELECT C.Name FROM Customer C WHERE C.Tier = 'gold' "
            "UNION SELECT C.Name FROM Customer C WHERE C.Tier = 'silver'"
        )
        assert union.cardinality == 2

    def test_step6_dump_restore_identical_answers(self, session):
        restored = Session(load_database(dump_database(session.database)))
        assert restored.query(REPORT).equals_multiset(session.query(REPORT))
        # Constraints survive the trip.
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            restored.execute("INSERT INTO Orders VALUES (99, 1, 0)")  # CHECK
        with pytest.raises(ConstraintViolation):
            restored.execute("INSERT INTO Orders VALUES (99, 42, 10)")  # FK
