"""The Main Theorem on concrete instances: both directions, all cases.

Each scenario materializes a small database, checks FD1/FD2 on the real
join result, executes E1 and E2, and compares — exactly the quantities
Theorem 1 relates.
"""

import pytest

from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.expressions.builder import and_, col, count, eq, lit, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import (
    evaluate_both,
    fd1_holds,
    fd2_holds,
    join_result,
    verdict,
)
from repro.sqltypes import INTEGER, VARCHAR


def make_db(a_rows, b_rows, b_key: bool = False):
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [Column("k", INTEGER), Column("name", VARCHAR(10))],
            [PrimaryKeyConstraint(["k"])] if b_key else [],
        )
    )
    db.create_table(
        TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    for row in a_rows:
        db.insert("A", row)
    for row in b_rows:
        db.insert("B", row)
    return db


def query(ga1=(), ga2=("B.k",), where="join", aggregates=None):
    if where == "join":
        where = eq(col("A.k"), col("B.k"))
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=where,
        ga1=ga1,
        ga2=ga2,
        aggregates=aggregates or [AggregateSpec("s", sum_("A.v"))],
    )


class TestSufficiency:
    """FD1 ∧ FD2 on the instance ⇒ E1 = E2 (Lemma 6, instance-wise)."""

    def test_clean_join(self):
        db = make_db([(1, 10), (2, 20), (2, 25)], [(1, "x"), (2, "y")], b_key=True)
        v = verdict(db, query())
        assert v.fd1 and v.fd2 and v.equivalent

    def test_example1_fixture(self, example1_db, example1_query):
        v = verdict(example1_db, example1_query)
        assert v.fds_hold and v.equivalent

    def test_example3_fixture(self, printer_db, example3_query):
        v = verdict(printer_db, example3_query)
        assert v.fds_hold and v.equivalent


class TestFD2Violation:
    """Duplicate R2 rows on (GA1+, GA2): E2 over-produces (Lemma 3)."""

    def test_duplicate_b_rows(self):
        db = make_db([(1, 10)], [(1, "x"), (1, "y")])  # no key on B
        q = query(ga2=("B.k",))
        assert fd1_holds(db, q)
        assert not fd2_holds(db, q)
        e1, e2 = evaluate_both(db, q)
        assert not e1.equals_multiset(e2)
        # The shape of the failure: one E1 row, two E2 rows.
        assert e1.cardinality == 1
        assert e2.cardinality == 2


class TestFD1Violation:
    """Grouping columns that don't determine GA1+: groups split (Lemma 2)."""

    def test_group_by_non_key_name(self):
        db = make_db(
            [(1, 10), (2, 20)],
            [(1, "x"), (2, "x")],  # same name, different k
            b_key=True,
        )
        q = query(ga2=("B.name",))
        assert not fd1_holds(db, q)
        assert fd2_holds(db, q) is False or True  # FD2 may or may not hold
        e1, e2 = evaluate_both(db, q)
        assert not e1.equals_multiset(e2)
        assert e1.cardinality == 1  # one 'x' group
        assert e2.cardinality == 2  # one row per A-side group


class TestDegenerateCase1:
    """GA1+ empty (pure Cartesian, GA1 empty): valid iff GA2 is unique in
    σ[C2]R2 (Main Theorem proof, Case 1)."""

    def cartesian_query(self, ga2=("B.k",)):
        return query(ga1=(), ga2=ga2, where=None)

    def test_unique_ga2_equivalent(self):
        db = make_db([(1, 10), (2, 20)], [(5, "x"), (6, "y")], b_key=True)
        q = self.cartesian_query()
        v = verdict(db, q)
        assert v.fd2 and v.equivalent
        assert v.e1_result.cardinality == 2

    def test_duplicate_ga2_not_equivalent(self):
        db = make_db([(1, 10), (2, 20)], [(5, "x"), (5, "y")])
        q = self.cartesian_query(ga2=("B.k",))
        assert not fd2_holds(db, q)
        e1, e2 = evaluate_both(db, q)
        assert not e1.equals_multiset(e2)
        # E1 groups the two B rows into one; E2 keeps |R2| rows.
        assert e1.cardinality == 1
        assert e2.cardinality == 2


class TestDegenerateCase2:
    """GA2+ empty (GA2 and C0 empty): valid iff σ[C2]R2 has ≤ 1 row."""

    def case2_query(self, c2):
        return GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=c2,
            ga1=("A.k",),
            ga2=(),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        )

    def test_single_r2_row_equivalent(self):
        db = make_db([(1, 10), (1, 15), (2, 20)], [(5, "x"), (6, "y")], b_key=True)
        q = self.case2_query(eq(col("B.k"), lit(5)))
        v = verdict(db, q)
        assert v.fd2 and v.equivalent

    def test_two_r2_rows_not_equivalent(self):
        db = make_db([(1, 10), (2, 20)], [(5, "x"), (6, "x")], b_key=True)
        q = self.case2_query(eq(col("B.name"), lit("x")))
        assert not fd2_holds(db, q)
        e1, e2 = evaluate_both(db, q)
        assert not e1.equals_multiset(e2)
        # E2 duplicates each group once per qualifying R2 row.
        assert e2.cardinality == 2 * e1.cardinality


class TestJoinResultHelper:
    def test_exposes_rowids(self):
        db = make_db([(1, 10)], [(1, "x")], b_key=True)
        joined = join_result(db, query())
        from repro.engine.dataset import rowid_column

        assert rowid_column("B") in joined.columns
        assert joined.cardinality == 1

    def test_without_rowids(self):
        db = make_db([(1, 10)], [(1, "x")], b_key=True)
        joined = join_result(db, query(), expose_rowids=False)
        assert all("#rowid" not in c for c in joined.columns)


class TestNullBehaviour:
    def test_null_join_keys_drop_but_grouping_keeps_nulls(self):
        """A NULL A.k row never joins; a NULL B.name still groups."""
        from repro.sqltypes.values import NULL

        db = make_db(
            [(1, 10), (NULL, 99)],
            [(1, NULL)],
            b_key=True,
        )
        q = query(ga2=("B.k", "B.name"))
        v = verdict(db, q)
        assert v.fds_hold and v.equivalent
        assert v.e1_result.cardinality == 1  # only the k=1 group
