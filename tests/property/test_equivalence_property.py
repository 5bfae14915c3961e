"""Property-based verification of the Main Theorem and TestFD soundness.

Two properties, over randomized instances and query shapes:

1. **Main Theorem biconditional (per instance).**  For the exact Theorem-1
   query form (SGA = GA, ALL projection), on every instance:
   ``E1 ≡ E2  ⟺  FD1 ∧ FD2 hold in the join result``.  Sufficiency is
   Lemma 6; necessity follows because the Lemma 2/3 constructions are
   instance-wise (a violating pair on *this* instance already splits the
   results on *this* instance).

2. **TestFD soundness (end-to-end).**  Whenever TestFD answers YES from
   keys + equalities alone, the two plans agree on every randomly
   generated valid instance.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import test_fd
from repro.expressions.builder import and_, col, count, count_star, eq, lit, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import verdict
from repro.main_theorem import evaluate_both
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL

# -- strategies -----------------------------------------------------------

small_int = st.integers(min_value=0, max_value=3)
nullable_int = st.one_of(st.just(NULL), small_int)
small_name = st.sampled_from(["x", "y", NULL])

a_rows = st.lists(st.tuples(nullable_int, nullable_int), max_size=8)
b_rows = st.lists(st.tuples(nullable_int, small_name), max_size=5)

ga1_choice = st.sampled_from([(), ("A.k",)])
ga2_choice = st.sampled_from([("B.k",), ("B.name",), ("B.k", "B.name")])
where_choice = st.sampled_from(["join", "join+const", "cartesian"])
agg_choice = st.sampled_from(["sum", "count", "count_star"])


def build_db(a, b, b_key=False):
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [Column("k", INTEGER), Column("name", VARCHAR(5))],
            [PrimaryKeyConstraint(["k"])] if b_key else [],
        )
    )
    db.create_table(TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)]))
    for row in a:
        db.insert("A", row)
    for row in b:
        db.insert("B", row)
    return db


def build_query(ga1, ga2, where_kind, agg_kind):
    if where_kind == "join":
        where = eq(col("A.k"), col("B.k"))
    elif where_kind == "join+const":
        where = and_(eq(col("A.k"), col("B.k")), eq(col("A.v"), lit(1)))
    else:
        where = None
    aggregates = {
        "sum": AggregateSpec("agg", sum_("A.v")),
        "count": AggregateSpec("agg", count("A.k")),
        "count_star": AggregateSpec("agg", count_star()),
    }[agg_kind]
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=where,
        ga1=ga1,
        ga2=ga2,
        aggregates=[aggregates],
    )


class TestMainTheoremBiconditional:
    @given(
        a=a_rows,
        b=b_rows,
        ga1=ga1_choice,
        ga2=ga2_choice,
        where_kind=where_choice,
        agg_kind=agg_choice,
    )
    @settings(max_examples=300, deadline=None)
    def test_equivalence_iff_fds(self, a, b, ga1, ga2, where_kind, agg_kind):
        db = build_db(a, b, b_key=False)
        query = build_query(ga1, ga2, where_kind, agg_kind)
        v = verdict(db, query)
        assert v.equivalent == (v.fd1 and v.fd2), (
            f"Main Theorem violated: fd1={v.fd1} fd2={v.fd2} "
            f"equivalent={v.equivalent}\nA={a}\nB={b}\n"
            f"E1={v.e1_result.sorted_rows()}\nE2={v.e2_result.sorted_rows()}"
        )


class TestTestFDSoundness:
    @given(
        a=a_rows,
        b_ks=st.lists(small_int, max_size=4, unique=True),
        ga1=ga1_choice,
        ga2=ga2_choice,
        where_kind=st.sampled_from(["join", "join+const"]),
        agg_kind=agg_choice,
    )
    @settings(max_examples=200, deadline=None)
    def test_yes_implies_equivalence(self, a, b_ks, ga1, ga2, where_kind, agg_kind):
        """With B.k a primary key, a TestFD YES must be safe on any data."""
        b = [(k, "x" if k % 2 else "y") for k in b_ks]
        db = build_db(a, b, b_key=True)
        query = build_query(ga1, ga2, where_kind, agg_kind)
        result = test_fd(db, query)
        if result.decision:
            e1, e2 = evaluate_both(db, query)
            assert e1.equals_multiset(e2), (
                f"TestFD said YES but plans disagree\nA={a}\nB={b}\n"
                f"query GA1={ga1} GA2={ga2} where={where_kind}\n"
                f"E1={e1.sorted_rows()}\nE2={e2.sorted_rows()}"
            )

    @given(
        a=a_rows,
        b_ks=st.lists(small_int, max_size=4, unique=True),
        agg_kind=agg_choice,
    )
    @settings(max_examples=100, deadline=None)
    def test_known_yes_configuration(self, a, b_ks, agg_kind):
        """The Example-1 shape must always be YES and always agree."""
        b = [(k, "n") for k in b_ks]
        db = build_db(a, b, b_key=True)
        query = build_query((), ("B.k", "B.name"), "join", agg_kind)
        result = test_fd(db, query)
        assert result.decision
        e1, e2 = evaluate_both(db, query)
        assert e1.equals_multiset(e2)
