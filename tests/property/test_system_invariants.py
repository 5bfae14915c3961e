"""System-level property tests: ordering, dump round-trips, aggregates.

These complement the theorem properties with invariants a downstream user
relies on: ORDER BY never changes *what* is returned, dump/load is a
faithful round-trip, and every aggregate function survives the eager
rewrite when the FDs hold.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.engine.dataset import DataSet
from repro.engine.sorting import sort_dataset
from repro.expressions.builder import avg, col, count, eq, max_, min_, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both, fd1_holds, fd2_holds
from repro.parser.dump import dump_database, load_database
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL, NullsFirstKey

nullable_int = st.one_of(st.just(NULL), st.integers(min_value=-3, max_value=3))
rows_2col = st.lists(st.tuples(nullable_int, nullable_int), max_size=12)


class TestSortingInvariants:
    @given(rows=rows_2col)
    @settings(max_examples=150, deadline=None)
    def test_sort_preserves_multiset(self, rows):
        ds = DataSet(("a", "b"), rows)
        ordered, __ = sort_dataset(ds, ["a", "b"])
        assert ordered.equals_multiset(ds)

    @given(rows=rows_2col)
    @settings(max_examples=150, deadline=None)
    def test_sort_produces_nondecreasing_keys(self, rows):
        ds = DataSet(("a", "b"), rows)
        ordered, __ = sort_dataset(ds, ["a"])
        keys = [NullsFirstKey(row[0]) for row in ordered.rows]
        assert all(not keys[i + 1] < keys[i] for i in range(len(keys) - 1))

    @given(rows=rows_2col)
    @settings(max_examples=100, deadline=None)
    def test_descending_reverses_relative_order(self, rows):
        ds = DataSet(("a", "b"), rows)
        ascending, __ = sort_dataset(ds, ["a"])
        descending, __ = sort_dataset(ds, ["a"], [True])
        asc_keys = [NullsFirstKey(row[0]) for row in ascending.rows]
        desc_keys = [NullsFirstKey(row[0]) for row in descending.rows]
        assert asc_keys == list(reversed(desc_keys))


class TestDumpRoundTripProperty:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.one_of(
                    st.just(NULL),
                    st.text(
                        alphabet=st.characters(
                            whitelist_categories=("Lu", "Ll", "Nd"),
                            whitelist_characters=" '",
                        ),
                        max_size=8,
                    ),
                ),
            ),
            max_size=10,
            unique_by=lambda row: row[0],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_dump_load_preserves_contents(self, rows):
        db = Database()
        db.create_table(
            TableSchema(
                "T",
                [Column("id", INTEGER), Column("s", VARCHAR(8))],
                [PrimaryKeyConstraint(["id"])],
            )
        )
        for row in rows:
            db.insert("T", row)
        restored = load_database(dump_database(db))
        original = DataSet(("id", "s"), [r.values for r in db.table("T")])
        loaded = DataSet(("id", "s"), [r.values for r in restored.table("T")])
        assert original.equals_multiset(loaded)


AGGREGATE_BUILDERS = {
    "sum": lambda: sum_("A.v"),
    "count": lambda: count("A.v"),
    "count_distinct": lambda: count("A.v", distinct=True),
    "avg": lambda: avg("A.v"),
    "min": lambda: min_("A.v"),
    "max": lambda: max_("A.v"),
}


class TestAllAggregatesSurviveEagerRewrite:
    @given(
        a=st.lists(st.tuples(nullable_int, nullable_int), max_size=10),
        b_ks=st.lists(st.integers(min_value=0, max_value=3), max_size=4, unique=True),
        agg=st.sampled_from(sorted(AGGREGATE_BUILDERS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregate_preserved(self, a, b_ks, agg):
        db = Database()
        db.create_table(
            TableSchema(
                "B",
                [Column("k", INTEGER), Column("name", VARCHAR(5))],
                [PrimaryKeyConstraint(["k"])],
            )
        )
        db.create_table(
            TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)])
        )
        for row in a:
            db.insert("A", row)
        for k in b_ks:
            db.insert("B", [k, f"n{k}"])
        query = GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=(),
            ga2=("B.k", "B.name"),
            aggregates=[AggregateSpec("agg", AGGREGATE_BUILDERS[agg]())],
        )
        assert fd1_holds(db, query) and fd2_holds(db, query)  # keyed B
        e1, e2 = evaluate_both(db, query)
        assert e1.equals_multiset(e2), (
            f"{agg} broke the rewrite:\nA={a}\nB keys={b_ks}\n"
            f"E1={e1.sorted_rows()}\nE2={e2.sorted_rows()}"
        )
