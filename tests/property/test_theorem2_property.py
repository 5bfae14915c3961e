"""Theorem 2, property-based: FD1 ∧ FD2 stay *sufficient* under subset
selection columns and DISTINCT projection.

Theorem 2 relaxes the Main Theorem's exact form (SGA = GA, ALL) to
``d[SGA1, SGA2, FAA]`` with SGA ⊆ GA and d ∈ {ALL, DISTINCT}; the FDs are
then sufficient but no longer necessary.  We verify, over random
instances:

* whenever FD1 ∧ FD2 hold, every (subset, distinct) variant of E1 and E2
  agree — the sufficiency direction;
* non-necessity is witnessed constructively in a deterministic test.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.expressions.builder import col, count, eq, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both, fd1_holds, fd2_holds
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL

small_int = st.integers(min_value=0, max_value=3)
nullable_int = st.one_of(st.just(NULL), small_int)

a_rows = st.lists(st.tuples(nullable_int, nullable_int), max_size=8)
b_rows = st.lists(st.tuples(small_int, st.sampled_from(["x", "y"])), max_size=4)


def build_db(a, b):
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [Column("k", INTEGER), Column("name", VARCHAR(5))],
            [PrimaryKeyConstraint(["k"])],
        )
    )
    db.create_table(TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)]))
    for row in a:
        db.insert("A", row)
    seen = set()
    for k, name in b:
        if k in seen:
            continue
        seen.add(k)
        db.insert("B", [k, name])
    return db


def query_variant(sga2, distinct):
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.k"), col("B.k")),
        ga1=(),
        ga2=("B.k", "B.name"),
        aggregates=[AggregateSpec("agg", sum_("A.v"))],
        sga1=(),
        sga2=sga2,
        distinct=distinct,
    )


VARIANTS = [
    (("B.k", "B.name"), False),
    (("B.k",), False),
    (("B.name",), False),
    ((), False),
    (("B.name",), True),
    ((), True),
]


class TestTheorem2Sufficiency:
    @given(a=a_rows, b=b_rows)
    @settings(max_examples=150, deadline=None)
    def test_all_projection_variants_agree_when_fds_hold(self, a, b):
        db = build_db(a, b)
        base = query_variant(("B.k", "B.name"), False)
        if not (fd1_holds(db, base) and fd2_holds(db, base)):
            return  # Theorem 2 promises nothing here
        for sga2, distinct in VARIANTS:
            query = query_variant(sga2, distinct)
            e1, e2 = evaluate_both(db, query)
            assert e1.equals_multiset(e2), (
                f"Theorem 2 violated for SGA2={sga2} distinct={distinct}\n"
                f"A={a}\nB={b}\n"
                f"E1={e1.sorted_rows()}\nE2={e2.sorted_rows()}"
            )


class TestTheorem2NonNecessity:
    def test_fds_not_necessary_for_distinct_subset(self):
        """A concrete instance where FD2 fails yet the DISTINCT projection
        of E1 and E2 coincide — the conditions are not necessary once the
        projection discards the distinguishing columns."""
        db = Database()
        db.create_table(
            TableSchema("B", [Column("k", INTEGER), Column("name", VARCHAR(5))])
        )
        db.create_table(
            TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)])
        )
        # Two duplicate B rows: FD2 fails (same (GA1+, GA2), different rows).
        db.insert("B", [1, "x"])
        db.insert("B", [1, "x"])
        db.insert("A", [1, 10])
        query = GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=(),
            ga2=("B.k", "B.name"),
            aggregates=[AggregateSpec("agg", sum_("A.v"))],
            sga1=(),
            sga2=("B.name",),
            distinct=True,
        )
        assert not fd2_holds(db, query)
        e1, e2 = evaluate_both(db, query)
        # E1: one group (1, x) -> sum 20; E2: two identical rows collapsed
        # by DISTINCT... but the *aggregate values* differ (20 vs 10), so
        # here they do NOT agree — which is fine: Theorem 2 is silent.
        # The non-necessity witness needs the aggregate column projected
        # away entirely:
        query_no_agg = GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=(),
            ga2=("B.k", "B.name"),
            aggregates=[],  # F empty: one row per group, no aggregate output
            sga1=(),
            sga2=("B.name",),
            distinct=True,
        )
        e1, e2 = evaluate_both(db, query_no_agg)
        assert e1.equals_multiset(e2)
        assert not fd2_holds(db, query_no_agg)
