"""The Main Theorem, live: watch FD1/FD2 and E1 ≡ E2 move together.

Builds three tiny instances — one where both FDs hold, one violating FD2
(duplicate R2 rows), one violating FD1 (grouping column that doesn't
determine the join column) — and prints, for each, the FD verdicts, both
results, and the paper notation of both expressions.

Run:  python examples/theorem_playground.py
"""

from repro.algebra.notation import to_paper_notation
from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.expressions.builder import col, eq, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import verdict
from repro.sqltypes import INTEGER, VARCHAR


def make_db(a_rows, b_rows, b_keyed):
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [Column("k", INTEGER), Column("name", VARCHAR(5))],
            [PrimaryKeyConstraint(["k"])] if b_keyed else [],
        )
    )
    db.create_table(TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)]))
    for row in a_rows:
        db.insert("A", row)
    for row in b_rows:
        db.insert("B", row)
    return db


def query(ga2):
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.k"), col("B.k")),
        ga1=(),
        ga2=ga2,
        aggregates=[AggregateSpec("s", sum_("A.v"))],
    )


SCENARIOS = [
    (
        "both FDs hold (B keyed, grouped on its key)",
        make_db([(1, 10), (2, 20), (2, 25)], [(1, "x"), (2, "y")], b_keyed=True),
        query(("B.k", "B.name")),
    ),
    (
        "FD2 violated (duplicate B rows: same key value twice)",
        make_db([(1, 10)], [(1, "x"), (1, "y")], b_keyed=False),
        query(("B.k",)),
    ),
    (
        "FD1 violated (grouped on B.name, which doesn't determine the key)",
        make_db([(1, 10), (2, 20)], [(1, "x"), (2, "x")], b_keyed=True),
        query(("B.name",)),
    ),
]


def main() -> None:
    sample = SCENARIOS[0][2]
    print("E1 (standard):", to_paper_notation(build_standard_plan(sample)))
    print("E2 (eager):   ", to_paper_notation(build_eager_plan(sample)))
    print()

    for title, db, q in SCENARIOS:
        v = verdict(db, q)
        print(f"--- {title} ---")
        print(f"FD1: {v.fd1}   FD2: {v.fd2}   E1 == E2: {v.equivalent}")
        print(f"E1 rows: {v.e1_result.sorted_rows()}")
        print(f"E2 rows: {v.e2_result.sorted_rows()}")
        agreement = v.equivalent == (v.fd1 and v.fd2)
        print(f"Main Theorem biconditional holds here: {agreement}")
        print()


if __name__ == "__main__":
    main()
