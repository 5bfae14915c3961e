"""The grouped fold's fast paths, held by counts, and its signed zeros.

The materialized kernel and the morsel stage once spelled the fold
separately, and each spelling owned the fast half the other lacked: the
kernel factorised a join's dimension-side keys through their shared
selection vector but fed MIN/MAX row by row; the stage reduced MIN/MAX in
numpy but called ``group_key`` once per joined row.  There is one fold now
(:mod:`repro.engine.vector.grouping`); these tests count calls — not
clocks — on the benchmark's shape so the halves cannot drift apart again.
"""

from __future__ import annotations

import pytest

import repro.engine.vector.grouping as grouping
from repro.algebra.ops import AggregateSpec, GroupApply, Join, Relation
from repro.catalog import Column, Database, TableSchema
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.vector.batch import _np
from repro.expressions.builder import avg, col, eq, max_, min_, sum_
from repro.sqltypes import CHAR, FLOAT, INTEGER
from repro.sqltypes.values import NULL

FACTS, DIMENSIONS = 5000, 50


def star(null_at=None) -> Database:
    database = Database("star")
    database.create_table(
        TableSchema("C", [Column("id", INTEGER), Column("name", CHAR(12))])
    )
    database.create_table(
        TableSchema(
            "S", [Column("cust", INTEGER), Column("amount", INTEGER, nullable=True)]
        )
    )
    for i in range(DIMENSIONS):
        database.insert("C", [i, f"customer-{i}"])
    for i in range(FACTS):
        amount = NULL if i == null_at else (i * 37) % 1009 - 300
        database.insert("S", [(i * 7) % DIMENSIONS, amount])
    return database


def report() -> GroupApply:
    joined = Join(Relation("S", "S"), Relation("C", "C"), eq(col("S.cust"), col("C.id")))
    return GroupApply(
        joined,
        ["C.id", "C.name"],
        [
            AggregateSpec("total", sum_("S.amount")),
            AggregateSpec("lo", min_("S.amount")),
            AggregateSpec("hi", max_("S.amount")),
        ],
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``group_key`` calls made by the fold, and of batches an
    accumulator folded row by row."""
    counts = {"group_key": 0, "fold_rows": 0}
    real_key, real_fold = grouping.group_key, grouping._Accumulator._fold_rows

    def counting_key(values):
        counts["group_key"] += 1
        return real_key(values)

    def counting_fold(self, pairs):
        counts["fold_rows"] += 1
        return real_fold(self, pairs)

    monkeypatch.setattr(grouping, "group_key", counting_key)
    monkeypatch.setattr(grouping._Accumulator, "_fold_rows", counting_fold)
    return counts


MORSELS = pytest.mark.parametrize("morsel_size", [None, 4, 1024])
WORKERS = pytest.mark.parametrize("workers", [1, 2])


@pytest.mark.skipif(_np is None, reason="counts the numpy paths")
@MORSELS
@WORKERS
def test_bench_shape_takes_both_fast_halves(calls, morsel_size, workers):
    database = star()
    expected, __ = execute(database, report(), ExecutorConfig(engine="row"))
    result, stats = execute(
        database, report(),
        ExecutorConfig(engine="vector", morsel_size=morsel_size, workers=workers),
    )
    assert result.equals_multiset(expected)
    assert stats.degradations == 0
    morsels = max(1, stats.pipelines.morsels) if morsel_size else 1
    # Never once per joined row: at most the dimension side factorised and
    # its groups looked up, per morsel.  (Forked workers count in their own
    # address space; the parent still does every merge's lookups.)
    assert calls["group_key"] <= 2 * DIMENSIONS * morsels
    if morsel_size != 4:  # a morsel of four rows has nothing to share
        assert calls["group_key"] < FACTS // 10
    assert calls["fold_rows"] == 0


@pytest.mark.skipif(_np is None, reason="counts the numpy paths")
@MORSELS
@WORKERS
def test_a_null_fails_the_gate_closed(calls, morsel_size, workers):
    database = star(null_at=FACTS // 2)
    expected, __ = execute(database, report(), ExecutorConfig(engine="row"))
    result, __ = execute(
        database, report(),
        ExecutorConfig(engine="vector", morsel_size=morsel_size, workers=workers),
    )
    assert result.equals_multiset(expected)
    if workers == 1 or morsel_size is None:  # else the workers fold, forked
        assert calls["fold_rows"] > 0


def signed_zero_rows(morsel_size=None, workers=1, engine="vector"):
    """GROUP BY k over ±0.0: group 0 ties ``0.0`` with ``-0.0`` (MIN/MAX
    keep the first), group 1 holds only ``-0.0`` (SUM/AVG keep the sign)."""
    database = Database("zeros")
    database.create_table(TableSchema("T", [Column("k", INTEGER), Column("v", FLOAT)]))
    for i in range(12):
        database.insert("T", [0, -0.0 if i % 2 else 0.0])
        database.insert("T", [1, -0.0])
    plan = GroupApply(
        Relation("T", "T"),
        ["T.k"],
        [
            AggregateSpec("lo", min_("T.v")),
            AggregateSpec("hi", max_("T.v")),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("a", avg("T.v")),
        ],
    )
    result, __ = execute(
        database, plan,
        ExecutorConfig(engine=engine, morsel_size=morsel_size, workers=workers),
    )
    return sorted(repr(row) for row in result.rows)


def test_signed_zero_reads_the_same_on_every_path():
    """``-0.0 =ⁿ 0.0``, so no matrix sees it — ``repr`` and the CLI do."""
    expected = signed_zero_rows(engine="row")
    assert expected == ["(0, 0.0, 0.0, 0.0, 0.0)", "(1, -0.0, -0.0, -0.0, -0.0)"]
    assert signed_zero_rows(morsel_size=None) == expected
    assert signed_zero_rows(morsel_size=4) == expected
    assert signed_zero_rows(morsel_size=4, workers=2) == expected


#: Run with numpy blocked in a fresh interpreter that imports only
#: ``repro`` and the harness (blocking it in-process breaks hypothesis): no
#: CI job and no other test runs this configuration.  The signed-zero plan is the one
#: above; the split case feeds one fold whole, batch by batch, and as
#: merged exports, over keys and values no numpy path would have taken.
PURE_PYTHON = """
import sys
sys.modules["numpy"] = None

from repro.algebra.ops import AggregateSpec, GroupApply, Relation
from repro.catalog import Column, Database, TableSchema
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.vector.batch import ColumnBatch, _np
from repro.engine.vector.grouping import GroupedFold
from repro.expressions.builder import avg, count_star, max_, min_, sum_
from repro.sqltypes import FLOAT, INTEGER
from repro.sqltypes.values import NULL
from tests.engine.differential import failures, run_differential

assert _np is None

results = run_differential(quick=True)
assert len(results) == 78 and not failures(results), failures(results)

def zeros(engine="vector", **config):
    database = Database("zeros")
    database.create_table(TableSchema("T", [Column("k", INTEGER), Column("v", FLOAT)]))
    for i in range(12):
        database.insert("T", [0, -0.0 if i % 2 else 0.0])
        database.insert("T", [1, -0.0])
    specs = [AggregateSpec("lo", min_("T.v")), AggregateSpec("hi", max_("T.v")),
             AggregateSpec("s", sum_("T.v")), AggregateSpec("a", avg("T.v"))]
    plan = GroupApply(Relation("T", "T"), ["T.k"], specs)
    result, __ = execute(database, plan, ExecutorConfig(engine=engine, **config))
    return sorted(repr(row) for row in result.rows)

expected = zeros("row")
assert expected == ["(0, 0.0, 0.0, 0.0, 0.0)", "(1, -0.0, -0.0, -0.0, -0.0)"]
assert zeros(morsel_size=None) == zeros(morsel_size=4) == expected
assert zeros(morsel_size=4, workers=2) == expected

rows = [(k, v) for k, v in zip(
    [1, NULL, 1.0, True, "a", NULL, 2, 1] * 3,
    [3, 2 ** 60, NULL, 7, -2 ** 60, 1, 5, NULL, 4, 9, 2, 8] * 2,
)]
specs = [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("v")),
         AggregateSpec("a", avg("v")), AggregateSpec("lo", min_("v")),
         AggregateSpec("hi", max_("v"))]
batch = lambda part: ColumnBatch.from_rows(("k", "v"), part)
fold = lambda: GroupedFold(batch([]), ("k",), specs, None)
answer = lambda done: [repr(row) for row in done.finish().iter_rows()]
whole, split, merged = fold(), fold(), fold()
whole.feed(batch(rows))
for start in range(0, len(rows), 5):
    split.feed(batch(rows[start:start + 5]))
    part = fold()
    part.feed(batch(rows[start:start + 5]))
    merged.merge(part.export())
assert answer(whole) == answer(split) == answer(merged)
assert len(whole.index) == 5 and not whole.order_sensitive
print("pure-python ok")
"""


def test_the_pure_python_fold_holds_without_numpy():
    import os
    import subprocess
    import sys

    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    harness_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", PURE_PYTHON],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((source_root, harness_root))},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "pure-python ok"
