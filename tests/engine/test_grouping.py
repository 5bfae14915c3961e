"""The grouped fold's fast paths, held by counts, and its signed zeros.

The materialized kernel and the morsel stage once spelled the fold
separately, and each spelling owned the fast half the other lacked: the
kernel factorised a join's dimension-side keys through their shared
selection vector but fed MIN/MAX row by row; the stage reduced MIN/MAX in
numpy but called ``group_key`` once per joined row.  There is one fold now
(:mod:`repro.engine.vector.grouping`); these tests count calls — not
clocks — on the benchmark's shape so the halves cannot drift apart again.
The same counts hold what feeds the fold and what reads it: a join on the
dimension's key looks its pairs up instead of expanding them, a composite
key is factorised only where its columns are not dense, and the keys a
group keeps as arrays are not converted again by the join that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro.engine.vector.batch as batch_module
import repro.engine.vector.grouping as grouping
from repro.algebra.ops import AggregateSpec, Apply, Group, GroupApply, Join, Relation, Sort
from repro.catalog import Column, Database, TableSchema
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.vector.batch import ColumnBatch, _np
from repro.engine.vector.grouping import GroupedFold
from repro.expressions.builder import avg, col, count_star, eq, max_, min_, sum_
from repro.sqltypes import CHAR, FLOAT, INTEGER
from repro.sqltypes.datatypes import DataType
from repro.sqltypes.values import NULL

FACTS, DIMENSIONS = 5000, 50


def star(null_at=None, key_type=INTEGER, key=lambda i: i) -> Database:
    """``key`` maps a customer number to the value both tables hold for it."""
    database = Database("star")
    database.create_table(
        TableSchema("C", [Column("id", key_type), Column("name", CHAR(12))])
    )
    database.create_table(
        TableSchema(
            "S", [Column("cust", key_type), Column("amount", INTEGER, nullable=True)]
        )
    )
    for i in range(DIMENSIONS):
        database.insert("C", [key(i), f"customer-{i}"])
    for i in range(FACTS):
        amount = NULL if i == null_at else (i * 37) % 1009 - 300
        database.insert("S", [key((i * 7) % DIMENSIONS), amount])
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
    """Counts of ``group_key`` calls made by the fold, of batches an
    accumulator folded row by row, of binary searches over a join's build
    side, of ``repeat``s expanding a join's matches into pairs, and of
    ``_factorize`` calls."""
    counted = {
        "group_key": (grouping, "group_key"),
        "fold_rows": (grouping._Accumulator, "_fold_rows"),
        "factorize": (grouping, "_factorize"),
    }
    if _np is not None:
        counted.update(searchsorted=(_np, "searchsorted"), repeat=(_np, "repeat"))
    counts = dict.fromkeys(counted, 0)

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name, (owner, attribute) in counted.items():
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
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
    # Plain keys — no NULL, no BOOLEAN — are never wrapped: not per joined
    # row, not per dimension row, not per group looked up.  (Forked workers
    # count in their own address space; the parent still does every
    # merge's lookups.)  Dense integer join keys are addressed, not searched,
    # and a join on the dimension's key looks each pair up: no expansion.
    assert calls["group_key"] == 0
    assert calls["searchsorted"] == 0
    assert calls["fold_rows"] == 0
    assert calls["repeat"] == 0


@pytest.mark.skipif(_np is None, reason="counts the numpy paths")
def test_a_build_side_with_duplicates_expands_with_two_repeats(calls):
    database = star()
    database.insert("C", [7, "twin-7"])
    expected, __ = execute(database, report(), ExecutorConfig(engine="row"))
    result, __ = execute(database, report(), ExecutorConfig(engine="vector"))
    assert result.equals_multiset(expected)
    assert calls["repeat"] == 2


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


#: Join keys the dense gate must refuse, each answered as before: floats
#: (no offsets to take), integers spread over more than the rows they
#: serve — both binary-searched, twice a join, and still looked up, not
#: expanded — and a NaN, which no array comparison handles: that join is
#: the dict probe's.
OLD_PATH_KEYS = {
    "float": (FLOAT, lambda i: i + 0.5, 2),
    "sparse": (INTEGER, lambda i: i * 1000, 2),
    "nan": (FLOAT, lambda i: float("nan") if i == 7 else float(i), 0),
}


@pytest.mark.skipif(_np is None, reason="counts the numpy paths")
@MORSELS
@pytest.mark.parametrize("shape", sorted(OLD_PATH_KEYS))
def test_keys_the_gate_refuses_take_the_search_path(calls, morsel_size, shape):
    key_type, key, searches = OLD_PATH_KEYS[shape]
    database = star(key_type=key_type, key=key)
    expected, __ = execute(database, report(), ExecutorConfig(engine="row"))
    result, stats = execute(
        database, report(), ExecutorConfig(engine="vector", morsel_size=morsel_size)
    )
    assert result.equals_multiset(expected)
    assert stats.degradations == 0
    assert calls["searchsorted"] == searches
    assert calls["repeat"] == 0


# -- the index wraps its keys only from the first NULL or BOOLEAN on -----------


@dataclass(frozen=True)
class AnyType(DataType):
    """Admits every value: one key column can then hold TRUE, 1 and 1.0 —
    which no typed table does, and a fold's merged exports may."""

    def validate(self, value):
        return value

    @property
    def type_name(self) -> str:
        return "ANY"


#: Four keys a morsel.  The first two morsels are plain; the third brings
#: the first NULL, ``1`` / ``1.0`` / ``TRUE`` arrive in morsels 2 / 4 / 5,
#: and every key comes back in the last.
MORSEL = 4
LATE_KEYS = [
    2, 3, 2, 3,
    1, 2, 1, 4,
    3, NULL, 4, NULL,
    1.0, 5, 1.0, 2,
    True, 1, NULL, True,
    1.0, True, 1, NULL,
]
#: First-seen representatives: ``1`` speaks for ``1.0``, TRUE stands alone.
LATE_GROUPS = [2, 3, 1, 4, NULL, 5, True]
#: After each morsel: is the index wrapped, and ``group_key`` calls so far.
LATE_SPENT = [
    (False, 0), (False, 0), (True, 4 + 4 + 3), (True, 11 + 3),
    (True, 14 + 4 + 3), (True, 21 + 4 + 3),
]


def late_fold() -> GroupedFold:
    schema = ColumnBatch.from_rows(("k", "v"), [])
    specs = [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("v"))]
    return GroupedFold(schema, ("k",), specs, None)


def late_morsels():
    rows = [(key, position) for position, key in enumerate(LATE_KEYS)]
    return [
        ColumnBatch.from_rows(("k", "v"), rows[start:start + MORSEL])
        for start in range(0, len(rows), MORSEL)
    ]


def late_answer():
    """The row engine's ``(key, n, s)`` per group, as typed reprs."""
    groups = {}
    for position, key in enumerate(LATE_KEYS):
        groups.setdefault(grouping.group_key((key,)), []).append(position)
    return [
        repr((representative, len(groups[wrapped]), sum(groups[wrapped])))
        for representative, wrapped in zip(LATE_GROUPS, groups)
    ]


def finished(fold: GroupedFold):
    return [repr(row) for row in fold.finish().iter_rows()]


def test_a_late_null_or_boolean_rekeys_the_fed_index_once(calls):
    fold = late_fold()
    spent = []
    for morsel in late_morsels():
        fold.feed(morsel)
        spent.append((fold.index.wrapped, calls["group_key"]))
    # Morsel 1 opens its groups unlooked-up, morsel 2 looks raw keys up.
    # Morsel 3 re-keys the four groups held and wraps its three local
    # groups; from there each morsel wraps its own three local groups only.
    # (``_local_groups`` wraps a morsel's four rows when the morsel itself
    # holds a NULL or a BOOLEAN: morsels 3, 5 and 6.)
    assert spent == LATE_SPENT
    assert finished(fold) == late_answer()


def test_a_late_null_or_boolean_rekeys_the_merged_index_once(calls):
    merged = late_fold()
    spent = []
    for morsel in late_morsels():
        part = late_fold()
        part.feed(morsel)
        merged.merge(part.export())
        spent.append((merged.index.wrapped, calls["group_key"]))
    # As fed, except that a merge looks every export up — the first too.
    assert spent == LATE_SPENT
    assert finished(merged) == late_answer()


@WORKERS
def test_a_late_null_or_boolean_groups_as_the_row_engine_does(workers):
    database = Database("late")
    database.create_table(TableSchema("T", [Column("k", AnyType()), Column("v", INTEGER)]))
    for position, key in enumerate(LATE_KEYS):
        database.insert("T", [key, position])
    plan = GroupApply(
        Relation("T", "T"), ["T.k"],
        [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("T.v"))],
    )
    expected, __ = execute(database, plan, ExecutorConfig(engine="row"))
    result, stats = execute(
        database, plan,
        ExecutorConfig(engine="vector", morsel_size=MORSEL, workers=workers),
    )
    assert stats.degradations == 0 and stats.pipelines.morsels == len(late_morsels())
    assert [repr(row) for row in result.rows] == [repr(row) for row in expected.rows]
    assert [repr(row) for row in result.rows] == late_answer()


# -- a converted source is cached where the source lives -----------------------


@pytest.mark.skipif(_np is None, reason="counts array conversions")
def test_a_taken_column_is_converted_once_per_table_version(monkeypatch):
    """The ``sort_agg`` shape: the sort reads ``F.k`` on the scan batch,
    the fold reads ``F.v`` through the sorted (taken) one."""
    database = Database("fact")
    database.create_table(
        TableSchema("F", [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)])
    )
    for i in range(200):
        database.insert("F", [i, (i * 7) % 10, i % 13])
    plan = lambda: Apply(
        Group(Sort(Relation("F", "F"), ["F.k"]), ["F.k"]),
        [AggregateSpec("s", sum_("F.v"))],
    )
    config = ExecutorConfig(engine="vector", aggregation="sort", exploit_orders=True)
    expected, __ = execute(database, plan(), ExecutorConfig(engine="row", aggregation="sort"))
    converted = []
    real = batch_module._sequence_array

    def counting(sequence):
        if len(sequence) >= 200:  # a table column, not a per-group result
            converted.append(len(sequence))
        return real(sequence)

    monkeypatch.setattr(batch_module, "_sequence_array", counting)
    for __ in range(2):
        result, __ = execute(database, plan(), config)
        assert result.equals_multiset(expected)
    assert converted == [200, 200]  # F.k and F.v, on the first execution only
    database.insert("F", [200, 3, 5])
    execute(database, plan(), config)
    execute(database, plan(), config)
    assert converted == [200, 200, 201, 201]


def fig8(rows: int = 300) -> Database:
    """Figure 8's eager shape: ``A`` grouped on ``(GKey, BRef)`` — ``GKey``
    dense, ``BRef`` spread past the rows (most rows dangle) — then joined
    to ``B`` on ``BRef``."""
    database = Database("fig8")
    database.create_table(
        TableSchema("A", [Column("GKey", INTEGER), Column("BRef", INTEGER), Column("Val", INTEGER)])
    )
    database.create_table(TableSchema("B", [Column("BId", INTEGER)]))
    for i in range(rows):
        database.insert("A", [(i * 7) % 250, i % 10 if i % 6 == 0 else 1000 + i, i % 13])
    for b in range(10):
        database.insert("B", [b])
    return database


def eager_group() -> GroupApply:
    return GroupApply(
        Relation("A", "A"), ["A.GKey", "A.BRef"], [AggregateSpec("s", sum_("A.Val"))]
    )


@pytest.mark.skipif(_np is None, reason="counts the numpy paths")
def test_a_composite_key_is_factorised_once_per_sparse_column_and_once_mixed(calls):
    """``GKey``'s offsets are its digit as they stand; ``BRef`` is
    factorised; the mix is factorised once, and that is the grouping."""
    database = fig8()
    expected, __ = execute(database, eager_group(), ExecutorConfig(engine="row"))
    result, __ = execute(database, eager_group(), ExecutorConfig(engine="vector"))
    assert [repr(row) for row in result.rows] == [repr(row) for row in expected.rows]
    assert calls["factorize"] == 2


@pytest.mark.skipif(_np is None, reason="counts array conversions")
def test_the_join_after_a_group_reads_the_keys_the_group_kept(monkeypatch):
    """The group's representatives come out of the scan's arrays, and those
    arrays, taken at the representatives, are the output's: the join that
    reads ``BRef`` next converts nothing."""
    database = fig8()
    plan = lambda: Join(eager_group(), Relation("B", "B"), eq(col("A.BRef"), col("B.BId")))
    expected, __ = execute(database, plan(), ExecutorConfig(engine="row"))
    execute(database, plan(), ExecutorConfig(engine="vector"))  # the scans convert
    converted = []
    real = batch_module._sequence_array

    def counting(sequence):
        converted.append(len(sequence))
        return real(sequence)

    monkeypatch.setattr(batch_module, "_sequence_array", counting)
    result, __ = execute(database, plan(), ExecutorConfig(engine="vector"))
    assert result.equals_multiset(expected)
    assert converted == []


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
#: other tier-1 test runs this configuration (CI's ``pure-python`` job runs
#: this directory with numpy not installed).  The signed-zero plan is the one
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
