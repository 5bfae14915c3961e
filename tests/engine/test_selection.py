"""``compile_selection``: which filters take a numpy mask, and what they keep.

A comparison over null-free int64 / float64 array views and numeric
constants, and AND / OR / NOT over such comparisons, select through one
boolean mask (a numpy index array comes back); every other predicate, and
every predicate without numpy, takes the truth-code closure (a list comes
back) — with the same rows, and the closure's errors.  On the vector
engine a warm ``star_sql`` round compares no value in Python.
"""

from __future__ import annotations

import sys
from decimal import Decimal

import pytest

import repro.engine.vector.compile as compile_module
from repro.engine.vector.batch import ColumnBatch, _np
from repro.engine.vector.compile import compile_selection
from repro.errors import ExecutionError, TypeMismatchError
from repro.expressions.ast import HostVariable, InList
from repro.expressions.builder import and_, col, eq, gt, lit, lt, not_, or_
from repro.sqltypes import values
from repro.sqltypes.values import NULL

NAMES = ("T.i", "T.f", "T.n", "T.s")
COLUMNS = [
    [3, 7, -2, 9, 7],  # int64
    [0.5, -0.0, 7.0, 2.5, 9.5],  # float64, no NaN
    [3, NULL, 8, 1, 7],  # NULL-bearing
    ["a", "b", "c", "d", "e"],
]


def batch() -> ColumnBatch:
    return ColumnBatch(NAMES, [list(column) for column in COLUMNS])


def closure_rows(predicate, params=None):
    """The truth-code closure's rows, whatever numpy is there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compile_module, "_np", None)
        rows = compile_selection(predicate, NAMES)(batch(), params)
    assert isinstance(rows, list)
    return rows


MASKED = [
    gt(col("T.i"), lit(5)),
    lt(lit(5), col("T.i")),
    eq(col("T.i"), col("T.i")),
    gt(col("T.f"), lit(2)),
    lt(col("T.f"), lit(7.0)),
    eq(col("T.f"), lit(0)),  # -0.0 = 0
    and_(gt(col("T.i"), lit(0)), not_(lt(col("T.f"), lit(1.0)))),
    or_(eq(col("T.i"), lit(-2)), gt(col("T.f"), lit(9))),
    gt(col("T.i"), HostVariable("k")),
]
REFUSED = [
    gt(col("T.n"), lit(5)),  # a NULL in the column
    gt(col("T.i"), lit(5.5)),  # int64 against a float
    gt(col("T.f"), lit(2 ** 53 + 1)),  # an int float64 would round
    gt(col("T.i"), lit(2 ** 63)),  # past int64
    eq(col("T.i"), lit(Decimal("7"))),
    eq(col("T.i"), col("T.f")),  # int64 against float64
    and_(gt(col("T.i"), lit(0)), gt(col("T.n"), lit(0))),  # one child refuses
    InList(col("T.i"), (lit(7), lit(9))),
]


@pytest.mark.parametrize("predicate", MASKED, ids=str)
def test_a_null_free_numeric_predicate_selects_through_a_mask(predicate):
    rows = compile_selection(predicate, NAMES)(batch(), {"k": 6})
    if _np is None:
        assert isinstance(rows, list)
    else:
        assert isinstance(rows, _np.ndarray)
    assert [int(i) for i in rows] == closure_rows(predicate, {"k": 6})


@pytest.mark.parametrize("predicate", REFUSED, ids=str)
def test_any_other_predicate_takes_the_truth_codes(predicate):
    rows = compile_selection(predicate, NAMES)(batch(), None)
    assert isinstance(rows, list)
    assert rows == closure_rows(predicate)


def test_a_nan_in_the_column_or_the_constant_takes_the_truth_codes():
    nan = float("nan")
    data = ColumnBatch(("T.f",), [[1.0, nan, 3.0]])
    for predicate in (gt(col("T.f"), lit(2.0)), lt(col("T.f"), lit(2.0))):
        rows = compile_selection(predicate, ("T.f",))(data, None)
        assert isinstance(rows, list)
    # NaN sorts above every number, as sort_key orders it.
    assert compile_selection(gt(col("T.f"), lit(2.0)), ("T.f",))(data, None) == [1, 2]
    clean = ColumnBatch(("T.f",), [[1.0, 3.0]])
    assert compile_selection(lt(col("T.f"), lit(nan)), ("T.f",))(clean, None) == [0, 1]


def test_a_type_error_still_raises():
    with pytest.raises(TypeMismatchError):
        compile_selection(gt(col("T.i"), lit("abc")), NAMES)(batch(), None)
    with pytest.raises(ExecutionError, match="unbound host variable"):
        compile_selection(gt(col("T.i"), HostVariable("k")), NAMES)(batch(), None)


def count_comparisons(run):
    """Calls of every ``sql_compare_*`` during ``run()``, however bound."""
    codes = {
        getattr(values, name).__code__
        for name in dir(values)
        if name.startswith("sql_compare_")
    }
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.skipif(_np is None, reason="without numpy every filter takes the closure")
def test_a_warm_star_sql_round_compares_no_value_in_python():
    """``S.Qty > 5`` per row and the HAVING's ``COUNT(S.SaleID) > 4`` per
    group both select through a mask."""
    from bench.workloads import star_sql

    context = star_sql.StarSql().setup(seed=1, sizes=star_sql.FULL)

    def round_():
        for __, sql in context.statements:
            context.session.report(sql)

    assert count_comparisons(round_) == []
    # The closure, forced, does compare: the count above is not vacuous.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compile_module, "_np", None)
        assert count_comparisons(round_)
