"""Property: the exact-census gate of ``DataSet.equals_multiset`` is ``=ⁿ``.

When every value on both sides is an exact ``int``, ``str`` or NULL,
``equals_multiset`` counts the raw rows; otherwise it counts
``group_key`` tuples.  Over a zoo that holds every value raw equality gets
wrong — NULL, ±0.0, fresh and shared float and ``Decimal`` NaN, ``1`` /
``1.0`` / ``Decimal("1.00")`` / ``True`` / ``False`` — plus int64's two
ends and strings, it must agree with counting ``group_key`` tuples on
both sides, on permuted, duplicated and altered rows alike, and on rows
whose values were swapped for a sibling ``==`` confuses them with.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import repro.engine.dataset as dataset_module
from repro.engine.dataset import DataSet
from repro.sqltypes.values import NULL, group_key

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1
SHARED_NAN = float("nan")
SHARED_DECIMAL_NAN = Decimal("NaN")

PLAIN = st.sampled_from([NULL, 0, 1, 2, INT64_MIN, INT64_MAX, "", "a", "1"])
ZOO = st.one_of(
    PLAIN,
    st.sampled_from(
        [0.0, -0.0, 1.0, Decimal("1.00"), True, False, SHARED_NAN, SHARED_DECIMAL_NAN]
    ),
    st.builds(lambda: float("nan")),
    st.builds(lambda: Decimal("NaN")),
)
ARITY = 2
#: Values Python's ``==`` equates across types, each with its siblings.
ONES = [1, 1.0, Decimal("1.00"), True]
ZEROS = [0, 0.0, -0.0, Decimal("0"), False]
NANS = [SHARED_NAN, SHARED_DECIMAL_NAN]


def twin(value, draw):
    """A value ``==`` (or, for NaN, ``=ⁿ``) may confuse with ``value``,
    drawn from its siblings of other types; else ``value`` itself."""
    if isinstance(value, str) or value is NULL:
        return value
    if value != value:
        return draw(st.sampled_from(NANS + [float("nan"), Decimal("NaN")]))
    if value == 1:
        return draw(st.sampled_from(ONES))
    if value == 0:
        return draw(st.sampled_from(ZEROS))
    return value


def rows_of(values):
    return st.lists(st.tuples(*[values] * ARITY), max_size=8)


def by_group_key(rows) -> Counter:
    return Counter(group_key(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), values=st.sampled_from([PLAIN, ZOO]))
def test_equals_multiset_is_counting_group_keys(data, values):
    left = data.draw(rows_of(values))
    right = list(data.draw(st.permutations(left)))
    edit = data.draw(st.sampled_from(["same", "duplicate", "alter", "twin", "fresh"]))
    if edit == "duplicate" and right:
        right.append(data.draw(st.sampled_from(right)))
    elif edit == "alter" and right:
        at = data.draw(st.integers(0, len(right) - 1))
        right[at] = (data.draw(values),) + right[at][1:]
    elif edit == "twin":
        right = [tuple(twin(value, data.draw) for value in row) for row in right]
    elif edit == "fresh":
        right = data.draw(rows_of(values))
    columns = [f"T.c{i}" for i in range(ARITY)]
    expected = by_group_key(left) == by_group_key(right)
    assert DataSet(columns, left).equals_multiset(DataSet(columns, right)) == expected
    assert DataSet(columns, right).equals_multiset(DataSet(columns, left)) == expected


def _counted(left, right):
    calls = []

    def counting(values):
        calls.append(values)
        return group_key(values)

    with patch.object(dataset_module, "group_key", counting):
        equal = DataSet(["a", "b"], left).equals_multiset(DataSet(["a", "b"], right))
    return equal, len(calls)


def test_int_str_and_null_rows_never_reach_group_key():
    rows = [(1, "x"), (NULL, "y"), (1, "x"), (INT64_MAX, NULL)]
    assert _counted(rows, rows[::-1]) == (True, 0)
    assert _counted(rows, rows[:3] + [(INT64_MAX, "z")]) == (False, 0)
    assert _counted(rows, rows[:3] + [(INT64_MAX, "NULL")]) == (False, 0)


def test_any_other_value_takes_group_key():
    assert _counted([(True, "x")], [(1, "x")]) == (False, 2)
    assert _counted([(float("nan"), "x")], [(float("nan"), "x")]) == (True, 2)
    assert _counted([(1, "x")], [(Decimal("1.00"), "x")]) == (True, 2)
