"""Property: the grouped fold's answer does not depend on chunking.

:class:`repro.engine.vector.grouping.GroupedFold` owes its three callers
one contract (the module docstring spells it out).  For every aggregate
function, with and without DISTINCT, over values chosen to sit on every
gate of the numpy paths:

(i)   feeding the rows as one batch, feeding any split of them batch by
      batch, and merging the exports of the split's contiguous ranges in
      range order all finish to the same values *with the same types*;
(ii)  that answer is the row engine's ``compute_aggregate`` over each
      group's rows — an oracle that shares no code with the fold;
(iii) ``order_sensitive`` is raised exactly when a non-integer value
      reaches a SUM or AVG, the one case in which a caller may not merge.
"""

from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.algebra.ops import AggregateSpec
from repro.engine.aggregation import compute_aggregate
from repro.engine.dataset import DataSet
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.grouping import GroupedFold
from repro.expressions.ast import Aggregate, ColumnRef
from repro.sqltypes.values import NULL, group_key

NAMES = ("k1", "k2", "v")
BIG = 2 ** 53

_ints = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([BIG, BIG + 1, -BIG - 1, 2 ** 63, -(2 ** 63), 2 ** 70]),
    st.booleans(),
)
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float("nan"), 0.1, 1e16, -1e16, 2.5]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
_decimals = st.one_of(
    st.sampled_from([Decimal(1), Decimal("0.1"), Decimal("-2.50")]),
    st.integers(-3, 3),
)
#: ``=ⁿ``-equal, differently typed: only the first seen may survive.
_trio = st.sampled_from([1, 1.0, Decimal(1)])

#: Value families whose members add without a TypeError (Decimal + float
#: raises in Python, in the oracle as in the fold).  The trio mixes both,
#: so it never meets a plain SUM/AVG — DISTINCT folds it to one value.
FAMILIES = {"int": _ints, "float": _floats, "decimal": _decimals, "trio": _trio}
FUNCTIONS = [
    (function, distinct)
    for function in ("COUNT", "SUM", "AVG", "MIN", "MAX")
    for distinct in (False, True)
]

#: Per grouping column: homogeneous numbers (the array strategies), or
#: everything ``=ⁿ`` has an opinion on (raw tuples, per-row ``group_key``).
KEY_PALETTES = [
    [0, 1, 2],
    [0.5, 1.0, -0.0, 0.0],
    ["a", "b", ""],
    [NULL, 0, 1, 1.0, True, "a"],
]


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    value = st.one_of(st.just(NULL), FAMILIES[family])
    key1, key2 = (
        st.sampled_from(draw(st.sampled_from(KEY_PALETTES))) for __ in range(2)
    )
    rows = draw(st.lists(st.tuples(key1, key2, value), min_size=1, max_size=40))
    cuts = sorted(draw(st.sets(st.integers(1, len(rows)), max_size=4)))
    bounds = [0, *cuts, len(rows)]
    return family, rows, list(zip(bounds, bounds[1:]))


def _specs(family):
    specs = [AggregateSpec("star", Aggregate("COUNT", None))]
    for function, distinct in FUNCTIONS:
        if family == "trio" and function in ("SUM", "AVG") and not distinct:
            continue
        specs.append(
            AggregateSpec(
                f"{function}{int(distinct)}",
                Aggregate(function, ColumnRef("", "v"), distinct),
            )
        )
    return specs


def _batch(rows):
    return ColumnBatch.from_rows(NAMES, rows)


def _typed(rows):
    """Rows as ``(type, repr)`` pairs: NaN, the sign of a zero and
    ``1`` / ``1.0`` / ``Decimal(1)`` all stay apart."""
    return [
        tuple((type(value).__name__, repr(value)) for value in row) for row in rows
    ]


def _finish(fold):
    return _typed(fold.finish().iter_rows())


def _fold(specs):
    return GroupedFold(_batch([]), ("k1", "k2"), specs, None)


def _oracle(rows, specs):
    groups = {}
    for row in rows:
        groups.setdefault(group_key(row[:2]), []).append(row)
    dataset = DataSet(NAMES, rows)
    return [
        members[0][:2]
        + tuple(
            compute_aggregate(spec.expression, dataset, members) for spec in specs
        )
        for members in groups.values()
    ]


def _reaches_sum(rows, spec):
    """Does a non-integer value reach this SUM/AVG (after DISTINCT)?"""
    seen = set()
    for k1, k2, value in rows:
        if value is NULL:
            continue
        if spec.expression.distinct:
            key = (group_key((k1, k2)), group_key((value,)))
            if key in seen:
                continue
            seen.add(key)
        if type(value) is not int:
            return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
def test_fold_is_chunking_invariant_and_matches_the_row_oracle(case):
    family, rows, ranges = case
    specs = _specs(family)

    whole = _fold(specs)
    whole.feed(_batch(rows))
    answer = _finish(whole)

    # (ii) the independent oracle, group by group, first-seen order.
    assert answer == _typed(_oracle(rows, specs))

    # (i) any split, fed in order.
    split = _fold(specs)
    for start, stop in ranges:
        split.feed(_batch(rows[start:stop]))
    assert _finish(split) == answer

    # (iii) the flag, per accumulator; COUNT(*) sits in slot 0.
    for acc, spec in zip(whole.accs, specs):
        function = spec.expression.function
        expected = function in ("SUM", "AVG") and _reaches_sum(rows, spec)
        assert acc.order_sensitive == expected, spec.name
    assert split.order_sensitive == whole.order_sensitive

    # (i) export → merge of the contiguous ranges, in range order — unless
    # a partial is order-sensitive, which tells the caller to discard.
    partials = []
    for start, stop in ranges:
        part = _fold(specs)
        part.feed(_batch(rows[start:stop]))
        partials.append(part.export())
    if any(partial["order_sensitive"] for partial in partials):
        return
    merged = _fold(specs)
    for partial in partials:
        merged.merge(partial)
    assert _finish(merged) == answer
