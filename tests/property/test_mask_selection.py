"""Property: a predicate's numpy mask selects what its truth codes select.

``compile_selection`` answers ``⌊P⌋`` through one boolean mask when every
operand of every comparison is a null-free int64 / float64 array view or a
non-bool ``int`` / ``float``, and through ``compile_predicate``'s truth
codes otherwise.  Over a zoo that holds every value the mask gate must
refuse or treat with care — int64's two ends, ``2⁵³ ± 1`` (where float64
rounds), ints past int64, ±0.0, ±inf, NaN, NULL, BOOLEAN, ``Decimal`` and
strings — with a column against a literal on either side, a column against
a column, a host variable bound or not, and nested AND / OR / NOT, both
must give the same rows, or raise the same error.
"""

from __future__ import annotations

from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.compile import (
    TRUE_CODE,
    compile_predicate,
    compile_selection,
)
from repro.expressions.ast import (
    And,
    ColumnRef,
    Comparison,
    HostVariable,
    Literal,
    Not,
    Or,
)
from repro.sqltypes.values import NULL

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1
EXACT = 2 ** 53

INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [INT64_MIN, INT64_MAX, EXACT - 1, EXACT, EXACT + 1, -EXACT - 1, 2 ** 63]
    ),
)
FLOATS = st.one_of(
    st.floats(-3, 3, allow_nan=False),
    st.sampled_from(
        [0.0, -0.0, float(EXACT), float(EXACT) + 2, float("inf"), -float("inf"),
         float("nan")]
    ),
)
OTHERS = st.sampled_from(
    [NULL, True, False, Decimal("1.5"), Decimal("NaN"), "abc", ""]
)
ZOO = st.one_of(INTS, FLOATS, OTHERS)
NAMES = ("T.a", "T.b")
OPS = ("=", "<>", "<", "<=", ">", ">=")

OPERANDS = st.one_of(
    st.sampled_from([ColumnRef("T", "a"), ColumnRef("T", "b"), HostVariable("h")]),
    ZOO.map(Literal),
)
COMPARISONS = st.builds(Comparison, st.sampled_from(OPS), OPERANDS, OPERANDS)
PREDICATES = st.recursive(
    COMPARISONS,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)


@st.composite
def columns(draw):
    """Two columns of one length: each all ints, all floats, or mixed."""
    n = draw(st.integers(0, 6))
    return [
        draw(st.lists(draw(st.sampled_from([INTS, FLOATS, ZOO])), min_size=n, max_size=n))
        for __ in NAMES
    ]


def outcome(select):
    try:
        return "rows", [int(i) for i in select()]
    except Exception as error:  # the same error, or the same rows
        return "error", type(error), str(error)


@settings(max_examples=400, deadline=None)
@given(
    columns(),
    PREDICATES,
    st.one_of(st.none(), ZOO.map(lambda value: {"h": value})),
)
def test_the_mask_selects_what_the_truth_codes_select(data, predicate, params):
    def by_codes():
        batch = ColumnBatch(NAMES, data)
        codes = compile_predicate(predicate, NAMES)(batch, params)
        return [i for i, code in enumerate(codes) if code == TRUE_CODE]

    def by_selection():
        return compile_selection(predicate, NAMES)(ColumnBatch(NAMES, data), params)

    assert outcome(by_selection) == outcome(by_codes)
