"""Property: addressing dense integer keys equals searching them.

One gate (:func:`repro.engine.vector.grouping.dense_offsets`) lets three
consumers index a span-sized table by ``key - low`` — the join probe
(``_np_equi_join``), the group factorisation (``_factorize``) and the
single-key sort (``_np_sort_perm``) — and each keeps the search / sort it
had as the gate's ``None`` branch.  That branch is the specification: for
int64 keys with duplicates on both sides, negatives, probes below, above
and between the build keys, values at int64's two ends and spans on either
side of the rule, each consumer returns the same thing — dtype included —
with the gate open and with the gate forced shut, and the join also agrees
with a nested loop that shares no code with either.
"""

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.vector.grouping as grouping
import repro.engine.vector.kernels as kernels
from repro.engine.vector.batch import ColumnBatch, _np

pytestmark = pytest.mark.skipif(_np is None, reason="compares the numpy paths")

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


@contextmanager
def gate(replacement):
    """Swap the gate under both modules that name it."""
    with patch.object(grouping, "dense_offsets", replacement), patch.object(
        kernels, "dense_offsets", replacement
    ):
        yield


def both_ways(consumer):
    """``consumer()`` with the gate as shipped and with it forced to
    ``None``; also whether each consultation of the shipped gate opened."""
    opened = []
    real = grouping.dense_offsets

    def recording(keys, served):
        result = real(keys, served)
        opened.append(result is not None)
        return result

    with gate(recording):
        addressed = consumer()
    with gate(lambda keys, served: None):
        searched = consumer()
    return addressed, searched, opened


def column(values, selection=None):
    """A one-column batch over ``values``; through a selection vector it
    has an array view even when nothing is selected."""
    batch = ColumnBatch.from_rows(("k",), [(value,) for value in values])
    return batch if selection is None else batch.take(selection)


def listed(result):
    """Arrays as ``(dtype, values)`` so equality sees the dtype too."""
    return tuple(
        (str(part.dtype), part.tolist()) if hasattr(part, "dtype") else part
        for part in result
    )


#: Where a key range sits: around zero, negative, far out, and flush with
#: each end of int64 (``low - 3`` and ``high + 3`` must not wrap).
BASES = [0, 1, -7, 10 ** 9, INT64_MIN, INT64_MAX - 40]


@st.composite
def _keys(draw, min_size=1, max_size=40):
    """A base plus small offsets: duplicates are likely, the span is small
    beside int64 and sits on either side of the number of keys."""
    base = draw(st.sampled_from(BASES))
    width = draw(st.integers(1, 40))
    offsets = draw(st.lists(st.integers(0, width - 1), min_size=min_size, max_size=max_size))
    return [base + offset for offset in offsets]


@st.composite
def _join_sides(draw):
    build = draw(_keys())
    low, high = min(build), max(build)
    probe = draw(
        st.lists(
            st.one_of(
                st.sampled_from(build),
                st.integers(max(INT64_MIN, low - 3), min(INT64_MAX, high + 3)),
                st.sampled_from([INT64_MIN, INT64_MAX, 0]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return probe, build


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sides=_join_sides())
def test_the_addressed_probe_is_the_searched_probe(sides):
    probe, build = sides
    left, right = column(probe), column(build)
    addressed, searched, opened = both_ways(
        lambda: listed(kernels._np_equi_join(left, right, [0], [0]))
    )
    assert addressed == searched
    assert opened == [max(build) - min(build) + 1 <= len(probe) + len(build)]
    pairs = [
        (i, j)
        for i, wanted in enumerate(probe)
        for j, held in enumerate(build)
        if wanted == held
    ]
    (__, left_sel), (__, right_sel), probes = addressed
    assert (list(zip(left_sel, right_sel)), probes) == (pairs, len(pairs))


def test_an_empty_probe_side_joins_to_nothing_both_ways():
    left, right = column([5, 6], selection=[]), column([3, 4, 4, 5])
    addressed, searched, opened = both_ways(
        lambda: listed(kernels._np_equi_join(left, right, [0], [0]))
    )
    assert opened == [True]
    assert addressed == searched
    assert addressed[2] == 0 and addressed[0][1] == addressed[1][1] == []


def test_a_probe_at_int64s_minimum_is_masked_not_wrapped():
    """``-2⁶³ - low`` wraps onto a valid offset for ``low > 0``."""
    build = [1, 2, 3, 3]
    probe = [INT64_MIN, 3, INT64_MAX, INT64_MIN + 2, 0, 4]
    addressed, searched, opened = both_ways(
        lambda: listed(kernels._np_equi_join(column(probe), column(build), [0], [0]))
    )
    assert opened == [True]
    assert addressed == searched
    assert addressed[2] == 2 and addressed[1][1] == [2, 3]


@pytest.mark.parametrize("slack", [-1, 0, 1])
def test_the_join_gate_closes_one_past_the_rows_it_serves(slack):
    """Build keys ``0`` and ``span - 1``; ``span`` probes less the two
    build rows put ``span`` exactly on the rule."""
    span = 20
    build = [span - 1, 0]
    probe = [(i * 7) % (span + 2) for i in range(span - len(build) + slack)]
    addressed, searched, opened = both_ways(
        lambda: listed(kernels._np_equi_join(column(probe), column(build), [0], [0]))
    )
    assert opened == [slack >= 0]
    assert addressed == searched


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keys=_keys(max_size=60))
def test_the_addressed_factorisation_is_the_sorted_one(keys):
    codes = _np.asarray(keys, dtype=_np.int64)
    addressed, searched, opened = both_ways(
        lambda: listed(grouping._factorize(codes))
    )
    assert addressed == searched
    assert opened == [max(keys) - min(keys) + 1 <= len(keys)]
    (__, inverse), (__, first) = addressed
    # Groups are numbered by first appearance, whichever path numbered them.
    assert first == sorted(first)
    assert [keys[first[local]] for local in inverse] == keys


@pytest.mark.parametrize("slack", [-1, 0, 1])
def test_the_factorise_gate_closes_one_past_the_rows(slack):
    rows = 12
    span = rows - slack
    codes = _np.asarray([span - 1, 0] + [i % 3 for i in range(rows - 2)], dtype=_np.int64)
    addressed, searched, opened = both_ways(
        lambda: listed(grouping._factorize(codes))
    )
    assert opened == [slack >= 0]
    assert addressed == searched


def test_the_span_is_taken_in_python_ints():
    """int64 arithmetic would wrap ``max - min + 1`` to zero: an open gate."""
    ends = _np.asarray([INT64_MIN, INT64_MAX], dtype=_np.int64)
    assert grouping.dense_offsets(ends, 2) is None
    offsets, span, low = grouping.dense_offsets(ends[:1], 1)
    assert (offsets.tolist(), span, low) == ([0], 1, INT64_MIN)
    assert grouping.dense_offsets(ends[:0], 5) is None  # nothing to address
    assert grouping.dense_offsets(_np.asarray([1.0, 2.0]), 5) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keys=_keys(min_size=2, max_size=60), descending=st.booleans())
def test_the_offset_sort_is_the_key_sort(keys, descending):
    batch = column(keys)
    addressed, searched, opened = both_ways(
        lambda: listed((kernels._np_sort_perm(batch, (0,), (descending,)),))
    )
    assert addressed == searched
    if descending and min(keys) == INT64_MIN:
        assert opened == [] and addressed == (None,)  # negation would overflow
        return
    assert opened == [max(keys) - min(keys) + 1 <= len(keys)]
    ((__, perm),) = addressed
    assert perm == sorted(range(len(keys)), key=keys.__getitem__, reverse=descending)


@pytest.mark.parametrize("slack", [-1, 0, 1])
@pytest.mark.parametrize("descending", [False, True])
def test_the_sort_gate_closes_one_past_sixteen_bits(slack, descending):
    """Enough rows that only the 16-bit bound can close the gate."""
    span = (1 << 16) - slack
    keys = [span - 1, 0] + [(i * 31) % 1000 for i in range(span + 2)]
    batch = column(keys)
    addressed, searched, opened = both_ways(
        lambda: listed((kernels._np_sort_perm(batch, (0,), (descending,)),))
    )
    assert opened == [slack >= 0]
    assert addressed == searched
