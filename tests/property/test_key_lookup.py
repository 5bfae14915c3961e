"""Property: a key join's lookup and a composite key's digits change nothing.

Three shortcuts, each held to the code it shortcuts:

* ``_np_equi_join`` reads a probe's one pair off its run start when no
  probe matches twice (:func:`~repro.engine.vector.kernels._matches_at_most_once`),
  and expands runs into pairs otherwise.  With that gate as shipped and
  forced shut, the kernel returns the same ``left_sel`` / ``right_sel`` —
  values and dtype — and ``probes``; both agree with the row engine's
  :func:`~repro.engine.joins.hash_join`, which shares no code with either.
  Build sides with unique keys and with duplicates, dense and sparse
  spans, probes below, above and between the build keys, int64's two
  ends, empty sides, and float keys (the ``searchsorted`` path).
* A join on two or three key pairs codes each pair's two columns over one
  dictionary (:func:`~repro.engine.vector.kernels._key_arrays`) and probes
  the codes.  It gives the same rows in the same order, and the same work,
  as the row engine's hash join; a key with a NULL, a NaN or an
  int-against-float pair is handed to that body instead.
* ``_combine_codes`` takes each column's :func:`dense_offsets` as its radix
  digit where that gate opens and factorises only the others, and hands
  back the final grouping.  It returns the same ``(inverse, first)`` as
  factorising every column and then the mix, and the groups a dict of
  key tuples numbers by first appearance.
"""

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.engine.vector.grouping as grouping
import repro.engine.vector.kernels as kernels
from repro.engine.dataset import DataSet
from repro.engine.joins import hash_join
from repro.engine.vector.batch import ColumnBatch, _np
from repro.expressions.builder import and_, col, eq
from repro.sqltypes.values import NULL

pytestmark = pytest.mark.skipif(_np is None, reason="compares the numpy paths")

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def side(name, values):
    """A one-column batch with an array view — an empty one too (through
    an empty selection: a bare empty list has no element type)."""
    if not values:
        return ColumnBatch.from_rows((name,), [(0,)]).take([])
    return ColumnBatch.from_rows((name,), [(value,) for value in values])


def listed(result):
    """Arrays as ``(dtype, values)`` so equality sees the dtype too."""
    return tuple(
        (str(part.dtype), part.tolist()) if hasattr(part, "dtype") else part
        for part in result
    )


@contextmanager
def lookup_shut():
    with patch.object(kernels, "_matches_at_most_once", lambda counts: False):
        yield


def row_engine_pairs(probe, build):
    """The row engine's hash join of two key lists: ``(left_sel, right_sel,
    probes)``, each side's row number carried as a second column."""
    joined, work = hash_join(
        DataSet(("L.k", "L.i"), [(key, i) for i, key in enumerate(probe)]),
        DataSet(("R.k", "R.j"), [(key, j) for j, key in enumerate(build)]),
        eq(col("L.k"), col("R.k")),
    )
    left_sel = [row[1] for row in joined.rows]
    right_sel = [row[3] for row in joined.rows]
    return left_sel, right_sel, work - len(probe) - len(build)


#: Where a key range sits: around zero, negative, far out, and flush with
#: each end of int64.
BASES = [0, 1, -7, 10 ** 9, INT64_MIN, INT64_MAX - 40 * 1000]


@st.composite
def _build(draw):
    """Build keys: a base plus offsets, spread by a stride of 1 (a dense
    span) or 1000 (a sparse one); unique or with duplicates; maybe none;
    maybe floats."""
    base = draw(st.sampled_from(BASES))
    stride = draw(st.sampled_from([1, 1, 1000]))
    width = draw(st.integers(1, 40))  # narrow: duplicates are likely
    offsets = draw(
        st.lists(st.integers(0, width), max_size=40, unique=draw(st.booleans()))
    )
    keys = [base + offset * stride for offset in offsets]
    if draw(st.sampled_from([False, False, True])):
        keys = [key / 2 + 0.25 for key in keys]  # floats: searched, never addressed
    return keys


@st.composite
def _sides(draw):
    build = draw(_build())
    floats = any(isinstance(key, float) for key in build)
    edges = [INT64_MIN, INT64_MAX, 0]
    if build:
        low, high = min(build), max(build)
        if floats:
            around = st.sampled_from([low - 1.0, high + 1.0, (low + high) / 2])
        else:
            around = st.integers(max(INT64_MIN, low - 3), min(INT64_MAX, high + 3))
        choices = st.one_of(st.sampled_from(build), around, st.sampled_from(edges))
    else:
        choices = st.sampled_from(edges)
    if floats:
        choices = choices.map(float)
    return draw(st.lists(choices, max_size=40)), build


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sides=_sides())
def test_the_lookup_is_the_expansion_and_the_bucket_probe(sides):
    probe, build = sides
    left, right = side("L.k", probe), side("R.k", build)
    fast = kernels._np_equi_join(left, right, [0], [0])
    if fast is None:  # mixed dtypes: the kernel's own refusal, not ours
        assert {type(key) for key in probe} != {type(key) for key in build}
        return
    with lookup_shut():
        expanded = kernels._np_equi_join(left, right, [0], [0])
    assert listed(fast) == listed(expanded)
    left_sel, right_sel, probes = fast
    assert (left_sel.tolist(), right_sel.tolist(), probes) == row_engine_pairs(probe, build)


def test_a_key_join_looks_up_and_a_duplicate_expands():
    """Both branches on one build side, before and after a duplicate."""
    probe = [3, 9, 1, 3, 2]
    unique = kernels._np_equi_join(side("L.k", probe), side("R.k", [1, 2, 3]), [0], [0])
    doubled = kernels._np_equi_join(side("L.k", probe), side("R.k", [1, 3, 2, 3]), [0], [0])
    assert listed(unique) == (("int64", [0, 2, 3, 4]), ("int64", [2, 0, 2, 1]), 4)
    assert listed(doubled) == (
        ("int64", [0, 0, 2, 3, 3, 4]), ("int64", [1, 3, 0, 1, 3, 2]), 6,
    )


# -- composite keys ------------------------------------------------------------


def factorised_every_column(arrays):
    """The reference: every column factorised, the mix factorised after
    each column, and the final ids factorised once more."""
    codes = grouping._factorize(arrays[0])[0]
    for arr in arrays[1:]:
        ids = grouping._factorize(arr)[0]
        codes = grouping._factorize(codes * (int(ids.max()) + 1) + ids)[0]
    return grouping._factorize(codes)


def first_appearance(columns):
    """Groups of key tuples numbered by first appearance, in plain Python."""
    ids = {}
    for row, key in enumerate(zip(*columns)):
        ids.setdefault(key, (len(ids), row))
    return [ids[key][0] for key in zip(*columns)], [row for __, row in ids.values()]


@st.composite
def _key_columns(draw):
    """Two or three columns over one row count; each dense (offsets within
    the rows), sparse (a stride of 10⁶) or float."""
    rows = draw(st.integers(1, 60))
    columns = []
    for __ in range(draw(st.integers(2, 3))):
        shape = draw(st.sampled_from(["dense", "sparse", "float"]))
        base = draw(st.sampled_from([0, -7, INT64_MIN, INT64_MAX - 10 ** 8]))
        width = draw(st.integers(1, rows))
        offsets = draw(st.lists(st.integers(0, width - 1), min_size=rows, max_size=rows))
        if shape == "dense":
            columns.append([base + offset for offset in offsets])
        elif shape == "sparse":
            columns.append([base + offset * 10 ** 6 for offset in offsets])
        else:
            columns.append([offset / 4 for offset in offsets])
    return columns


def as_arrays(columns):
    return [
        _np.asarray(column, dtype=_np.float64 if isinstance(column[0], float) else _np.int64)
        for column in columns
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(columns=_key_columns())
def test_combined_digits_group_as_factorising_every_column(columns):
    arrays = as_arrays(columns)
    combined = grouping._combine_codes(arrays)
    assert listed(combined) == listed(factorised_every_column(arrays))
    inverse, first = combined
    assert (inverse.tolist(), first.tolist()) == first_appearance(columns)


DENSE = [5, 6, 5, 7, 6, 5, 8, 7]
SPARSE = [4000, 0, 4000, 0, 9000, 0, 4000, 9000]


@pytest.mark.parametrize(
    "columns",
    [[DENSE, SPARSE], [SPARSE, DENSE], [DENSE, SPARSE, DENSE], [SPARSE, DENSE, SPARSE]],
    ids=["dense-sparse", "sparse-dense", "dense-sparse-dense", "sparse-dense-sparse"],
)
def test_a_dense_column_is_a_digit_and_a_sparse_one_is_factorised(columns):
    arrays = as_arrays(columns)
    factorised = []
    real = grouping._factorize

    def counting(codes):
        factorised.append(len(codes))
        return real(codes)

    with patch.object(grouping, "_factorize", counting):
        combined = grouping._combine_codes(arrays)
    # One factorisation per sparse column and one per mix; none per dense column.
    sparse = sum(column is SPARSE for column in columns)
    assert len(factorised) == sparse + len(columns) - 1
    assert listed(combined) == listed(factorised_every_column(arrays))


# -- composite join keys -------------------------------------------------------


def pool_of(shape, base, width):
    """A narrow pool of key values, so that key tuples repeat and match."""
    if shape == "float":
        return [-0.0, 0.0, 0.5, -1.5, 1e300][:width + 1]
    if shape == "ends":
        return [INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1, 0][:width + 1]
    stride = 1 if shape == "dense" else 10 ** 6
    return [base + offset * stride for offset in range(width + 1)]


@st.composite
def _composite_sides(draw):
    """Two or three key pairs; per pair a shape (dense, sparse, int64's
    ends, float with both zeros) and a pool both sides draw from; either
    side may be empty."""
    pools = [
        pool_of(
            draw(st.sampled_from(["dense", "dense", "sparse", "ends", "float"])),
            draw(st.sampled_from([0, -7, 10 ** 9, INT64_MIN])),
            draw(st.integers(0, 3)),
        )
        for __ in range(draw(st.integers(2, 3)))
    ]

    def rows(max_size):
        n = draw(st.integers(0, max_size))
        return [tuple(draw(st.sampled_from(pool)) for pool in pools) for __ in range(n)]

    return pools, rows(30), rows(30)


def keyed_batch(prefix, pools, keys):
    """Key columns ``k0…`` plus the row number ``i``; an empty side is a
    selection of nothing, so it keeps its columns' array views."""
    names = tuple(f"{prefix}.k{c}" for c in range(len(pools))) + (f"{prefix}.i",)
    if not keys:
        template = tuple(pool[0] for pool in pools) + (0,)
        return DataSet(names, []), ColumnBatch.from_rows(names, [template]).take([])
    rows = [key + (i,) for i, key in enumerate(keys)]
    return DataSet(names, rows), ColumnBatch.from_rows(names, rows)


def composite_join(pools, probe, build):
    """The coded join (``None`` when handed off) and the row engine's."""
    condition = and_(
        *(eq(col(f"L.k{c}"), col(f"R.k{c}")) for c in range(len(pools)))
    )
    left_rows, left = keyed_batch("L", pools, probe)
    right_rows, right = keyed_batch("R", pools, build)
    coded = kernels.hash_join_batch(left, right, condition, None)
    return coded, hash_join(left_rows, right_rows, condition)


def exactly(rows):
    """Rows as reprs: ``-0.0`` and ``0.0`` stay apart, as do 1 and 1.0."""
    return [tuple(map(repr, row)) for row in rows]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sides=_composite_sides())
def test_a_coded_composite_key_joins_as_the_row_engine(sides):
    pools, probe, build = sides
    coded, (expected, work) = composite_join(pools, probe, build)
    assert coded is not None
    result, coded_work = coded
    assert exactly(result.iter_rows()) == exactly(expected.rows)
    assert coded_work == work


def with_column(keys, column, change):
    return [key[:column] + (change(key[column]),) + key[column + 1:] for key in keys]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sides=_composite_sides(),
    spoiler=st.sampled_from(["null", "nan", "int-against-float"]),
    on_probe=st.booleans(),
    column=st.integers(0, 2),
)
def test_a_null_nan_or_mixed_key_is_the_row_engines(sides, spoiler, on_probe, column):
    """One key column of one non-empty side holds a NULL, a NaN (its pair
    made float on both sides first) or floats against the other side's
    ints: the gate refuses the key."""
    pools, probe, build = sides
    column %= len(pools)
    assume(probe if on_probe else build)
    if spoiler == "nan":
        pools = pools[:column] + [[float(v) for v in pools[column]]] + pools[column + 1:]
        probe, build = (with_column(keys, column, float) for keys in (probe, build))
    if spoiler == "int-against-float":
        assume(not isinstance(pools[column][0], float))
        planted = with_column(probe if on_probe else build, column, float)
    else:
        value = NULL if spoiler == "null" else float("nan")
        keys = probe if on_probe else build
        planted = with_column(keys[:1], column, lambda __: value) + keys[1:]
    if on_probe:
        probe = planted
    else:
        build = planted
    coded, __ = composite_join(pools, probe, build)
    assert coded is None
