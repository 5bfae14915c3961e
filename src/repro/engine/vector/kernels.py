"""Vectorized operator kernels over :class:`ColumnBatch`.

Each kernel is one row-engine operator (``engine/joins.py``,
``engine/aggregation.py``, ``engine/sorting.py``) over arrays, and returns
the same ``(result, work)`` pair computing the *identical* work formula —
the §7 cost study must not be able to tell the backends apart.  What
changes is the inner loop: predicates and aggregate arguments are compiled
once per operator (:mod:`repro.engine.vector.compile`) and applied to whole
columns, selection vectors replace row copying, joins and sorts are numpy
permutations, and grouped aggregation folds per-group accumulators
(:mod:`.grouping`) instead of row lists per group.

A join, a sort or a sort-mode grouping whose inputs fail its array gate —
no numpy, a NULL, a BOOLEAN, a NaN, mixed dtypes, no equi-key, or an
algorithm with no array path (nested loop, sort-merge, DISTINCT) — returns
``None``, and the caller runs the row engine's body: there is one Python
body per algorithm, and it is the specification.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ops import AggregateSpec
from repro.engine.joins import extract_equi_keys
from repro.engine.vector.batch import ColumnBatch, _Gather, _np
from repro.engine.vector.compile import compile_selection
from repro.engine.vector.grouping import (
    GroupedFold,
    _combine_codes,
    dense_offsets,
    key_runs,
)
from repro.expressions.ast import Expression
from repro.sqltypes.values import SqlValue

Params = Optional[Mapping[str, SqlValue]]


def _sort_cost(n: int) -> int:
    return n * max(1, math.ceil(math.log2(n))) if n > 1 else n


# -- filter ------------------------------------------------------------------


def filter_batch(
    batch: ColumnBatch, condition: Expression, params: Params
) -> Tuple[ColumnBatch, int]:
    """σ[C]: keep the rows where ⌊C⌋ (:func:`compile_selection`)."""
    selection = compile_selection(condition, batch.names)(batch, params)
    if len(selection) == batch.length:
        result = batch  # nothing filtered: share the columns outright
    else:
        result = batch.take(selection, ordering=batch.ordering)
    return result, batch.length


# -- projection --------------------------------------------------------------


def project_batch(batch: ColumnBatch, columns: Sequence[str]) -> ColumnBatch:
    """π^A: zero-copy column selection; ordering survives as the longest
    leading prefix whose columns are all retained (DataSet.project rules)."""
    indexes = batch.indexes_of(columns)
    kept = {batch.names[i] for i in indexes}
    surviving: List[str] = []
    for column in batch.ordering:
        if column in kept:
            surviving.append(column)
        else:
            break
    return batch.select_columns(indexes, ordering=surviving)


# -- joins -------------------------------------------------------------------


def _pair_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    left_sel: Sequence[int],
    right_sel: Sequence[int],
) -> ColumnBatch:
    """Gather matched (left, right) row pairs into one combined batch.

    The gathers are lazy (:class:`_Gather` views): a column of the join
    output is only materialized if a downstream operator reads it — late
    materialization, the classic columnar-join trick.
    """
    columns: List[Sequence[SqlValue]] = [
        _Gather(column, left_sel, owner=(left, i))
        for i, column in enumerate(left.columns)
    ]
    columns.extend(
        _Gather(column, right_sel, owner=(right, j))
        for j, column in enumerate(right.columns)
    )
    return ColumnBatch(left.names + right.names, columns, length=len(left_sel))


def _apply_residual(
    pairs: ColumnBatch, residual: Optional[Expression], params: Params
) -> ColumnBatch:
    if residual is None:
        return pairs
    selection = compile_selection(residual, pairs.names)(pairs, params)
    if len(selection) == pairs.length:
        return pairs
    return pairs.take(selection)


def _matches_at_most_once(counts) -> bool:
    """The lookup's gate: does no probe match more than one build row?"""
    return int(counts.max(initial=0)) <= 1


def _key_arrays(
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
):
    """The join key as one array per side, equal exactly where the key
    tuples are equal, or ``None``.

    The gate, per key pair: both columns have array views of one dtype
    (never NULL or BOOLEAN), and a float pair holds no NaN — there raw
    equality is ``=``.  A single pair is its own key.  Several pairs are
    coded together: each pair's two columns are concatenated and the
    concatenations combined (:func:`~repro.engine.vector.grouping._combine_codes`),
    so both sides are coded over one dictionary and equal key tuples get
    equal codes; the codes are then split back into the two sides.  A side
    with no rows matches nothing whatever its key, so its first pair is
    key enough.
    """
    if _np is None:
        return None
    left_arrays = []
    right_arrays = []
    for left_key, right_key in zip(left_keys, right_keys):
        left_arr = left.as_array(left_key)
        right_arr = right.as_array(right_key)
        if left_arr is None or right_arr is None or left_arr.dtype != right_arr.dtype:
            return None
        if left_arr.dtype.kind == "f" and (
            _np.isnan(left_arr).any() or _np.isnan(right_arr).any()
        ):
            return None
        left_arrays.append(left_arr)
        right_arrays.append(right_arr)
    if len(left_arrays) == 1 or not (left.length and right.length):
        return left_arrays[0], right_arrays[0]
    codes, __ = _combine_codes(
        [_np.concatenate(pair) for pair in zip(left_arrays, right_arrays)]
    )
    return codes[: left.length], codes[left.length :]


def _np_equi_join(
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
):
    """C-speed equi-join: each probe finds its run of equal keys in the
    stably sorted build side.

    Integer build keys whose span the two inputs cover
    (:func:`~repro.engine.vector.grouping.dense_offsets`) — a composite
    key's codes always — are addressed: a probe's run is read at ``key -
    low`` from the per-key tables, one gather.  Any other build side is
    binary-searched, twice per probe.  When no probe matches more than one
    build row — an equality on the build side's key — each matching
    probe's pair is read off at its run start, a lookup; otherwise the
    runs are expanded into pairs.

    Either way it emits the *identical* pair sequence the row engine's
    hash join does: left rows in order, and (because the argsort is
    stable) each left row's matches in original right-row order.  Returns
    (left_sel, right_sel, probes), or ``None`` when the key fails
    :func:`_key_arrays`' gate.
    """
    keys = _key_arrays(left, right, left_keys, right_keys)
    if keys is None:
        return None
    left_arr, right_arr = keys
    order = _np.argsort(right_arr, kind="stable")
    dense = dense_offsets(right_arr, left.length + right.length)
    if dense is None:
        sorted_keys = right_arr[order]
        lo = _np.searchsorted(sorted_keys, left_arr, side="left")
        counts = _np.searchsorted(sorted_keys, left_arr, side="right") - lo
    else:
        codes, span, low = dense
        starts, lengths = key_runs(codes, span)
        # Probes outside [low, high] match nothing, and are masked before
        # the subtraction: int64's minimum minus a positive low would wrap.
        inside = (left_arr >= low) & (left_arr <= low + span - 1)
        if inside.all():
            at = left_arr - low
            counts = lengths[at]
        else:
            at = _np.where(inside, left_arr, low) - low
            counts = _np.where(inside, lengths[at], 0)
        lo = starts[at]
    probes = int(counts.sum())
    if _matches_at_most_once(counts):
        # A pair per matching probe, at its run start: nothing to expand.
        left_sel = counts.nonzero()[0]
        return left_sel, order[lo[left_sel]], probes
    left_sel = _np.repeat(_np.arange(left.length), counts)
    # Pair p of probe i sits at lo[i] + (p - offsets[i]) in the sorted keys.
    offsets = _np.cumsum(counts) - counts
    right_sel = order[_np.repeat(lo - offsets, counts) + _np.arange(probes)]
    return left_sel, right_sel, probes


def hash_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Optional[Tuple[ColumnBatch, int]]:
    """Hash join on extracted equi-keys through :func:`_np_equi_join`, or
    ``None`` — no equi-key, or a key that fails the array gate — for the
    row engine's :func:`repro.engine.joins.hash_join` to take.

    Same contract as that body: NULL keys never match, pairs in probe
    order, work = |L| + |R| + bucket matches examined.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return None
    fast = _np_equi_join(left, right, [p[0] for p in pairs], [p[1] for p in pairs])
    if fast is None:
        return None
    left_sel, right_sel, probes = fast
    combined = _apply_residual(
        _pair_batch(left, right, left_sel, right_sel), residual, params
    )
    return combined, left.length + right.length + probes


def cartesian_product_batch(
    left: ColumnBatch, right: ColumnBatch
) -> Tuple[ColumnBatch, int]:
    """L × R; work = |L| × |R|.  Left values repeat blockwise, right cycles."""
    n_left, n_right = left.length, right.length
    columns: List[Sequence[SqlValue]] = [
        [value for value in column for __ in range(n_right)]
        for column in left.columns
    ]
    columns.extend(list(column) * n_left for column in right.columns)
    result = ColumnBatch(
        left.names + right.names, columns, length=n_left * n_right
    )
    return result, n_left * n_right


# -- sorting -----------------------------------------------------------------


def sort_batch(
    batch: ColumnBatch,
    columns: Sequence[str],
    descending: Optional[Sequence[bool]] = None,
) -> Optional[Tuple[ColumnBatch, int]]:
    """Sort on ``columns`` (NULLS FIRST) through :func:`_np_sort_perm`, or
    ``None`` where it has no permutation, for the row engine's
    :func:`~repro.engine.sorting.sort_dataset` to take."""
    indexes = batch.indexes_of(columns)
    flags = tuple(descending) if descending else tuple(False for __ in columns)
    perm = _np_sort_perm(batch, indexes, flags)
    if perm is None:
        return None
    ordering = tuple(batch.names[i] for i in indexes) if not any(flags) else ()
    return batch.take(perm, ordering=ordering), _sort_cost(batch.length)


def _np_sort_perm(batch: ColumnBatch, indexes: Sequence[int], flags: Sequence[bool]):
    """A C-speed stable sort permutation, or ``None``.

    Valid only for homogeneous null-free int/float key columns without
    NaN: there raw ``<`` agrees with ``sort_key`` order, and a stable
    argsort (descending keys negated — stability makes that equivalent to
    ``reverse=True``) reproduces the row engine's multi-pass sort exactly.
    A single integer key whose span the rows cover and 16 bits hold
    (:func:`~repro.engine.vector.grouping.dense_offsets`) sorts as its
    ``uint16`` offsets — numpy's radix sort, and the same permutation: a
    stable sort of an order-preserving recoding is the same sort.
    """
    if _np is None or batch.length <= 1 or not indexes:
        return None
    arrays = []
    for index, desc in zip(indexes, flags):
        arr = batch.as_array(index)
        if arr is None:
            return None
        if arr.dtype.kind == "f" and _np.isnan(arr).any():
            return None
        if desc:
            if arr.dtype.kind == "i" and arr.size and int(arr.min()) == -(2 ** 63):
                return None  # negation would overflow
            arr = -arr
        arrays.append(arr)
    if len(arrays) > 1:
        return _np.lexsort(tuple(reversed(arrays)))
    dense = dense_offsets(arrays[0], min(batch.length, 1 << 16))
    keys = arrays[0] if dense is None else dense[0].astype(_np.uint16)
    return _np.argsort(keys, kind="stable")


# -- grouped aggregation -----------------------------------------------------


def grouped_aggregate(
    batch: ColumnBatch,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Params = None,
    mode: str = "hash",
    presorted: bool = False,
) -> Optional[Tuple[ColumnBatch, int]]:
    """G[GA] + F(AA): the grouped fold (:mod:`.grouping`) fed one batch.

    ``mode="hash"`` mirrors :func:`repro.engine.aggregation.hash_group`
    (groups in first-appearance order, work = n + groups); ``mode="sort"``
    mirrors :func:`~repro.engine.aggregation.sort_group` (sort then
    boundary scan, output ordered by the grouping columns, work =
    n·log₂n + n, or n + groups when ``presorted``).  Sort mode is ``None``
    where :func:`sort_batch` is.
    """
    n = batch.length
    sort_work = 0
    if mode == "sort" and not presorted:
        ordered = sort_batch(batch, grouping_columns)
        if ordered is None:
            return None
        batch, sort_work = ordered
    fold = GroupedFold(batch, grouping_columns, specs, params)
    representatives = fold.feed(batch, runs=mode == "sort")
    result = fold.finish(batch, representatives)
    if mode != "sort":
        return result, n + result.length
    work = n + result.length if presorted else sort_work + n
    return result.with_ordering(result.names[: len(grouping_columns)]), work
