"""The grouped-aggregate fold: one group index, one accumulator per function.

``F[AA] G[GA]`` is defined once in the paper and, after Klug (§2), the
aggregation is computed *while* grouping.  This module is the only place
in the vector engine where that happens.  A :class:`GroupedFold` is a
:class:`GroupIndex` (which group is this row in?) plus one accumulator per
distinct aggregate call (what has that group folded to so far?), with four
verbs — ``feed`` a batch, ``export`` the state, ``merge`` an export,
``finish`` to the output batch — and three callers:
:func:`~repro.engine.vector.kernels.grouped_aggregate` feeds one batch,
:class:`~repro.engine.vector.morsel._AggStage` feeds many, and
:mod:`~repro.engine.vector.parallel` merges exports in range order.

The contract it owes them (Tang et al.'s order-independent group-by
semantics, PAPERS.md): the answer — values *and* their types — does not
depend on how the rows were chunked.  It holds by construction.  Every
fast strategy is a statement about one batch only: a strategy factorises
the batch locally and :meth:`GroupIndex.adopt` alone maps local groups
into the persistent ``=ⁿ`` table; a numpy path reduces one batch to a
partial per group and ``_Accumulator._merge`` alone does arithmetic on
the state.  Each numpy path sits behind a gate (:func:`_exact_array`,
the bounds in ``_fold_array``) that fails closed to the per-row,
arbitrary-precision fold: ``compute_aggregate``, spelled incrementally.
Group identity has one gate more, :func:`dense_offsets`: integer keys
whose span the rows cover are addressed by ``key - low`` instead of
sorted or searched, here and in the join and sort kernels; closed, it
leaves the sort.

The one thing chunking can change is the association of a non-integer
SUM/AVG.  Those fold strictly in input order whatever the batch
boundaries, and raise ``order_sensitive`` so that a caller holding
partials of *disjoint* ranges discards them instead of merging.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.aggregation import finish_average
from repro.engine.vector.batch import (
    ColumnBatch,
    _Gather,
    _np,
    _plain_values,
    _sequence_array,
)
from repro.engine.vector.compile import (
    GroupVectors,
    compile_aggregate_arguments,
    compile_group_expression,
)
from repro.errors import ExecutionError
from repro.sqltypes.values import NULL, SqlValue, group_key, sorts_before, sql_add

# -- group identity ----------------------------------------------------------


def _run_starts(codes):
    """Flags over a non-empty array: this row starts a run of equal codes."""
    starts = _np.empty(len(codes), dtype=bool)
    starts[0] = True
    _np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    return starts


def _digit(arr):
    """One key column as a radix digit: ``(digits, radix)``, every digit
    in ``[0, radix)`` and equal exactly where the keys are.  Its
    :func:`dense_offsets` where that gate opens, its factorised ids where
    not."""
    dense = dense_offsets(arr, len(arr))
    if dense is not None:
        return dense[0], dense[1]
    ids = _factorize(arr)[0]
    return ids, int(ids.max()) + 1


def _combine_codes(arrays):
    """Rows → local groups over two or more key arrays: ``(inverse,
    first)`` as :func:`_factorize` returns them.  The columns' digits
    (:func:`_digit`) are mixed one column at a time, the mix factorised
    after every step so each code stays below n², far inside int64.  The
    last factorisation is the answer: any mix that is injective on the
    digits cuts the rows into the same groups, and :func:`_factorize`
    numbers groups by first appearance whatever their codes."""
    codes, __ = _digit(arrays[0])
    for arr in arrays[1:]:
        digits, radix = _digit(arr)
        inverse, first = _factorize(codes * radix + digits)
        codes = inverse
    return inverse, first


def _local_groups(batch: ColumnBatch, indexes: Sequence[int], runs: bool = False):
    """Rows of one non-empty batch → local groups, ``(inverse, first)``:
    :func:`_runs` of per-row codes with ``runs``, else :func:`_factorize`'s.
    The codes — a numpy array or a list of hashable keys — are equal
    exactly when two rows are ``=ⁿ``-equal on the grouping columns.  The
    strategies, cheapest first, each sound for what *this batch* holds and
    for nothing else:

    * *shared-selection gathers*: every grouping column is an
      unmaterialized gather through one selection vector (one side of a
      join) of fewer source rows than the batch has.  Factorise the
      source rows, by whichever strategy suits them, then gather the ids.
    * *array keys*: homogeneous NULL-free int/float columns without NaN;
      raw equality is ``=ⁿ`` equality.  (:func:`_factorize` then addresses
      them where :func:`dense_offsets` allows, and sorts them where not.)
      Several columns are grouped as they are combined
      (:func:`_combine_codes`), and not factorised again.
    * *raw tuples*: the type census shows no NULL (must collide with
      NULL) and no BOOLEAN (must stay apart from 0/1), and no float or
      Decimal is NaN (must collide with every NaN).
    * *per-row* ``group_key``: the specification.
    """
    group = _runs if runs else _factorize
    if _np is not None:
        if not indexes:
            return group(_np.zeros(batch.length, dtype=_np.int64))
        shared = batch.shared_gather(indexes)
        if shared is not None:
            source, selection = shared
            inverse, __ = _local_groups(source, range(len(indexes)))
            return group(_np.asarray(inverse, dtype=_np.int64)[selection])
        arrays = [batch.as_array(i) for i in indexes]
        if not any(  # NaN: no array comparison agrees with group_key on it
            arr is None or (arr.dtype.kind == "f" and _np.isnan(arr).any())
            for arr in arrays
        ):
            if len(arrays) == 1:
                return group(arrays[0])
            inverse, first = _combine_codes(arrays)
            return _runs(inverse) if runs else (inverse, first)
    if not indexes:
        return group([()] * batch.length)
    keys: Iterable[Tuple] = zip(*(batch.columns[i] for i in indexes))
    if not batch.plain_keys_on(indexes):
        keys = map(group_key, keys)
    return group(list(keys))


def dense_offsets(keys, served: int):
    """The one gate for addressing integer keys instead of searching them:
    ``(keys - low, span, low)`` when ``keys`` is a non-empty int64 array
    view (:meth:`ColumnBatch.as_array`'s: never float, BOOLEAN or NULL)
    whose ``span = high - low + 1`` is at most ``served``, the rows the
    span-sized table will answer for — so the table is O(input) — else
    ``None``, and the caller searches or sorts as it always has.  The span
    is taken in Python ints: ``high - low`` cannot wrap."""
    if keys.dtype.kind != "i" or not keys.size:
        return None
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span > served:
        return None
    return keys - low, span, low


def key_runs(offsets, span: int):
    """Per key offset, its run in the stably sorted keys: ``(starts,
    lengths)``, both span-sized — a join's build side counted per key."""
    lengths = _np.bincount(offsets, minlength=span)
    return _np.cumsum(lengths) - lengths, lengths


def _first_rows(offsets, span: int):
    """Per key offset, the first row that holds it (``len(offsets)`` where
    none does).  ``minimum.at`` is defined for repeated indices; a fancy
    assignment's write order is not."""
    rows = len(offsets)
    first = _np.full(span, rows, dtype=_np.int64)
    _np.minimum.at(first, offsets, _np.arange(rows))
    return first


def _factorize(codes):
    """Rows → local groups, one per distinct code: ``(inverse, first)`` —
    a dense local id per row, ids numbered by first appearance, and per id
    the row it first occurs at (so ``first`` ascends).  Integer codes
    whose span the rows cover (:func:`dense_offsets`) index a table of
    first rows; any other array is sorted and cut into runs."""
    if isinstance(codes, list):
        ids: Dict[Tuple, int] = {}
        inverse: List[int] = []
        first: List[int] = []
        for row, code in enumerate(codes):
            local = ids.get(code)
            if local is None:
                local = ids[code] = len(first)
                first.append(row)
            inverse.append(local)
        return inverse, first
    dense = dense_offsets(codes, len(codes))
    if dense is not None:
        offsets, span, __ = dense
        first_of = _first_rows(offsets, span)
        present = (first_of < len(codes)).nonzero()[0]
        first = first_of[present]
        order = first.argsort()  # distinct rows: any sort is the sort
        rank = _np.empty(span, dtype=_np.int64)
        rank[present[order]] = _np.arange(len(order))
        return rank[offsets], first[order]
    # Sort, cut the sorted codes into runs, and number the runs by the
    # earliest row each one holds.
    perm = codes.argsort()
    change = _run_starts(codes[perm])
    first = _np.minimum.reduceat(perm, change.nonzero()[0])
    order = first.argsort()
    rank = _np.empty_like(order)
    rank[order] = _np.arange(len(order))
    inverse = _np.empty(len(codes), dtype=_np.int64)
    inverse[perm] = rank[change.cumsum() - 1]
    return inverse, first[order]


def _runs(codes):
    """Rows → local groups, one per maximal run of equal codes in row
    order (:func:`~repro.engine.aggregation.sort_group`'s flush
    condition): ``(inverse, first)`` as :func:`_factorize` returns them."""
    if not isinstance(codes, list):
        change = _run_starts(codes)
        return change.cumsum() - 1, change.nonzero()[0]
    inverse: List[int] = []
    first: List[int] = []
    for row, code in enumerate(codes):
        if not row or code != codes[row - 1]:
            first.append(row)
        inverse.append(len(first) - 1)
    return inverse, first


def _plain_keys(columns: Sequence[Sequence[SqlValue]]) -> bool:
    """Are raw tuples over these key columns ``=ⁿ`` keys?  A census of the
    columns as given: what :meth:`ColumnBatch.plain_keys_on` asks of a
    batch."""
    return all(_plain_values(set(map(type, column)), column) for column in columns)


def _representatives(batch: ColumnBatch, index: int, first, rows: List[int]):
    """Column ``index``'s values at the rows ``first`` names (``rows`` as
    a list): ``(values, array)``.  Taken out of the array view the batch
    already holds where it holds one, with that view taken at ``first``;
    else read from the column, with ``None``."""
    array = batch.cached_array(index)
    if array is not None:
        picked = array[first]
        return picked.tolist(), picked
    column = batch.columns[index]
    if isinstance(column, _Gather):
        return column.pick(rows), None
    return [column[row] for row in rows], None


class GroupIndex:
    """A persistent ``=ⁿ`` table: key → dense gid, fed by batches.

    Groups are numbered in first-appearance order and represented by the
    grouping values of their first-seen row — the row engine's choice
    (``hash_group``'s ``rows[0]``, ``sort_group``'s ``current_rows[0]``).
    ``keys`` holds them column-major: the output's key columns as they stand.
    While every group came from one batch, ``arrays`` holds, per key column,
    the array view that batch had of it, taken at the representatives (or
    ``None``) — what those key columns convert back to, already converted.

    The table is keyed by the raw value tuples while no representative and
    no key looked up carries a NULL, a BOOLEAN or a NaN — :func:`_local_groups`'s
    raw-tuple argument, made over groups, never rows.  The first one that
    does re-keys the table through ``group_key``, once, and the index stays
    ``wrapped`` from then on.
    """

    def __init__(self, arity: int) -> None:
        self.table: Dict[Tuple, int] = {}
        self.keys: List[List[SqlValue]] = [[] for __ in range(arity)]
        self.size = 0
        self.wrapped = False
        self.arrays: Optional[List] = None

    def __len__(self) -> int:
        return self.size

    def _keyed(self, columns: Sequence[Sequence[SqlValue]], count: int):
        """The table keys of ``count`` raw keys given column-major."""
        raws = zip(*columns) if columns else [()] * count  # GROUP BY (): ()
        return map(group_key, raws) if self.wrapped else raws

    def _open(
        self, columns: Sequence[Sequence[SqlValue]], count: int, arrays=None
    ) -> None:
        """Append ``count`` new groups, keys given column-major (and as
        ``arrays``, kept only by an index that had no group yet)."""
        if count:
            self.arrays = None if self.size else arrays
        for mine, new in zip(self.keys, columns):
            mine.extend(new)
        self.size += count

    def adopt(self, columns: Sequence[Sequence[SqlValue]], count: int):
        """Look ``count`` raw keys (column-major) up, opening a group for
        every new one: ``(gid per key, positions that opened one)``.

        The one step that touches the table: a batch's local groups and a
        merged partial's groups both enter here.
        """
        table = self.table
        # Groups nobody has had to look up yet: ``_open`` took them as is.
        unseen = [column[len(table):] for column in self.keys]
        if not self.wrapped and not (_plain_keys(columns) and _plain_keys(unseen)):
            self.table = table = {group_key(raw): gid for raw, gid in table.items()}
            self.wrapped = True
        for key in self._keyed(unseen, self.size - len(table)):
            table[key] = len(table)
        gids: List[int] = []
        opened: List[int] = []
        for position, key in enumerate(self._keyed(columns, count)):
            gid = table.get(key)
            if gid is None:
                gid = table[key] = self.size + len(opened)
                opened.append(position)
            gids.append(gid)
        self._open([[column[p] for p in opened] for column in columns], len(opened))
        return gids, opened

    def feed(self, batch: ColumnBatch, indexes: Sequence[int], runs: bool = False):
        """Gids for a non-empty batch's rows — an int64 array, a list
        without numpy — and the rows that opened a new group, in gid order.

        With ``runs`` the batch arrives sorted on the grouping columns and
        group identity is ``sort_group``'s boundary scan: every maximal
        run of ``=ⁿ``-equal keys is a new group, never looked up
        (``sort_key`` collates TRUE with 1, ``group_key`` does not, so a key
        can come back after an interruption — as a new group, as there).
        """
        inverse, first = _local_groups(batch, indexes, runs)
        rows = first if isinstance(first, list) else first.tolist()
        columns: List[List[SqlValue]] = []
        arrays = []
        for index in indexes:
            values, array = _representatives(batch, index, first, rows)
            columns.append(values)
            arrays.append(array)
        before = self.size
        if runs or not before:
            # Every local group is a new group: no key is looked up, so
            # none is built — a fold fed one batch never pays for the table.
            self._open(columns, len(rows), arrays)
            of_local: Sequence[int] = range(before, self.size)
            born = rows
        else:
            of_local, opened = self.adopt(columns, len(rows))
            born = [rows[p] for p in opened]
        if _np is None:
            return [of_local[local] for local in inverse], born
        gids = _np.asarray(inverse, dtype=_np.int64)
        if before:  # else the local numbering is the global one
            gids = _np.asarray(of_local, dtype=_np.int64)[gids]
        return gids, born


# -- per-group folding -------------------------------------------------------


class _Gids:
    """One batch's rows → gids, with the views several accumulators share
    (each computed at most once per batch)."""

    def __init__(self, ids, n_groups: int) -> None:
        self.ids = ids
        self.n_groups = n_groups
        self._list: Optional[List[int]] = None
        self._present = None

    def as_list(self) -> List[int]:
        if self._list is None:
            ids = self.ids
            self._list = ids if isinstance(ids, list) else ids.tolist()
        return self._list

    def present(self):
        """``(gids, counts, index)``: the gids occurring in this batch,
        ascending, and their row counts, as lists; with numpy, what
        narrows a per-gid array to them (:meth:`of_present`)."""
        if self._present is None:
            if _np is None:
                tally = Counter(self.ids)
                groups = sorted(tally)
                self._present = groups, [tally[g] for g in groups], None
            else:
                sizes = _np.bincount(self.ids, minlength=self.n_groups)
                groups = sizes.nonzero()[0]
                if len(groups) == self.n_groups:  # all of them: no gather
                    self._present = range(self.n_groups), sizes.tolist(), slice(None)
                else:
                    self._present = groups.tolist(), sizes[groups].tolist(), groups
        return self._present

    def of_present(self, per_group) -> List[SqlValue]:
        """A per-gid result array narrowed to the present groups."""
        return per_group[self.present()[2]].tolist()


def _exact_array(values, batch: ColumnBatch, direct_only: bool):
    """The one gate: an array whose numpy fold is bit-exact, or ``None``.

    An exact view exists for a column taken straight from the batch
    (:meth:`ColumnBatch.as_array`: homogeneous ``{int}`` or ``{float}``,
    NULL-free, so ``tolist()`` round-trips every element) and, unless
    ``direct_only``, for a computed list under the same census.  Floats
    refuse on NaN (ufuncs propagate it, the fold's strict ``<`` never
    selects it) and on a negative zero (``bincount`` starts from ``+0.0``
    and loses an all ``-0.0`` group's sign; a ufunc does not keep the
    first of a ``±0`` tie).
    """
    if _np is None:
        return None
    for index, column in enumerate(batch.columns):
        if column is values:
            arr = batch.as_array(index)
            break
    else:
        if direct_only or not isinstance(values, list):
            return None
        arr = _sequence_array(values)
    if arr is not None and arr.dtype.kind == "f" and (
        _np.isnan(arr).any() or (_np.signbit(arr) & (arr == 0)).any()
    ):
        return None
    return arr


class _Accumulator:
    """Growable per-group state of one aggregate call.

    A subclass is one function.  Its ``_merge(gid, count, value)`` is the
    arithmetic — fold a partial of ``count`` non-NULL values that reduced
    to ``value`` into a group — and the only code that touches the state:
    a row is a partial of one, ``_fold_array(gids, arr)`` reduces a batch
    to one partial per group through numpy (False when a bound refuses),
    an export is one partial per group.  SUM/AVG add, starting from the
    first value; MIN/MAX replace on strict ``<`` in ``sort_key``'s order
    only (NaN above every number), so the first of ``=ⁿ`` ties survives
    (what ``min(..., key=sort_key)`` returns).
    DISTINCT keeps each group's values by ``group_key`` in first-seen
    order, folds a value the first time it is seen, and exports the values.
    """

    #: MIN/MAX hand back one of the input values itself: they take only a
    #: column the batch vouches for, never a computed list.
    direct_only = False

    def __init__(self, distinct: bool) -> None:
        self.counts: List[int] = []
        self.state: List[SqlValue] = []
        self.seen: Optional[List[Dict[Tuple, SqlValue]]] = [] if distinct else None
        #: A non-integer value reached a SUM/AVG: the state is exact only
        #: for the row order it was fed in.
        self.order_sensitive = False

    def _grow(self, n_groups: int) -> None:
        add = n_groups - len(self.counts)
        if add > 0:
            self.counts.extend([0] * add)
            self.state.extend([NULL] * add)
            if self.seen is not None:
                self.seen.extend({} for __ in range(add))

    def feed(self, gids: _Gids, values, batch: ColumnBatch) -> None:
        """Fold one batch: ``values[r]`` into group ``gids.ids[r]``
        (``values`` is ``None`` for COUNT(*): rows, not values)."""
        self._grow(gids.n_groups)
        if values is None:
            self._absorb(gids)
            return
        if self.seen is None:
            arr = _exact_array(values, batch, self.direct_only)
            if arr is not None and self._fold_array(gids, arr):
                return
        self._fold_rows(zip(gids.as_list(), values))

    def _fold_rows(self, pairs: Iterable[Tuple[int, SqlValue]]) -> None:
        """The specification: one ``(gid, value)`` at a time, in order."""
        seen, merge = self.seen, self._merge
        for gid, value in pairs:
            if value is NULL:
                continue
            if seen is not None:
                key = group_key((value,))
                if key in seen[gid]:
                    continue
                seen[gid][key] = value
            merge(gid, 1, value)

    def _absorb(self, gids: _Gids, values: Optional[List[SqlValue]] = None) -> None:
        """Merge one batch's partials: per present group its row count
        and ``values``' entry (no entry for a bare count)."""
        present, counts, __ = gids.present()
        if values is None:
            values = [NULL] * len(present)
        if len(present) == len(self.counts) and not any(self.counts):
            # Into an empty state the partial *is* the state.
            self.counts, self.state = list(counts), values
            return
        for gid, count, value in zip(present, counts, values):
            self._merge(gid, count, value)

    def export(self):
        """The state as one picklable partial per group."""
        if self.seen is not None:
            return [list(bucket.values()) for bucket in self.seen]
        return list(zip(self.counts, self.state))

    def merge(self, exported, gid_of: Sequence[int], n_groups: int) -> None:
        """Fold an :meth:`export` in; its group ``i`` is ``gid_of[i]`` here."""
        self._grow(n_groups)
        if self.seen is not None:
            self._fold_rows(
                (gid, value)
                for gid, values in zip(gid_of, exported)
                for value in values
            )
            return
        for gid, (count, value) in zip(gid_of, exported):
            if count:
                self._merge(gid, count, value)

    def finish(self) -> List[SqlValue]:
        return self.state


class _Count(_Accumulator):
    def _merge(self, gid: int, count: int, value: SqlValue) -> None:
        self.counts[gid] += count

    def _fold_array(self, gids: _Gids, arr) -> bool:
        self._absorb(gids)  # an exact view holds no NULL: every row counts
        return True

    def finish(self) -> List[SqlValue]:
        return self.counts


class _Sum(_Accumulator):
    def _merge(self, gid: int, count: int, value: SqlValue) -> None:
        if type(value) is not int:
            self.order_sensitive = True
        had = self.counts[gid]
        self.counts[gid] = had + count
        self.state[gid] = value if had == 0 else sql_add(self.state[gid], value)

    def _fold_array(self, gids: _Gids, arr) -> bool:
        """``bincount`` accumulates float64 sequentially, in row order.
        Integers take it only while ``max|v|·n < 2⁵³`` keeps every partial
        sum exact, and only into integer totals (one that has met a float
        must keep adding row by row).  Floats take it only into an empty
        state: each group then folds in exactly the row order, from a
        ``+0.0`` that is exact once the gate has refused negative zeros."""
        if arr.dtype.kind == "i":
            # As Python ints: np.abs wraps int64's minimum back onto itself.
            bound = max(int(arr.max()), -int(arr.min()))
            if self.order_sensitive or bound * arr.size >= 2 ** 53:
                return False
        elif any(self.counts):
            return False
        totals = _np.bincount(gids.ids, weights=arr, minlength=gids.n_groups)
        if arr.dtype.kind == "i":
            totals = totals.astype(_np.int64)
        else:
            self.order_sensitive = True
        self._absorb(gids, gids.of_present(totals))
        return True


class _Avg(_Sum):
    def finish(self) -> List[SqlValue]:
        return [
            finish_average(total, count)
            for total, count in zip(self.state, self.counts)
        ]


class _Min(_Accumulator):
    direct_only = True

    def _merge(self, gid: int, count: int, value: SqlValue) -> None:
        had = self.counts[gid]
        self.counts[gid] = had + count
        if had == 0 or sorts_before(value, self.state[gid]):
            self.state[gid] = value

    def _fold_array(self, gids: _Gids, arr) -> bool:
        # Seeded with the batch maximum, which no group's minimum exceeds.
        lows = _np.full(gids.n_groups, arr.max())
        _np.minimum.at(lows, gids.ids, arr)
        self._absorb(gids, gids.of_present(lows))
        return True


class _Max(_Accumulator):
    direct_only = True

    def _merge(self, gid: int, count: int, value: SqlValue) -> None:
        had = self.counts[gid]
        self.counts[gid] = had + count
        if had == 0 or sorts_before(self.state[gid], value):
            self.state[gid] = value

    def _fold_array(self, gids: _Gids, arr) -> bool:
        highs = _np.full(gids.n_groups, arr.min())
        _np.maximum.at(highs, gids.ids, arr)
        self._absorb(gids, gids.of_present(highs))
        return True


ACCUMULATORS = {"COUNT": _Count, "SUM": _Sum, "AVG": _Avg, "MIN": _Min, "MAX": _Max}


# -- the fold ----------------------------------------------------------------


class _GuardColumn:
    """A synthetic column that refuses to be read.

    Stands in for the non-grouping input columns when a fold finishes
    without its input rows (the streamed case).  A valid plan never reads
    them outside an aggregate; raising routes an invalid one through the
    materialized fallback, for the error (or value) that path produces.
    """

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.n = n

    def __len__(self) -> int:
        return self.n

    def _refuse(self, *index):
        raise ExecutionError(
            f"column {self.name!r} read outside the grouping columns"
        )

    __getitem__ = __iter__ = _refuse


class GroupedFold:
    """``G[GA]`` + ``F(AA)`` over rows that arrive a batch at a time."""

    def __init__(
        self, schema: ColumnBatch, grouping_columns: Sequence[str], specs, params
    ) -> None:
        self.names = schema.names
        self.group_indexes = schema.indexes_of(grouping_columns)
        self.specs = specs
        self.params = params
        self.compiled, self.slots = compile_aggregate_arguments(specs, self.names)
        self.reset()

    def reset(self) -> None:
        """Back to the state before the first row."""
        self.index = GroupIndex(len(self.group_indexes))
        self.accs: List[_Accumulator] = [
            ACCUMULATORS[aggregate.function](aggregate.distinct)
            for aggregate in self.compiled
        ]

    @property
    def order_sensitive(self) -> bool:
        return any(acc.order_sensitive for acc in self.accs)

    def feed(self, batch: ColumnBatch, runs: bool = False) -> List[int]:
        """Fold one batch in, rows in batch order; returns the batch rows
        that opened a new group, in group order.  ``runs``: see
        :meth:`GroupIndex.feed`."""
        if not batch.length:
            return []
        ids, born = self.index.feed(batch, self.group_indexes, runs)
        gids = _Gids(ids, len(self.index))
        for acc, aggregate in zip(self.accs, self.compiled):
            values = (
                None
                if aggregate.argument is None
                else aggregate.argument(batch, self.params)
            )
            acc.feed(gids, values, batch)
        return born

    def export(self) -> dict:
        """The state as one picklable merge unit."""
        return {
            "groups": (self.index.keys, len(self.index)),
            "accs": [acc.export() for acc in self.accs],
            "order_sensitive": self.order_sensitive,
        }

    def merge(self, partial: dict) -> None:
        """Fold an :meth:`export` in.  Merging the exports of consecutive
        row ranges in range order gives the state one fold over all the
        rows would have — unless one of them is ``order_sensitive``."""
        gid_of, __ = self.index.adopt(*partial["groups"])
        for acc, exported in zip(self.accs, partial["accs"]):
            acc.merge(exported, gid_of, len(self.index))

    def finish(self, source: Optional[ColumnBatch] = None, rep_rows=None) -> ColumnBatch:
        """One output row per group: the representative's grouping values,
        then each spec's ``F(AA)`` arithmetic over the folded aggregates.

        A caller that still holds the input passes it with each group's
        representative row (``feed``'s return, for a single batch): a
        column reference outside an aggregate reads that row, like the row
        engine's ``group_rows[0]``.  Else only grouping columns can be read.
        The key columns' arrays the index kept (:attr:`GroupIndex.arrays`)
        seed the output's array cache, so its next reader converts nothing.
        """
        n_groups = len(self.index)
        key_columns: List[Sequence[SqlValue]] = list(self.index.keys)
        if source is None:
            columns = [_GuardColumn(name, n_groups) for name in self.names]
            for index, keys in zip(self.group_indexes, key_columns):
                columns[index] = keys
            source = ColumnBatch(self.names, columns, length=n_groups)
            rep_rows = range(n_groups)
        groups = GroupVectors(source, rep_rows, [acc.finish() for acc in self.accs])
        out_names = tuple(self.names[i] for i in self.group_indexes) + tuple(
            spec.name for spec in self.specs
        )
        for spec in self.specs:
            kernel = compile_group_expression(spec.expression, self.names, self.slots)
            key_columns.append(kernel(groups, self.params))
        arrays = {
            j: array
            for j, array in enumerate(self.index.arrays or ())
            if array is not None
        }
        return ColumnBatch(out_names, key_columns, length=n_groups, arrays=arrays)
