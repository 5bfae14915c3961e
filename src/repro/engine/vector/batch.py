"""Columnar batches: the unit of data flow in the vector backend.

A :class:`ColumnBatch` stores a relation column-major: ``names`` carry the
same qualified spellings a :class:`~repro.engine.dataset.DataSet` uses, and
``columns`` holds one value sequence per name.  Column slicing
(:meth:`select_columns`) is zero-copy — the new batch shares the column
sequences — and row selection (:meth:`take`) gathers through a selection
vector.

NULL is represented in-band by the :data:`~repro.sqltypes.values.NULL`
singleton, exactly as in row tuples; the cached per-column type census
(:meth:`column_kinds`) lets a kernel decide **per batch** whether raw
values or arrays are sound at all — the "where does 3VL actually matter"
observation applied to execution.

``ordering`` is the same physical property a DataSet carries: the columns
the rows are known to be sorted on (ascending, NULLS FIRST).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.dataset import DataSet
from repro.errors import BindingError
from repro.sqltypes.values import INEXACT_TYPES, NULL, SqlValue

try:  # numpy accelerates index math (selection vectors, sorts, group folds);
    import numpy as _np  # the engine stays fully functional without it.
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

_NULL_TYPE = type(NULL)


def _plain_values(kinds, values: Iterable[SqlValue]) -> bool:
    """Can raw ``values``, of the types ``kinds``, serve as ``=ⁿ`` keys?
    Not beside a NULL (which must collide with NULL), a BOOLEAN (which
    must stay distinct from 0/1) or a NaN (which must collide with every
    NaN, where a raw one equals only itself), per
    :func:`~repro.sqltypes.values.group_key`.  Only floats and Decimals
    are read for NaN."""
    return (
        _NULL_TYPE not in kinds
        and bool not in kinds
        and (
            kinds.isdisjoint(INEXACT_TYPES)
            or not any(value != value for value in values)
        )
    )


class _Repeat:
    """A constant value broadcast to ``n`` elements without materializing.

    Supports just enough of the sequence protocol (len / iter / indexing)
    for the compiled kernels, which only ever zip or subscript columns.
    """

    __slots__ = ("value", "n")

    def __init__(self, value: SqlValue, n: int) -> None:
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[SqlValue]:
        value = self.value
        for __ in range(self.n):
            yield value

    def __getitem__(self, index: int) -> SqlValue:
        if isinstance(index, slice):
            return [self.value] * len(range(*index.indices(self.n)))
        if not -self.n <= index < self.n:
            raise IndexError(index)
        return self.value


class _Gather:
    """A lazy gather: ``source[sel[i]]`` materialized only on demand.

    Row selection (:meth:`ColumnBatch.take`, join pairing) produces one
    ``_Gather`` per column instead of copying every value — *late
    materialization*: downstream operators touch only the columns they
    actually read, and numeric columns can be gathered at C speed through
    their array views (:meth:`ColumnBatch.as_array`) without ever building
    the Python list.

    ``owner`` is the ``(batch, index)`` the source is a column of.  A gather
    whose source nobody has converted yet asks that batch for the array
    (:meth:`source_view`), so the conversion is cached where the source
    lives — on a cached scan, once per table version — not on the gather.
    """

    __slots__ = ("source", "sel", "source_array", "owner", "_sel_array", "_data")

    def __init__(
        self, source: Sequence[SqlValue], sel, source_array=None, owner=None
    ) -> None:
        if source_array is None and owner is not None:
            batch, index = owner
            source_array = batch.cached_array(index)
        self.source = source
        self.sel = sel  # List[int] or numpy index array
        self.source_array = source_array  # numpy view of source, if known
        self.owner = owner
        self._sel_array = None
        self._data: Optional[List[SqlValue]] = None

    def source_view(self):
        """The source's array view, or ``None`` if it has none: converted
        at most once, by the owning batch where there is one."""
        array = self.source_array
        if array is None:
            if self.owner is None:
                array = _sequence_array(self.source)
            else:
                batch, index = self.owner
                array = batch.as_array(index)
            self.source_array = array
        return array

    def materialize(self) -> List[SqlValue]:
        data = self._data
        if data is None:
            arr = self.source_array
            sel = self.sel
            if arr is not None and _np is not None:
                if isinstance(sel, range) and sel.step == 1:
                    data = arr[sel.start : sel.stop].tolist()
                else:
                    data = arr[self.sel_array()].tolist()
            else:
                source = self.source
                data = [source[i] for i in sel]
            self._data = data
        return data

    def sel_array(self):
        """The selection vector as a numpy index array (cached)."""
        sel = self._sel_array
        if sel is None and _np is not None:
            sel = self.sel if isinstance(self.sel, _np.ndarray) else _np.asarray(
                self.sel, dtype=_np.intp
            )
            self._sel_array = sel
        return sel

    def __len__(self) -> int:
        return len(self.sel)

    def __iter__(self) -> Iterator[SqlValue]:
        return iter(self.materialize())

    def __getitem__(self, index):
        if self._data is not None:
            return self._data[index]
        if isinstance(index, slice):
            # Materialize only the requested window, not the whole column.
            source = self.source
            return [source[i] for i in self.sel[index]]
        return self.source[self.sel[index]]

    def pick(self, rows: List[int]) -> List[SqlValue]:
        """The values at ``rows``, nothing else materialized: one selection
        (``sel[rows]``), then the source lookups."""
        if self._data is not None:
            source, picks = self._data, rows
        else:
            source, sel = self.source, self.sel
            if isinstance(sel, (list, range)):
                picks = [sel[row] for row in rows]
            else:
                picks = sel[rows].tolist()
        if isinstance(source, _Gather):
            return source.pick(picks)
        return [source[i] for i in picks]

    def slice_view(self, start: int, stop: int, narrowed: dict) -> "_Gather":
        """A lazy sub-gather of rows [start, stop) sharing the source.

        The narrowed selection is a view wherever the representation
        allows one (numpy index arrays, ranges); no source values are
        touched until the sub-gather is itself read.  ``narrowed`` is the
        slicing batch's memo of selections it has already narrowed: the
        columns of one join side share one selection vector, and they must
        still share one after the slice (:meth:`ColumnBatch.shared_gather`).
        A materialized gather is sliced as the plain column it has become.
        """
        sel = narrowed.get(id(self.sel))
        if sel is None:
            sel = narrowed[id(self.sel)] = self.sel[start:stop]
        return _Gather(self.source, sel, self.source_array, self.owner)


#: A column is any indexable sequence of SQL values (list, tuple, _Repeat,
#: or a lazy _Gather view).
Column = Sequence[SqlValue]

_MISSING = object()


def _sequence_array(sequence: Sequence[SqlValue]):
    """Convert a homogeneous numeric value sequence to a numpy array.

    Returns ``None`` unless every element is exactly ``int`` (→ int64) or
    exactly ``float`` (→ float64) — ``bool`` is a distinct kind, and NULL
    or strings disqualify the column.  Conversion failures (e.g. ints
    beyond int64) also return ``None``; callers must fall back.
    """
    if _np is None:
        return None
    kinds = frozenset(map(type, sequence))
    if kinds == {int}:
        dtype = _np.int64
    elif kinds == {float}:
        dtype = _np.float64
    else:
        return None
    try:
        return _np.asarray(
            sequence if isinstance(sequence, list) else list(sequence), dtype=dtype
        )
    except (OverflowError, ValueError, TypeError):
        return None


class ColumnBatch:
    """A bag of rows stored column-major under a fixed column layout."""

    __slots__ = (
        "names", "columns", "length", "ordering", "_index", "_kinds", "_arrays"
    )

    def __init__(
        self,
        names: Sequence[str],
        columns: Iterable[Column],
        length: Optional[int] = None,
        ordering: Sequence[str] = (),
        arrays: Optional[Dict[int, object]] = None,
    ) -> None:
        """``arrays`` seeds the array cache (:meth:`as_array`) with views
        the caller already holds, each equal to its column by the same
        dtype rule."""
        self.names: Tuple[str, ...] = tuple(names)
        self.columns: List[Column] = list(columns)
        if len(self.columns) != len(self.names):
            raise ValueError(
                f"{len(self.names)} names but {len(self.columns)} columns"
            )
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self.length = length
        self.ordering: Tuple[str, ...] = tuple(ordering)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self._kinds: Dict[int, frozenset] = {}
        self._arrays: Dict[int, object] = dict(arrays) if arrays else {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        rows: Sequence[Tuple[SqlValue, ...]],
        ordering: Sequence[str] = (),
    ) -> "ColumnBatch":
        """Transpose row tuples into columns."""
        names = tuple(names)
        if rows:
            columns: List[Column] = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for __ in names]
        return cls(names, columns, length=len(rows), ordering=ordering)

    @classmethod
    def from_dataset(cls, dataset) -> "ColumnBatch":
        """Adapt a row-major :class:`~repro.engine.dataset.DataSet`."""
        return cls.from_rows(dataset.columns, dataset.rows, dataset.ordering)

    def to_dataset(self):
        """Materialize as a row-major DataSet (the executor's result type)."""
        if self.columns:
            rows: Iterable[Tuple[SqlValue, ...]] = zip(*self.columns)
        else:
            rows = [()] * self.length
        return DataSet(self.names, rows, ordering=self.ordering)

    def column_lists(self) -> List[List[SqlValue]]:
        """Every column as a plain list, the form a shard pickles onto the
        wire: lazy gathers materialized (once — a gather keeps its list),
        broadcasts expanded, nothing transposed."""
        return [
            column.materialize()
            if isinstance(column, _Gather)
            else column if isinstance(column, list) else list(column)
            for column in self.columns
        ]

    # -- shape ---------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self.length

    def __len__(self) -> int:
        return self.length

    def iter_rows(self) -> Iterator[Tuple[SqlValue, ...]]:
        if self.columns:
            return iter(zip(*self.columns))
        return iter([()] * self.length)

    # -- column resolution (same rules as DataSet.index_of) -----------------

    def index_of(self, column: str) -> int:
        """Resolve a column name; bare names match a unique qualified one."""
        if column in self._index:
            return self._index[column]
        matches = [
            i
            for name, i in self._index.items()
            if name.rsplit(".", 1)[-1] == column
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise BindingError(f"dataset has no column {column!r}: {self.names}")
        raise BindingError(f"ambiguous column {column!r} in {self.names}")

    def indexes_of(self, columns: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.index_of(column) for column in columns)

    # -- per-column facts ----------------------------------------------------

    def column_kinds(self, index: int) -> frozenset:
        """The set of Python types present in column ``index`` (cached).

        One C-speed pass over the column buys every kernel the per-batch
        decision "can I use raw tuples here, or do NULL/BOOLEAN need the
        ``=ⁿ``-aware slow path?".
        """
        kinds = self._kinds.get(index)
        if kinds is None:
            kinds = self._kinds[index] = frozenset(map(type, self._censused(index)))
        return kinds

    def _censused(self, index: int) -> Sequence[SqlValue]:
        """What the census of column ``index`` reads: an unmaterialized
        gather's (possibly larger) source — a conservative superset, since
        kernels only rely on the *absence* of NULL, BOOLEAN and NaN — else
        the column."""
        column = self.columns[index]
        if isinstance(column, _Gather) and column._data is None:
            return column.source
        return column

    def as_array(self, index: int):
        """A numpy view of column ``index``, or ``None`` if not expressible.

        Only *homogeneous* null-free numeric columns get arrays (exactly
        ``{int}`` → int64, ``{float}`` → float64): mixing kinds, BOOLEAN,
        or NULL would change value identity under a dtype cast, so those
        columns stay Python-only.  Computed once per batch and cached;
        gather columns reuse their source's array and gather at C speed —
        a source nobody has converted yet is converted by the batch that
        owns it (:meth:`_Gather.source_view`), so a column first read
        through a taken batch is still converted once per cached scan.
        """
        if _np is None:
            return None
        cached = self._arrays.get(index, _MISSING)
        if cached is not _MISSING:
            return cached
        column = self.columns[index]
        array = None
        if isinstance(column, _Gather) and column._data is None:
            base = column.source_view()
            if base is not None:
                sel = column.sel
                if isinstance(sel, range) and sel.step == 1:
                    # Contiguous selection: a genuine numpy *view* sharing
                    # the source's buffer — the zero-copy morsel path.
                    array = base[sel.start : sel.stop]
                else:
                    array = base[column.sel_array()]
        else:
            array = _sequence_array(column)
        self._arrays[index] = array
        return array

    def cached_array(self, index: int):
        """The already-computed array view of a column, or ``None``.

        Unlike :meth:`as_array` this never triggers a conversion — it is
        for handing an existing view to a derived :class:`_Gather` without
        forcing work for columns nobody may read.
        """
        return self._arrays.get(index)

    def shared_gather(self, indexes: Sequence[int]):
        """``(source batch, selection array)`` when the columns at
        ``indexes`` are all unmaterialized gathers, through one shared
        selection vector, of fewer rows than this batch has — one side of
        a join that fans out — else ``None``.  The source batch holds the
        un-gathered columns, array views included.  Needs numpy."""
        columns = [self.columns[i] for i in indexes]
        head = columns[0]
        if not all(
            isinstance(column, _Gather)
            and column._data is None
            and column.sel is head.sel
            and 0 < len(column.source) == len(head.source) < self.length
            for column in columns
        ):
            return None
        source = ColumnBatch(
            [self.names[i] for i in indexes],
            [column.source for column in columns],
            length=len(head.source),
            arrays={j: column.source_view() for j, column in enumerate(columns)},
        )
        return source, head.sel_array()

    def plain_keys_on(self, indexes: Sequence[int]) -> bool:
        """Can raw value tuples serve as ``=ⁿ`` group keys on these
        columns?  True when each is :func:`_plain_values` over its census."""
        return all(
            _plain_values(self.column_kinds(i), self._censused(i)) for i in indexes
        )

    # -- slicing -------------------------------------------------------------

    def select_columns(
        self,
        indexes: Sequence[int],
        names: Optional[Sequence[str]] = None,
        ordering: Sequence[str] = (),
    ) -> "ColumnBatch":
        """Zero-copy column projection: the new batch shares column data."""
        return ColumnBatch(
            tuple(names) if names is not None else tuple(self.names[i] for i in indexes),
            [self.columns[i] for i in indexes],
            length=self.length,
            ordering=ordering,
        )

    def take(
        self, selection: Sequence[int], ordering: Sequence[str] = ()
    ) -> "ColumnBatch":
        """Gather the rows named by a selection vector (in order).

        The gather is *lazy*: each output column is a :class:`_Gather`
        view over its source, materialized only if something reads it, and
        no column is converted to an array here: a gather that comes to
        need its source's array asks this batch for it.
        """
        batch = ColumnBatch(
            self.names,
            [
                _Gather(column, selection, owner=(self, i))
                for i, column in enumerate(self.columns)
            ],
            length=len(selection),
            ordering=ordering,
        )
        return batch

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A lazy morsel view of rows [start, stop) — no value copying.

        Plain columns — a materialized gather's list among them — are
        wrapped in a contiguous-range :class:`_Gather` owned by this batch,
        so every slice reads the one array this batch converts and caches
        (its slices are real views over the same base buffer);
        unmaterialized gathers narrow their selection vector; broadcasts
        narrow their length.
        This is how the streaming executor carves morsels out of cached
        scans without invalidating the column-store cache or copying it.
        A contiguous slice of sorted rows stays sorted, so the ordering
        annotation survives.
        """
        start = max(0, min(start, self.length))
        stop = max(start, min(stop, self.length))
        columns: List[Column] = []
        narrowed: Dict[int, object] = {}
        for i, column in enumerate(self.columns):
            if isinstance(column, _Repeat):
                columns.append(_Repeat(column.value, stop - start))
            elif isinstance(column, _Gather) and column._data is None:
                columns.append(column.slice_view(start, stop, narrowed))
            else:
                if isinstance(column, _Gather):
                    column = column._data
                cached = self._arrays.get(i, _MISSING)
                if cached is None:
                    # Known non-numeric: a pointer slice beats a lazy view
                    # that no array will ever gather for.
                    columns.append(column[start:stop])
                else:
                    columns.append(
                        _Gather(column, range(start, stop), owner=(self, i))
                    )
        return ColumnBatch(
            self.names, columns, length=stop - start, ordering=self.ordering
        )

    def with_ordering(self, ordering: Sequence[str]) -> "ColumnBatch":
        """The same data under a different known-order annotation."""
        batch = ColumnBatch(
            self.names, self.columns, length=self.length, ordering=ordering
        )
        batch._kinds = self._kinds  # same columns, same census
        batch._arrays = self._arrays
        return batch

    def __repr__(self) -> str:
        return f"ColumnBatch({self.names}, {self.length} rows)"
