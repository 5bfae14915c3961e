"""Tables: multisets of rows with constraint-checked inserts.

A :class:`Table` owns its rows and enforces the *single-table* constraints
declared in its schema at insert time: data types, NOT NULL, CHECK, primary
key uniqueness/non-nullity, and UNIQUE candidate keys (with SQL2's "NULL not
equal to NULL" uniqueness).  Cross-table constraints (foreign keys,
multi-table assertions) are enforced by
:class:`repro.catalog.catalog.Database`, which owns the tables.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.catalog.constraints import (
    CheckConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.catalog.schema import TableSchema
from repro.errors import CatalogError, ConstraintViolation
from repro.expressions.eval import RowScope
from repro.sqltypes.values import NULL, SqlValue, group_key, is_null
from repro.storage.row import Row

T = TypeVar("T")


class Table:
    """A stored base table (or materialized intermediate)."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._next_rowid = 1
        #: Bumped on every mutation; everything :meth:`derived` holds is
        #: keyed on it.
        self.version = 0
        #: ``(version, {key: value})`` — see :meth:`derived`.
        self._derived: Tuple[int, Dict[Hashable, object]] = (0, {})
        #: Held while a missing :meth:`derived` value is built.
        self._derived_lock = threading.RLock()
        #: Published copy-on-write snapshots set this: a frozen table
        #: refuses every mutation, so a pinned reader can never observe a
        #: write (writers must :meth:`clone` first — the MVCC protocol of
        #: :mod:`repro.server.snapshot`).
        self._frozen = False
        # Per-key duplicate indexes for O(1) key checks.
        self._key_indexes: Dict[Tuple[str, ...], Dict[Tuple, int]] = {
            key: {} for key in schema.candidate_keys()
        }
        pk = schema.primary_key()
        self._pk: Optional[Tuple[str, ...]] = pk

    # -- basic accessors -------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._rows)

    def column_names(self) -> Tuple[str, ...]:
        return self.schema.column_names()

    # -- derived per-version data -------------------------------------------

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value ``build()`` computes from the rows as stored now.

        Built on first use and handed back to every later caller until a
        mutation bumps :attr:`version`; the one place a physical
        representation or summary of this table (columnar batches,
        partition twins, optimizer statistics) is kept.  The slot belongs
        to this object alone: :meth:`clone` starts empty and pickling
        leaves it out.

        Values are shared by every reader of the table, server threads
        included, so they must never be mutated.  A hit takes no lock.  A
        miss builds under this table's lock: readers that miss together
        wait for the one build and share its value.  Two builds at once
        would be correct but, under one interpreter lock, each twice as
        slow — a read after a write would cost more the more readers
        arrived with it.  ``build`` may ask this table for other derived
        values, and no other table.
        """
        version, values = self._derived
        if version == self.version and key in values:
            return values[key]  # type: ignore[return-value]
        with self._derived_lock:
            version, values = self._derived
            if version != self.version:
                values = {}
                self._derived = (self.version, values)
            if key not in values:
                values[key] = build()
            return values[key]  # type: ignore[return-value]

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_derived"], state["_derived_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derived = (self.version, {})
        self._derived_lock = threading.RLock()

    # -- copy-on-write snapshots ------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Table":
        """Make this table immutable (raises on any further mutation).

        Published tables of a :class:`repro.server.snapshot.VersionedCatalog`
        are always frozen: concurrent readers share them without locks, so
        the only legal write path is clone → mutate → atomic swap.
        """
        self._frozen = True
        return self

    def clone(self) -> "Table":
        """An independent, *unfrozen* copy sharing the immutable rows.

        Rows themselves are immutable (:class:`Row` value tuples), so the
        copy is shallow at the row level but deep for every mutable
        container (row list, key indexes).  The clone keeps ``version``
        and ``_next_rowid`` — a write applied to the clone bumps the
        version past the original's, which is what makes the published
        version sequence monotone across copy-on-write swaps.
        """
        twin = Table(self.schema)
        twin._rows = list(self._rows)
        twin._next_rowid = self._next_rowid
        twin.version = self.version
        twin._key_indexes = {
            key: dict(index) for key, index in self._key_indexes.items()
        }
        return twin

    def _mutable(self) -> None:
        if self._frozen:
            raise CatalogError(
                f"table {self.name} is frozen (published snapshot); "
                "writes must go through the server's copy-on-write path"
            )

    # -- mutation ---------------------------------------------------------

    def insert(self, values: "Sequence[SqlValue] | Mapping[str, SqlValue]") -> Row:
        """Validate and insert one row; returns the stored :class:`Row`.

        ``values`` is either positional (matching schema order) or a mapping
        from column name to value (missing columns default to NULL).
        """
        self._mutable()
        ordered = self._order_values(values)
        typed = self._validate_types(ordered)
        scope = RowScope.from_pairs(
            (f"{self.name}.{c}" for c in self.schema.column_names()), typed
        )
        self._check_not_null(typed)
        self._check_checks(scope)
        self._check_keys(typed)
        row = Row(typed, self._next_rowid)
        self._next_rowid += 1
        self._rows.append(row)
        self._register_keys(row)
        self.version += 1
        return row

    def insert_many(
        self, rows: Iterable["Sequence[SqlValue] | Mapping[str, SqlValue]"]
    ) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def clear(self) -> None:
        self._mutable()
        self._rows.clear()
        self._next_rowid = 1
        for index in self._key_indexes.values():
            index.clear()
        self.version += 1

    def delete_rowids(self, rowids: "set[int] | frozenset[int]") -> int:
        """Remove the rows with the given rowids; returns the count removed.

        Key-index entries for the removed rows are dropped; remaining
        rowids are untouched (rowids are never reused within a snapshot).
        """
        self._mutable()
        doomed = [row for row in self._rows if row.rowid in rowids]
        if not doomed:
            return 0
        for row in doomed:
            for key_columns, index in self._key_indexes.items():
                key_values = [
                    row.values[self.schema.index_of(column)]
                    for column in key_columns
                ]
                if any(is_null(v) for v in key_values):
                    continue
                key = self._key_tuple(key_columns, row.values)
                if index.get(key) == row.rowid:
                    del index[key]
        self._rows = [row for row in self._rows if row.rowid not in rowids]
        self.version += 1
        return len(doomed)

    def snapshot(self) -> "tuple":
        """Capture state for atomic multi-row statements (UPDATE/DELETE)."""
        return (
            list(self._rows),
            self._next_rowid,
            {key: dict(index) for key, index in self._key_indexes.items()},
        )

    def restore(self, snapshot: "tuple") -> None:
        """Roll back to a :meth:`snapshot`."""
        self._mutable()
        rows, next_rowid, indexes = snapshot
        self._rows = list(rows)
        self._next_rowid = next_rowid
        self._key_indexes = {key: dict(index) for key, index in indexes.items()}
        self.version += 1

    # -- validation helpers ------------------------------------------------

    def _order_values(
        self, values: "Sequence[SqlValue] | Mapping[str, SqlValue]"
    ) -> Tuple[SqlValue, ...]:
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.schema.column_names())
            if unknown:
                raise CatalogError(
                    f"insert into {self.name}: unknown columns {sorted(unknown)}"
                )
            return tuple(
                values.get(column, NULL) for column in self.schema.column_names()
            )
        ordered = tuple(values)
        if len(ordered) != self.schema.arity:
            raise CatalogError(
                f"insert into {self.name}: expected {self.schema.arity} values, "
                f"got {len(ordered)}"
            )
        return ordered

    def _validate_types(self, values: Tuple[SqlValue, ...]) -> Tuple[SqlValue, ...]:
        return tuple(
            column.datatype.validate(value)
            for column, value in zip(self.schema.columns, values)
        )

    def _check_not_null(self, values: Tuple[SqlValue, ...]) -> None:
        for column, value in zip(self.schema.columns, values):
            if not column.nullable and is_null(value):
                raise ConstraintViolation(
                    f"{self.name}.{column.name} NOT NULL",
                    f"{column.name} is NULL",
                )

    def _check_checks(self, scope: RowScope) -> None:
        for constraint in self.schema.constraints:
            if isinstance(constraint, CheckConstraint):
                constraint.check_row(self.name, scope)

    def _key_tuple(self, key: Tuple[str, ...], values: Tuple[SqlValue, ...]) -> Tuple:
        indexes = [self.schema.index_of(column) for column in key]
        return group_key(tuple(values[i] for i in indexes))

    def _check_keys(self, values: Tuple[SqlValue, ...]) -> None:
        for constraint in self.schema.constraints:
            if isinstance(constraint, PrimaryKeyConstraint):
                key_values = [
                    values[self.schema.index_of(column)]
                    for column in constraint.columns
                ]
                if any(is_null(v) for v in key_values):
                    raise ConstraintViolation(
                        constraint.constraint_name(self.name),
                        "primary key column is NULL",
                    )
                key = self._key_tuple(constraint.columns, values)
                if key in self._key_indexes[constraint.columns]:
                    raise ConstraintViolation(
                        constraint.constraint_name(self.name),
                        f"duplicate key value {key_values!r}",
                    )
            elif isinstance(constraint, UniqueConstraint):
                key_values = [
                    values[self.schema.index_of(column)]
                    for column in constraint.columns
                ]
                # SQL2 UNIQUE: rows with any NULL key column never conflict.
                if any(is_null(v) for v in key_values):
                    continue
                key = self._key_tuple(constraint.columns, values)
                if key in self._key_indexes[constraint.columns]:
                    raise ConstraintViolation(
                        constraint.constraint_name(self.name),
                        f"duplicate key value {key_values!r}",
                    )

    def _register_keys(self, row: Row) -> None:
        for key_columns, index in self._key_indexes.items():
            key_values = [
                row.values[self.schema.index_of(column)] for column in key_columns
            ]
            if any(is_null(v) for v in key_values):
                continue  # NULL-bearing UNIQUE keys never participate
            index[self._key_tuple(key_columns, row.values)] = row.rowid

    # -- lookups used by FK enforcement -----------------------------------

    def has_key_value(
        self, key_columns: Tuple[str, ...], key_values: Sequence[SqlValue]
    ) -> bool:
        """Whether a row with these values for ``key_columns`` exists."""
        if key_columns in self._key_indexes:
            probe = group_key(tuple(key_values))
            return probe in self._key_indexes[key_columns]
        indexes = [self.schema.index_of(column) for column in key_columns]
        probe = group_key(tuple(key_values))
        return any(
            group_key(tuple(row.values[i] for i in indexes)) == probe
            for row in self._rows
        )

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self._rows)} rows)"
