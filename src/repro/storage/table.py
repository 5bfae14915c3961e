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
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.catalog.schema import TableSchema
from repro.errors import CatalogError, ConstraintViolation
from repro.expressions.eval import RowScope
from repro.sqltypes.values import NULL, SqlValue, group_key
from repro.storage.row import Row

T = TypeVar("T")


class InsertPlan:
    """What an insert into one schema checks, resolved once per schema.

    ``validators`` holds each column's bound ``validate`` (in column
    order), ``not_null`` the positions of NOT NULL columns, ``checks`` the
    CHECK constraints and ``scope_names`` the qualified names a row scope
    for them is built from.  ``keys`` holds one ``(constraint, positions)``
    per PRIMARY KEY or UNIQUE constraint, in declaration order, and
    ``foreign_keys`` one ``(constraint, positions)`` per FOREIGN KEY.

    Bound methods do not pickle through the wire's restricted loader, so a
    table never pickles its plan: :meth:`Table.__setstate__` rebuilds it.
    """

    __slots__ = (
        "validators", "not_null", "checks", "scope_names", "keys", "foreign_keys",
    )

    def __init__(self, schema: TableSchema) -> None:
        self.validators = tuple(column.datatype.validate for column in schema.columns)
        self.not_null = tuple(
            (i, column.name)
            for i, column in enumerate(schema.columns)
            if not column.nullable
        )
        self.checks = tuple(
            c for c in schema.constraints if isinstance(c, CheckConstraint)
        )
        self.scope_names = tuple(
            f"{schema.name}.{column}" for column in schema.column_names()
        )
        self.keys = tuple(
            (c, tuple(schema.index_of(column) for column in c.columns))
            for c in schema.constraints
            if isinstance(c, (PrimaryKeyConstraint, UniqueConstraint))
        )
        self.foreign_keys = tuple(
            (c, tuple(schema.index_of(column) for column in c.columns))
            for c in schema.constraints
            if isinstance(c, ForeignKeyConstraint)
        )


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
        #: Per schema, not per version; never pickled (see :class:`InsertPlan`).
        self.insert_plan = InsertPlan(schema)

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
        del state["_derived"], state["_derived_lock"], state["insert_plan"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derived = (self.version, {})
        self._derived_lock = threading.RLock()
        self.insert_plan = InsertPlan(self.schema)

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
        plan = self.insert_plan
        typed = tuple(
            validate(value)
            for validate, value in zip(plan.validators, self._order_values(values))
        )
        self._check_not_null(typed)
        if plan.checks:
            scope = RowScope.from_pairs(plan.scope_names, typed)
            for constraint in plan.checks:
                constraint.check_row(self.name, scope)
        keys = self._check_keys(typed)
        row = Row(typed, self._next_rowid)
        self._next_rowid += 1
        self._rows.append(row)
        for columns, key in keys:
            self._key_indexes[columns][key] = row.rowid
        self.version += 1
        return row

    def rollback_insert(self, row: Row) -> None:
        """Undo the :meth:`insert` that returned ``row``, the last row
        stored: a cross-table check (a foreign key, an assertion) refused it.

        The rollback bumps :attr:`version` like every other mutation:
        derived values (columnar scan caches) key on it and must never
        serve the transiently inserted row.
        """
        self._mutable()
        self._rows.pop()
        self._unregister_keys(row)
        self.version += 1

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
            self._unregister_keys(row)
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
        if not isinstance(values, (tuple, list)) and isinstance(values, Mapping):
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

    def _check_not_null(self, values: Tuple[SqlValue, ...]) -> None:
        for position, column in self.insert_plan.not_null:
            if values[position] is NULL:
                raise ConstraintViolation(
                    f"{self.name}.{column} NOT NULL", f"{column} is NULL"
                )

    def _check_keys(
        self, values: Tuple[SqlValue, ...]
    ) -> List[Tuple[Tuple[str, ...], Tuple]]:
        """Refuse a NULL primary key or a duplicate key; returns each
        registrable key as ``(key columns, group_key)``.  A UNIQUE key
        with a NULL component is neither checked nor registered (SQL2:
        it never conflicts)."""
        keys = []
        for constraint, positions in self.insert_plan.keys:
            key_values = [values[i] for i in positions]
            if any(v is NULL for v in key_values):
                if isinstance(constraint, PrimaryKeyConstraint):
                    raise ConstraintViolation(
                        constraint.constraint_name(self.name),
                        "primary key column is NULL",
                    )
                continue
            key = group_key(key_values)
            if key in self._key_indexes[constraint.columns]:
                raise ConstraintViolation(
                    constraint.constraint_name(self.name),
                    f"duplicate key value {key_values!r}",
                )
            keys.append((constraint.columns, key))
        return keys

    def _row_keys(self, row: Row) -> Iterator[Tuple[Tuple[str, ...], Tuple]]:
        """``(key columns, group_key)`` of each key ``row`` registers."""
        for constraint, positions in self.insert_plan.keys:
            key_values = [row.values[i] for i in positions]
            if not any(v is NULL for v in key_values):
                yield constraint.columns, group_key(key_values)

    def _register_keys(self, row: Row) -> None:
        for columns, key in self._row_keys(row):
            self._key_indexes[columns][key] = row.rowid

    def _unregister_keys(self, row: Row) -> None:
        """Drop the key-index entries ``row`` registered."""
        for columns, key in self._row_keys(row):
            index = self._key_indexes[columns]
            if index.get(key) == row.rowid:
                del index[key]

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
