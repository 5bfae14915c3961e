"""Table schemas: columns, data types, and declared constraints.

A :class:`TableSchema` is purely declarative — storage lives in
:mod:`repro.storage.table` and enforcement in
:mod:`repro.catalog.constraints`.  The schema exposes the queries the
optimizer needs: primary key, candidate keys, NOT NULL columns, CHECK
predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.catalog.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.errors import CatalogError
from repro.sqltypes.datatypes import DataType


@dataclass(frozen=True)
class Column:
    """One column: a name, an SQL data type, and nullability."""

    name: str
    datatype: DataType
    nullable: bool = True

    def __str__(self) -> str:
        suffix = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.datatype}{suffix}"


class TableSchema:
    """The declared shape of a base table or view result.

    ``constraints`` holds the table's integrity constraints (see
    :mod:`repro.catalog.constraints`).  Key constraints are also surfaced via
    :meth:`primary_key` and :meth:`candidate_keys` because the paper's FD
    reasoning (Section 4.3) and TestFD consume them constantly.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        constraints: Sequence["object"] = (),
    ) -> None:
        if not columns:
            raise CatalogError(f"table {name} must have at least one column")
        names = [column.name for column in columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise CatalogError(f"duplicate columns in {name}: {sorted(duplicates)}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {column.name: i for i, column in enumerate(self.columns)}
        self.constraints: Tuple[object, ...] = tuple(constraints)
        self._apply_key_nullability()

    def _apply_key_nullability(self) -> None:
        """Primary-key columns reject NULL (SQL2: a key definition implies
        no column of the key can be NULL)."""
        pk_columns: set = set()
        for constraint in self.constraints:
            if isinstance(constraint, PrimaryKeyConstraint):
                pk_columns.update(constraint.columns)
        if not pk_columns:
            return
        missing = pk_columns - set(self._index)
        if missing:
            raise CatalogError(
                f"primary key of {self.name} names unknown columns: {sorted(missing)}"
            )
        patched = tuple(
            Column(column.name, column.datatype, nullable=False)
            if column.name in pk_columns
            else column
            for column in self.columns
        )
        self.columns = patched

    # -- lookups ---------------------------------------------------------

    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def index_of(self, column_name: str) -> int:
        try:
            return self._index[column_name]
        except KeyError:
            raise CatalogError(f"table {self.name} has no column {column_name!r}") from None

    def has_column(self, column_name: str) -> bool:
        return column_name in self._index

    def column(self, column_name: str) -> Column:
        return self.columns[self.index_of(column_name)]

    @property
    def arity(self) -> int:
        return len(self.columns)

    # -- constraint views --------------------------------------------------

    def primary_key(self) -> Optional[Tuple[str, ...]]:
        """The PRIMARY KEY columns, or ``None`` when no PK is declared."""
        for constraint in self.constraints:
            if isinstance(constraint, PrimaryKeyConstraint):
                return constraint.columns
        return None

    def candidate_keys(self) -> Tuple[Tuple[str, ...], ...]:
        """All declared keys: the primary key plus every UNIQUE constraint.

        These are the ``Ki(R)`` of Section 6 — the inputs to TestFD's
        key-based closure steps.
        """
        keys: list[Tuple[str, ...]] = []
        for constraint in self.constraints:
            if isinstance(constraint, (PrimaryKeyConstraint, UniqueConstraint)):
                keys.append(constraint.columns)
        return tuple(keys)

    def check_constraints(self) -> Tuple["object", ...]:
        return tuple(c for c in self.constraints if isinstance(c, CheckConstraint))

    def foreign_keys(self) -> Tuple["object", ...]:
        return tuple(c for c in self.constraints if isinstance(c, ForeignKeyConstraint))

    def not_null_columns(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns if not column.nullable)

    def rename(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different (correlation) name."""
        return TableSchema(new_name, self.columns, self.constraints)

    def __repr__(self) -> str:
        cols = ", ".join(str(column) for column in self.columns)
        return f"TableSchema({self.name}: {cols})"
