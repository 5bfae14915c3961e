"""The vocabulary of inferred schemas: one output column, one operator's row.

Name resolution follows the executor's :meth:`DataSet.index_of` rules
exactly (an exact qualified match wins, otherwise a unique bare-name
suffix match), so "statically bound" and "resolvable at runtime" coincide.
The type checker (:mod:`repro.analysis.typecheck`) reads these and schema
inference (:mod:`repro.analysis.schema`) builds them with its help.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sqltypes.datatypes import DataType


@dataclass(frozen=True)
class ColumnInfo:
    """One inferred output column: name, SQL type (when known), nullability.

    ``datatype`` is ``None`` for columns whose type cannot be derived
    statically (e.g. outputs of an aggregate over an unbound column); the
    type checker treats unknown types as unconstrained rather than wrong.
    """

    name: str
    datatype: Optional[DataType] = None
    nullable: bool = True

    @property
    def bare(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        typename = str(self.datatype) if self.datatype is not None else "?"
        suffix = "" if self.nullable else " NOT NULL"
        return f"{self.name} {typename}{suffix}"


class AmbiguousColumn(Exception):
    """A bare name matched more than one column (resolution must fail)."""


@dataclass(frozen=True)
class PlanSchema:
    """The ordered output columns of one operator."""

    columns: Tuple[ColumnInfo, ...]

    def names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def resolve(self, name: str) -> Optional[ColumnInfo]:
        """Resolve ``name`` like the executor would; ``None`` if unbound.

        Raises :class:`AmbiguousColumn` when a bare name matches several
        qualified columns — callers report that as its own rule (A004).
        """
        for column in self.columns:
            if column.name == name:
                return column
        matches = [column for column in self.columns if column.bare == name]
        if len(matches) > 1:
            raise AmbiguousColumn(name)
        return matches[0] if matches else None

    def duplicate_names(self) -> Tuple[str, ...]:
        seen: Dict[str, int] = {}
        for column in self.columns:
            seen[column.name] = seen.get(column.name, 0) + 1
        return tuple(sorted(name for name, count in seen.items() if count > 1))

    def describe(self) -> str:
        return ", ".join(str(column) for column in self.columns)
