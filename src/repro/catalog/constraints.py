"""SQL2 integrity constraints — the five classes of Section 6.1.

* **Column constraints**: :class:`NotNullConstraint`, :class:`CheckConstraint`
  (a check attached to one column or the whole table).
* **Domain constraints**: :class:`Domain` — a named data type plus a CHECK on
  ``VALUE``; the paper notes these are equivalent to column constraints, and
  we realize them that way when a column is typed with a domain.
* **Key constraints**: :class:`PrimaryKeyConstraint` (no NULLs, unique) and
  :class:`UniqueConstraint` (candidate key; NULLs allowed, and uniqueness
  uses SQL2's "NULL not equal to NULL" UNIQUE-predicate semantics, as the
  paper points out in Section 4.2).
* **Referential integrity**: :class:`ForeignKeyConstraint`.
* **Assertions**: :class:`Assertion` — database-wide CHECKs.

Each enforcement hook raises :class:`ConstraintViolation` on failure.
Constraints also know how to express themselves as Boolean conditions over
a row scope (:meth:`as_predicate`), which is how T1/T2 of Theorem 3 are fed
to TestFD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConstraintViolation
from repro.expressions.ast import ColumnRef, Expression, transform_expression
from repro.expressions.eval import RowScope, evaluate_predicate
from repro.sqltypes.datatypes import DataType
from repro.sqltypes.values import is_null


@dataclass(frozen=True)
class NotNullConstraint:
    """Column constraint: the column must not be NULL."""

    column: str
    name: str = ""

    def constraint_name(self, table: str) -> str:
        return self.name or f"{table}.{self.column} NOT NULL"

    def check_row(self, table: str, scope: RowScope) -> None:
        value = scope.lookup(ColumnRef(table, self.column))
        if is_null(value):
            raise ConstraintViolation(
                self.constraint_name(table), f"{self.column} is NULL"
            )


@dataclass(frozen=True)
class CheckConstraint:
    """A CHECK predicate over one row of the table.

    Per SQL2, a CHECK is satisfied when the condition is TRUE *or UNKNOWN*
    (only FALSE violates) — note this differs from WHERE semantics.
    """

    expression: Expression
    name: str = ""

    def constraint_name(self, table: str) -> str:
        return self.name or f"CHECK on {table}"

    def check_row(self, table: str, scope: RowScope) -> None:
        truth = evaluate_predicate(self.expression, scope)
        if truth.is_false():
            raise ConstraintViolation(
                self.constraint_name(table),
                f"row fails CHECK ({self.expression})",
            )


@dataclass(frozen=True)
class PrimaryKeyConstraint:
    """PRIMARY KEY: unique, and no key column may be NULL."""

    columns: Tuple[str, ...]
    name: str = ""

    def __init__(self, columns: Sequence[str], name: str = "") -> None:
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "name", name)

    def constraint_name(self, table: str) -> str:
        return self.name or f"PRIMARY KEY of {table}"


@dataclass(frozen=True)
class UniqueConstraint:
    """UNIQUE (candidate key): may contain NULLs.

    Uniqueness is judged with "NULL not equal to NULL": two rows conflict
    only when all key values are pairwise equal and *none* is NULL (SQL2
    UNIQUE-predicate semantics).  FD reasoning over this key still uses
    ``=ⁿ`` semantics — see :mod:`repro.fd.derivation`.
    """

    columns: Tuple[str, ...]
    name: str = ""

    def __init__(self, columns: Sequence[str], name: str = "") -> None:
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "name", name)

    def constraint_name(self, table: str) -> str:
        return self.name or f"UNIQUE({', '.join(self.columns)}) of {table}"


@dataclass(frozen=True)
class ForeignKeyConstraint:
    """FOREIGN KEY: values are NULL or match a key of the referenced table."""

    columns: Tuple[str, ...]
    referenced_table: str
    referenced_columns: Tuple[str, ...] = ()
    name: str = ""

    def __init__(
        self,
        columns: Sequence[str],
        referenced_table: str,
        referenced_columns: Sequence[str] = (),
        name: str = "",
    ) -> None:
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "referenced_table", referenced_table)
        object.__setattr__(self, "referenced_columns", tuple(referenced_columns))
        object.__setattr__(self, "name", name)

    def constraint_name(self, table: str) -> str:
        return self.name or (
            f"FOREIGN KEY ({', '.join(self.columns)}) of {table} "
            f"REFERENCES {self.referenced_table}"
        )


@dataclass(frozen=True)
class Domain:
    """CREATE DOMAIN: a named base type plus an optional CHECK on VALUE.

    ``check`` uses the pseudo-column ``VALUE`` (an unqualified
    :class:`ColumnRef` named ``VALUE``); :meth:`column_check` rewrites it to
    a CHECK on a concrete column, per the paper's observation that domain
    constraints are equivalent to column constraints.
    """

    name: str
    datatype: DataType
    check: Optional[Expression] = None

    def column_check(self, table: str, column: str) -> Optional[CheckConstraint]:
        if self.check is None:
            return None
        rewritten = _substitute_value(self.check, ColumnRef(table, column))
        return CheckConstraint(rewritten, name=f"DOMAIN {self.name} on {table}.{column}")


@dataclass(frozen=True)
class Assertion:
    """CREATE ASSERTION: a database-wide condition.

    Enforcement here covers the single-table case (evaluated per row of that
    table); multi-table assertions are recorded for the optimizer's benefit
    (they contribute to T1/T2 in Theorem 3) and validated only via
    :meth:`repro.catalog.catalog.Database.check_assertions`.
    """

    name: str
    expression: Expression


def _substitute_value(expression: Expression, replacement: ColumnRef) -> Expression:
    """Replace the VALUE pseudo-column in a domain CHECK."""

    def visit(node: Expression):
        if isinstance(node, ColumnRef):
            if not node.table and node.column.upper() == "VALUE":
                return replacement
            return node
        return None

    return transform_expression(expression, visit)
