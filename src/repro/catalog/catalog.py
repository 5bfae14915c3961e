"""The database: named tables, domains, views, and assertions.

:class:`Database` is the root object a user of the library interacts with.
It owns storage, enforces cross-table constraints (referential integrity,
assertions), and is the catalog the optimizer consults for the semantic
information Theorem 3 exploits (keys, checks, domains, assertions).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.catalog.constraints import (
    Assertion,
    CheckConstraint,
    Domain,
    ForeignKeyConstraint,
)
from repro.catalog.schema import Column, TableSchema
from repro.errors import CatalogError, ConstraintViolation
from repro.expressions.analysis import referenced_tables
from repro.expressions.ast import ColumnRef, Expression, transform_expression
from repro.expressions.eval import (
    ReusableRowScope,
    RowScope,
    evaluate_predicate,
    evaluate_scalar,
)
from repro.sqltypes.values import SqlValue, is_null
from repro.storage.table import Table


class Database:
    """A collection of tables plus database-wide integrity constraints."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.domains: Dict[str, Domain] = {}
        self.views: Dict[str, object] = {}  # name -> parsed SELECT statement
        self.assertions: Dict[str, Assertion] = {}
        # name -> PartitionSpec: declared shard layouts (storage/partition.py)
        self.partitioning: Dict[str, object] = {}
        #: Bumped by every catalog change (DDL, a declared shard layout).
        #: With each table's identity and ``Table.version`` it stamps a
        #: session's remembered plans (:class:`repro.statement.PlanMemo`).
        self.schema_epoch = 0

    # -- DDL ---------------------------------------------------------------

    def create_domain(self, domain: Domain) -> Domain:
        if domain.name in self.domains:
            raise CatalogError(f"domain {domain.name} already exists")
        self.domains[domain.name] = domain
        self.schema_epoch += 1
        return domain

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables or schema.name in self.views:
            raise CatalogError(f"table or view {schema.name} already exists")
        self._validate_foreign_keys(schema)
        table = Table(schema)
        self.tables[schema.name] = table
        self.schema_epoch += 1
        return table

    def create_view(self, name: str, definition: object) -> None:
        """Register a view.  ``definition`` is a parsed SELECT statement."""
        if name in self.tables or name in self.views:
            raise CatalogError(f"table or view {name} already exists")
        self.views[name] = definition
        self.schema_epoch += 1

    def create_assertion(self, assertion: Assertion) -> Assertion:
        if assertion.name in self.assertions:
            raise CatalogError(f"assertion {assertion.name} already exists")
        self.assertions[assertion.name] = assertion
        self.schema_epoch += 1
        return assertion

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise CatalogError(f"no such table: {name}")
        del self.tables[name]
        self.schema_epoch += 1

    def _validate_foreign_keys(self, schema: TableSchema) -> None:
        for fk in schema.foreign_keys():
            assert isinstance(fk, ForeignKeyConstraint)
            if fk.referenced_table == schema.name:
                continue  # self-reference: target is the table being created
            target = self.tables.get(fk.referenced_table)
            if target is None:
                raise CatalogError(
                    f"{schema.name}: foreign key references unknown table "
                    f"{fk.referenced_table}"
                )
            ref_columns = fk.referenced_columns or (target.schema.primary_key() or ())
            if not ref_columns:
                raise CatalogError(
                    f"{schema.name}: foreign key references {fk.referenced_table} "
                    "which has no primary key"
                )
            if ref_columns not in target.schema.candidate_keys():
                raise CatalogError(
                    f"{schema.name}: foreign key must reference a candidate key "
                    f"of {fk.referenced_table}, got {ref_columns}"
                )

    # -- lookups -------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def view_definition(self, name: str) -> object:
        try:
            return self.views[name]
        except KeyError:
            raise CatalogError(f"no such view: {name}") from None

    def resolve_domain(self, name: str) -> Domain:
        try:
            return self.domains[name]
        except KeyError:
            raise CatalogError(f"no such domain: {name}") from None

    # -- snapshot support (the server's MVCC reads) ---------------------------

    def snapshot_view(self) -> "Database":
        """A shallow catalog copy sharing the current table objects.

        The copy owns its *dicts* (tables/domains/views/assertions) but
        shares every :class:`~repro.storage.table.Table`: under the
        server's copy-on-write protocol published tables are frozen and
        never mutated in place, so the view is a consistent, immutable
        snapshot — later writes swap fresh clones into the *authoritative*
        dicts and this view never sees them.
        """
        view = Database(self.name)
        view.tables = dict(self.tables)
        view.domains = dict(self.domains)
        view.views = dict(self.views)
        view.assertions = dict(self.assertions)
        view.partitioning = dict(self.partitioning)
        view.schema_epoch = self.schema_epoch
        return view

    def set_partitioning(self, table_name: str, spec: object) -> None:
        """Declare a shard layout for ``table_name`` (see
        :mod:`repro.storage.partition`).  Purely advisory: it steers the
        planner's partitioning keys; execution stays correct either way."""
        if table_name not in self.tables:
            raise CatalogError(f"no such table: {table_name}")
        self.partitioning[table_name] = spec
        self.schema_epoch += 1

    def partition_spec(self, table_name: str) -> Optional[object]:
        return self.partitioning.get(table_name)

    def fk_neighbors(self, table_name: str) -> "frozenset[str]":
        """``table_name`` plus every table one foreign key away, either
        direction — the tables whose contents a write to ``table_name``
        may read (parent lookups) or invalidate (RESTRICT checks on
        children).  This is exactly the lock set a serializing writer
        must hold so concurrent commits cannot produce write skew
        (e.g. delete-parent racing insert-child).
        """
        names = {table_name}
        table = self.tables.get(table_name)
        if table is not None:
            for fk in table.schema.foreign_keys():
                assert isinstance(fk, ForeignKeyConstraint)
                names.add(fk.referenced_table)
        for other_name, other in self.tables.items():
            for fk in other.schema.foreign_keys():
                assert isinstance(fk, ForeignKeyConstraint)
                if fk.referenced_table == table_name:
                    names.add(other_name)
        return frozenset(names)

    # -- DML with cross-table enforcement -------------------------------------

    def insert(
        self, table_name: str, values: "Sequence[SqlValue] | Mapping[str, SqlValue]"
    ) -> None:
        """Insert one row, enforcing FKs and single-table assertions."""
        table = self.table(table_name)
        row = table.insert(values)
        try:
            self._check_foreign_keys(table, row.values)
            self._check_row_assertions(table, row.values)
        except ConstraintViolation:
            # Roll the insert back so a failed statement leaves no trace.
            table.rollback_insert(row)
            raise

    def insert_many(
        self,
        table_name: str,
        rows: Iterable["Sequence[SqlValue] | Mapping[str, SqlValue]"],
    ) -> int:
        count = 0
        for values in rows:
            self.insert(table_name, values)
            count += 1
        return count

    def _check_foreign_keys(self, table: Table, values: Tuple[SqlValue, ...]) -> None:
        for fk, positions in table.insert_plan.foreign_keys:
            fk_values = [values[i] for i in positions]
            # SQL2: a foreign key with any NULL component places no demand.
            if any(is_null(v) for v in fk_values):
                continue
            target = self.table(fk.referenced_table)
            ref_columns = fk.referenced_columns or (target.schema.primary_key() or ())
            if not target.has_key_value(tuple(ref_columns), fk_values):
                raise ConstraintViolation(
                    fk.constraint_name(table.name),
                    f"no matching row in {fk.referenced_table} for {fk_values!r}",
                )

    def _check_row_assertions(self, table: Table, values: Tuple[SqlValue, ...]) -> None:
        scope = None  # built only for an assertion that names this table alone
        for assertion in self.assertions.values():
            tables = referenced_tables(assertion.expression)
            if tables == frozenset({table.name}):
                if scope is None:
                    scope = RowScope.from_pairs(table.insert_plan.scope_names, values)
                truth = evaluate_predicate(assertion.expression, scope)
                if truth.is_false():
                    raise ConstraintViolation(
                        f"ASSERTION {assertion.name}",
                        f"row fails ({assertion.expression})",
                    )

    def check_assertions(self) -> Tuple[str, ...]:
        """Validate all *single-table* assertions over current contents.

        Returns the names of assertions that could not be checked here
        (multi-table assertions), so callers know the residual obligation.
        """
        unchecked: list[str] = []
        for assertion in self.assertions.values():
            tables = referenced_tables(assertion.expression)
            if len(tables) != 1:
                unchecked.append(assertion.name)
                continue
            (table_name,) = tables
            table = self.table(table_name)
            scope = ReusableRowScope(table.insert_plan.scope_names)
            for row in table:
                truth = evaluate_predicate(
                    assertion.expression, scope.bind(row.values)
                )
                if truth.is_false():
                    raise ConstraintViolation(
                        f"ASSERTION {assertion.name}",
                        f"row {row.rowid} of {table_name} fails",
                    )
        return tuple(unchecked)

    def delete(
        self,
        table_name: str,
        condition: Optional[Expression] = None,
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> int:
        """DELETE FROM ``table_name`` [WHERE ``condition``]; returns count.

        Referential integrity is RESTRICT: deleting a row that some other
        table's foreign key still references raises
        :class:`ConstraintViolation` and nothing is deleted.
        """
        table = self.table(table_name)
        doomed = []
        scope = ReusableRowScope(table.insert_plan.scope_names)
        for row in table:
            if condition is None or evaluate_predicate(
                condition, scope.bind(row.values), params
            ).is_true():
                doomed.append(row)
        if not doomed:
            return 0
        self._check_no_referencing_children(table, doomed)
        return table.delete_rowids({row.rowid for row in doomed})

    def update(
        self,
        table_name: str,
        assignments: Mapping[str, Expression],
        condition: Optional[Expression] = None,
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> int:
        """UPDATE ``table_name`` SET ... [WHERE ...]; returns rows changed.

        Applied atomically: the table is snapshotted, rows are deleted and
        re-inserted with the new values (full constraint checking, fresh
        RowIDs), and any violation rolls everything back.  Changing key
        columns still referenced by other tables' foreign keys is refused
        (RESTRICT).
        """
        table = self.table(table_name)
        for column in assignments:
            table.schema.index_of(column)  # raises on unknown column

        targets = []
        scope = ReusableRowScope(table.insert_plan.scope_names)
        for row in table:
            scope.bind(row.values)
            if (
                condition is None
                or evaluate_predicate(condition, scope, params).is_true()
            ):
                new_values = list(row.values)
                for column, expression in assignments.items():
                    new_values[table.schema.index_of(column)] = evaluate_scalar(
                        expression, scope, params
                    )
                targets.append((row, tuple(new_values)))
        if not targets:
            return 0

        # RESTRICT on referenced keys: a referenced row may not change the
        # referenced columns.
        assigned = set(assignments)
        key_changers = [
            (row, new)
            for row, new in targets
            if any(
                assigned & set(key)
                and tuple(row.values[table.schema.index_of(c)] for c in key)
                != tuple(new[table.schema.index_of(c)] for c in key)
                for key in table.schema.candidate_keys()
            )
        ]
        if key_changers:
            self._check_no_referencing_children(
                table, [row for row, __ in key_changers]
            )

        snapshot = table.snapshot()
        try:
            table.delete_rowids({row.rowid for row, __ in targets})
            for __, new_values in targets:
                row = table.insert(new_values)
                self._check_foreign_keys(table, row.values)
                self._check_row_assertions(table, row.values)
        except Exception:
            table.restore(snapshot)
            raise
        return len(targets)

    def _check_no_referencing_children(self, table: Table, rows) -> None:
        """RESTRICT enforcement: no FK in any table may reference ``rows``."""
        for other_name, other in self.tables.items():
            for fk in other.schema.foreign_keys():
                assert isinstance(fk, ForeignKeyConstraint)
                if fk.referenced_table != table.name:
                    continue
                ref_columns = fk.referenced_columns or (
                    table.schema.primary_key() or ()
                )
                if not ref_columns:
                    continue
                referenced_values = {
                    tuple(
                        row.values[table.schema.index_of(column)]
                        for column in ref_columns
                    )
                    for row in rows
                }
                fk_indexes = [other.schema.index_of(c) for c in fk.columns]
                for child in other:
                    child_values = tuple(child.values[i] for i in fk_indexes)
                    if any(is_null(v) for v in child_values):
                        continue
                    if child_values in referenced_values:
                        raise ConstraintViolation(
                            fk.constraint_name(other_name),
                            f"row still referenced by {other_name}",
                        )

    # -- semantic info for the optimizer (Theorem 3's T1/T2) ------------------

    def table_condition(self, table_name: str, alias: str = "") -> Tuple[Expression, ...]:
        """The CHECK/domain/assertion conditions that hold for every row of
        ``table_name``, rewritten to the given correlation ``alias``.

        These are the building blocks of the T1/T2 Boolean expressions of
        Theorem 3.  Key constraints are not included — TestFD consumes keys
        structurally, not as Boolean expressions.
        """
        table = self.table(table_name)
        alias = alias or table_name
        conditions: list[Expression] = []
        for constraint in table.schema.constraints:
            if isinstance(constraint, CheckConstraint):
                conditions.append(
                    _requalify(constraint.expression, table_name, alias)
                )
        for assertion in self.assertions.values():
            if referenced_tables(assertion.expression) == frozenset({table_name}):
                conditions.append(
                    _requalify(assertion.expression, table_name, alias)
                )
        return tuple(conditions)

    def __repr__(self) -> str:
        return (
            f"Database({self.name}: {len(self.tables)} tables, "
            f"{len(self.views)} views)"
        )


def _requalify(expression: Expression, old_table: str, new_table: str) -> Expression:
    """Rewrite column qualifiers from ``old_table`` to ``new_table``.

    Unqualified references are assumed to belong to ``old_table`` (they came
    from a single-table constraint definition).
    """

    def visit(node: Expression):
        if isinstance(node, ColumnRef):
            if node.table in ("", old_table):
                return ColumnRef(new_table, node.column)
            return node
        return None

    return transform_expression(expression, visit)
