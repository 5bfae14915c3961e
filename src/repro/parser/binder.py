"""Name resolution and statement execution against a database.

* :func:`bind_select` — resolve a parsed SELECT into a fully-qualified
  :class:`~repro.core.partition.FlatQuery` (every column reference carries
  its correlation name, SELECT items are split into grouping columns and
  aggregate specs, SQL2's "selection columns ⊆ grouping columns" rule is
  enforced).
* :func:`execute_statement` — apply DDL/INSERT statements to a
  :class:`~repro.catalog.catalog.Database`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.ops import AggregateSpec
from repro.catalog.catalog import Database
from repro.catalog.constraints import (
    Assertion,
    CheckConstraint,
    Domain,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.catalog.schema import Column, TableSchema
from repro.core.partition import FlatQuery
from repro.errors import BindingError, CatalogError
from repro.expressions.ast import (
    Aggregate,
    ColumnRef,
    Expression,
    contains_aggregate,
    transform_expression,
)
from repro.fd.derivation import TableBinding
from repro.parser.ast_nodes import (
    CreateAssertionStatement,
    CreateDomainStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    InsertStatement,
    SelectItem,
    SelectStatement,
    TableRef,
    UpdateStatement,
)
from repro.sqltypes.datatypes import type_from_name


class NameResolver:
    """Qualifies column references against the FROM-clause tables."""

    def __init__(self, database: Database, tables: Tuple[TableRef, ...]) -> None:
        self.database = database
        self.by_alias: Dict[str, TableRef] = {}
        self.columns_by_alias: Dict[str, Tuple[str, ...]] = {}
        for ref in tables:
            correlation = ref.correlation
            if correlation in self.by_alias:
                raise BindingError(f"duplicate correlation name {correlation}")
            self.by_alias[correlation] = ref
            schema = database.table(ref.name).schema
            self.columns_by_alias[correlation] = schema.column_names()

    def qualify(self, ref: ColumnRef) -> ColumnRef:
        if ref.table:
            if ref.table not in self.by_alias:
                raise BindingError(f"unknown correlation name {ref.table}")
            if ref.column not in self.columns_by_alias[ref.table]:
                raise BindingError(
                    f"table {self.by_alias[ref.table].name} (as {ref.table}) "
                    f"has no column {ref.column}"
                )
            return ref
        owners = [
            alias
            for alias, columns in self.columns_by_alias.items()
            if ref.column in columns
        ]
        if len(owners) == 1:
            return ColumnRef(owners[0], ref.column)
        if not owners:
            raise BindingError(f"unknown column {ref.column}")
        raise BindingError(
            f"ambiguous column {ref.column}: in {sorted(owners)}"
        )

    def qualify_expression(self, expression: Expression) -> Expression:
        def visit(node: Expression):
            if isinstance(node, ColumnRef):
                return self.qualify(node)
            return None

        return transform_expression(expression, visit)


def bind_select(database: Database, statement: SelectStatement) -> FlatQuery:
    """Resolve a grouped SELECT into a :class:`FlatQuery`.

    Views in the FROM clause are not handled here — see
    :mod:`repro.parser.viewmerge` for the aggregated-view path (Section 8).
    """
    for ref in statement.from_tables:
        if ref.name in database.views:
            raise BindingError(
                f"{ref.name} is a view; use the view-merge path to bind it"
            )
    resolver = NameResolver(database, statement.from_tables)

    where = (
        resolver.qualify_expression(statement.where)
        if statement.where is not None
        else None
    )
    having = (
        resolver.qualify_expression(statement.having)
        if statement.having is not None
        else None
    )
    group_by = tuple(
        resolver.qualify(column).qualified for column in statement.group_by
    )

    select_group_columns: List[str] = []
    aggregates: List[AggregateSpec] = []
    items = list(statement.items)
    # SELECT *: expand to every column of every FROM entry, in FROM order.
    if any(
        isinstance(item.expression, ColumnRef)
        and not item.expression.table
        and item.expression.column == "*"
        for item in items
    ):
        if len(items) != 1:
            raise BindingError("SELECT * cannot be mixed with other items")
        items = [
            SelectItem(ColumnRef(ref.correlation, column))
            for ref in statement.from_tables
            for column in resolver.columns_by_alias[ref.correlation]
        ]
    for item in items:
        expression = resolver.qualify_expression(item.expression)
        if contains_aggregate(expression):
            name = item.alias or str(expression)
            aggregates.append(AggregateSpec(name, expression))
        elif isinstance(expression, ColumnRef):
            qualified = expression.qualified
            if group_by and qualified not in group_by:
                raise BindingError(
                    f"selection column {qualified} is not a grouping column "
                    "(SQL2 requires SELECT columns ⊆ GROUP BY columns)"
                )
            select_group_columns.append(qualified)
        else:
            raise BindingError(
                f"non-aggregate SELECT expression {expression} is outside "
                "the supported query class (columns and aggregates only)"
            )

    if aggregates and select_group_columns and not group_by:
        raise BindingError(
            "mixing aggregates with bare columns requires a GROUP BY clause"
        )

    bindings = tuple(
        TableBinding(ref.correlation, ref.name) for ref in statement.from_tables
    )
    return FlatQuery(
        bindings,
        where,
        group_by,
        tuple(select_group_columns),
        tuple(aggregates),
        statement.distinct,
        having,
    )


# -- DDL / DML execution ------------------------------------------------------


def execute_statement(database: Database, statement: object) -> None:
    """Apply a DDL or DML (INSERT/UPDATE/DELETE) statement to the database."""
    if isinstance(statement, DeleteStatement):
        resolver = NameResolver(database, (TableRef(statement.table),))
        where = (
            resolver.qualify_expression(statement.where)
            if statement.where is not None
            else None
        )
        database.delete(statement.table, where)
        return
    if isinstance(statement, UpdateStatement):
        resolver = NameResolver(database, (TableRef(statement.table),))
        where = (
            resolver.qualify_expression(statement.where)
            if statement.where is not None
            else None
        )
        assignments = {
            column: resolver.qualify_expression(expression)
            for column, expression in statement.assignments
        }
        database.update(statement.table, assignments, where)
        return
    if isinstance(statement, CreateTableStatement):
        _create_table(database, statement)
    elif isinstance(statement, CreateDomainStatement):
        check = statement.check
        database.create_domain(
            Domain(
                statement.name,
                type_from_name(statement.type_name, *statement.type_params),
                check,
            )
        )
    elif isinstance(statement, CreateViewStatement):
        database.create_view(statement.name, statement)
    elif isinstance(statement, CreateAssertionStatement):
        database.create_assertion(Assertion(statement.name, statement.check))
    elif isinstance(statement, InsertStatement):
        for row in statement.rows:
            if statement.columns:
                database.insert(statement.table, dict(zip(statement.columns, row)))
            else:
                database.insert(statement.table, row)
    else:
        raise CatalogError(
            f"cannot execute statement of type {type(statement).__name__}"
        )


def _create_table(database: Database, statement: CreateTableStatement) -> None:
    columns: List[Column] = []
    constraints: List[object] = []
    for definition in statement.columns:
        domain: Optional[Domain] = None
        if definition.type_name in database.domains:
            domain = database.resolve_domain(definition.type_name)
            datatype = domain.datatype
        else:
            datatype = type_from_name(definition.type_name, *definition.type_params)
        columns.append(
            Column(definition.name, datatype, nullable=not definition.not_null)
        )
        if domain is not None:
            domain_check = domain.column_check(statement.name, definition.name)
            if domain_check is not None:
                constraints.append(domain_check)
        if definition.primary_key:
            constraints.append(PrimaryKeyConstraint([definition.name]))
        if definition.unique:
            constraints.append(UniqueConstraint([definition.name]))
        if definition.check is not None:
            constraints.append(
                CheckConstraint(
                    definition.check,
                    name=f"CHECK on {statement.name}.{definition.name}",
                )
            )
        if definition.references is not None:
            ref_table, ref_columns = definition.references
            constraints.append(
                ForeignKeyConstraint([definition.name], ref_table, ref_columns)
            )
    for constraint in statement.constraints:
        if constraint.kind == "primary_key":
            constraints.append(PrimaryKeyConstraint(constraint.columns))
        elif constraint.kind == "unique":
            constraints.append(UniqueConstraint(constraint.columns))
        elif constraint.kind == "check":
            assert constraint.check is not None
            constraints.append(
                CheckConstraint(constraint.check, name=f"CHECK on {statement.name}")
            )
        elif constraint.kind == "foreign_key":
            assert constraint.references is not None
            ref_table, ref_columns = constraint.references
            constraints.append(
                ForeignKeyConstraint(constraint.columns, ref_table, ref_columns)
            )
    database.create_table(TableSchema(statement.name, columns, constraints))
