"""Dumping a database to a SQL script and loading it back.

``dump_database`` emits DDL (domains, tables in foreign-key dependency
order, views, assertions) followed by INSERT statements; ``load_database``
replays such a script through the parser/binder.  The dump round-trips
through this package's own SQL dialect, so it doubles as an end-to-end
exercise of parser + binder + constraint enforcement.

Caveats (documented, asserted in tests): DECIMAL values round-trip through
their decimal literal text; DATE values are dumped as ISO strings (which
the DATE type re-parses); view definitions are re-rendered from their
parsed form.
"""

from __future__ import annotations

import datetime
import decimal
from typing import List, Set

from repro.catalog.catalog import Database
from repro.catalog.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.catalog.schema import TableSchema
from repro.core.sqlgen import render_expression
from repro.errors import CatalogError
from repro.parser.ast_nodes import (
    CreateViewStatement,
    SelectStatement,
)
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_script
from repro.sqltypes.values import is_null


def _render_value(value: object) -> str:
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, decimal.Decimal):
        return str(value)
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    return str(value)


def render_select(statement: SelectStatement) -> str:
    """SQL text for a parsed SELECT (used to re-render view definitions)."""
    head = "SELECT DISTINCT" if statement.distinct else "SELECT"
    items = []
    for item in statement.items:
        text = render_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    tables = ", ".join(
        f"{t.name} {t.alias}" if t.alias and t.alias != t.name else t.name
        for t in statement.from_tables
    )
    parts = [f"{head} {', '.join(items)}", f"FROM {tables}"]
    if statement.where is not None:
        parts.append(f"WHERE {render_expression(statement.where)}")
    if statement.group_by:
        parts.append(
            "GROUP BY " + ", ".join(c.qualified for c in statement.group_by)
        )
    if statement.having is not None:
        parts.append(f"HAVING {render_expression(statement.having)}")
    if statement.order_by:
        keys = ", ".join(
            f"{item.column.qualified}{' DESC' if item.descending else ''}"
            for item in statement.order_by
        )
        parts.append(f"ORDER BY {keys}")
    return " ".join(parts)


def table_ddl(schema: TableSchema) -> str:
    """``CREATE TABLE`` text for one schema (the shell's ``.schema`` prints it)."""
    pieces: List[str] = []
    for column in schema.columns:
        text = f"{column.name} {column.datatype.type_name}"
        if not column.nullable and not _in_primary_key(schema, column.name):
            text += " NOT NULL"
        pieces.append(text)
    for constraint in schema.constraints:
        if isinstance(constraint, PrimaryKeyConstraint):
            pieces.append(f"PRIMARY KEY ({', '.join(constraint.columns)})")
        elif isinstance(constraint, UniqueConstraint):
            pieces.append(f"UNIQUE ({', '.join(constraint.columns)})")
        elif isinstance(constraint, CheckConstraint):
            pieces.append(f"CHECK ({render_expression(constraint.expression)})")
        elif isinstance(constraint, ForeignKeyConstraint):
            text = (
                f"FOREIGN KEY ({', '.join(constraint.columns)}) "
                f"REFERENCES {constraint.referenced_table}"
            )
            if constraint.referenced_columns:
                text += f" ({', '.join(constraint.referenced_columns)})"
            pieces.append(text)
    body = ",\n  ".join(pieces)
    return f"CREATE TABLE {schema.name} (\n  {body})"


def _in_primary_key(schema: TableSchema, column: str) -> bool:
    primary = schema.primary_key()
    return primary is not None and column in primary


def _dependency_order(database: Database) -> List[str]:
    """Tables ordered so every FK target precedes its referencers."""
    remaining: Set[str] = set(database.tables)
    ordered: List[str] = []
    while remaining:
        progressed = False
        for name in sorted(remaining):
            schema = database.table(name).schema
            targets = {
                fk.referenced_table
                for fk in schema.foreign_keys()
                if fk.referenced_table != name
            }
            if targets & remaining:
                continue
            ordered.append(name)
            remaining.discard(name)
            progressed = True
        if not progressed:
            raise CatalogError(
                f"cyclic foreign-key dependencies among {sorted(remaining)}"
            )
    return ordered


def dump_database(database: Database) -> str:
    """A SQL script that recreates the database's schema and contents."""
    statements: List[str] = []
    for domain in database.domains.values():
        text = f"CREATE DOMAIN {domain.name} {domain.datatype.type_name}"
        if domain.check is not None:
            text += f" CHECK ({render_expression(domain.check)})"
        statements.append(text)

    order = _dependency_order(database)
    for name in order:
        statements.append(table_ddl(database.table(name).schema))

    for view_name, definition in database.views.items():
        if isinstance(definition, CreateViewStatement):
            columns = (
                f" ({', '.join(definition.column_names)})"
                if definition.column_names
                else ""
            )
            statements.append(
                f"CREATE VIEW {view_name}{columns} AS "
                f"{render_select(definition.select)}"
            )

    for assertion in database.assertions.values():
        statements.append(
            f"CREATE ASSERTION {assertion.name} "
            f"CHECK ({render_expression(assertion.expression)})"
        )

    for name in order:
        table = database.table(name)
        for row in table:
            values = ", ".join(_render_value(v) for v in row.values)
            statements.append(f"INSERT INTO {name} VALUES ({values})")

    return ";\n".join(statements) + (";\n" if statements else "")


def load_database(script: str, name: str = "db") -> Database:
    """Rebuild a database from a dump script."""
    database = Database(name)
    for statement in parse_script(script):
        execute_statement(database, statement)
    return database
