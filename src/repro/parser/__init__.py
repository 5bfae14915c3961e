"""SQL parsing: lexer, statement AST, recursive-descent parser, binder — and
what needs them: aggregated-view merging and SQL dump/restore."""

from repro.parser.ast_nodes import (
    ColumnDefinition,
    CreateAssertionStatement,
    CreateDomainStatement,
    CreateTableStatement,
    CreateViewStatement,
    InsertStatement,
    SelectItem,
    SelectStatement,
    TableConstraintDef,
    TableRef,
)
from repro.parser.binder import NameResolver, bind_select, execute_statement
from repro.parser.lexer import tokenize
from repro.parser.parser import Parser, parse_script, parse_statement
from repro.parser.viewmerge import merge_aggregated_view

__all__ = [
    "ColumnDefinition", "CreateAssertionStatement", "CreateDomainStatement",
    "CreateTableStatement", "CreateViewStatement", "InsertStatement",
    "SelectItem", "SelectStatement", "TableConstraintDef", "TableRef",
    "NameResolver", "bind_select", "execute_statement",
    "tokenize", "Parser", "parse_script", "parse_statement",
    "merge_aggregated_view",
]
