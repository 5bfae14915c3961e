"""Recursive-descent SQL parser for the paper's query class plus DDL.

Grammar (informal)::

    statement      := select | create_table | create_domain | create_view
                    | create_assertion | insert
    select         := SELECT [ALL|DISTINCT] item ("," item)*
                      FROM table_ref ("," table_ref)*
                      [WHERE expr] [GROUP BY column ("," column)*]
                      [HAVING expr]
    item           := expr [[AS] name] | "*"
    expr           := or_expr
    or_expr        := and_expr (OR and_expr)*
    and_expr       := not_expr (AND not_expr)*
    not_expr       := NOT not_expr | predicate
    predicate      := additive [compop additive | IS [NOT] NULL]
    additive       := term (("+"|"-") term)*
    term           := factor (("*"|"/") factor)*
    factor         := "-" factor | primary
    primary        := literal | hostvar | aggregate | column | "(" expr ")"

``CHECK`` accepts both parenthesized and bare conditions — the paper's
Figure 5 writes ``CHECK VALUE > 0 AND VALUE < 100`` without parentheses.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.expressions.ast import (
    Aggregate,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    HostVariable,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
)
from repro.parser.ast_nodes import (
    ColumnDefinition,
    CreateAssertionStatement,
    CreateDomainStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    InsertStatement,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetOperationStatement,
    TableConstraintDef,
    TableRef,
    UpdateStatement,
)
from repro.parser.lexer import tokenize
from repro.parser.tokens import Token, TokenType
from repro.sqltypes.values import NULL

_TYPE_KEYWORDS = (
    "INTEGER", "INT", "SMALLINT", "FLOAT", "REAL", "BOOLEAN", "DATE",
    "CHAR", "CHARACTER", "VARCHAR", "DECIMAL", "NUMERIC",
)
_AGGREGATE_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


class Parser:
    """One-statement-at-a-time recursive descent parser."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._position = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def _expect_keyword(self, *words: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*words):
            raise ParseError(
                f"expected {' or '.join(words)}, got {token.text!r}",
                token.line, token.column,
            )
        return self._advance()

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._peek().is_keyword(*words):
            return self._advance()
        return None

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCTUATION or token.text != text:
            raise ParseError(
                f"expected {text!r}, got {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _accept_punct(self, text: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCTUATION and token.text == text:
            self._advance()
            return True
        return False

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            return self._advance().text
        # SQL allows many keywords as identifiers in practice (e.g. a column
        # named "Usage"); accept non-structural keywords here.
        if token.type is TokenType.KEYWORD and token.text in ("VALUE", "KEY", "DATE"):
            return self._advance().text
        raise ParseError(
            f"expected identifier, got {token.text!r}", token.line, token.column
        )

    # -- entry points ------------------------------------------------------

    def parse_statement(self):
        """Parse one statement; trailing ';' is consumed."""
        token = self._peek()
        if token.is_keyword("SELECT"):
            statement = self.parse_query()
        elif token.is_keyword("CREATE"):
            statement = self._parse_create()
        elif token.is_keyword("INSERT"):
            statement = self._parse_insert()
        elif token.is_keyword("DELETE"):
            statement = self._parse_delete()
        elif token.is_keyword("UPDATE"):
            statement = self._parse_update()
        else:
            raise ParseError(
                f"expected a statement, got {token.text!r}", token.line, token.column
            )
        self._accept_punct(";")
        return statement

    def parse_script(self) -> List[object]:
        """Parse statements until EOF."""
        statements: List[object] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self.parse_statement())
        return statements

    # -- SELECT -------------------------------------------------------------

    def parse_query(self):
        """A SELECT, possibly chained with UNION/EXCEPT/INTERSECT [ALL].

        Chains are left-associative.  An ORDER BY written after the last
        SELECT of a chain is hoisted to the whole set operation.
        """
        statement = self.parse_select()
        while self._peek().is_keyword("UNION", "EXCEPT", "INTERSECT"):
            operator = self._advance().text.lower()
            all_rows = bool(self._accept_keyword("ALL"))
            right = self.parse_select()
            order_by = ()
            if isinstance(right, SelectStatement) and right.order_by:
                order_by = right.order_by
                right = SelectStatement(
                    right.distinct, right.items, right.from_tables,
                    right.where, right.group_by, right.having, (),
                )
            statement = SetOperationStatement(
                statement, operator, all_rows, right, order_by
            )
        return statement

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept_keyword("DISTINCT"):
            distinct = True
        else:
            self._accept_keyword("ALL")

        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        from_tables = [self._parse_table_ref()]
        while self._accept_punct(","):
            from_tables.append(self._parse_table_ref())

        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()

        group_by: List[ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_column_ref())
            while self._accept_punct(","):
                group_by.append(self._parse_column_ref())

        having = None
        if self._accept_keyword("HAVING"):
            having = self.parse_expression()

        order_by: List[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        return SelectStatement(
            distinct, items, from_tables, where, group_by, having, order_by
        )

    def _parse_order_item(self) -> "OrderItem":
        column = self._parse_column_ref()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderItem(column, descending)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return SelectItem(ColumnRef("", "*"))
        expression = self.parse_expression()
        alias = ""
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return SelectItem(expression, alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier()
        alias = ""
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return TableRef(name, alias)

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect_identifier()
        if self._accept_punct("."):
            second = self._expect_identifier()
            return ColumnRef(first, second)
        return ColumnRef("", first)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text in (
            "=", "<>", "<", "<=", ">", ">=",
        ):
            op = self._advance().text
            right = self._parse_additive()
            return Comparison(op, left, right)
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated)
        # [NOT] IN / BETWEEN / LIKE — NOT here binds to the predicate form,
        # not the whole expression.
        negated = False
        if self._peek().is_keyword("NOT") and self._peek(1).is_keyword(
            "IN", "BETWEEN", "LIKE"
        ):
            self._advance()
            negated = True
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self._peek().is_keyword("SELECT"):
                subquery = self.parse_select()
                self._expect_punct(")")
                return InSubquery(left, subquery, negated)
            items = [self.parse_expression()]
            while self._accept_punct(","):
                items.append(self.parse_expression())
            self._expect_punct(")")
            return InList(left, items, negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if self._accept_keyword("LIKE"):
            pattern = self._peek()
            if pattern.type is not TokenType.STRING:
                raise ParseError(
                    "LIKE requires a string pattern", pattern.line, pattern.column
                )
            self._advance()
            return Like(left, pattern.text, negated)
        if negated:  # unreachable: NOT lookahead guaranteed a form above
            raise ParseError("dangling NOT", token.line, token.column)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("+", "-"):
                op = self._advance().text
                left = Arithmetic(op, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("*", "/"):
                op = self._advance().text
                left = Arithmetic(op, left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            return Negate(self._parse_factor())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.text))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.text))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.text)
        if token.type is TokenType.HOST_VARIABLE:
            self._advance()
            return HostVariable(token.text)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(NULL)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword(*_AGGREGATE_KEYWORDS):
            return self._parse_aggregate()
        if token.is_keyword("VALUE"):
            # The pseudo-column of domain CHECK constraints.
            self._advance()
            return ColumnRef("", "VALUE")
        if token.type is TokenType.PUNCTUATION and token.text == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENTIFIER or token.is_keyword("KEY", "DATE"):
            return self._parse_column_ref()
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )

    def _parse_aggregate(self) -> Aggregate:
        function = self._advance().text
        self._expect_punct("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            self._expect_punct(")")
            if function != "COUNT":
                raise ParseError(
                    f"{function}(*) is not valid SQL", token.line, token.column
                )
            return Aggregate("COUNT", None, distinct)
        argument = self.parse_expression()
        self._expect_punct(")")
        return Aggregate(function, argument, distinct)

    # -- DDL ----------------------------------------------------------------

    def _parse_create(self):
        self._expect_keyword("CREATE")
        token = self._peek()
        if token.is_keyword("TABLE"):
            return self._parse_create_table()
        if token.is_keyword("DOMAIN"):
            return self._parse_create_domain()
        if token.is_keyword("VIEW"):
            return self._parse_create_view()
        if token.is_keyword("ASSERTION"):
            return self._parse_create_assertion()
        raise ParseError(
            f"expected TABLE, DOMAIN, VIEW or ASSERTION, got {token.text!r}",
            token.line, token.column,
        )

    def _parse_type(self) -> Tuple[str, Tuple[int, ...]]:
        token = self._peek()
        if token.is_keyword(*_TYPE_KEYWORDS):
            self._advance()
            name = token.text
        elif token.type is TokenType.IDENTIFIER:
            # A domain name.
            self._advance()
            name = token.text
        else:
            raise ParseError(
                f"expected a type, got {token.text!r}", token.line, token.column
            )
        params: List[int] = []
        if self._accept_punct("("):
            while True:
                number = self._peek()
                if number.type is not TokenType.INTEGER:
                    raise ParseError(
                        "expected integer type parameter", number.line, number.column
                    )
                params.append(int(self._advance().text))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return name, tuple(params)

    def _parse_check_condition(self) -> Expression:
        """CHECK (...) or the paper's bare CHECK condition."""
        if self._accept_punct("("):
            condition = self.parse_expression()
            self._expect_punct(")")
            return condition
        return self.parse_expression()

    def _parse_column_list(self) -> Tuple[str, ...]:
        self._expect_punct("(")
        columns = [self._expect_identifier()]
        while self._accept_punct(","):
            columns.append(self._expect_identifier())
        self._expect_punct(")")
        return tuple(columns)

    def _parse_create_table(self) -> CreateTableStatement:
        self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_punct("(")
        columns: List[ColumnDefinition] = []
        constraints: List[TableConstraintDef] = []
        while True:
            token = self._peek()
            if token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                constraints.append(
                    TableConstraintDef("primary_key", self._parse_column_list())
                )
            elif token.is_keyword("UNIQUE"):
                self._advance()
                constraints.append(
                    TableConstraintDef("unique", self._parse_column_list())
                )
            elif token.is_keyword("FOREIGN"):
                self._advance()
                self._expect_keyword("KEY")
                fk_columns = self._parse_column_list()
                self._expect_keyword("REFERENCES")
                ref_table = self._expect_identifier()
                ref_columns: Tuple[str, ...] = ()
                if self._peek().type is TokenType.PUNCTUATION and self._peek().text == "(":
                    ref_columns = self._parse_column_list()
                constraints.append(
                    TableConstraintDef(
                        "foreign_key", fk_columns, references=(ref_table, ref_columns)
                    )
                )
            elif token.is_keyword("CHECK"):
                self._advance()
                constraints.append(
                    TableConstraintDef("check", check=self._parse_check_condition())
                )
            else:
                columns.append(self._parse_column_definition())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return CreateTableStatement(name, tuple(columns), tuple(constraints))

    def _parse_column_definition(self) -> ColumnDefinition:
        name = self._expect_identifier()
        type_name, type_params = self._parse_type()
        not_null = unique = primary_key = False
        check: Optional[Expression] = None
        references: Optional[Tuple[str, Tuple[str, ...]]] = None
        while True:
            token = self._peek()
            if token.is_keyword("NOT"):
                self._advance()
                self._expect_keyword("NULL")
                not_null = True
            elif token.is_keyword("UNIQUE"):
                self._advance()
                unique = True
            elif token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                primary_key = True
            elif token.is_keyword("CHECK"):
                self._advance()
                check = self._parse_check_condition()
            elif token.is_keyword("REFERENCES"):
                self._advance()
                ref_table = self._expect_identifier()
                ref_columns: Tuple[str, ...] = ()
                if self._peek().type is TokenType.PUNCTUATION and self._peek().text == "(":
                    ref_columns = self._parse_column_list()
                references = (ref_table, ref_columns)
            else:
                break
        return ColumnDefinition(
            name, type_name, type_params, not_null, unique, primary_key, check, references
        )

    def _parse_create_domain(self) -> CreateDomainStatement:
        self._expect_keyword("DOMAIN")
        name = self._expect_identifier()
        type_name, type_params = self._parse_type()
        check: Optional[Expression] = None
        if self._accept_keyword("CHECK"):
            check = self._parse_check_condition()
        return CreateDomainStatement(name, type_name, type_params, check)

    def _parse_create_view(self) -> CreateViewStatement:
        self._expect_keyword("VIEW")
        name = self._expect_identifier()
        column_names: Tuple[str, ...] = ()
        if self._peek().type is TokenType.PUNCTUATION and self._peek().text == "(":
            column_names = self._parse_column_list()
        self._expect_keyword("AS")
        select = self.parse_select()
        return CreateViewStatement(name, column_names, select)

    def _parse_create_assertion(self) -> CreateAssertionStatement:
        self._expect_keyword("ASSERTION")
        name = self._expect_identifier()
        self._expect_keyword("CHECK")
        return CreateAssertionStatement(name, self._parse_check_condition())

    # -- DELETE / UPDATE -----------------------------------------------------

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return DeleteStatement(table, where)

    def _parse_update(self) -> UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self._expect_identifier()
            token = self._peek()
            if token.type is not TokenType.OPERATOR or token.text != "=":
                raise ParseError(
                    f"expected '=' in SET clause, got {token.text!r}",
                    token.line, token.column,
                )
            self._advance()
            assignments.append((column, self.parse_expression()))
            if not self._accept_punct(","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        return UpdateStatement(table, tuple(assignments), where)

    # -- INSERT --------------------------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier()
        columns: Tuple[str, ...] = ()
        if self._peek().type is TokenType.PUNCTUATION and self._peek().text == "(":
            columns = self._parse_column_list()
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._accept_punct(","):
            rows.append(self._parse_value_row())
        return InsertStatement(table, columns, tuple(rows))

    def _parse_value_row(self) -> Tuple[object, ...]:
        self._expect_punct("(")
        values: List[object] = [self._parse_literal_value()]
        while self._accept_punct(","):
            values.append(self._parse_literal_value())
        self._expect_punct(")")
        return tuple(values)

    def _parse_literal_value(self) -> object:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            inner = self._parse_literal_value()
            return -inner  # type: ignore[operator]
        if token.type is TokenType.INTEGER:
            self._advance()
            return int(token.text)
        if token.type is TokenType.FLOAT:
            self._advance()
            return float(token.text)
        if token.type is TokenType.STRING:
            self._advance()
            return token.text
        if token.is_keyword("NULL"):
            self._advance()
            return NULL
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        raise ParseError(
            f"expected a literal, got {token.text!r}", token.line, token.column
        )


#: How many SQL texts :func:`parse_statement` keeps parsed, least recently
#: used evicted first, so one-off texts (an INSERT's literals) cannot push
#: the texts a session repeats out of the cache.
PARSE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_statement(text: str):
    """Parse exactly one SQL statement.

    Each text is parsed once per process while it stays among the
    :data:`PARSE_CACHE_SIZE` most recently parsed: a statement is a frozen
    dataclass and the parser reads no catalog, so every caller may share
    it.  A text that fails to parse is not kept, and raises every time.
    """
    parser = Parser(text)
    statement = parser.parse_statement()
    trailing = parser._peek()
    if trailing.type is not TokenType.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            trailing.line, trailing.column,
        )
    return statement


def parse_script(text: str) -> List[object]:
    """Parse a ';'-separated sequence of statements."""
    return Parser(text).parse_script()
