"""Recursive-descent SQL parser with a Pratt expression parser.

The parser accepts the union of the three vendor surfaces used in the
reproduction (PostgreSQL, MariaDB, Hive): all of them produce the same
AST, with :class:`repro.sql.ast.CreateForeignTable` recording which
syntax a foreign-table declaration used.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenKind
from repro.sql.types import type_from_name

#: Binding powers for binary operators (higher binds tighter).
_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    # NOT handled as prefix with power 3
    "=": 4,
    "<>": 4,
    "!=": 4,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "||": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
}

_COMPARISON_LEVEL = 4

_EXTRACT_UNITS = {"YEAR", "MONTH", "DAY"}
_INTERVAL_UNITS = {"DAY", "MONTH", "YEAR"}
_LITERAL_KINDS = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING)


class Parser:
    """Parses one SQL statement (or standalone expression) from text."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = tokenize(text)
        # two spare EOFs: ``_peek`` reaches two past the cursor, which
        # ``_advance`` never moves past the first EOF
        self._tokens += self._tokens[-1:] * 2
        self._index = 0

    # -- public entry points -------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse a full statement; trailing ``;`` is allowed."""
        statement = self._statement()
        self._accept_punct(";")
        self._expect_eof()
        return statement

    def parse_expression(self) -> ast.Expression:
        """Parse a standalone scalar expression."""
        expr = self._expression()
        self._expect_eof()
        return expr

    # -- token plumbing --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(
            f"{message} (found {token} at line {token.line}, "
            f"column {token.column})"
        )

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, *names: str) -> Token:
        token = self._accept_keyword(*names)
        if token is None:
            raise self._error(f"expected {'/'.join(names)}")
        return token

    def _accept_punct(self, value: str) -> bool:
        token = self._tokens[self._index]
        if token.kind is TokenKind.PUNCTUATION and token.value == value:
            self._index += 1  # punctuation is never the EOF
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise self._error(f"expected {value!r}")

    def _accept_operator(self, value: str) -> bool:
        if self._peek().matches(TokenKind.OPERATOR, value):
            self._advance()
            return True
        return False

    def _expect_eof(self) -> None:
        if self._peek().kind is not TokenKind.EOF:
            raise self._error("unexpected trailing input")

    def _identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            self._advance()
            return str(token.value)
        raise self._error(f"expected {what}")

    def _qualified_name(self) -> Tuple[str, ...]:
        parts = [self._identifier("table name")]
        while self._accept_punct("."):
            parts.append(self._identifier("name component"))
        return tuple(parts)

    def _string(self, what: str = "string literal") -> str:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._advance()
            return str(token.value)
        raise self._error(f"expected {what}")

    def _integer(self, what: str = "integer") -> int:
        token = self._peek()
        if token.kind is TokenKind.INTEGER:
            self._advance()
            return int(token.value)
        raise self._error(f"expected {what}")

    # -- statements ------------------------------------------------------------

    def _statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("SELECT"):
            return self._query()
        if token.is_keyword("CREATE"):
            return self._create()
        if token.is_keyword("DROP"):
            return self._drop()
        if token.is_keyword("INSERT"):
            return self._insert()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            return ast.Explain(self._query())
        raise self._error("expected a statement")

    # CREATE dispatch ------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        or_replace = False
        if self._accept_keyword("OR"):
            self._expect_keyword("REPLACE")
            or_replace = True
        if self._accept_keyword("VIEW"):
            return self._create_view(or_replace)
        if self._accept_keyword("FOREIGN"):
            if or_replace:
                raise self._error(
                    "OR REPLACE is only supported for views and CTAS"
                )
            self._expect_keyword("TABLE")
            return self._create_foreign_table_postgres()
        if self._accept_keyword("EXTERNAL"):
            if or_replace:
                raise self._error(
                    "OR REPLACE is only supported for views and CTAS"
                )
            self._expect_keyword("TABLE")
            return self._create_foreign_table_hive()
        temporary = bool(self._accept_keyword("TEMPORARY"))
        self._expect_keyword("TABLE")
        return self._create_table(temporary, or_replace)

    def _create_view(self, or_replace: bool) -> ast.CreateView:
        name = self._identifier("view name")
        self._expect_keyword("AS")
        query = self._query()
        return ast.CreateView(name=name, query=query, or_replace=or_replace)

    def _column_defs(self) -> Tuple[ast.ColumnDef, ...]:
        self._expect_punct("(")
        columns: List[ast.ColumnDef] = []
        while True:
            name = self._identifier("column name")
            columns.append(ast.ColumnDef(name, self._type_name()))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return tuple(columns)

    def _type_name(self) -> "ast.SQLType":
        token = self._peek()
        if token.is_keyword("DATE"):
            self._advance()
            name = "DATE"
        elif token.kind is TokenKind.IDENTIFIER:
            self._advance()
            name = str(token.value)
        else:
            raise self._error("expected a type name")
        args: List[int] = []
        if self._accept_punct("("):
            args.append(self._integer("type length"))
            while self._accept_punct(","):
                args.append(self._integer("type argument"))
            self._expect_punct(")")
        return type_from_name(name, *args)

    def _options_clause(self) -> dict:
        """``OPTIONS (key 'value', ...)`` — keys are identifiers."""
        self._expect_keyword("OPTIONS")
        self._expect_punct("(")
        options = {}
        while True:
            key = self._identifier("option name")
            options[key] = self._string("option value")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return options

    def _create_foreign_table_postgres(self) -> ast.CreateForeignTable:
        name = self._identifier("foreign table name")
        columns = self._column_defs()
        self._expect_keyword("SERVER")
        server = self._identifier("server name")
        remote = name
        if self._peek().is_keyword("OPTIONS"):
            options = self._options_clause()
            remote = options.get("table_name", name)
        return ast.CreateForeignTable(
            name=name,
            columns=columns,
            server=server,
            remote_object=remote,
            syntax="postgres",
        )

    def _create_foreign_table_hive(self) -> ast.CreateForeignTable:
        name = self._identifier("external table name")
        columns = self._column_defs()
        self._expect_keyword("STORED")
        self._expect_keyword("BY")
        server = self._string("storage handler (server) name")
        remote = name
        if self._peek().is_keyword("OPTIONS"):
            options = self._options_clause()
            remote = options.get("table_name", name)
        return ast.CreateForeignTable(
            name=name,
            columns=columns,
            server=server,
            remote_object=remote,
            syntax="hive",
        )

    def _create_table(
        self, temporary: bool, or_replace: bool = False
    ) -> ast.Statement:
        name = self._identifier("table name")
        if self._accept_keyword("AS"):
            return ast.CreateTableAs(
                name=name,
                query=self._query(),
                temporary=temporary,
                or_replace=or_replace,
            )
        if or_replace:
            raise self._error(
                "OR REPLACE is only supported for views and CTAS"
            )
        columns = self._column_defs()
        # MariaDB federated-table surface:
        #   CREATE TABLE t (...) ENGINE=FEDERATED CONNECTION='server/remote'
        if self._accept_keyword("ENGINE"):
            if not self._accept_operator("="):
                raise self._error("expected '=' after ENGINE")
            engine = self._identifier("engine name")
            if engine.upper() != "FEDERATED":
                raise self._error(f"unsupported storage engine {engine!r}")
            connection_kw = self._identifier("CONNECTION")
            if connection_kw.upper() != "CONNECTION":
                raise self._error("expected CONNECTION after ENGINE=FEDERATED")
            if not self._accept_operator("="):
                raise self._error("expected '=' after CONNECTION")
            connection = self._string("connection string")
            # Split on the LAST '/': server names may contain '/'
            # (e.g. host/schema prefixes), the trailing object may not.
            server, _, remote = connection.rpartition("/")
            if not server or not remote:
                raise self._error(
                    "CONNECTION must look like 'server/remote_table'"
                )
            return ast.CreateForeignTable(
                name=name,
                columns=columns,
                server=server,
                remote_object=remote,
                syntax="mariadb",
            )
        return ast.CreateTable(name=name, columns=columns, temporary=temporary)

    def _drop(self) -> ast.DropObject:
        self._expect_keyword("DROP")
        if self._accept_keyword("FOREIGN"):
            self._expect_keyword("TABLE")
            kind = "FOREIGN TABLE"
        elif self._accept_keyword("EXTERNAL"):
            self._expect_keyword("TABLE")
            kind = "FOREIGN TABLE"
        elif self._accept_keyword("VIEW"):
            kind = "VIEW"
        else:
            self._expect_keyword("TABLE")
            kind = "TABLE"
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._identifier("object name")
        return ast.DropObject(kind=kind, name=name, if_exists=if_exists)

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: Tuple[str, ...] = ()
        if self._accept_punct("("):
            names = [self._identifier("column name")]
            while self._accept_punct(","):
                names.append(self._identifier("column name"))
            self._expect_punct(")")
            columns = tuple(names)
        self._expect_keyword("VALUES")
        rows: List[Tuple[ast.Expression, ...]] = []
        while True:
            self._expect_punct("(")
            row = [self._values_item()]
            while self._accept_punct(","):
                row.append(self._values_item())
            self._expect_punct(")")
            rows.append(tuple(row))
            if not self._accept_punct(","):
                break
        return ast.Insert(table=table, columns=columns, rows=tuple(rows))

    def _values_item(self) -> ast.Expression:
        """One VALUES item: a literal that punctuation ends is read
        directly, any other item climbs ``_expression`` to its AST."""
        tokens, index = self._tokens, self._index
        token = tokens[index]
        if token.kind in _LITERAL_KINDS:
            if tokens[index + 1].kind is TokenKind.PUNCTUATION:
                self._index = index + 1
                return ast.Literal(token.value)
        elif (
            token.kind is TokenKind.KEYWORD
            and token.value == "DATE"
            and tokens[index + 2].kind is TokenKind.PUNCTUATION
        ):
            self._index = index + 1
            return self._date()
        return self._expression()

    # SELECT ----------------------------------------------------------------

    def _query(self) -> ast.Statement:
        """A query: SELECT [UNION ALL SELECT]...

        A trailing ORDER BY / LIMIT parses into the last branch and is
        hoisted to the union (standard SQL applies it globally).
        """
        result: ast.Statement = self._select()
        while self._peek().is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            right = self._select()
            order_by: Tuple[ast.OrderItem, ...] = ()
            limit = None
            if right.order_by or right.limit is not None:
                order_by, limit = right.order_by, right.limit
                right = ast.Select(
                    items=right.items,
                    from_items=right.from_items,
                    where=right.where,
                    group_by=right.group_by,
                    having=right.having,
                    distinct=right.distinct,
                )
            result = ast.UnionAll(result, right, order_by, limit)
        return result

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        self._accept_keyword("ALL")
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())

        from_items: List[ast.FromItem] = []
        if self._accept_keyword("FROM"):
            from_items.append(self._from_item())
            while self._accept_punct(","):
                from_items.append(self._from_item())

        where = self._expression() if self._accept_keyword("WHERE") else None

        group_by: List[ast.Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expression())
            while self._accept_punct(","):
                group_by.append(self._expression())

        having = self._expression() if self._accept_keyword("HAVING") else None

        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())

        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self._integer("limit value")

        return ast.Select(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._peek().matches(TokenKind.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.*
        if (
            self._peek().kind
            in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER)
            and self._peek(1).matches(TokenKind.PUNCTUATION, ".")
            and self._peek(2).matches(TokenKind.OPERATOR, "*")
        ):
            table = self._identifier()
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expr = self._expression()
        alias = self._optional_alias()
        return ast.SelectItem(expr, alias)

    def _optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            token = self._peek()
            if token.kind is TokenKind.STRING:
                self._advance()
                return str(token.value)
            return self._identifier("alias")
        token = self._peek()
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            self._advance()
            return str(token.value)
        return None

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    def _from_item(self) -> ast.FromItem:
        item = self._from_primary()
        while True:
            kind = None
            if self._accept_keyword("CROSS"):
                self._expect_keyword("JOIN")
                kind = "CROSS"
            elif self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
                kind = "INNER"
            elif self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._accept_keyword("JOIN"):
                kind = "INNER"
            if kind is None:
                return item
            right = self._from_primary()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._expression()
            item = ast.Join(left=item, right=right, kind=kind, condition=condition)

    def _from_primary(self) -> ast.FromItem:
        if self._accept_punct("("):
            if self._peek().is_keyword("SELECT"):
                query = self._query()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._identifier("derived table alias")
                return ast.DerivedTable(query=query, alias=alias)
            item = self._from_item()
            self._expect_punct(")")
            return item
        parts = self._qualified_name()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("table alias")
        else:
            token = self._peek()
            if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
                self._advance()
                alias = str(token.value)
        return ast.TableRef(parts=parts, alias=alias)

    # -- expressions (Pratt) ---------------------------------------------------

    def _expression(self, min_power: int = 0) -> ast.Expression:
        left = self._prefix()
        while True:
            token = self._peek()
            if token.kind is TokenKind.PUNCTUATION:
                return left  # no punctuation continues an expression
            negated = False
            lookahead = token
            if token.is_keyword("NOT") and self._peek(1).is_keyword(
                "BETWEEN", "IN", "LIKE"
            ):
                negated = True
                lookahead = self._peek(1)

            if lookahead.is_keyword("BETWEEN", "IN", "LIKE", "IS"):
                if _COMPARISON_LEVEL <= min_power:
                    return left
                if negated:
                    self._advance()  # NOT
                left = self._postfix_predicate(left, negated)
                continue

            op = self._binary_op_at(token)
            if op is None:
                return left
            power = _PRECEDENCE[op]
            if power <= min_power:
                return left
            self._advance()
            right = self._expression(power)
            left = ast.BinaryOp(op, left, right)

    def _binary_op_at(self, token: Token) -> Optional[str]:
        if token.kind is TokenKind.OPERATOR and token.value in _PRECEDENCE:
            return str(token.value)
        if token.is_keyword("AND", "OR"):
            return str(token.value)
        return None

    def _postfix_predicate(
        self, operand: ast.Expression, negated: bool = False
    ) -> ast.Expression:
        if self._accept_keyword("BETWEEN"):
            low = self._expression(_COMPARISON_LEVEL)
            self._expect_keyword("AND")
            high = self._expression(_COMPARISON_LEVEL)
            return ast.Between(operand, low, high, negated)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            items = [self._expression()]
            while self._accept_punct(","):
                items.append(self._expression())
            self._expect_punct(")")
            return ast.InList(operand, tuple(items), negated)
        if self._accept_keyword("LIKE"):
            pattern = self._expression(_COMPARISON_LEVEL)
            return ast.Like(operand, pattern, negated)
        if self._accept_keyword("IS"):
            is_not = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(operand, is_not)
        raise self._error("expected BETWEEN/IN/LIKE/IS")

    def _prefix(self) -> ast.Expression:
        token = self._peek()
        kind = token.kind
        if kind is not TokenKind.KEYWORD and kind is not TokenKind.OPERATOR:
            return self._primary()
        if token.is_keyword("NOT"):
            self._advance()
            operand = self._expression(3)
            return self._normalize_not(operand)
        if token.matches(TokenKind.OPERATOR, "-"):
            self._advance()
            return ast.UnaryOp("-", self._expression(8))
        if token.matches(TokenKind.OPERATOR, "+"):
            self._advance()
            return self._expression(8)
        return self._primary()

    @staticmethod
    def _normalize_not(operand: ast.Expression) -> ast.Expression:
        """Fold NOT into negatable predicates to keep the AST canonical."""
        if isinstance(operand, ast.Between):
            return ast.Between(
                operand.operand, operand.low, operand.high, not operand.negated
            )
        if isinstance(operand, ast.InList):
            return ast.InList(operand.operand, operand.items, not operand.negated)
        if isinstance(operand, ast.Like):
            return ast.Like(operand.operand, operand.pattern, not operand.negated)
        if isinstance(operand, ast.IsNull):
            return ast.IsNull(operand.operand, not operand.negated)
        return ast.UnaryOp("NOT", operand)

    def _primary(self) -> ast.Expression:
        token = self._peek()

        if token.kind in (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING):
            self._advance()
            return ast.Literal(token.value)

        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("DATE"):
            self._advance()
            return self._date()

        if token.is_keyword("INTERVAL"):
            self._advance()
            amount_text = self._string("interval amount")
            try:
                amount = int(amount_text)
            except ValueError:
                raise self._error(f"invalid interval amount {amount_text!r}")
            unit = self._identifier("interval unit").upper().rstrip("S")
            if unit not in _INTERVAL_UNITS:
                raise self._error(f"unsupported interval unit {unit!r}")
            return ast.IntervalLiteral(amount, unit)

        if token.is_keyword("CASE"):
            return self._case()

        if token.is_keyword("CAST"):
            self._advance()
            self._expect_punct("(")
            operand = self._expression()
            self._expect_keyword("AS")
            target = self._type_name()
            self._expect_punct(")")
            return ast.Cast(operand, target)

        if token.is_keyword("EXTRACT"):
            self._advance()
            self._expect_punct("(")
            unit = self._identifier("extract field").upper()
            if unit not in _EXTRACT_UNITS:
                raise self._error(f"unsupported EXTRACT field {unit!r}")
            self._expect_keyword("FROM")
            operand = self._expression()
            self._expect_punct(")")
            return ast.Extract(unit, operand)

        if token.is_keyword("SUM", "AVG", "COUNT", "MIN", "MAX"):
            name = str(self._advance().value)
            return self._function_call(name)

        if self._accept_punct("("):
            expr = self._expression()
            self._expect_punct(")")
            return expr

        if token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            name = self._identifier()
            if self._peek().matches(TokenKind.PUNCTUATION, "("):
                return self._function_call(name.upper())
            if self._peek().matches(TokenKind.PUNCTUATION, ".") and self._peek(
                1
            ).kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
                self._advance()
                column = self._identifier("column name")
                return ast.ColumnRef(name=column, table=name)
            return ast.ColumnRef(name=name)

        raise self._error("expected an expression")

    def _date(self) -> ast.Literal:
        """The string of a ``DATE '…'`` literal, its keyword consumed."""
        text = self._string("date literal")
        try:
            value = datetime.date.fromisoformat(text)
        except ValueError as exc:
            raise self._error(f"invalid date literal {text!r}: {exc}")
        return ast.Literal(value)

    def _function_call(self, name: str) -> ast.FunctionCall:
        self._expect_punct("(")
        distinct = False
        args: List[ast.Expression] = []
        if self._peek().matches(TokenKind.OPERATOR, "*"):
            self._advance()
            args.append(ast.Star())
        elif not self._peek().matches(TokenKind.PUNCTUATION, ")"):
            distinct = bool(self._accept_keyword("DISTINCT"))
            args.append(self._expression())
            while self._accept_punct(","):
                args.append(self._expression())
        self._expect_punct(")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)

    def _case(self) -> ast.CaseWhen:
        self._expect_keyword("CASE")
        whens: List[Tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            result = self._expression()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        else_result = None
        if self._accept_keyword("ELSE"):
            else_result = self._expression()
        self._expect_keyword("END")
        return ast.CaseWhen(tuple(whens), else_result)


def parse_statement(text: str) -> ast.Statement:
    """Parse ``text`` into a single statement AST."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> ast.Expression:
    """Parse ``text`` into a scalar expression AST."""
    return Parser(text).parse_expression()
