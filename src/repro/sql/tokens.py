"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Union


class TokenKind(enum.Enum):
    """Lexical categories recognized by :class:`repro.sql.lexer.Lexer`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    QUOTED_IDENTIFIER = "quoted_identifier"
    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Reserved words; the lexer upper-cases matching identifiers into keywords.
KEYWORDS = frozenset(
    {
        "ALL",
        "AND",
        "AS",
        "ASC",
        "AVG",
        "BETWEEN",
        "BY",
        "CASE",
        "CAST",
        "COUNT",
        "CREATE",
        "CROSS",
        "DATE",
        "DELETE",
        "DESC",
        "DISTINCT",
        "DROP",
        "ELSE",
        "END",
        "ENGINE",
        "EXISTS",
        "EXPLAIN",
        "EXTERNAL",
        "EXTRACT",
        "FALSE",
        "FOREIGN",
        "FROM",
        "FULL",
        "GROUP",
        "HAVING",
        "IF",
        "IN",
        "INNER",
        "INSERT",
        "INTERVAL",
        "INTO",
        "IS",
        "JOIN",
        "LEFT",
        "LIKE",
        "LIMIT",
        "LOCAL",
        "MAX",
        "MIN",
        "NOT",
        "NULL",
        "ON",
        "OPTIONS",
        "OR",
        "ORDER",
        "OUTER",
        "REPLACE",
        "RIGHT",
        "SELECT",
        "SERVER",
        "SET",
        "STORED",
        "SUM",
        "TABLE",
        "TEMPORARY",
        "THEN",
        "TRUE",
        "UNION",
        "USING",
        "VALUES",
        "VIEW",
        "WHEN",
        "WHERE",
    }
)

#: Multi-character operators, longest first so the lexer matches greedily.
OPERATORS = ("<>", "!=", ">=", "<=", "||", "=", "<", ">", "+", "-", "*", "/", "%")

PUNCTUATION = ("(", ")", ",", ".", ";")


class Token(NamedTuple):
    """One lexical token with its source location (1-based line/column);
    a tuple, as a VALUES batch lexes thousands of them."""

    kind: TokenKind
    value: Union[str, int, float]
    line: int
    column: int

    def matches(self, kind: TokenKind, value: object = None) -> bool:
        """True if this token has the given kind (and value, if provided)."""
        if self.kind is not kind:
            return False
        return value is None or self.value == value

    def is_keyword(self, *names: str) -> bool:
        """True if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def __str__(self) -> str:
        return f"{self.kind.value}({self.value!r})"
