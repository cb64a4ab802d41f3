"""The SQL lexer against the character-by-character one it replaced.

``ReferenceLexer`` is that implementation, kept as the reference: every
statement below must come out token for token (kind, value, line,
column) the same from both, and every malformed one must raise the same
``LexerError`` — message, offset, line, column — after the same tokens.
The literal expectations at the end pin the reference itself.
"""

from typing import Iterator, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError
from repro.sql.lexer import Lexer, tokenize
from repro.sql.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind
from repro.workloads.tpch import query

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_SPACE = frozenset(" \t\r\n")


class ReferenceLexer:
    """The lexer ``repro.sql.lexer`` replaced: one character at a time."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until (and including) an EOF token."""
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._text):
                yield self._token(TokenKind.EOF, "")
                return
            yield self._next_token()

    # -- internals ---------------------------------------------------------

    def _token(self, kind: TokenKind, value) -> Token:
        return Token(kind, value, self._line, self._column)

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self._pos, self._line, self._column)

    def _advance(self, count: int = 1) -> str:
        """Consume ``count`` characters, maintaining line/column counters."""
        consumed = self._text[self._pos : self._pos + count]
        for ch in consumed:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return consumed

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch in _SPACE:
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _next_token(self) -> Token:
        ch = self._peek()
        if ch in _IDENT_START:
            return self._lex_word()
        if ch in _DIGITS:
            return self._lex_number()
        if ch == "'":
            return self._lex_string()
        if ch in ('"', "`"):
            return self._lex_quoted_identifier(ch)
        for op in OPERATORS:
            if self._text.startswith(op, self._pos):
                token = self._token(TokenKind.OPERATOR, op)
                self._advance(len(op))
                return token
        if ch in PUNCTUATION:
            token = self._token(TokenKind.PUNCTUATION, ch)
            self._advance()
            return token
        raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self) -> Token:
        line, column = self._line, self._column
        start = self._pos
        while self._pos < len(self._text) and self._peek() in _IDENT_CONT:
            self._advance()
        word = self._text[start : self._pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenKind.KEYWORD, upper, line, column)
        return Token(TokenKind.IDENTIFIER, word, line, column)

    def _lex_number(self) -> Token:
        line, column = self._line, self._column
        start = self._pos
        is_float = False
        while self._pos < len(self._text) and self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in _DIGITS:
            is_float = True
            self._advance()
            while self._pos < len(self._text) and self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._pos < len(self._text) and self._peek() in _DIGITS:
                self._advance()
        text = self._text[start : self._pos]
        if is_float:
            return Token(TokenKind.FLOAT, float(text), line, column)
        return Token(TokenKind.INTEGER, int(text), line, column)

    def _lex_string(self) -> Token:
        line, column = self._line, self._column
        self._advance()  # opening quote
        parts: List[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":  # escaped quote: '' -> '
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return Token(TokenKind.STRING, "".join(parts), line, column)
            parts.append(ch)
            self._advance()

    def _lex_quoted_identifier(self, quote: str) -> Token:
        line, column = self._line, self._column
        self._advance()  # opening quote
        parts: List[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated quoted identifier")
            ch = self._peek()
            if ch == quote:
                if self._peek(1) == quote:
                    parts.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                return Token(
                    TokenKind.QUOTED_IDENTIFIER, "".join(parts), line, column
                )
            parts.append(ch)
            self._advance()



def outcome(lexer_class, text):
    """Tokens yielded and, if lexing stopped early, why and where."""
    tokens: List[Token] = []
    try:
        for token in lexer_class(text).tokens():
            tokens.append(token)
    except LexerError as exc:
        return tokens, (str(exc), exc.position, exc.line, exc.column)
    return tokens, None


WRITE_BATCH = "INSERT INTO orders VALUES " + ", ".join(
    f"({key}, {key * 7 % 1500}, 'O', {key * 1.25}, "
    f"DATE '1995-01-{1 + key % 28:02d}', '1-URGENT', 'Clerk#{key:09d}', 0, "
    f"'it''s comment {key}')"
    for key in range(60001, 60021)
)

STATEMENTS = [
    *(query(name) for name in ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")),
    WRITE_BATCH,
    # the DDL a delegation plan emits, one vendor each
    'CREATE FOREIGN TABLE "xf_12_3" ("o_orderkey" INTEGER, "total" DOUBLE) '
    "SERVER \"db2\" OPTIONS (table_name 'xv_12_2')",
    "CREATE TABLE `xf_12_3` (`o_orderkey` INTEGER, `total` DOUBLE) "
    "ENGINE=FEDERATED CONNECTION='db2/xv_12_2'",
    "CREATE EXTERNAL TABLE `xf_12_3` (`o_orderkey` INT, `total` DOUBLE) "
    "STORED BY 'db2' OPTIONS ('table'='xv_12_2')",
    'CREATE OR REPLACE TABLE "xm_12_4" AS SELECT * FROM "xv_12_4"',
    "CREATE OR REPLACE VIEW v_b AS SELECT a, c FROM ft_c WHERE a > 17",
    "DROP TABLE IF EXISTS `xm_12_4`;",
    "EXPLAIN SELECT a.x, COUNT(*) FROM a LEFT OUTER JOIN b ON a.k = b.k "
    "GROUP BY a.x HAVING COUNT(*) >= 2 ORDER BY 2 DESC LIMIT 10",
    # lexical edge cases
    "",
    "   \n\t  ",
    "select Select SELECT FooBar _x a$1 b$$",
    "42 3.14 1e3 2.5E-2 1.x 1. .5 1e 1e+ 1.5e+x 12abc 7E5z 0.0e-0",
    "a <> b >= c <= d != e || f = g < h > i + j - k * l / m % n",
    "a<>b>=c<=d!=e||f--g\nh",
    "'don''t' '' '''' 'a''''b' ' multi\nline ' DATE '2024-01-01'",
    '"weird name" "a""b" "" `weird``name` ``',
    "1 -- comment\n2 --\n3 -- no newline at the end",
    "1 /* multi\nline */ 2 /**/ 3 /* * / */ 4 /*/ */ 5",
    "a\n  b\r\n\tc 'x\ny' d /* \n\n */ e \"q\nr\" f",
    "f(x, y).z; (a,b) , .. ;;",
    "a - -1 - - 2 / * 3",
]

MALFORMED = [
    "'oops",
    "select 'never\nends",
    "'abc''",
    "'" * 3,
    "x = 'a' 'b",
    '"open',
    "`open ``still",
    'a "b""',
    "1 /* never ends",
    "1 /* line\nline *",
    "/*/",
    "select #",
    "a$1 $",
    "a\n  b ? c",
    "café",
    "1   2",
    "٣",
    "a \x0c b",
    "x ! y",
    "a | b",
    "[1]",
    "'ok' @ 'never",
]


@pytest.mark.parametrize("text", STATEMENTS)
def test_well_formed_statements_lex_as_the_reference_does(text):
    expected, error = outcome(ReferenceLexer, text)
    assert error is None
    assert outcome(Lexer, text) == (expected, None)
    assert tokenize(text) == expected


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_statements_fail_where_the_reference_does(text):
    expected = outcome(ReferenceLexer, text)
    assert expected[1] is not None
    assert outcome(Lexer, text) == expected


FRAGMENTS = st.sampled_from(
    [
        "'", "''", '"', "`", "--", "/*", "*/", "\n", "\r\n", " ", "\t",
        "e", "E", "1", "23", ".", "+", "-", "*", "/", "<", ">", "=", "!",
        "|", "%", "(", ")", ",", ";", "$", "_", "ab", "select", "Date",
        "#", "é", "٣", "\x0c",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FRAGMENTS, max_size=24).map("".join))
def test_arbitrary_fragment_soup_lexes_as_the_reference_does(text):
    assert outcome(Lexer, text) == outcome(ReferenceLexer, text)


def test_the_reference_itself():
    """What both are held to, spelled out once."""
    assert tokenize("a\n  b >= 1.5 'x''y'") == [
        Token(TokenKind.IDENTIFIER, "a", 1, 1),
        Token(TokenKind.IDENTIFIER, "b", 2, 3),
        Token(TokenKind.OPERATOR, ">=", 2, 5),
        Token(TokenKind.FLOAT, 1.5, 2, 8),
        Token(TokenKind.STRING, "x'y", 2, 12),
        Token(TokenKind.EOF, "", 2, 18),
    ]
    # an unterminated literal or comment is reported where the input
    # ends, not where it opened; a stray character where it stands
    for text, message, position, line, column in [
        ("x = 'never\nends", "unterminated string literal", 15, 2, 5),
        ('"open', "unterminated quoted identifier", 5, 1, 6),
        ("1 /* never", "unterminated block comment", 10, 1, 11),
        ("a\n ? b", "unexpected character '?'", 3, 2, 2),
    ]:
        with pytest.raises(LexerError) as excinfo:
            tokenize(text)
        error = excinfo.value
        assert str(error) == f"{message} at line {line}, column {column}"
        assert (error.position, error.line, error.column) == (
            position,
            line,
            column,
        )
