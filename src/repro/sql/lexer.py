"""The SQL lexer: one compiled alternation, matched token by token.

The lexer is dialect-tolerant on purpose: it accepts double-quoted
(PostgreSQL) *and* backtick-quoted (MariaDB/Hive) identifiers, so a single
front end can read the SQL text that each simulated vendor emits.
"""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind


def _quoted(quote: str) -> str:
    """A ``quote``-delimited body in which a doubled quote is an escaped
    one; the lookahead keeps the match from ending on the first half of
    such a pair when the literal is never closed."""
    return f"{quote}[^{quote}]*(?:{quote}{quote}[^{quote}]*)*{quote}(?!{quote})"


#: Every match is optional whitespace followed by exactly one named
#: group, so ``lastgroup`` names the token.  Alternatives are tried in
#: order: comments before the ``-`` and ``/`` operators, FLOAT before
#: INTEGER, and each ``bad_*`` after the well-formed form it is the
#: unterminated opening of.  Character classes are ASCII on purpose
#: (``\d`` and ``\s`` would admit Unicode digits and spaces).
_match_token = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(
        [
            r"(?P<word>[A-Za-z_][A-Za-z0-9_$]*)",
            r"(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))",
            r"(?P<integer>[0-9]+)",
            f"(?P<string>{_quoted(chr(39))})",
            f"(?P<quoted>{_quoted(chr(34))}|{_quoted('`')})",
            r"(?P<comment>--[^\n]*|/\*[\s\S]*?\*/)",
            r"(?P<bad_comment>/\*)",
            "(?P<operator>" + "|".join(map(re.escape, OPERATORS)) + ")",
            "(?P<punctuation>[" + re.escape("".join(PUNCTUATION)) + "])",
            r"(?P<bad_string>')",
            r"(?P<bad_quoted>[\"`])",
            r"(?P<bad_character>[\s\S])",
            r"(?P<eof>\Z)",
        ]
    )
    + ")"
).match

_UNTERMINATED = {
    "bad_comment": "unterminated block comment",
    "bad_string": "unterminated string literal",
    "bad_quoted": "unterminated quoted identifier",
}


class Lexer:
    """Streaming tokenizer over a SQL string."""

    def __init__(self, text: str):
        self._text = text

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until (and including) an EOF token."""
        text = self._text
        pos = 0
        # 1-based line of ``pos`` and the offset its line starts at;
        # only whitespace, comments and quoted tokens can hold newlines
        line = 1
        line_start = 0
        while True:
            match = _match_token(text, pos)
            group = match.lastgroup
            start = match.start(group)
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
            pos = match.end()
            column = start - line_start + 1
            if group == "word":
                word = text[start:pos]
                upper = word.upper()
                if upper in KEYWORDS:
                    yield Token(TokenKind.KEYWORD, upper, line, column)
                else:
                    yield Token(TokenKind.IDENTIFIER, word, line, column)
                continue
            if group == "punctuation":
                yield Token(
                    TokenKind.PUNCTUATION, text[start:pos], line, column
                )
                continue
            if group == "integer":
                yield Token(
                    TokenKind.INTEGER, int(text[start:pos]), line, column
                )
                continue
            if group == "operator":
                yield Token(TokenKind.OPERATOR, text[start:pos], line, column)
                continue
            if group == "float":
                yield Token(
                    TokenKind.FLOAT, float(text[start:pos]), line, column
                )
                continue
            if group == "string" or group == "quoted":
                quote = text[start]
                kind = (
                    TokenKind.STRING
                    if group == "string"
                    else TokenKind.QUOTED_IDENTIFIER
                )
                body = text[start + 1 : pos - 1]
                yield Token(
                    kind, body.replace(quote + quote, quote), line, column
                )
            elif group == "eof":
                yield Token(TokenKind.EOF, "", line, column)
                return
            elif group == "bad_character":
                raise LexerError(
                    f"unexpected character {text[start]!r}",
                    start,
                    line,
                    column,
                )
            elif group != "comment":
                # an opening with no close: reported where the input ends
                pos = len(text)
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
            if group in _UNTERMINATED:
                raise LexerError(
                    _UNTERMINATED[group], pos, line, pos - line_start + 1
                )


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    return list(Lexer(text).tokens())
