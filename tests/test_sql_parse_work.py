"""A VALUES batch parses its literal items without the precedence climb.

An INTEGER, FLOAT or STRING item that punctuation ends, and a
``DATE '…'`` so ended, is read as an ``ast.Literal`` directly; every
other item (``-1``, ``NULL``, ``TRUE``, ``1 + 2``, date arithmetic)
enters ``Parser._expression``.  The work tests count the outermost
entries into ``_expression`` with a wrapper, so they hold however fast
the machine is.  The equivalence property and the pinned errors hold
the direct path to what the climb would have produced.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError
from repro.sql import ast
from repro.sql.parser import Parser, parse_expression, parse_statement


@pytest.fixture
def climbs(monkeypatch):
    """The token each outermost ``Parser._expression`` call starts at."""
    starts = []
    depth = [0]
    original = Parser._expression

    def counted(self, min_power=0):
        if not depth[0]:
            starts.append(self._peek().value)
        depth[0] += 1
        try:
            return original(self, min_power)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Parser, "_expression", counted)
    return starts


def _insert(rows):
    return "INSERT INTO t VALUES " + ", ".join(
        "(" + ", ".join(row) + ")" for row in rows
    )


def test_literal_items_take_no_climb(climbs):
    rows = [
        [str(key), f"{key * 1.25!r}", f"'it''s {key}'", "1.5e3", "''"]
        for key in range(40)
    ]
    statement = parse_statement(_insert(rows))
    assert climbs == []
    assert len(statement.rows) == 40
    assert statement.rows[3] == (
        ast.Literal(3),
        ast.Literal(3.75),
        ast.Literal("it's 3"),
        ast.Literal(1500.0),
        ast.Literal(""),
    )


def test_a_date_literal_takes_no_climb(climbs):
    statement = parse_statement(
        _insert([["DATE '1995-03-01'", "7"], ["1", "DATE '1998-12-31'"]])
    )
    assert climbs == []
    assert statement.rows[0][0] == ast.Literal(datetime.date(1995, 3, 1))


def test_every_other_item_climbs_once(climbs):
    statement = parse_statement(
        _insert(
            [
                [
                    "-1",
                    "DATE '1995-01-01' + INTERVAL '3' DAY",
                    "1 + 2",
                    "NULL",
                    "TRUE",
                    "7",
                    "'x'",
                ]
            ]
        )
    )
    assert climbs == ["-", "DATE", 1, "NULL", "TRUE"]
    assert statement.rows[0] == (
        ast.UnaryOp("-", ast.Literal(1)),
        ast.BinaryOp(
            "+",
            ast.Literal(datetime.date(1995, 1, 1)),
            ast.IntervalLiteral(3, "DAY"),
        ),
        ast.BinaryOp("+", ast.Literal(1), ast.Literal(2)),
        ast.Literal(None),
        ast.Literal(True),
        ast.Literal(7),
        ast.Literal("x"),
    )


def _quoted(text):
    return "'" + text.replace("'", "''") + "'"


_DATES = st.dates(datetime.date(1970, 1, 1), datetime.date(2099, 12, 31))
_NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.floats(0, 1e9, allow_nan=False).map(repr),
    st.tuples(st.integers(0, 99), st.integers(0, 9), st.integers(-5, 5)).map(
        lambda t: f"{t[0]}.{t[1]}e{t[2]}"
    ),
)
ITEMS = st.one_of(
    _NUMBERS,
    st.text(alphabet="ab '(),-", max_size=8).map(_quoted),
    st.sampled_from(["NULL", "TRUE", "FALSE", "-1", "- 2.5", "1 + 2 * 3"]),
    _NUMBERS.map(lambda number: "-" + number),
    _DATES.map(lambda day: f"DATE '{day.isoformat()}'"),
    st.tuples(_DATES, st.integers(0, 99), st.sampled_from(["DAY", "MONTH"])).map(
        lambda t: f"DATE '{t[0].isoformat()}' - INTERVAL '{t[1]}' {t[2]}"
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ITEMS, min_size=1, max_size=6), min_size=1, max_size=3))
def test_each_item_parses_as_the_expression_it_spells(rows):
    statement = parse_statement(_insert(rows))
    assert [list(row) for row in statement.rows] == [
        [parse_expression(item) for item in row] for row in rows
    ]


@pytest.mark.parametrize(
    "values, message",
    [
        ("(1,,2)", "expected an expression (found punctuation(',') at line 1, column 25)"),
        ("(1 2)", "expected ')' (found integer(2) at line 1, column 25)"),
        ("(1,)", "expected an expression (found punctuation(')') at line 1, column 25)"),
        ("(1),", "expected '(' (found eof('') at line 1, column 26)"),
        ("('a' 'b')", "expected ')' (found string('b') at line 1, column 27)"),
        ("(1.5 (", "expected ')' (found punctuation('(') at line 1, column 27)"),
        ("(DATE 5, 1)", "expected date literal (found integer(5) at line 1, column 28)"),
        ("(DATE)", "expected date literal (found punctuation(')') at line 1, column 27)"),
        ("\n  (1, 2),\n  (3 . 4)", "expected ')' (found punctuation('.') at line 3, column 6)"),
        ("(1)) ", "unexpected trailing input (found punctuation(')') at line 1, column 25)"),
    ],
)
def test_malformed_rows_fail_as_before(values, message):
    with pytest.raises(ParseError) as excinfo:
        parse_statement("INSERT INTO t VALUES " + values)
    assert str(excinfo.value) == message


def test_a_bad_date_is_reported_after_its_string():
    with pytest.raises(ParseError) as excinfo:
        parse_statement("INSERT INTO t VALUES (DATE 'x', 1)")
    message = str(excinfo.value)
    assert message.startswith("invalid date literal 'x': ")
    assert message.endswith("(found punctuation(',') at line 1, column 31)")


def test_an_unclosed_string_is_a_lexer_error():
    with pytest.raises(LexerError) as excinfo:
        parse_statement("INSERT INTO t VALUES (1, 'a")
    assert str(excinfo.value) == "unterminated string literal at line 1, column 28"
