"""Generated kernels ≡ row closures, and nothing of a statement's text
reaches ``compile()``.

``repro.engine.vector`` lowers an expression to the source of one
comprehension; ``repro.relational.expressions`` lowers the same
expression to closures, and is the reference.  For random well-typed
expression trees and random rows with NULLs and zeros, every kernel
shape (filter, project, column, key) must return exactly what the
closures return row by row — or raise the same exception type, which
pins operand evaluation order.  Read through a position map over wider
rows, every kernel returns what it returns over the narrowed rows.  The
last part is the injection guard: literals are data, and the generated
source — position-mapped or not — carries neither literal nor
identifier text.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import vector
from repro.engine.database import Database
from repro.relational.expressions import compile_expression
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.types import DATE, DOUBLE, INTEGER, varchar

SCHEMA = Schema(
    [
        Field("i", INTEGER, "t"),
        Field("j", INTEGER, "t"),
        Field("x", DOUBLE, "t"),
        Field("s", varchar(8), "t"),
        Field("d", DATE, "t"),
    ]
)

_ints = st.one_of(st.none(), st.integers(-3, 3))
_floats = st.one_of(st.none(), st.sampled_from([0.0, -1.5, 0.5, 2.0]))
_texts = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "a%", "b_", "Abc", "7"]))
_dates = st.one_of(
    st.none(), st.dates(datetime.date(1999, 1, 1), datetime.date(2001, 12, 31))
)
ROWS = st.lists(st.tuples(_ints, _ints, _floats, _texts, _dates), max_size=6)


def _literal(values):
    return values.filter(lambda value: value is not None).map(ast.Literal)


def _case(condition, result):
    return st.builds(
        lambda whens, otherwise: ast.CaseWhen(tuple(whens), otherwise),
        st.lists(st.tuples(condition, result), min_size=1, max_size=2),
        st.one_of(st.none(), result),
    )


def numeric(depth: int):
    leaves = st.one_of(
        st.sampled_from([ast.ColumnRef("i"), ast.ColumnRef("j", "t"), ast.ColumnRef("x")]),
        _literal(_ints),
        _literal(_floats),
    )
    if depth == 0:
        return leaves
    inner = numeric(depth - 1)
    return st.one_of(
        leaves,
        st.builds(ast.BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner),
        st.builds(ast.UnaryOp, st.just("-"), inner),
        st.builds(ast.Extract, st.sampled_from(["YEAR", "MONTH", "DAY"]), date(depth - 1)),
        st.builds(ast.Cast, st.one_of(inner, text(depth - 1)), st.sampled_from([INTEGER, DOUBLE])),
        st.builds(lambda arg: ast.FunctionCall("ABS", (arg,)), inner),
        st.builds(lambda arg: ast.FunctionCall("LENGTH", (arg,)), text(depth - 1)),
        st.builds(lambda a, b: ast.FunctionCall("COALESCE", (a, b)), inner, inner),
        _case(boolean(depth - 1), inner),
    )


def text(depth: int):
    leaves = st.one_of(st.just(ast.ColumnRef("s")), _literal(_texts))
    if depth == 0:
        return leaves
    inner = text(depth - 1)
    return st.one_of(
        leaves,
        st.builds(ast.BinaryOp, st.just("||"), inner, st.one_of(inner, numeric(depth - 1))),
        st.builds(lambda arg: ast.FunctionCall("UPPER", (arg,)), inner),
        st.builds(ast.Cast, numeric(depth - 1), st.just(varchar(3))),
        _case(boolean(depth - 1), inner),
    )


def date(depth: int):
    leaves = st.one_of(st.just(ast.ColumnRef("d")), _literal(_dates))
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.builds(
            ast.BinaryOp,
            st.sampled_from(["+", "-"]),
            date(depth - 1),
            st.builds(
                ast.IntervalLiteral,
                st.integers(0, 40),
                st.sampled_from(["DAY", "MONTH", "YEAR"]),
            ),
        ),
    )


def boolean(depth: int):
    comparison = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])
    families = [numeric(depth), text(depth), date(depth)]
    compared = st.one_of(
        *[st.builds(ast.BinaryOp, comparison, family, family) for family in families]
    )
    if depth == 0:
        return compared
    inner = boolean(depth - 1)
    number = numeric(depth - 1)
    string = text(depth - 1)
    anything = st.one_of(number, string, date(depth - 1), inner)
    literal_items = st.lists(st.one_of(_ints, _floats).map(ast.Literal), min_size=1, max_size=3)
    return st.one_of(
        compared,
        st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), inner, inner),
        st.builds(ast.UnaryOp, st.just("NOT"), inner),
        st.builds(ast.IsNull, anything, st.booleans()),
        st.builds(ast.Between, number, number, number, st.booleans()),
        st.builds(
            lambda operand, items, negated: ast.InList(operand, tuple(items), negated),
            number,
            st.one_of(literal_items, st.lists(number, min_size=1, max_size=3)),
            st.booleans(),
        ),
        st.builds(
            ast.Like,
            string,
            st.one_of(st.sampled_from(["a%", "_b", "%", "a"]).map(ast.Literal), string),
            st.booleans(),
        ),
        _case(inner, inner),
    )


EXPRESSIONS = st.one_of(boolean(2), numeric(2), text(2), date(2))


def _outcome(thunk):
    """What ``thunk`` returned (by ``repr``, so 1, 1.0 and True differ
    and NaN equals itself) or the type of what it raised."""
    try:
        return repr(thunk())
    except Exception as exc:  # the two sides must fail alike, whatever the failure
        return type(exc)


_I, _J, _X, _S = (ast.ColumnRef(name) for name in "ijxs")
_BOOM = ast.BinaryOp("/", _I, ast.BinaryOp("-", _J, _J))  # raises unless NULL
_NULL_X = [(1, 1, None, "a", None)]

#: Where the closures' operand order shows: what is evaluated, and
#: what is skipped, next to a NULL.
ORDER_SENSITIVE = [
    ast.BinaryOp("+", _X, _BOOM),  # a NULL left operand skips the right
    ast.BinaryOp(">", _X, _BOOM),
    ast.BinaryOp("+", _BOOM, _X),
    ast.Between(_X, _I, _BOOM),  # a NULL operand skips both bounds ...
    ast.Between(_I, _X, _BOOM),  # ... a NULL bound does not skip the other
    ast.BinaryOp("AND", ast.BinaryOp(">", _I, _J), ast.BinaryOp(">", _BOOM, _I)),
    ast.BinaryOp("||", ast.Cast(_X, varchar(3)), ast.Cast(_S, INTEGER)),
    ast.InList(_I, (_X, _BOOM)),
    ast.Like(ast.Cast(_X, varchar(3)), ast.Cast(_BOOM, varchar(3))),
]


#: SQL ``%`` keeps the dividend's sign, unlike Python's.
NEGATIVE_DIVIDEND = [ast.BinaryOp("%", _I, _J), ast.BinaryOp("%", _X, _J)]


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(EXPRESSIONS, min_size=1, max_size=3), rows=ROWS)
@example(exprs=ORDER_SENSITIVE, rows=_NULL_X)
@example(exprs=NEGATIVE_DIVIDEND, rows=[(-3, 2, -1.5, "a", None), (3, -2, 2.0, "a", None)])
def test_every_kernel_returns_what_the_closures_return(exprs, rows):
    fns = [compile_expression(expr, SCHEMA).fn for expr in exprs]
    for expr, fn in zip(exprs, fns):
        column = vector.column_kernel(expr, SCHEMA)
        assert _outcome(lambda: column(rows)) == _outcome(
            lambda: [fn(row) for row in rows]
        )
        selection = vector.filter_kernel(expr, SCHEMA)
        assert _outcome(lambda: selection(rows)) == _outcome(
            lambda: [row for row in rows if fn(row) is True]
        )
    tuples = lambda: [tuple(fn(row) for fn in fns) for row in rows]  # noqa: E731
    projection = vector.project_kernel(exprs, SCHEMA)
    assert _outcome(lambda: projection(rows)) == _outcome(tuples)
    keys = vector.key_kernel(exprs, SCHEMA)
    if len(exprs) == 1:
        assert keys.source == column.source
    else:
        assert _outcome(lambda: keys(rows)) == _outcome(tuples)


# -- reading through a position map ------------------------------------------


class _Hole:
    """A wide row's slot that no narrowed column maps to: a kernel that
    reads one compares, adds or prints something the narrow side never
    sees."""

    def __repr__(self):
        return "<hole>"


_HOLE = _Hole()


@st.composite
def position_maps(draw):
    """``(positions, width)``: where each of ``SCHEMA``'s columns sits in
    a wider row — a subset of its slots, in any order."""
    width = draw(st.integers(len(SCHEMA), len(SCHEMA) + 3))
    slots = draw(st.permutations(range(width)))
    return list(slots[: len(SCHEMA)]), width


def _widen(rows, positions, width):
    wide = []
    for row in rows:
        slots = [_HOLE] * width
        for value, position in zip(row, positions):
            slots[position] = value
        wide.append(tuple(slots))
    return wide


_MATCHES = st.one_of(
    st.none(), st.tuples(_ints, _texts), st.lists(st.tuples(_ints, _texts), min_size=1, max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(
    exprs=st.lists(EXPRESSIONS, min_size=1, max_size=3),
    rows=ROWS,
    layout=position_maps(),
    matches=st.lists(_MATCHES, min_size=6, max_size=6),
)
@example(exprs=ORDER_SENSITIVE, rows=_NULL_X, layout=([4, 0, 2, 1, 3], 5), matches=[None] * 6)
def test_every_kernel_reads_through_a_position_map(exprs, rows, layout, matches):
    """Over the wide rows, a kernel given the map returns what the same
    kernel returns over the narrowed rows (fallback closures included),
    or raises the same exception type."""
    positions, width = layout
    wide = _widen(rows, positions, width)
    for expr in exprs:
        for shape in (vector.column_kernel, vector.filter_kernel):
            mapped = shape(expr, SCHEMA, positions)
            plain = shape(expr, SCHEMA)
            assert _outcome(lambda: mapped(wide)) == _outcome(lambda: plain(rows))
        keep = vector.filter_kernel(expr, SCHEMA, positions, narrow=False)
        selection = vector.filter_kernel(expr, SCHEMA)
        assert _outcome(
            lambda: [rows[wide.index(row)] for row in keep(wide)]
        ) == _outcome(lambda: selection(rows))
    for shape in (vector.project_kernel, vector.key_kernel):
        mapped = shape(exprs, SCHEMA, positions)
        plain = shape(exprs, SCHEMA)
        assert _outcome(lambda: mapped(wide)) == _outcome(lambda: plain(rows))
    pad = (None, None)
    for kind, build_left, buckets in vector._PROBES:
        found = [
            match if buckets or not isinstance(match, list) else match[0]
            for match in matches[: len(rows)]
        ]
        if buckets:
            found = [[match] if isinstance(match, tuple) else match for match in found]
        mapped = vector.probe_kernel(kind, build_left, buckets, pad, positions)
        plain = vector.probe_kernel(kind, build_left, buckets, pad)
        assert mapped(wide, found) == plain(rows, found)


def test_a_position_map_admits_only_integers():
    for positions in (["0"], [0.0], ["__import__('os')"]):
        with pytest.raises(TypeError):
            vector.column_kernel(_I, SCHEMA, positions)


# -- the injection guard ------------------------------------------------------

HOSTILE = [
    "'); __import__('os').system('x') #",
    '"""',
    "it's",
    "line\nbreak",
    "back\\slash \\' \\n",
    "{0} {} %s",
    "] for r in rows] or [exit() for r in rows",
]

SECRET_SCHEMA = Schema(
    [Field("secret_name", varchar(64), "secret_table"), Field("n", INTEGER, "secret_table")]
)


def _hostile_exprs(literal, column):
    return [
        literal,
        ast.BinaryOp("||", column, literal),
        ast.BinaryOp("=", column, literal),
        ast.InList(column, (literal, ast.Literal("other"))),
        ast.Like(column, literal),
    ]


def test_hostile_literals_come_back_as_data():
    column = ast.ColumnRef("secret_name", "secret_table")
    rows = [(text, index) for index, text in enumerate(HOSTILE)] + [(None, -1)]
    for text in HOSTILE:
        literal = ast.Literal(text)
        kernel = vector.project_kernel(_hostile_exprs(literal, column), SECRET_SCHEMA)
        out = kernel(rows)
        assert [row[0] for row in out] == [text] * len(rows)
        assert out[0][1] == HOSTILE[0] + text and out[-1][1] is None
        assert [row[2] for row in out] == [name == text for name in HOSTILE] + [None]
        assert [row[3] for row in out] == [row[2] for row in out]
        assert out[-1][4] is None
        for fragment in (text, "secret_name", "secret_table", "other"):
            assert fragment not in kernel.source
        selected = vector.filter_kernel(ast.BinaryOp("=", column, literal), SECRET_SCHEMA)
        assert selected(rows) == [row for row in rows if row[0] == text]
        # The same kernels read through a position map over wider rows.
        wide = [(index, None, name) for name, index in rows]
        mapped = vector.project_kernel(_hostile_exprs(literal, column), SECRET_SCHEMA, [2, 0])
        assert mapped(wide) == out
        predicate = ast.BinaryOp("=", column, ast.BinaryOp("||", column, literal))
        sources = [mapped.source] + [
            vector.filter_kernel(predicate, SECRET_SCHEMA, [2, 0], narrow).source
            for narrow in (True, False)
        ]
        for fragment in (text, "secret_name", "secret_table"):
            assert all(fragment not in source for source in sources)


def _sources_of(database, sql, monkeypatch):
    """Every kernel source ``sql`` hands to ``compile()``."""
    seen = []
    compile_source = vector._code

    def recording(source):
        seen.append(source)
        return compile_source(source)

    monkeypatch.setattr(vector, "_code", recording)
    result = database.execute(sql)
    monkeypatch.undo()
    return seen, result.rows


def test_no_statement_text_reaches_compile(monkeypatch):
    database = Database("D")
    database.create_table(
        "secret_table",
        SECRET_SCHEMA.unqualified(),
        [(text, index) for index, text in enumerate(HOSTILE)],
    )
    _assert_no_statement_text_reaches_compile(database, monkeypatch)


def test_no_statement_text_reaches_mapped_kernels(monkeypatch):
    """The same statement over a table with a column it never reads:
    the scan is narrowed, and its consumers read through the map."""
    database = Database("D")
    database.create_table(
        "secret_table",
        Schema([Field("unread", INTEGER)] + list(SECRET_SCHEMA.unqualified().fields)),
        [(-index, text, index) for index, text in enumerate(HOSTILE)],
    )
    sources = _assert_no_statement_text_reaches_compile(database, monkeypatch)
    assert any("for r in rows if" in source and "r[2]" in source for source in sources)


def _assert_no_statement_text_reaches_compile(database, monkeypatch):
    template = (
        "SELECT secret_name, n * {number} AS scaled, secret_name || '{text}' AS tail "
        "FROM secret_table "
        "WHERE secret_name <> '{text}' AND n BETWEEN 0 AND {number} "
        "AND n IN ({number}, 1, 2) AND secret_name NOT LIKE '{text}'"
    )
    per_statement = []
    for number, text in [(5, HOSTILE[0]), (977, HOSTILE[3])]:
        sql = template.format(number=number, text=text.replace("'", "''"))
        sources, rows = _sources_of(database, sql, monkeypatch)
        assert sources, "the statement compiled no kernel"
        for source in sources:
            for fragment in (text, str(number), "secret", "scaled", "tail"):
                assert fragment not in source, source
        assert all(row[2] == row[0] + text for row in rows)
        assert sorted(row[0] for row in rows) == sorted(
            name
            for index, name in enumerate(HOSTILE)
            if name != text and index in (number, 1, 2)
        )
        per_statement.append(sources)
    # statements that differ only in their constants share their sources
    assert per_statement[0] == per_statement[1]
    return per_statement[0]
