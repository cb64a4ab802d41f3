"""Generated kernels ≡ a plain recursive evaluator, and nothing of a
statement's text reaches ``compile()``.

``repro.engine.vector`` lowers an expression to the source of one
comprehension, every node inline.  The reference here, :func:`evaluate`,
walks the expression tree per row and shares only the runtime helpers
of ``repro.relational.expressions`` (Kleene logic, ``sql_mod``,
``shift_date``, ``like_matches``, the scalar-function implementations,
``cast_value``) — none of the binding or the lowering.  For random
well-typed expression trees and random rows with NULLs and zeros, every
kernel shape (filter, project, column, key) must return exactly what
the reference returns row by row — or raise the same exception type,
which pins operand evaluation order.  Read through a position map over
wider rows, every kernel returns what it returns over the narrowed
rows; a fused hash-join probe returns what the three passes it replaced
return (key kernel, ``map(dict.get)``, zip), and a filter's ``&`` /
``|`` tree keeps what the reference keeps over random AND / OR / NOT
trees.  The last part is the injection guard: literals are data, and
the generated source — position-mapped or not, probes included —
carries neither literal nor identifier text.
"""

from __future__ import annotations

import datetime
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import vector
from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.relational.expressions import (
    SCALAR_FUNCTIONS,
    cast_value,
    like_matches,
    shift_date,
    sql_and,
    sql_mod,
    sql_not,
    sql_or,
)
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.types import BOOLEAN, DATE, DOUBLE, INTEGER, varchar

_BINARY = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": sql_mod,
}


def _divide(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


def evaluate(expr: ast.Expression, schema: Schema, row: tuple):
    """The value of ``expr`` on ``row``, one node at a time: the SQL
    semantics the kernels must keep, operand order included."""

    def value(node):
        return evaluate(node, schema, row)

    if isinstance(expr, ast.ColumnRef):
        return row[schema.resolve(expr.name, expr.table)]
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            combine = sql_and if expr.op == "AND" else sql_or
            return combine(value(expr.left), value(expr.right))
        if expr.op == "||":
            left, right = value(expr.left), value(expr.right)
            return None if left is None or right is None else str(left) + str(right)
        if isinstance(expr.right, ast.IntervalLiteral):
            left = value(expr.left)
            amount = expr.right.amount if expr.op == "+" else -expr.right.amount
            return None if left is None else shift_date(left, amount, expr.right.unit)
        left = value(expr.left)  # NULL-strict: a NULL left skips the right
        if left is None:
            return None
        right = value(expr.right)
        if right is None:
            return None
        return (_divide if expr.op == "/" else _BINARY[expr.op])(left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = value(expr.operand)
        if expr.op == "NOT":
            return sql_not(operand)
        return None if operand is None else -operand
    if isinstance(expr, ast.IsNull):
        return (value(expr.operand) is None) != expr.negated
    if isinstance(expr, ast.Between):
        operand = value(expr.operand)
        if operand is None:
            return None
        low, high = value(expr.low), value(expr.high)  # both, then NULL
        if low is None or high is None:
            return None
        return (low <= operand <= high) != expr.negated
    if isinstance(expr, ast.InList):
        operand = value(expr.operand)
        if operand is None:
            return None
        saw_null = False
        for item in expr.items:  # left to right, up to the first match
            found = value(item)
            if found is None:
                saw_null = True
            elif found == operand:
                return not expr.negated
        return None if saw_null else expr.negated
    if isinstance(expr, ast.Like):
        matched = like_matches(value(expr.operand), value(expr.pattern))
        return None if matched is None else matched != expr.negated
    if isinstance(expr, ast.FunctionCall):
        impl = SCALAR_FUNCTIONS[expr.name.upper()].impl
        return impl([value(arg) for arg in expr.args])
    if isinstance(expr, ast.CaseWhen):
        for condition, result in expr.whens:
            if value(condition) is True:
                return value(result)
        return None if expr.else_result is None else value(expr.else_result)
    if isinstance(expr, ast.Extract):
        operand = value(expr.operand)
        return None if operand is None else getattr(operand, expr.unit.lower())
    if isinstance(expr, ast.Cast):
        operand = value(expr.operand)
        return None if operand is None else cast_value(operand, expr.target)
    raise AssertionError(f"no reference for {type(expr).__name__}")


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

#: Where operand order shows: what is evaluated, and what is skipped,
#: next to a NULL.
ORDER_SENSITIVE = [
    ast.BinaryOp("+", _X, _BOOM),  # a NULL left operand skips the right
    ast.BinaryOp(">", _X, _BOOM),
    ast.BinaryOp("+", _BOOM, _X),
    ast.Between(_X, _I, _BOOM),  # a NULL operand skips both bounds ...
    ast.Between(_I, _X, _BOOM),  # ... a NULL bound does not skip the other
    ast.BinaryOp("AND", ast.BinaryOp(">", _I, _J), ast.BinaryOp(">", _BOOM, _I)),
    ast.BinaryOp("||", ast.Cast(_X, varchar(3)), ast.Cast(_S, INTEGER)),
    ast.InList(_I, (_X, _BOOM)),
    ast.InList(_J, (_X, _J, _BOOM)),  # the first match skips the rest
    ast.Like(ast.Cast(_X, varchar(3)), ast.Cast(_BOOM, varchar(3))),
    # CASE evaluates the conditions up to the first True, then its result
    ast.CaseWhen(((ast.BinaryOp(">", _I, _X), _BOOM), (ast.IsNull(_X, False), _J)), _BOOM),
    ast.FunctionCall("COALESCE", (_J, _BOOM)),  # every argument, then the call
]


#: SQL ``%`` keeps the dividend's sign, unlike Python's.
NEGATIVE_DIVIDEND = [ast.BinaryOp("%", _I, _J), ast.BinaryOp("%", _X, _J)]

#: A NULL item of a non-literal IN list: NULL without a match, moot
#: with one.
NULL_ITEMS = [
    ast.InList(_I, (_X, ast.Literal(2))),
    ast.InList(_I, (_X, ast.Literal(None), _J), True),
    ast.InList(_I, (ast.Literal(None), ast.BinaryOp("+", _J, _J))),
]


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(EXPRESSIONS, min_size=1, max_size=3), rows=ROWS)
@example(exprs=ORDER_SENSITIVE, rows=_NULL_X)
@example(exprs=NEGATIVE_DIVIDEND, rows=[(-3, 2, -1.5, "a", None), (3, -2, 2.0, "a", None)])
@example(exprs=NULL_ITEMS, rows=_NULL_X + [(2, 1, 0.5, "b", None)])
def test_every_kernel_returns_what_the_closures_return(exprs, rows):
    fns = [lambda row, expr=expr: evaluate(expr, SCHEMA, row) for expr in exprs]
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

#: The probe comprehensions as they were before the lookup moved
#: inline — a key kernel, then ``map(dict.get, keys)``, then a zip over
#: the rows and their matches: the reference every fused probe equals.
_ZIP_PROBES = {
    ("INNER", False, False): "[r + m for r, m in zip(rows, matches) if m is not None]",
    ("INNER", True, False): "[m + r for r, m in zip(rows, matches) if m is not None]",
    ("INNER", False, True): "[r + m for r, b in zip(rows, matches) if b for m in b]",
    ("INNER", True, True): "[m + r for r, b in zip(rows, matches) if b for m in b]",
    ("LEFT", False, False): "[r + (m if m is not None else pad) for r, m in zip(rows, matches)]",
    ("LEFT", False, True): "[r + m for r, b in zip(rows, matches) for m in b or pads]",
}


def _zip_probe(shape, keys, get, pad):
    join = eval("lambda rows, matches: " + _ZIP_PROBES[shape], {"pad": pad, "pads": [pad]})
    keys_of = vector.key_kernel(keys, SCHEMA)
    return lambda rows: join(rows, map(get, keys_of(rows)))


def _hash_table(keys, rows, matches, buckets):
    """A hash table keyed by the ``rows``' own keys, as ``HashJoin``
    builds it: a row whose match is None, or whose key has a NULL, is
    left out; values are build rows, or list buckets of them."""
    table = {}
    try:
        found = vector.key_kernel(keys, SCHEMA)(rows)
    except Exception:  # the probe raises the same error; the table is moot
        return table
    for key, match in zip(found, matches):
        if match is None or (key is None if len(keys) == 1 else None in key):
            continue
        if buckets:
            table.setdefault(key, []).extend([match] if isinstance(match, tuple) else match)
        else:
            table[key] = match[0] if isinstance(match, list) else match
    return table


_SUM = ast.BinaryOp("+", _I, _J)


@settings(max_examples=300, deadline=None)
@given(
    exprs=st.lists(EXPRESSIONS, min_size=1, max_size=3),
    rows=ROWS,
    layout=position_maps(),
    matches=st.lists(_MATCHES, min_size=6, max_size=6),
)
@example(exprs=ORDER_SENSITIVE, rows=_NULL_X, layout=([4, 0, 2, 1, 3], 5), matches=[None] * 6)
@example(  # computed keys, which a lookup in a for's iterable cannot take
    exprs=[_SUM, ast.BinaryOp("+", ast.UnaryOp("-", _I), _J)],
    rows=[(1, 2, None, "a", None), (None, 1, 0.5, None, None), (3, 0, 2.0, "b", None)],
    layout=([4, 0, 2, 1, 3], 6),
    matches=[(1, "x"), None, [(2, "y"), (3, None)], None, None, None],
)
@example(
    exprs=[_SUM],
    rows=[(1, 2, None, "a", None), (2, 1, 0.5, None, None), (None, 0, 2.0, "b", None)],
    layout=([1, 2, 3, 4, 5], 6),
    matches=[(1, "x"), [(2, "y"), (3, None)], (4, "z"), None, None, None],
)
def test_every_kernel_reads_through_a_position_map(exprs, rows, layout, matches):
    """Over the wide rows, a kernel given the map returns what the same
    kernel returns over the narrowed rows, or raises the same exception
    type.  A fused probe, keyed by
    ``exprs``, returns what the key kernel, ``map(dict.get)`` and the
    zip it replaced return, through a map or not."""
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
    assert set(vector._PROBES) == set(_ZIP_PROBES)
    for shape in vector._PROBES:
        table = _hash_table(exprs, rows, matches, buckets=shape[2])
        want = _outcome(lambda: _zip_probe(shape, exprs, table.get, pad)(rows))
        for over, through in ((rows, None), (wide, positions)):
            probe = vector.probe_kernel(*shape, exprs, SCHEMA, pad, through)
            assert _outcome(lambda: probe(over, table.get)) == want, probe.source


# -- a filter's AND / OR tree --------------------------------------------------

BOOLEAN_SCHEMA = Schema(
    [Field("p", BOOLEAN, "u"), Field("q", BOOLEAN, "u"), Field("n", INTEGER, "u")]
)
_TRUTHS = st.one_of(st.none(), st.booleans())
BOOLEAN_ROWS = st.lists(
    st.tuples(_TRUTHS, _TRUTHS, st.one_of(st.none(), st.integers(-2, 2))), max_size=8
)
_P, _Q, _N = (ast.ColumnRef(name) for name in "pqn")
#: True, False or NULL as ``n`` is positive, not, or NULL; raises if 0.
_RECIPROCAL = ast.BinaryOp(">", ast.BinaryOp("/", ast.Literal(1), _N), ast.Literal(0))

TRUTH_TREES = st.recursive(
    st.one_of(
        st.sampled_from([_P, _Q, _RECIPROCAL, ast.Literal(None), ast.Literal(True)]),
        st.builds(ast.BinaryOp, st.sampled_from(["=", "<", ">="]), st.just(_N), _literal(_ints)),
        st.builds(ast.IsNull, st.sampled_from([_P, _N]), st.booleans()),
    ),
    lambda inner: st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), inner, inner),
        st.builds(ast.UnaryOp, st.just("NOT"), inner),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(predicate=TRUTH_TREES, rows=BOOLEAN_ROWS)
@example(  # ``&`` evaluates its right side under a False left, as sql_and does
    predicate=ast.BinaryOp("AND", _P, _RECIPROCAL), rows=[(False, None, 0)]
)
@example(predicate=ast.BinaryOp("OR", _P, _RECIPROCAL), rows=[(True, None, 0)])
@example(
    predicate=ast.BinaryOp("OR", ast.UnaryOp("NOT", ast.BinaryOp("AND", _P, _Q)), _Q),
    rows=[(None, True, 1), (False, None, 1), (True, True, None), (None, None, None)],
)
def test_a_filter_keeps_the_rows_its_closure_finds_true(predicate, rows):
    fn = lambda row: evaluate(predicate, BOOLEAN_SCHEMA, row)  # noqa: E731
    selection = vector.filter_kernel(predicate, BOOLEAN_SCHEMA)
    assert _outcome(lambda: selection(rows)) == _outcome(
        lambda: [row for row in rows if fn(row) is True]
    )


def test_a_filter_joins_its_and_or_tests_without_helpers():
    bigger = ast.BinaryOp(">", _N, ast.Literal(1))
    predicate = ast.BinaryOp("AND", _P, ast.BinaryOp("OR", _Q, bigger))
    source = vector.filter_kernel(predicate, BOOLEAN_SCHEMA).source
    assert " & " in source and " | " in source
    assert "sql_and" not in source and "sql_or" not in source


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
        # A probe keyed by the literal: the table's keys are data too.
        table = {name + text: (index,) for name, index in rows if name is not None}
        probe = vector.probe_kernel(
            "INNER", False, False, [ast.BinaryOp("||", column, literal)],
            SECRET_SCHEMA, (None,), [2, 0],
        )
        assert probe(wide, table.get) == [(name, index, index) for name, index in rows[:-1]]
        sources = [mapped.source, probe.source] + [
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
    """The same statement over a table with a column it never reads,
    joined one to one with another such table: the scans are narrowed,
    and their consumers — filters and the probe — read through the map."""
    database = Database("D")
    database.create_table(
        "secret_table",
        Schema([Field("unread", INTEGER)] + list(SECRET_SCHEMA.unqualified().fields)),
        [(-index, text, index) for index, text in enumerate(HOSTILE)],
    )
    database.create_table(
        "secret_keys",
        Schema([Field("unread_too", INTEGER), Field("k", INTEGER)]),
        [(-index, index) for index in range(len(HOSTILE))],
    )
    join = " JOIN secret_keys ON secret_keys.k = secret_table.n"
    sources = _assert_no_statement_text_reaches_compile(database, monkeypatch, join)
    assert any("for r in rows if" in source and "r[2]" in source for source in sources)
    probes = [source for source in sources if " + m " in source or "[m + " in source]
    assert probes and all("for r in rows if (m := get(" in source for source in probes)
    assert any("r[1]" in source or "r[2]" in source for source in probes)


def _assert_no_statement_text_reaches_compile(database, monkeypatch, join=""):
    template = (
        "SELECT secret_name, n * {number} AS scaled, secret_name || '{text}' AS tail "
        "FROM secret_table" + join + " "
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
