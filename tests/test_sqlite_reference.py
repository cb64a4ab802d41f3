"""The sqlite reference (``repro.fuzz.reference``), pinned by value.

Each rule the reference renders away gets one query on which the raw
difference would show, answered identically by both sides.  Each gap it
does not render away gets one query asserting each side's own answer,
so a change on either side shows here first.  DESIGN.md §9 has the
table.
"""

from __future__ import annotations

import ast as python_ast
import datetime
from pathlib import Path

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.fuzz import reference as reference_module
from repro.fuzz.reference import Reference, same_rows
from repro.relational.schema import Field, Schema
from repro.sql.dialects import available_dialects
from repro.sql.parser import parse_statement
from repro.sql.types import DATE, DOUBLE, INTEGER, varchar

SCHEMA = Schema(
    [
        Field("k", INTEGER),
        Field("v", DOUBLE),
        Field("s", varchar(8)),
        Field("d", DATE),
    ]
)
ROWS = [
    (7, -7.5, "abc", datetime.date(1995, 1, 31)),
    (-7, None, "ABC", datetime.date(1996, 2, 29)),
    (2, 4.0, None, None),
]


@pytest.fixture(scope="module")
def sides():
    database = Database("E")
    database.create_table("t", SCHEMA, ROWS)
    return database, Reference([("t", SCHEMA, ROWS)])


def answers(sides, sql):
    """``(engine rows, sqlite rows)`` for ``sql``."""
    database, reference = sides
    result = database.execute(sql)
    return result.rows, reference.rows(parse_statement(sql), result.schema)


# -- what the reference renders away: both sides agree ---------------------

AGREED = {
    # sqlite divides integers as integers: 7 / 2 would be 3
    "integer division": (
        "SELECT k, k / 2 AS h FROM t ORDER BY k",
        [(-7, -3.5), (2, 1.0), (7, 3.5)],
    ),
    # sqlite's LIKE ignores ASCII case unless told not to
    "LIKE case": ("SELECT s FROM t WHERE s LIKE 'a%'", [("abc",)]),
    # sqlite sorts NULL first ascending, last descending
    "NULL order ascending": ("SELECT v FROM t ORDER BY v", [(-7.5,), (4.0,), (None,)]),
    "NULL order descending": ("SELECT v FROM t ORDER BY v DESC", [(None,), (4.0,), (-7.5,)]),
    # a DATE is ISO text in sqlite, and comes back as a date
    "DATE text": (
        "SELECT d FROM t WHERE d < DATE '1996-01-01'",
        [(datetime.date(1995, 1, 31),)],
    ),
    "EXTRACT": (
        "SELECT k, EXTRACT(MONTH FROM d) AS m FROM t ORDER BY k",
        [(-7, 2), (2, None), (7, 1)],
    ),
    "INTERVAL": (
        "SELECT d - INTERVAL '1' YEAR AS e FROM t WHERE k = 7",
        [(datetime.date(1994, 1, 31),)],
    ),
}


@pytest.mark.parametrize("rule", sorted(AGREED))
def test_rendered_away_rules_agree(sides, rule):
    sql, want = AGREED[rule]
    engine, sqlite = answers(sides, sql)
    assert engine == want
    assert same_rows(engine, sqlite, ordered="ORDER BY" in sql)
    assert sqlite == want


# -- what it does not: each side's own answer ------------------------------


def test_zero_divisor_raises_in_the_engine_and_is_null_in_sqlite(sides):
    database, reference = sides
    sql = "SELECT k / (k - k) AS boom FROM t WHERE k = 7"
    with pytest.raises(ExecutionError, match="division by zero"):
        database.execute(sql)
    schema = Schema([Field("boom", DOUBLE)])
    assert reference.rows(parse_statement(sql), schema) == [(None,)]


def test_sqlite_modulo_casts_a_real_operand_to_integer(sides):
    engine, sqlite = answers(sides, "SELECT v % 2 AS m, k % 3 AS n FROM t WHERE k = 7")
    assert engine == [(-1.5, 1)]
    assert sqlite == [(-1.0, 1)]  # -7.5 % 2 is -7 % 2 in sqlite


def test_month_arithmetic_clamps_in_the_engine_and_overflows_in_sqlite(sides):
    engine, sqlite = answers(sides, "SELECT d + INTERVAL '1' MONTH AS e FROM t WHERE k = 7")
    assert engine == [(datetime.date(1995, 2, 28),)]
    assert sqlite == [(datetime.date(1995, 3, 3),)]


# -- the judge stays independent -------------------------------------------


def test_the_reference_dialect_is_not_registered():
    assert available_dialects() == ["hive", "mariadb", "postgres"]


def test_the_reference_imports_nothing_of_what_it_judges():
    tree = python_ast.parse(Path(reference_module.__file__).read_text())
    imported = {
        node.module for node in python_ast.walk(tree) if isinstance(node, python_ast.ImportFrom)
    } | {
        alias.name
        for node in python_ast.walk(tree)
        if isinstance(node, python_ast.Import)
        for alias in node.names
    }
    assert not {
        name for name in imported if name.startswith(("repro.engine", "repro.relational"))
    }


def test_same_rows_compares_numbers_by_value_and_bags_unordered():
    assert same_rows([(1, "a"), (True, None)], [(1.0, None), (1.0, "a")])
    assert same_rows([(0.1 + 0.2,)], [(0.3,)], ordered=True)
    assert not same_rows([(1,), (2,)], [(2,), (1,)], ordered=True)
    assert not same_rows([(1,)], [(1,), (1,)])
    assert not same_rows([("1",)], [(1,)])
