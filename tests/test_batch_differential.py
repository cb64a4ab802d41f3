"""Differential testing: the engine against sqlite.

The executor must answer what a real DBMS answers: the stdlib's
sqlite3 (:mod:`repro.fuzz.reference`) runs every query on copies of the
same tables, and the rows must agree — in order where the query has
ORDER BY.  Operator spans, the feedback harvest and the calibrator read
every operator's ``rows_out``, so those are pinned to
``tests/golden/operator_counts.json``.  This module drives the TPC-H
suite, the randomized query generator, directed edge cases (NULL join
keys, LEFT joins, DISTINCT aggregates, empty inputs), and every consumer
that reads through a narrowing projection.  The ``row_vs_batch`` test names are historical: the
reference used to be the engine's own row-at-a-time mode.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.fuzz.reference import Reference, same_rows
from repro.relational.builder import build_plan
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import DOUBLE, INTEGER, varchar
from repro.workloads.tpch import EXTENDED_QUERIES, QUERIES, generate

from test_random_queries import build_worlds, random_query

#: ``[label, rows_out]`` of every operator, pre-order, per query: what
#: the executor counted before its row-at-a-time half was deleted
#: (``read_through``: before consumers read through narrowing
#: projections).
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "operator_counts.json").read_text()
)


def _twin_databases(tables):
    """The engine and the sqlite reference, holding the same tables.

    ``tables`` is an iterable of ``(name, schema, rows)``.
    """
    tables = list(tables)
    database = Database("ENGINE")
    for name, schema, rows in tables:
        database.create_table(name, schema, rows)
    return database, Reference(tables)


def _assert_agrees(database, reference, sql, ordered=False):
    result = database.execute(sql)
    want = reference.rows(parse_statement(sql), result.schema)
    assert same_rows(result.rows, want, ordered), (result.rows, want)
    return result


def _operator_counts(database, sql):
    """Execute ``sql`` and return ``[[label, rows_out], ...]`` in
    pre-order over the physical operator tree."""
    select = parse_statement(sql)
    plan = build_plan(select, database.catalog)
    plan = database.planner.optimize(plan)
    physical = database.planner.to_physical(plan)
    for _ in physical.batches():
        pass
    return [[node.label(), node.rows_out] for node in physical.walk()]


# -- TPC-H ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_twins():
    data = generate(0.002, seed=11)
    tables = [
        (name, data.schema_of(name), data.rows_of(name))
        for name in data.tables
    ]
    return _twin_databases(tables)


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_tpch_row_vs_batch(tpch_twins, key):
    database, reference = tpch_twins
    result = _assert_agrees(database, reference, QUERIES[key], ordered=True)
    assert result.rows, "the query under test must return rows"


@pytest.mark.parametrize("key", sorted(EXTENDED_QUERIES))
def test_tpch_extended_row_vs_batch(tpch_twins, key):
    database, reference = tpch_twins
    sql = EXTENDED_QUERIES[key]
    _assert_agrees(database, reference, sql, ordered="ORDER BY" in sql)


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_tpch_operator_counts_match(tpch_twins, key):
    """Per-operator cardinalities are what the operator spans carry;
    every TPC-H plan must count what the golden recorded (the LIMIT
    over-pull does not bite: the drivers' LIMITs sit over Sort, which
    consumes its child fully)."""
    database, _ = tpch_twins
    assert _operator_counts(database, QUERIES[key]) == GOLDEN["tpch"][key]


# -- randomized ------------------------------------------------------------------


def _random_twins():
    _, single = build_worlds()
    tables = [
        (table.name, table.schema, table.rows)
        for table in single.catalog.tables()
    ]
    return _twin_databases(tables)


_DATABASE, _REFERENCE = _random_twins()


@given(sql=random_query())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_queries_row_vs_batch(sql):
    _assert_agrees(_DATABASE, _REFERENCE, sql)


# -- directed edge cases ---------------------------------------------------------


@pytest.fixture()
def edge_twins():
    t_schema = Schema(
        [Field("k", INTEGER), Field("v", DOUBLE), Field("s", varchar(8))]
    )
    u_schema = Schema([Field("k", INTEGER), Field("w", INTEGER)])
    t_rows = [
        (1, 1.5, "aa"),
        (2, None, "bb"),
        (None, 3.0, "cc"),
        (3, 4.5, None),
        (3, 4.5, None),  # duplicate row for DISTINCT
        (5, -2.0, "ee"),
    ]
    u_rows = [(1, 10), (1, 11), (3, 30), (None, 99), (7, 70)]
    return _twin_databases(
        [
            ("t", t_schema, t_rows),
            ("u", u_schema, u_rows),
            ("empty_t", t_schema, []),
        ]
    )


EDGE_QUERIES = [
    # NULL keys never match — inner and LEFT.
    "SELECT t.k, u.w FROM t, u WHERE t.k = u.k",
    "SELECT t.k, t.s, u.w FROM t LEFT JOIN u ON t.k = u.k",
    # LEFT join with residual-free duplicate matches.
    "SELECT t.s, u.w FROM t LEFT JOIN u ON t.k = u.k WHERE t.k IS NOT NULL",
    # Mixed ON conditions: hashed on the equi conjunct, the rest is a
    # residual; a left row whose every match fails it is padded once.
    "SELECT t.k, t.s, u.w FROM t LEFT JOIN u ON t.k = u.k AND u.w > 10",
    "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k = u.k AND u.w > 30 AND t.v < 4",
    # DISTINCT rows and DISTINCT aggregates.
    "SELECT DISTINCT k, v FROM t",
    "SELECT COUNT(DISTINCT v) AS dv, SUM(DISTINCT v) AS sv FROM t",
    "SELECT s, COUNT(DISTINCT k) AS dk FROM t GROUP BY s",
    # Aggregates over NULLs and negatives.
    "SELECT COUNT(*) AS n, COUNT(v) AS nv, MIN(v) AS lo, MAX(v) AS hi, "
    "AVG(v) AS mean FROM t",
    # Empty inputs: scalar aggregate yields one row, grouped yields none.
    "SELECT COUNT(*) AS n, SUM(v) AS sv FROM empty_t",
    "SELECT s, COUNT(*) AS n FROM empty_t GROUP BY s",
    "SELECT empty_t.k FROM empty_t, u WHERE empty_t.k = u.k",
    "SELECT empty_t.k, u.w FROM empty_t LEFT JOIN u ON empty_t.k = u.k",
    # Nested-loop joins: a non-equi LEFT ON, a non-equi inner ON (a
    # filter over the cross product), and a cross product.
    "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k > u.k",
    "SELECT t.k, u.w FROM t JOIN u ON t.k > u.k",
    "SELECT t.s, u.w FROM t CROSS JOIN u",
    # Expression kernels: three-valued logic, LIKE, IN, BETWEEN, CASE.
    "SELECT k FROM t WHERE v > 2 OR s LIKE 'a%'",
    "SELECT k FROM t WHERE k IN (1, 3) AND v BETWEEN 0 AND 10",
    "SELECT k, CASE WHEN v > 2 THEN 'hi' ELSE 'lo' END AS band FROM t",
    "SELECT k, v + 1 AS v1, -v AS nv, v * 2 AS v2 FROM t",
    # Sorting with NULLs, LIMIT over Sort, UNION ALL.
    "SELECT k, v FROM t ORDER BY v, k",
    "SELECT k FROM t ORDER BY k LIMIT 2",
    "SELECT k FROM t UNION ALL SELECT k FROM u",
    "SELECT k FROM t WHERE v > 100",  # empty filter result
]


@pytest.mark.parametrize("sql", EDGE_QUERIES)
def test_edge_cases_row_vs_batch(edge_twins, sql):
    database, reference = edge_twins
    _assert_agrees(database, reference, sql, ordered="ORDER BY" in sql)


def test_division_by_zero_raises_in_both_modes(edge_twins):
    """The engine raises where sqlite answers NULL (pinned in
    ``test_sqlite_reference``)."""
    database, _ = edge_twins
    sql = "SELECT v / (k - k) AS boom FROM t WHERE k IS NOT NULL"
    with pytest.raises(ExecutionError, match="division by zero"):
        database.execute(sql)


def _outcome(database, sql):
    try:
        return sorted(database.execute(sql).rows, key=repr)
    except ExecutionError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "sql, raises",
    [
        # NULL on the left, a division by zero on the right: evaluation
        # stops at the NULL and never reaches the right side.
        ("SELECT v + 1 / (k - k) FROM nulls", False),
        ("SELECT k FROM nulls WHERE v > 1 / (k - k)", False),
        # IN evaluates its items past a NULL one.
        ("SELECT k FROM nulls WHERE k IN (v, 1 / (k - 1))", True),
    ],
)
def test_operand_evaluation_order_matches_row_mode(sql, raises):
    schema = Schema([Field("k", INTEGER), Field("v", DOUBLE)])
    database, _ = _twin_databases([("nulls", schema, [(1, None), (2, None)])])
    want = {
        "SELECT v + 1 / (k - k) FROM nulls": [(None,), (None,)],
        "SELECT k FROM nulls WHERE v > 1 / (k - k)": [],
    }.get(sql, "division by zero")
    assert isinstance(want, str) == raises
    assert _outcome(database, sql) == want


def test_edge_operator_counts_match(edge_twins):
    database, _ = edge_twins
    for sql in EDGE_QUERIES:
        if "LIMIT" in sql:
            continue  # a LIMIT's input may be pulled one chunk further
        assert _operator_counts(database, sql) == GOLDEN["edge"][sql], sql


# -- reading through a narrowing projection ---------------------------------------
#
# ``w`` is wider than any query below reads, so column pruning puts a
# narrowing ``Project`` over every scan of it, and each consumer that
# reads through one (filter, computing projection, hash-join probe,
# aggregation) evaluates over the stored rows through a position map.
# ``u`` has a duplicate key (list buckets), ``dm`` unique keys.


@pytest.fixture(scope="module")
def read_through_twins():
    w_schema = Schema(
        [
            Field("a", INTEGER),
            Field("b", INTEGER),
            Field("c", DOUBLE),
            Field("d", varchar(8)),
            Field("e", INTEGER),
            Field("f", varchar(8)),
        ]
    )
    w_rows = [
        (1, 1, 0.5, "ax", 3, "a%"),
        (2, 1, 2.5, "bx", None, "b%"),
        (3, 3, None, "ab", 1, "_b"),
        (4, None, 1.5, "cx", 7, "%"),
        (5, 5, -1.0, None, 2, "c%"),
        (6, 3, 3.0, "ax", 4, None),
        (7, 7, 4.0, "dd", 30, "d_"),
        (8, 2, 0.0, "ee", 0, "e%"),
        (9, 1, 5.5, "ax", 11, "%x"),
        (10, 3, 2.0, "bx", 30, "b_"),
        (11, 9, None, "zz", 5, "z%"),
        (12, 7, 1.0, "dd", 70, "%d"),
    ]
    u_schema = Schema([Field("k", INTEGER), Field("w", INTEGER)])
    u_rows = [(1, 10), (1, 11), (3, 30), (None, 99), (7, 70)]
    dm_schema = Schema([Field("id", INTEGER), Field("name", varchar(8))])
    dm_rows = [(1, "one"), (3, "three"), (7, "seven"), (9, "nine")]
    big_schema = Schema(
        [
            Field("i", INTEGER),
            Field("m", INTEGER),
            Field("x", DOUBLE),
            Field("s", varchar(8)),
        ]
    )
    big_rows = [(i, i % 100, i * 0.5, "s%d" % (i % 13)) for i in range(3000)]
    return _twin_databases(
        [
            ("w", w_schema, w_rows),
            ("u", u_schema, u_rows),
            ("dm", dm_schema, dm_rows),
            ("big", big_schema, big_rows),
        ]
    )


READ_THROUGH_QUERIES = [
    # A filter whose predicate has no inline form: the fallback closure
    # is called on the narrowed tuple.
    "SELECT a, d FROM w WHERE CASE WHEN c > 1 THEN e ELSE b END > 2",
    "SELECT a, f FROM w WHERE d LIKE f",
    "SELECT a FROM w WHERE d LIKE f || '%'",
    # Hash-join probes over a narrowed (and filtered) scan: building
    # left and right, unique keys and list buckets.
    "SELECT w.a, w.d, dm.name FROM w, dm WHERE w.b = dm.id",
    "SELECT w.a, dm.name FROM dm, w WHERE dm.id = w.b AND w.c > 1",
    "SELECT w.a, u.w FROM w, u WHERE w.b = u.k",
    "SELECT w.d, u.w FROM u, w WHERE u.k = w.b AND w.e > 2",
    # LEFT probes: unique keys, buckets, and a residual.
    "SELECT w.a, dm.name FROM w LEFT JOIN dm ON w.b = dm.id",
    "SELECT w.a, w.f, u.w FROM w LEFT JOIN u ON w.b = u.k",
    "SELECT w.a, u.w FROM w LEFT JOIN u ON w.b = u.k AND u.w > w.e",
    # Two keys.
    "SELECT w.a, u.w FROM w, u WHERE w.b = u.k AND w.e = u.w",
    # Aggregation over a narrowed scan, plain and filtered.
    "SELECT d, COUNT(*) AS n, SUM(c) AS sc, MAX(e) AS me FROM w GROUP BY d",
    "SELECT b, COUNT(DISTINCT d) AS nd, AVG(e) AS ae FROM w WHERE c > 0 GROUP BY b",
    # A computing projection over a narrowed filtered scan.
    "SELECT a + e AS ae, d || f AS df, CASE WHEN c > 2 THEN d END AS hi "
    "FROM w WHERE c >= 0",
    # LIMIT over a narrowed filtered scan wider than one chunk: every
    # operator counts what it counted before the read-through.
    "SELECT i, s FROM big WHERE m < 20 LIMIT 100",
    "SELECT i, s FROM big WHERE m < 20 LIMIT 300",
]


@pytest.mark.parametrize("sql", READ_THROUGH_QUERIES)
def test_read_through_row_vs_batch(read_through_twins, sql):
    database, reference = read_through_twins
    result = _assert_agrees(database, reference, sql)
    assert result.rows, "the query under test must return rows"


@pytest.mark.parametrize("sql", READ_THROUGH_QUERIES)
def test_read_through_operator_counts_match(read_through_twins, sql):
    """Reading through a node does not change what it counts, LIMIT
    included: these counts were recorded before the read-through."""
    database, _ = read_through_twins
    assert _operator_counts(database, sql) == GOLDEN["read_through"][sql]
