"""Differential testing: batch (vectorized) executor vs. row executor.

The batch engine must be observationally identical to the reference
row-at-a-time interpreter: same rows (up to order outside ORDER BY),
same errors, and — because the schedule simulator consumes them — the
same per-operator ``rows_out`` counts.  This module drives both modes
over the TPC-H suite, the randomized query generator, and directed
edge cases (NULL join keys, LEFT joins, DISTINCT aggregates, empty
inputs).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.relational.builder import build_plan
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import DOUBLE, INTEGER, varchar
from repro.workloads.tpch import EXTENDED_QUERIES, QUERIES, generate

from conftest import assert_same_rows
from test_random_queries import build_worlds, random_query


def _twin_databases(tables):
    """Two identical databases, one per execution mode.

    ``tables`` is an iterable of ``(name, schema, rows)``.
    """
    row_db = Database("ROW", execution_mode="row")
    batch_db = Database("BATCH", execution_mode="batch")
    for name, schema, rows in tables:
        row_db.create_table(name, schema, rows)
        batch_db.create_table(name, schema, rows)
    return row_db, batch_db


def _assert_modes_agree(row_db, batch_db, sql, ordered=False):
    row_result = row_db.execute(sql)
    batch_result = batch_db.execute(sql)
    if ordered:
        assert row_result.rows == batch_result.rows
    else:
        assert_same_rows(row_result.rows, batch_result.rows)
    return row_result, batch_result


def _operator_counts(database, sql):
    """Execute ``sql`` and return ``[(label, rows_out), ...]`` in
    pre-order over the physical operator tree."""
    select = parse_statement(sql)
    plan = build_plan(select, database.catalog)
    plan = database.planner.optimize(plan)
    physical = database.planner.to_physical(plan)
    if database.execution_mode == "batch":
        for _ in physical.batches():
            pass
    else:
        for _ in physical.rows():
            pass
    counts = []

    def walk(node):
        counts.append((node.label(), node.rows_out))
        for child in node.children():
            walk(child)

    walk(physical)
    return counts


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
    row_db, batch_db = tpch_twins
    _assert_modes_agree(row_db, batch_db, QUERIES[key], ordered=True)


@pytest.mark.parametrize("key", sorted(EXTENDED_QUERIES))
def test_tpch_extended_row_vs_batch(tpch_twins, key):
    row_db, batch_db = tpch_twins
    _assert_modes_agree(row_db, batch_db, EXTENDED_QUERIES[key])


@pytest.mark.parametrize("key", sorted(QUERIES))
def test_tpch_operator_counts_match(tpch_twins, key):
    """Per-operator cardinalities are what the schedule simulator sees;
    they must be identical across modes on every TPC-H plan (the LIMIT
    batch-granularity caveat does not bite: the drivers' LIMITs sit
    over Sort, which consumes its child fully in both modes)."""
    row_db, batch_db = tpch_twins
    row_counts = _operator_counts(row_db, QUERIES[key])
    batch_counts = _operator_counts(batch_db, QUERIES[key])
    assert row_counts == batch_counts


# -- randomized ------------------------------------------------------------------


def _random_twins():
    _, single = build_worlds()
    tables = [
        (table.name, table.schema, table.rows)
        for table in single.catalog.tables()
    ]
    return _twin_databases(tables)


_ROW_DB, _BATCH_DB = _random_twins()


@given(sql=random_query())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_queries_row_vs_batch(sql):
    _assert_modes_agree(_ROW_DB, _BATCH_DB, sql)


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
    row_db, batch_db = edge_twins
    ordered = "ORDER BY" in sql
    _assert_modes_agree(row_db, batch_db, sql, ordered=ordered)


def test_division_by_zero_raises_in_both_modes(edge_twins):
    row_db, batch_db = edge_twins
    sql = "SELECT v / (k - k) AS boom FROM t WHERE k IS NOT NULL"
    with pytest.raises(ExecutionError):
        row_db.execute(sql)
    with pytest.raises(ExecutionError):
        batch_db.execute(sql)


def _outcome(database, sql):
    try:
        return sorted(database.execute(sql).rows, key=repr)
    except ExecutionError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "sql, raises",
    [
        # NULL on the left, a division by zero on the right: the row
        # closures stop at the NULL and never evaluate the right side.
        ("SELECT v + 1 / (k - k) FROM nulls", False),
        ("SELECT k FROM nulls WHERE v > 1 / (k - k)", False),
        # IN evaluates its items past a NULL one.
        ("SELECT k FROM nulls WHERE k IN (v, 1 / (k - 1))", True),
    ],
)
def test_operand_evaluation_order_matches_row_mode(sql, raises):
    schema = Schema([Field("k", INTEGER), Field("v", DOUBLE)])
    row_db, batch_db = _twin_databases(
        [("nulls", schema, [(1, None), (2, None)])]
    )
    want = _outcome(row_db, sql)
    assert isinstance(want, str) == raises
    assert _outcome(batch_db, sql) == want


def test_edge_operator_counts_match(edge_twins):
    row_db, batch_db = edge_twins
    for sql in EDGE_QUERIES:
        if "LIMIT" in sql:
            continue  # LIMIT children may legitimately differ by one batch
        assert _operator_counts(row_db, sql) == _operator_counts(
            batch_db, sql
        ), sql


def test_unknown_execution_mode_rejected():
    with pytest.raises(ExecutionError):
        Database("X", execution_mode="columnar")
