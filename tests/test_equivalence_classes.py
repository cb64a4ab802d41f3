"""Join edges implied by equality chains (``relational/optimizer.py``).

``a = b AND b = c`` puts a, b and c in one equivalence class, so the
join order may join any two of their units (PostgreSQL's
``equivclass.c``); each join then carries one equality per class.
"""

from contextlib import closing

import pytest

from repro.core.client import XDB
from repro.engine.cost import CardinalityEstimator
from repro.engine.database import Database
from repro.federation.deployment import Deployment
from repro.fuzz.oracle import _fuzz_tables
from repro.fuzz.reference import Reference, same_rows
from repro.relational import algebra
from repro.relational.builder import build_plan
from repro.relational.optimizer import (
    collect_join_region,
    push_filters,
    reorder_joins,
)
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.workloads.tpch import query


def _top_join(node):
    if isinstance(node, algebra.Join):
        return node
    for child in node.children():
        found = _top_join(child)
        if found is not None:
            return found
    return None


def _table_of(unit) -> str:
    (scan,) = unit.leaves()
    return scan.table


def _region(database, sql):
    plan = push_filters(build_plan(parse_statement(sql), database.catalog))
    region, leftover = collect_join_region(_top_join(plan))
    assert not leftover
    return region


def test_q9_region_has_the_implied_edges(tpch_tiny_ground_truth):
    region = _region(tpch_tiny_ground_truth, query("Q9"))
    tables = [_table_of(unit) for unit in region.units]
    pairs = [
        frozenset((tables[edge.first], tables[edge.second]))
        for edge in region.equi_edges
    ]
    written = pairs[:6]  # Q9 writes six equalities between two units
    assert frozenset(("part", "partsupp")) not in written
    assert frozenset(("supplier", "partsupp")) not in written
    derived = pairs[6:]
    assert frozenset(("part", "partsupp")) in derived
    assert frozenset(("supplier", "partsupp")) in derived
    # Each derived edge equates the two units' columns of its class.
    for edge in region.equi_edges[6:]:
        left = region.units[edge.first].schema[edge.positions[0]]
        right = region.units[edge.second].schema[edge.positions[1]]
        assert left.name.split("_")[1] == right.name.split("_")[1]


def _key_equalities(condition, suffix):
    return [
        conjunct
        for conjunct in ast.conjuncts(condition)
        if isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and all(
            isinstance(side, ast.ColumnRef) and side.name.endswith(suffix)
            for side in (conjunct.left, conjunct.right)
        )
    ]


def _joins(node):
    if isinstance(node, algebra.Join):
        yield node
    for child in node.children():
        yield from _joins(child)


@pytest.mark.parametrize("shape", ["left-deep", "bushy"])
def test_q5_joins_carry_one_nationkey_equality_each(tpch_tiny, shape):
    """Q5's class {c_nationkey, s_nationkey, n_nationkey} spans three
    units, so whatever the order, one join meets two of them on one
    side; it gets one equality, not the written one plus the implied."""
    deployment, _ = tpch_tiny
    xdb = XDB(deployment, plan_shape=shape)
    xdb.warm_metadata()
    plan = xdb.optimizer.optimize(parse_statement(query("Q5")))
    counts = [
        len(_key_equalities(join.condition, "_nationkey"))
        for join in _joins(plan)
        if join.condition is not None
    ]
    assert max(counts) == 1
    assert sum(counts) == 2  # three units of the class, two joins


def _fuzz_database():
    database = Database("D")
    for name, schema, rows in _fuzz_tables():
        database.create_table(name, schema, rows)
    return database


CHAINS = [
    # Two columns of one unit in the class: stays as written.
    "SELECT t1.a, t1.c, t2.d FROM t1, t2 WHERE t1.a = t2.a AND t2.a = t1.c",
    # A four-unit chain over aliases: every pair of units may join.
    "SELECT x.d, y.d, z.d, w.b FROM t2 x, t2 y, t2 AS z, t1 w "
    "WHERE x.a = y.a AND y.a = z.a AND z.a = w.a",
    # A chain beside an unrelated class, with a filter on its far end.
    "SELECT t1.b, t3.d FROM t1, t2, t2 AS t3 "
    "WHERE t1.a = t2.a AND t2.a = t3.a AND t2.d = t3.d AND t3.a > 20",
]


@pytest.mark.parametrize("sql", CHAINS)
@pytest.mark.parametrize("shape", ["left-deep", "bushy"])
def test_chains_answer_as_sqlite_does(sql, shape):
    database = _fuzz_database()
    statement = parse_statement(sql)
    plan = push_filters(build_plan(statement, database.catalog))
    estimator = CardinalityEstimator(database.planner.scan_stats)
    ordered = reorder_joins(
        plan, estimator.estimate_rows, estimator.estimate_ndv, shape=shape
    )
    got = list(database.planner.to_physical(ordered).rows())
    with closing(Reference(_fuzz_tables())) as reference:
        want = reference.rows(statement, ordered.schema)
    assert want and same_rows(got, want)


@pytest.mark.parametrize("sql", CHAINS)
def test_chains_across_two_databases_answer_as_sqlite_does(sql):
    """The middleware's DP derives the same edges; its placement runs
    the implied joins on the member engines."""
    tables = {name: (schema, rows) for name, schema, rows in _fuzz_tables()}
    deployment = Deployment({"A": "postgres", "B": "postgres"})
    deployment.load_table("A", "t1", *tables["t1"])
    deployment.load_table("B", "t2", *tables["t2"])
    xdb = XDB(deployment)
    report = xdb.submit(sql)
    with closing(Reference(_fuzz_tables())) as reference:
        want = reference.rows(parse_statement(sql), report.result.schema)
    assert want and same_rows(report.result.rows, want)
    xdb.close()

