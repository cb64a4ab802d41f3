"""UNION ALL: parser, engine execution, and cross-database delegation."""

import pytest

from repro.core.client import XDB
from repro.engine.database import Database
from repro.errors import TypeCheckError
from repro.federation.deployment import Deployment
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.render import render
from repro.sql.types import DOUBLE, INTEGER, varchar

from conftest import assert_same_rows, ground_truth_database


# -- parsing / rendering ---------------------------------------------------------


def test_parse_union_all():
    stmt = parse_statement("SELECT a FROM t UNION ALL SELECT b FROM u")
    assert isinstance(stmt, ast.UnionAll)
    assert len(stmt.branches()) == 2


def test_parse_union_left_nesting():
    stmt = parse_statement(
        "SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL "
        "SELECT c FROM v"
    )
    assert isinstance(stmt, ast.UnionAll)
    assert isinstance(stmt.left, ast.UnionAll)
    assert len(stmt.branches()) == 3


def test_trailing_order_limit_hoisted_to_union():
    stmt = parse_statement(
        "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a DESC LIMIT 5"
    )
    assert isinstance(stmt, ast.UnionAll)
    assert stmt.limit == 5
    assert stmt.order_by[0].ascending is False
    assert stmt.right.order_by == () and stmt.right.limit is None


def test_union_roundtrip():
    for sql in (
        "SELECT a FROM t UNION ALL SELECT b FROM u",
        "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a LIMIT 2",
        "SELECT x.a FROM (SELECT a FROM t UNION ALL SELECT b FROM u) AS x",
        "CREATE VIEW v AS SELECT a FROM t UNION ALL SELECT b FROM u",
    ):
        stmt = parse_statement(sql)
        assert parse_statement(render(stmt)) == stmt, sql


def test_union_requires_all():
    # Plain UNION (distinct) is not in the supported subset.
    with pytest.raises(Exception):
        parse_statement("SELECT a FROM t UNION SELECT b FROM u")


# -- engine execution -------------------------------------------------------------


@pytest.fixture
def db():
    database = Database("D")
    database.create_table(
        "t_small",
        Schema([Field("x", INTEGER), Field("s", varchar(4))]),
        [(1, "a"), (2, "b")],
    )
    database.create_table(
        "u_small",
        Schema([Field("y", INTEGER), Field("t", varchar(4))]),
        [(3, "c"), (1, "a")],
    )
    return database


def test_union_concatenates(db):
    result = db.execute(
        "SELECT x FROM t_small UNION ALL SELECT y FROM u_small"
    )
    assert sorted(result.rows) == [(1,), (1,), (2,), (3,)]


def test_union_keeps_duplicates(db):
    result = db.execute(
        "SELECT s FROM t_small UNION ALL SELECT t FROM u_small"
    )
    assert sorted(r[0] for r in result.rows) == ["a", "a", "b", "c"]


def test_union_column_names_from_left(db):
    result = db.execute(
        "SELECT x AS left_name FROM t_small UNION ALL "
        "SELECT y FROM u_small"
    )
    assert result.column_names == ["left_name"]


def test_union_global_order_and_limit(db):
    result = db.execute(
        "SELECT x FROM t_small UNION ALL SELECT y FROM u_small "
        "ORDER BY x DESC LIMIT 2"
    )
    assert result.rows == [(3,), (2,)]


def test_union_type_widening(db):
    db.create_table(
        "f", Schema([Field("d", DOUBLE)]), [(1.5,)]
    )
    result = db.execute("SELECT x FROM t_small UNION ALL SELECT d FROM f")
    assert sorted(result.rows) == [(1,), (1.5,), (2,)]


def test_union_arity_mismatch_rejected(db):
    with pytest.raises(TypeCheckError):
        db.execute(
            "SELECT x, s FROM t_small UNION ALL SELECT y FROM u_small"
        )


def test_union_in_view_and_subquery(db):
    db.execute(
        "CREATE VIEW both_v AS SELECT x FROM t_small "
        "UNION ALL SELECT y FROM u_small"
    )
    assert db.execute("SELECT COUNT(*) AS n FROM both_v").rows == [(4,)]
    result = db.execute(
        "SELECT q.x, COUNT(*) AS n FROM "
        "(SELECT x FROM t_small UNION ALL SELECT y FROM u_small) AS q "
        "GROUP BY q.x"
    )
    assert sorted(result.rows) == [(1, 2), (2, 1), (3, 1)]


def test_union_explain(db):
    result = db.execute(
        "EXPLAIN SELECT x FROM t_small UNION ALL SELECT y FROM u_small"
    )
    text = "\n".join(row[0] for row in result.rows)
    assert "UnionAll" in text


# -- cross-database delegation --------------------------------------------------------


def union_deployment():
    dep = Deployment({"P": "postgres", "Q": "mariadb"})
    dep.load_table(
        "P",
        "sales_2024",
        Schema([Field("k", INTEGER), Field("v", INTEGER)]),
        [(i, i * 2) for i in range(12)],
    )
    dep.load_table(
        "Q",
        "sales_2025",
        Schema([Field("k", INTEGER), Field("v", INTEGER)]),
        [(i, i * 3) for i in range(9)],
    )
    return dep


def test_cross_database_union_matches_ground_truth():
    dep = union_deployment()
    sql = "SELECT k, v FROM sales_2024 UNION ALL SELECT k, v FROM sales_2025"
    report = XDB(dep).submit(sql)
    truth = ground_truth_database(dep).execute(sql)
    assert_same_rows(report.result.rows, truth.rows)
    # The union is itself a cross-database operator: two tasks.
    assert report.plan.task_count() == 2
    assert "∪" in report.plan.describe()


def test_cross_database_union_under_aggregation():
    dep = union_deployment()
    sql = (
        "SELECT u.k, SUM(u.v) AS total FROM "
        "(SELECT k, v FROM sales_2024 UNION ALL "
        "SELECT k, v FROM sales_2025) AS u GROUP BY u.k"
    )
    report = XDB(dep).submit(sql)
    truth = ground_truth_database(dep).execute(sql)
    assert_same_rows(report.result.rows, truth.rows)


def test_union_on_mediator_baseline():
    from repro.baselines.garlic import GarlicSystem

    dep = union_deployment()
    sql = "SELECT k, v FROM sales_2024 UNION ALL SELECT k, v FROM sales_2025"
    report = GarlicSystem(dep).run(sql)
    truth = ground_truth_database(dep).execute(sql)
    assert_same_rows(report.result.rows, truth.rows)


def test_limit_over_union_all_stops_pulling_branches():
    dep = Deployment({"P": "postgres"}, parallel_workers=2)
    for name in ("a", "b", "c"):
        dep.load_table(
            "P",
            name,
            Schema([Field("k", INTEGER)]),
            [(i,) for i in range(50)],
        )
    sql = (
        "SELECT k FROM a UNION ALL SELECT k FROM b UNION ALL "
        "SELECT k FROM c LIMIT 3"
    )
    with QueryContext() as ctx:
        rows = dep.databases["P"].execute(sql).rows
    assert len(rows) == 3
    scanned = {
        span.name: span.attributes["rows_out"]
        for span in ctx.root.find_all(kind="operator")
        if span.name.startswith("SeqScan[")
    }
    assert scanned == {"SeqScan[a]": 3, "SeqScan[b]": 0, "SeqScan[c]": 0}
