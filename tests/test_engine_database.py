"""Database-level tests: SQL dispatch, DDL, INSERT, EXPLAIN, errors."""

import pytest

from repro.engine.database import Database
from repro.errors import CatalogError, ExecutionError
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.types import DATE, INTEGER, varchar


@pytest.fixture
def db():
    database = Database("D")
    database.create_table(
        "people",
        Schema(
            [
                Field("id", INTEGER),
                Field("name", varchar(16)),
                Field("age", INTEGER),
            ]
        ),
        [(i, f"p{i}", 20 + i) for i in range(10)],
    )
    return database


def test_select_returns_result_with_schema(db):
    result = db.execute("SELECT id, name FROM people WHERE age > 25")
    assert result.column_names == ["id", "name"]
    assert len(result) == 4


def test_create_table_and_insert(db):
    db.execute("CREATE TABLE log (id INT, d DATE)")
    db.execute(
        "INSERT INTO log VALUES (1, DATE '2020-01-01'), (2, NULL)"
    )
    result = db.execute("SELECT COUNT(*) AS n, COUNT(d) AS d FROM log")
    assert result.rows == [(2, 1)]


def test_insert_with_column_list_fills_nulls(db):
    db.execute("CREATE TABLE log (id INT, d DATE)")
    db.execute("INSERT INTO log (id) VALUES (7)")
    assert db.execute("SELECT id, d FROM log").rows == [(7, None)]


def test_insert_arity_mismatch(db):
    db.execute("CREATE TABLE log (id INT, d DATE)")
    with pytest.raises(ExecutionError):
        db.execute("INSERT INTO log (id) VALUES (1, 2)")


def test_insert_into_view_rejected(db):
    db.execute("CREATE VIEW v AS SELECT id FROM people")
    with pytest.raises(ExecutionError):
        db.execute("INSERT INTO v VALUES (1)")


def test_create_view_validates_body(db):
    with pytest.raises(Exception):
        db.execute("CREATE VIEW broken AS SELECT nope FROM people")


def test_view_expansion_and_nesting(db):
    db.execute("CREATE VIEW adults AS SELECT id, age FROM people WHERE age > 24")
    db.execute("CREATE VIEW seniors AS SELECT id FROM adults WHERE age > 27")
    result = db.execute("SELECT COUNT(*) AS n FROM seniors")
    assert result.rows == [(2,)]


def test_create_or_replace_view(db):
    db.execute("CREATE VIEW v AS SELECT id FROM people")
    db.execute("CREATE OR REPLACE VIEW v AS SELECT name FROM people")
    assert db.execute("SELECT * FROM v").column_names == ["name"]


def test_create_table_as(db):
    db.execute("CREATE TABLE olds AS SELECT * FROM people WHERE age >= 28")
    assert db.execute("SELECT COUNT(*) AS n FROM olds").rows == [(2,)]


def test_drop_behaviour(db):
    db.execute("CREATE TABLE tmp (a INT)")
    db.execute("DROP TABLE tmp")
    with pytest.raises(CatalogError):
        db.execute("DROP TABLE tmp")
    db.execute("DROP TABLE IF EXISTS tmp")  # no error


def test_explain_returns_plan_text_and_info(db):
    result = db.execute("EXPLAIN SELECT * FROM people WHERE age > 25")
    text = "\n".join(row[0] for row in result.rows)
    assert "Scan[people]" in text
    info = result.explain_info
    assert info.estimated_rows > 0
    assert info.total_cost > 0


def test_explain_does_not_execute(db):
    with QueryContext() as ctx:
        db.execute("EXPLAIN SELECT * FROM people")
    assert ctx.metrics.value("engine.statements", db="D") == 1
    assert ctx.metrics.value("engine.queries", db="D") == 0
    assert ctx.root.find_all(kind="operator") == []


def test_unknown_table_error_names_database(db):
    with pytest.raises(CatalogError, match="'D'"):
        db.execute("SELECT * FROM ghost")


def test_server_registry(db):
    with pytest.raises(CatalogError):
        db.server("nowhere")
    db.register_server("r1", object())
    assert db.server_names() == ["r1"]


def test_table_stats_for_views_is_none(db):
    db.execute("CREATE VIEW v AS SELECT id FROM people")
    assert db.table_stats("v") is None
    assert db.table_stats("people").row_count == 10


def test_result_to_table_rendering(db):
    text = db.execute("SELECT id, name FROM people LIMIT 2").to_table()
    assert "id" in text and "name" in text and "p0" in text
