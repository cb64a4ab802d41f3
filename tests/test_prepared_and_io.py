"""Prepared-query API tests."""

import pytest

from repro.core.client import XDB
from repro.errors import DelegationError, OptimizerError
from repro.federation.deployment import Deployment
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER, varchar

from conftest import assert_same_rows


# -- prepared queries ----------------------------------------------------------


def build_sales_deployment():
    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "items",
        Schema([Field("id", INTEGER), Field("grp", varchar(4))]),
        [(1, "x"), (2, "y"), (3, "x")],
    )
    dep.load_table(
        "B",
        "sales",
        Schema([Field("item_id", INTEGER), Field("amt", INTEGER)]),
        [(1, 10), (2, 20), (3, 30), (1, 5)],
    )
    return dep


SALES_SQL = (
    "SELECT i.grp, SUM(s.amt) AS total FROM items i, sales s "
    "WHERE i.id = s.item_id GROUP BY i.grp"
)


def test_prepared_query_executes_repeatedly():
    dep = build_sales_deployment()
    xdb = XDB(dep)
    with xdb.prepare(SALES_SQL) as prepared:
        first = prepared.execute()
        second = prepared.execute()
        assert_same_rows(first.result.rows, second.result.rows)
        assert prepared.executions == 2
        # Re-executions skip the optimizer phases entirely.
        assert second.phases["prep"] == 0.0
        assert second.phases["ann"] == 0.0
        assert second.phases["exec"] > 0.0


def test_prepared_query_sees_fresh_data():
    """The headline freshness property: views read current base data."""
    dep = build_sales_deployment()
    xdb = XDB(dep)
    with xdb.prepare(SALES_SQL) as prepared:
        before = {row[0]: row[1] for row in prepared.execute().result.rows}
        assert before == {"x": 45, "y": 20}
        # New sale arrives at DBMS B after preparation.
        dep.database("B").execute("INSERT INTO sales VALUES (2, 100)")
        after = {row[0]: row[1] for row in prepared.execute().result.rows}
        assert after == {"x": 45, "y": 120}


def test_prepared_query_refreshes_materializations():
    dep = build_sales_deployment()
    xdb = XDB(dep, movement_policy="explicit")  # force materialization
    with xdb.prepare(SALES_SQL) as prepared:
        assert prepared.deployed.materializations
        first = prepared.execute()
        dep.database("B").execute("INSERT INTO sales VALUES (3, 1000)")
        second = prepared.execute()
        totals_first = dict(first.result.rows)
        totals_second = dict(second.result.rows)
        assert totals_second["x"] == totals_first["x"] + 1000


def test_prepared_query_close_drops_objects_and_blocks_reuse():
    dep = build_sales_deployment()
    xdb = XDB(dep)
    prepared = xdb.prepare(SALES_SQL)
    names_before = {
        db: set(dep.database(db).catalog.names()) for db in ("A", "B")
    }
    assert any("xv_" in n for names in names_before.values() for n in names)
    prepared.close()
    for db in ("A", "B"):
        assert not any(
            name.startswith(("xv_", "xf_", "xm_"))
            for name in dep.database(db).catalog.names()
        )
    with pytest.raises(OptimizerError):
        prepared.execute()
    prepared.close()  # idempotent


def test_prepared_close_that_leaks_still_closes_the_handle():
    dep = build_sales_deployment()
    xdb = XDB(dep)
    prepared = xdb.prepare(SALES_SQL)
    root = prepared.deployed.root_db
    other = "B" if root == "A" else "A"
    dep.health.report_outage(other)

    with pytest.raises(DelegationError) as err:
        prepared.close()
    assert err.value.leaked
    assert {db for db, _kind, _name in err.value.leaked} == {other}
    assert xdb.ledger.leaked_count() == len(err.value.leaked)
    with pytest.raises(OptimizerError, match="closed"):
        prepared.execute()
    prepared.close()  # already closed: no second drop attempt

    dep.health.clock.advance(dep.health.config.cooldown_seconds + 1.0)
    xdb.reap()
    assert xdb.ledger.leaked_count() == 0
    for db in ("A", "B"):
        assert not dep.connector(db).list_objects(("xf_", "xm_", "xv_"))
