"""Deployment wiring and DBMS-connector tests."""

import pytest

from repro.connect.connector import DBMSConnector
from repro.errors import CatalogError, NetworkError
from repro.federation.deployment import Deployment, protocol_between
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.types import INTEGER, varchar


def make_deployment():
    dep = Deployment(
        {"pg1": "postgres", "pg2": "postgres", "mdb": "mariadb"}
    )
    dep.load_table(
        "pg1",
        "t1",
        Schema([Field("a", INTEGER), Field("s", varchar(4))]),
        [(i, "ab") for i in range(100)],
    )
    return dep


# -- deployment -----------------------------------------------------------------


def test_full_server_mesh():
    dep = make_deployment()
    for name, db in dep.databases.items():
        others = sorted(n for n in dep.databases if n != name)
        assert db.server_names() == others


def test_protocol_selection():
    assert protocol_between("postgres", "postgres") == "binary"
    assert protocol_between("postgres", "mariadb") == "jdbc"
    dep = make_deployment()
    assert dep.database("pg1").server("pg2").protocol == "binary"
    assert dep.database("pg1").server("mdb").protocol == "jdbc"


def test_unknown_database_lookup():
    dep = make_deployment()
    with pytest.raises(CatalogError):
        dep.database("ghost")
    with pytest.raises(CatalogError):
        dep.connector("ghost")


def test_unknown_topology_rejected():
    with pytest.raises(NetworkError):
        Deployment({"a": "postgres"}, topology="mesh")


def test_middleware_site_default_onprem():
    dep = make_deployment()
    assert dep.middleware_site == "onprem"
    cloud = Deployment({"a": "postgres"}, middleware_site="cloud")
    assert cloud.middleware_site == "cloud"


def test_auxiliary_database_not_a_member():
    dep = make_deployment()
    mediator = dep.add_auxiliary_database("med", "postgres")
    assert "med" not in dep.databases
    assert sorted(mediator.server_names()) == ["mdb", "pg1", "pg2"]


def test_calls_outside_a_context_leave_no_counters():
    dep = make_deployment()
    connector = dep.connector("pg1")
    assert "t1" in connector.list_tables()
    assert connector.explain(parse_statement("SELECT a FROM t1"))
    for name in (
        "consultations",
        "control_messages",
        "retries",
        "failures",
        "giveups",
        "breaker_fastfails",
        "backoff_seconds",
    ):
        assert not hasattr(connector, name)


# -- connector -------------------------------------------------------------------


def test_list_tables_and_stats():
    dep = make_deployment()
    connector = dep.connector("pg1")
    tables = connector.list_tables()
    assert "t1" in tables
    assert tables["t1"].names == ["a", "s"]
    assert connector.table_rows("t1") == 100


def test_metadata_counts_control_messages():
    dep = make_deployment()
    connector = dep.connector("pg1")
    with QueryContext() as ctx:
        connector.list_tables()
        connector.table_stats("t1")
    sent = [
        r for r in ctx.transfers
        if r.src == dep.middleware_node and r.dst == connector.node
    ]
    assert len(sent) == 2
    # Each control call records a request and a response on the wire.
    control = [r for r in ctx.transfers if r.tag == "metadata"]
    assert len(control) == 4


def test_explain_counts_consultation():
    dep = make_deployment()
    connector = dep.connector("pg1")
    with QueryContext() as ctx:
        info = connector.explain(parse_statement("SELECT a FROM t1"))
    consults = [
        r for r in ctx.transfers
        if r.tag == "consult" and r.src == dep.middleware_node
    ]
    assert len(consults) == 1
    assert info.estimated_rows == pytest.approx(100, rel=0.1)
    assert info.cost_seconds > 0


def test_estimate_join_cost_shapes():
    dep = make_deployment()
    connector = dep.connector("pg1")
    with QueryContext() as ctx:
        # Tiny moved relation vs huge local: materialized should win.
        streaming = connector.estimate_join_cost(
            local_rows=1_000_000, moved_rows=500, output_rows=1000,
            materialized=False,
        )
        materialized = connector.estimate_join_cost(
            local_rows=1_000_000, moved_rows=500, output_rows=1000,
            materialized=True,
        )
        assert materialized < streaming
        # Small local relation: pipelining should win.
        streaming_small = connector.estimate_join_cost(
            local_rows=200, moved_rows=500, output_rows=100,
            materialized=False,
        )
        materialized_small = connector.estimate_join_cost(
            local_rows=200, moved_rows=500, output_rows=100,
            materialized=True,
        )
        assert streaming_small < materialized_small
    consults = [
        r for r in ctx.transfers
        if r.tag == "consult" and r.src == dep.middleware_node
    ]
    assert len(consults) == 4


def test_execute_ddl_renders_in_target_dialect():
    dep = make_deployment()
    mdb = dep.connector("mdb")
    statement = ast.CreateForeignTable(
        name="ft",
        columns=(ast.ColumnDef("a", INTEGER),),
        server="pg1",
        remote_object="t1",
    )
    with QueryContext() as ctx:
        mdb.execute_ddl(statement)
    (sql,) = [e.attributes["sql"] for e in ctx.root.subtree_events("sql")]
    assert "ENGINE=FEDERATED" in sql
    obj = dep.database("mdb").catalog.get("ft")
    assert obj is not None and obj.kind == "FOREIGN TABLE"


def test_fetch_records_transfer_to_middleware():
    dep = make_deployment()
    connector = dep.connector("pg1")
    with QueryContext() as ctx:
        result = connector.fetch(parse_statement("SELECT a FROM t1"))
    assert len(result) == 100
    record = [r for r in ctx.transfers if r.tag == "mediator-fetch"][-1]
    assert record.dst == dep.middleware_node
    assert record.rows == 100


def test_push_rows_ships_and_creates_table():
    dep = make_deployment()
    connector = dep.connector("pg2")
    schema = Schema([Field("x", INTEGER)])
    with QueryContext() as ctx:
        connector.push_rows("shipped", schema, [(1,), (2,)])
    assert dep.database("pg2").execute(
        "SELECT COUNT(*) AS n FROM shipped"
    ).rows == [(2,)]
    record = [r for r in ctx.transfers if r.tag == "mediator-ship"][-1]
    assert record.src == dep.middleware_node


def test_run_query_sends_result_to_client():
    dep = make_deployment()
    connector = dep.connector("pg1")
    with QueryContext() as ctx:
        connector.run_query(
            parse_statement("SELECT a FROM t1 LIMIT 5"), dep.client_node
        )
    record = [r for r in ctx.transfers if r.tag == "result"][-1]
    assert record.dst == dep.client_node
    assert record.rows == 5
