"""Delegation engine tests: Algorithm 1, Fig. 7 DDL pattern, cleanup."""

import pytest

from repro.core.client import XDB
from repro.core.plan import Movement
from repro.workloads.pandemic import CHO_QUERY, build_pandemic_deployment

from conftest import assert_same_rows, ground_truth_database


@pytest.fixture(scope="module")
def pandemic():
    return build_pandemic_deployment(
        citizens=200, vaccinations=400, measurements=600, seed=3
    )


def test_ddl_sequence_matches_fig7_pattern(pandemic):
    """Views chained by foreign tables, bottom-up, per Fig. 7."""
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY)
    ddl = report.deployed.ddl_log
    kinds = [
        ("VIEW" if "VIEW" in sql else "FOREIGN" if "FOREIGN" in sql
         or "FEDERATED" in sql or "EXTERNAL" in sql else "TABLE")
        for _, sql in ddl
    ]
    # First statement is always a view on the deepest task's DBMS.
    assert kinds[0] == "VIEW"
    # Every foreign table declaration is followed (eventually) by a view.
    assert kinds[-1] == "VIEW"
    # The root task's view lives on the DBMS the XDB query targets.
    last_db, _ = ddl[-1]
    assert last_db == report.deployed.root_db


def test_foreign_tables_point_at_producer_views(pandemic):
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY)
    created = {}
    for db, sql in report.deployed.ddl_log:
        if "CREATE VIEW" in sql:
            name = sql.split()[2]
            created[name] = db
    for db, sql in report.deployed.ddl_log:
        if "table_name '" in sql:
            referenced = sql.split("table_name '")[1].split("'")[0]
            assert referenced in created
            assert created[referenced] != db  # remote, not local


def test_xdb_query_is_select_star_from_root_view(pandemic):
    from repro.sql import ast

    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY)
    query = report.deployed.xdb_query
    assert isinstance(query.items[0].expr, ast.Star)
    (table_ref,) = query.from_items
    assert table_ref.parts[0].startswith("xv_")


def test_cleanup_drops_all_created_objects(pandemic):
    xdb = XDB(pandemic)
    before = {
        name: set(pandemic.database(name).catalog.names())
        for name in pandemic.database_names()
    }
    xdb.submit(CHO_QUERY, cleanup=True)
    after = {
        name: set(pandemic.database(name).catalog.names())
        for name in pandemic.database_names()
    }
    assert before == after


def test_cleanup_can_be_deferred(pandemic):
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY, cleanup=False)
    assert report.deployed.created_objects
    # Objects still exist...
    db, kind, name = report.deployed.created_objects[0]
    assert pandemic.database(db).catalog.get(name) is not None
    # ...until cleaned up explicitly.
    report.deployed.cleanup()
    assert pandemic.database(db).catalog.get(name) is None


def test_explicit_edges_materialize_tables(pandemic):
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY, cleanup=False)
    try:
        explicit_edges = [
            e for e in report.plan.edges if e.movement is Movement.EXPLICIT
        ]
        tables_created = [
            (db, name)
            for db, kind, name in report.deployed.created_objects
            if kind == "TABLE"
        ]
        assert len(tables_created) == len(explicit_edges)
    finally:
        report.deployed.cleanup()


def test_results_match_ground_truth(pandemic):
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY)
    truth = ground_truth_database(pandemic).execute(
        CHO_QUERY.replace("CDB.", "").replace("VDB.", "").replace("HDB.", "")
    )
    assert_same_rows(report.result.rows, truth.rows)


def test_edge_statistics_filled_after_execution(pandemic):
    xdb = XDB(pandemic)
    report = xdb.submit(CHO_QUERY)
    for edge in report.plan.edges:
        assert edge.moved_rows is not None
        assert edge.moved_bytes is not None and edge.moved_bytes > 0


def test_ddl_rendered_in_target_dialect():
    deployment = build_pandemic_deployment(
        citizens=100,
        vaccinations=150,
        measurements=200,
        profiles={"VDB": "mariadb", "HDB": "hive"},
    )
    xdb = XDB(deployment)
    report = xdb.submit(CHO_QUERY)
    vdb_ddl = [sql for db, sql in report.deployed.ddl_log if db == "VDB"]
    hdb_ddl = [sql for db, sql in report.deployed.ddl_log if db == "HDB"]
    assert any(
        "ENGINE=FEDERATED" in sql for sql in vdb_ddl
    ) or not any("FOREIGN" in sql for sql in vdb_ddl)
    # Heterogeneous result still correct.
    truth = ground_truth_database(deployment).execute(
        CHO_QUERY.replace("CDB.", "").replace("VDB.", "").replace("HDB.", "")
    )
    assert_same_rows(report.result.rows, truth.rows)


def test_virtual_relations_guard_against_wrapper_pushdown_variance():
    """§V: task semantics must not depend on wrapper capabilities.

    MariaDB's wrapper pushes nothing; the delegation's remote views must
    still pin each task's filters to the producing DBMS, so results are
    identical across vendor mixes.
    """
    base = build_pandemic_deployment(
        citizens=150, vaccinations=250, measurements=350, seed=5
    )
    mixed = build_pandemic_deployment(
        citizens=150,
        vaccinations=250,
        measurements=350,
        seed=5,
        profiles={"CDB": "mariadb", "HDB": "hive"},
    )
    result_a = XDB(base).submit(CHO_QUERY).result
    result_b = XDB(mixed).submit(CHO_QUERY).result
    assert_same_rows(result_a.rows, result_b.rows)


def test_delegated_ddl_is_not_parsed_by_the_engines(tpch_tiny, monkeypatch):
    """A delegated statement reaches its engine as the statement the
    connector rendered: no member engine lexes or parses DDL text."""
    import repro.engine.database as database_module
    from repro.workloads.tpch import query

    deployment, _ = tpch_tiny
    calls = []
    parse = database_module.parse_statement

    def counting(sql):
        calls.append(sql)
        return parse(sql)

    monkeypatch.setattr(database_module, "parse_statement", counting)
    report = XDB(deployment).submit(query("Q3"))
    assert report.deployed.ddl_log
    assert calls == []
