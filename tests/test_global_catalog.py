"""Global catalog (GAV union of local schemas) tests."""

import pytest

from repro.core.catalog import GlobalCatalog
from repro.errors import CatalogError
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER


def catalog_of(deployment):
    return GlobalCatalog(deployment.connectors)


def test_locate_unique_table(two_db_deployment):
    catalog = catalog_of(two_db_deployment)
    assert catalog.locate("users") == "A"
    assert catalog.locate("events") == "B"


def test_locate_unknown_table(two_db_deployment):
    with pytest.raises(CatalogError):
        catalog_of(two_db_deployment).locate("ghost")


def test_duplicate_table_requires_qualification(two_db_deployment):
    two_db_deployment.load_table(
        "B", "users", Schema([Field("id", INTEGER)]), [(1,)]
    )
    catalog = catalog_of(two_db_deployment)
    with pytest.raises(CatalogError, match="multiple"):
        catalog.locate("users")
    resolved = catalog.resolve_table(("A", "users"))
    assert resolved.source_db == "A"


def test_a_quarantine_names_its_cause(two_db_deployment):
    two_db_deployment.load_table(
        "B", "users", Schema([Field("id", INTEGER)]), [(1,)]
    )
    catalog = catalog_of(two_db_deployment)
    catalog.quarantine("A", "users", "a shard outage")
    catalog.quarantine("B", "users", "unreconcilable schema drift")
    assert catalog.quarantine_causes(["A"], "USERS") == "a shard outage"
    with pytest.raises(
        CatalogError,
        match="quarantined after a shard outage and unreconcilable schema drift",
    ):
        catalog.locate("users")
    catalog.refresh()
    assert catalog.quarantine_causes(["A", "B"], "users") == ""


def test_resolve_sets_source_db(two_db_deployment):
    catalog = catalog_of(two_db_deployment)
    resolved = catalog.resolve_table(("events",))
    assert resolved.source_db == "B"
    assert resolved.schema.names == ["user_id", "kind", "weight"]


def test_resolve_unknown_qualifier(two_db_deployment):
    with pytest.raises(CatalogError):
        catalog_of(two_db_deployment).resolve_table(("GHOST", "users"))


def test_tables_enumeration(two_db_deployment):
    catalog = catalog_of(two_db_deployment)
    pairs = set(catalog.tables())
    assert ("A", "users") in pairs
    assert ("B", "events") in pairs


def test_stats_available_after_refresh(two_db_deployment):
    catalog = catalog_of(two_db_deployment)
    catalog.refresh()
    stats = catalog.stats_of("A", "users")
    assert stats is not None and stats.row_count == 20


def test_refresh_counts_control_messages(two_db_deployment):
    with QueryContext() as ctx:
        catalog_of(two_db_deployment).refresh()
    # one list_tables + one stats call per table
    node = two_db_deployment.connector("A").node
    sent = [
        r for r in ctx.transfers
        if r.src == two_db_deployment.middleware_node and r.dst == node
    ]
    assert len(sent) == 2


def test_scan_stats_for_placeholder():
    from repro.relational.algebra import Scan

    catalog = GlobalCatalog({})
    scan = Scan(
        "ph",
        "x",
        Schema([Field("a", INTEGER)]),
        placeholder=True,
        requalify=False,
    )
    scan.estimated_rows = 42.0
    assert catalog.scan_stats(scan).row_count == 42.0
