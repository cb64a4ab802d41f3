"""Engine catalog tests."""

import pytest

from repro.engine.catalog import BaseTable, Catalog, ForeignTable, View
from repro.errors import CatalogError
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import INTEGER

SCHEMA = Schema([Field("a", INTEGER)])


def make_catalog():
    catalog = Catalog("DB")
    catalog.add(BaseTable("t", SCHEMA, [(1,), (2,)]))
    catalog.add(View("v", parse_statement("SELECT a FROM t")))
    catalog.add(ForeignTable("f", SCHEMA, server="R", remote_object="obj"))
    return catalog


def test_lookup_case_insensitive():
    catalog = make_catalog()
    assert catalog.get("T") is catalog.get("t")


def test_duplicate_rejected_unless_replace():
    catalog = make_catalog()
    with pytest.raises(CatalogError):
        catalog.add(BaseTable("t", SCHEMA))
    catalog.add(BaseTable("t", SCHEMA), replace=True)


def test_drop_kind_check():
    catalog = make_catalog()
    with pytest.raises(CatalogError):
        catalog.drop("v", "TABLE")
    catalog.drop("v", "VIEW")
    assert catalog.get("v") is None


def test_drop_table_kind_accepts_foreign_table():
    # MariaDB drops federated tables with plain DROP TABLE.
    catalog = make_catalog()
    catalog.drop("f", "TABLE")
    assert catalog.get("f") is None


def test_drop_missing_raises():
    with pytest.raises(CatalogError):
        make_catalog().drop("nope")


def test_require_raises_for_unknown():
    with pytest.raises(CatalogError):
        make_catalog().require("ghost")


def test_names_and_tables():
    catalog = make_catalog()
    assert catalog.names() == ["f", "t", "v"]
    assert [t.name for t in catalog.tables()] == ["t"]


def test_resolver_returns_schema_for_table():
    resolved = make_catalog().resolve_table(("t",))
    assert resolved.schema is not None
    assert resolved.source_db == "DB"


def test_resolver_returns_view_query():
    resolved = make_catalog().resolve_table(("v",))
    assert resolved.view_query is not None


def test_resolver_qualified_own_database():
    resolved = make_catalog().resolve_table(("DB", "t"))
    assert resolved.table == "t"


def test_resolver_rejects_foreign_database_qualifier():
    with pytest.raises(CatalogError):
        make_catalog().resolve_table(("OTHER", "t"))


def test_resolver_resolves_foreign_table_like_a_relation():
    resolved = make_catalog().resolve_table(("f",))
    assert resolved.schema is not None


def test_insert_is_all_or_nothing():
    catalog = make_catalog()
    table = catalog.get("t")
    assert table.stats.row_count == 2
    version = catalog.version
    with pytest.raises(CatalogError):
        table.insert([(3,), (4,), (5, 6), (7,)])
    assert table.rows == [(1,), (2,)]
    assert table.stats.row_count == 2
    assert catalog.version == version


def test_insert_batch_bumps_the_version_once():
    catalog = make_catalog()
    table = catalog.get("t")
    version = catalog.version
    assert table.insert([(i,) for i in range(100)]) == 100
    assert catalog.version == version + 1
    assert table.stats.row_count == 102


def test_version_counts_every_observable_change():
    catalog = Catalog("DB")
    seen = [catalog.version]

    def moved() -> bool:
        seen.append(catalog.version)
        return seen[-1] > seen[-2]

    table = BaseTable("t", SCHEMA, [(1,)])
    catalog.add(table)
    assert moved()
    catalog.add(BaseTable("t", SCHEMA, [(2,)]), replace=True)
    assert moved()
    catalog.get("t").invalidate_stats()
    assert moved()
    table.insert([(3,)])  # replaced, but still announces to its catalog
    assert moved()
    catalog.drop("t")
    assert moved()
    BaseTable("loose", SCHEMA).insert([(1,)])  # no catalog: nothing to tell
    assert not moved()
