"""Benchmark harness tests."""

import pytest

from repro.baselines.garlic import GarlicSystem
from repro.bench.harness import (
    RunRecord,
    build_systems,
    run_baseline,
    run_xdb,
    verify_equivalence,
)
from repro.bench.reporting import format_table
from repro.bench.scenarios import (
    HETEROGENEOUS_PROFILES,
    MICRO_SF,
    build_tpch_deployment,
    sf_label,
)
from repro.engine.result import Result
from repro.errors import ReproError
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER
from repro.workloads.tpch import query


def test_sf_label_known_and_unknown():
    assert sf_label(MICRO_SF[10]) == "sf10"
    assert "micro" in sf_label(0.12345)


def test_build_deployment_places_tables_per_td():
    deployment, data = build_tpch_deployment("TD2", 0.001)
    assert "lineitem" in deployment.database("db1").catalog.names()
    assert "supplier" in deployment.database("db1").catalog.names()
    assert "customer" in deployment.database("db3").catalog.names()


def test_heterogeneous_profile_overlay():
    deployment, _ = build_tpch_deployment(
        "TD1", 0.001, profiles=HETEROGENEOUS_PROFILES
    )
    assert deployment.database("db2").profile.name == "mariadb"
    assert deployment.database("db3").profile.name == "hive"
    assert deployment.database("db1").profile.name == "postgres"


def test_run_records_have_metrics(tpch_tiny):
    deployment, _ = tpch_tiny
    record = run_xdb(deployment, query("Q3"), "Q3")
    assert record.total_seconds > 0
    assert record.bytes_total > 0
    assert 0 < record.rows_returned <= 10  # Q3 has LIMIT 10
    assert record.extra["tasks"] >= 1
    assert record.megabytes_total == record.bytes_total / 1e6


def test_run_garlic_record(tpch_tiny):
    deployment, _ = tpch_tiny
    record = run_baseline(
        GarlicSystem(deployment), deployment, query("Q3"), "Q3"
    )
    assert record.system == "Garlic"
    assert record.transfer_seconds > 0


def test_system_set_runs_and_checks(tpch_tiny):
    deployment, _ = tpch_tiny
    systems = build_systems(deployment)
    records = systems.run_all(query("Q10"), "Q10")
    assert set(records) == {"XDB", "Garlic", "Presto", "Sclera"}


def test_verify_equivalence_detects_mismatch():
    schema = Schema([Field("a", INTEGER)])
    good = RunRecord(
        system="one", query="q", total_seconds=1, transfer_seconds=0,
        processing_seconds=1, bytes_total=0, bytes_to_cloud=0,
        bytes_cross_site=0, rows_returned=1,
        result=Result(schema, [(1,)]),
    )
    bad = RunRecord(
        system="two", query="q", total_seconds=1, transfer_seconds=0,
        processing_seconds=1, bytes_total=0, bytes_to_cloud=0,
        bytes_cross_site=0, rows_returned=1,
        result=Result(schema, [(2,)]),
    )
    with pytest.raises(ReproError):
        verify_equivalence([good, bad])
    verify_equivalence([good, good])


def test_format_table_alignment():
    text = format_table(
        ["name", "value"], [["Q3", 1.2345], ["Q10", 100.0]]
    )
    lines = text.splitlines()
    assert len(lines) == 4
    assert "name" in lines[0] and "Q10" in lines[3]
