"""End-to-end XDB tests over the TPC-H federation."""

import pytest

from repro.core.client import XDB
from repro.errors import OptimizerError
from repro.workloads.tpch import QUERIES, query

from conftest import assert_same_rows


@pytest.fixture(scope="module")
def xdb_td1(tpch_tiny):
    deployment, _ = tpch_tiny
    xdb = XDB(deployment)
    xdb.warm_metadata()
    return xdb


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_query_matches_ground_truth(
    xdb_td1, tpch_tiny, tpch_tiny_ground_truth, name
):
    report = xdb_td1.submit(query(name))
    truth = tpch_tiny_ground_truth.execute(query(name))
    assert_same_rows(report.result.rows, truth.rows)


def test_phase_breakdown_reported(xdb_td1):
    report = xdb_td1.submit(query("Q3"))
    assert set(report.phases) == {"prep", "lopt", "ann", "exec"}
    assert all(v >= 0 for v in report.phases.values())
    assert report.total_seconds == pytest.approx(sum(report.phases.values()))


def test_consultations_scale_with_cross_database_joins(xdb_td1):
    q3 = xdb_td1.submit(query("Q3"))
    q8 = xdb_td1.submit(query("Q8"))
    assert q8.consultations >= q3.consultations
    assert q3.consultations % 4 == 0  # four options per cross-db join


def test_describe_mentions_tasks_and_phases(xdb_td1):
    report = xdb_td1.submit(query("Q5"))
    text = report.describe()
    assert "delegation plan" in text
    assert "phases:" in text


def test_explain_does_not_create_objects(tpch_tiny):
    deployment, _ = tpch_tiny
    xdb = XDB(deployment)
    before = {
        name: set(deployment.database(name).catalog.names())
        for name in deployment.database_names()
    }
    text = xdb.explain(query("Q5"))
    after = {
        name: set(deployment.database(name).catalog.names())
        for name in deployment.database_names()
    }
    assert before == after
    assert "-->" in text or "single task" in text


def test_plan_query_returns_delegation_plan(xdb_td1):
    dplan = xdb_td1.plan_query(query("Q10"))
    assert dplan.task_count() >= 2
    assert dplan.root is not None


def test_non_select_rejected(xdb_td1):
    with pytest.raises(OptimizerError):
        xdb_td1.submit("CREATE TABLE nope (a INT)")


def test_repeated_submissions_are_stable(xdb_td1, tpch_tiny_ground_truth):
    first = xdb_td1.submit(query("Q3")).result
    second = xdb_td1.submit(query("Q3")).result
    assert first.rows == second.rows


def test_xdb_moves_less_to_middleware_than_between_dbms(xdb_td1, tpch_tiny):
    """In-situ: the middleware only sees control traffic."""
    deployment, _ = tpch_tiny
    window = xdb_td1.submit(query("Q5")).context.transfers
    to_middleware = sum(
        r.payload_bytes for r in window if r.dst == deployment.middleware_node
    )
    between_dbms = sum(
        r.payload_bytes
        for r in window
        if r.tag.startswith("fdw")
    )
    assert to_middleware < max(between_dbms, 10_000)
    # Control messages only: every middleware-bound record is tiny.
    for record in window:
        if record.dst == deployment.middleware_node:
            assert record.payload_bytes <= 1024
