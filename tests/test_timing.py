"""Schedule simulator tests: pipelining vs. materialization semantics."""

import pytest

from repro.core.client import XDB
from repro.core.plan import DelegationPlan, Movement, Task
from repro.core import timing
from repro.relational import algebra
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER
from repro.workloads.pandemic import CHO_QUERY, build_pandemic_deployment


def test_schedule_produces_positive_times():
    deployment = build_pandemic_deployment(
        citizens=150, vaccinations=200, measurements=300
    )
    report = XDB(deployment).submit(CHO_QUERY)
    schedule = report.schedule
    assert schedule.total_seconds > 0
    assert schedule.execution_seconds > 0
    assert schedule.result_transfer_seconds > 0
    assert schedule.total_seconds == pytest.approx(
        schedule.execution_seconds + schedule.result_transfer_seconds
    )
    assert len(schedule.tasks) == report.plan.task_count()


def test_tasks_start_after_explicit_producers_finish():
    deployment = build_pandemic_deployment(
        citizens=150, vaccinations=200, measurements=300
    )
    report = XDB(deployment).submit(CHO_QUERY)
    plan, schedule = report.plan, report.schedule
    for edge in plan.edges:
        producer = schedule.tasks[edge.producer_id]
        consumer = schedule.tasks[edge.consumer_id]
        if edge.movement is Movement.EXPLICIT:
            assert consumer.start >= producer.finish
        else:
            # Pipelined: may start almost together...
            assert consumer.start <= producer.finish
            # ...but cannot finish before its stream finishes arriving.
            assert consumer.finish >= producer.finish


def test_critical_path_bounds_total():
    deployment = build_pandemic_deployment(
        citizens=150, vaccinations=200, measurements=300
    )
    report = XDB(deployment).submit(CHO_QUERY)
    schedule = report.schedule
    assert schedule.execution_seconds == pytest.approx(
        schedule.critical_finish()
    )
    # Pipelining means total is below the serial sum of parts.
    serial = sum(t.proc_seconds for t in schedule.tasks.values())
    assert schedule.execution_seconds <= serial + 1.0


def test_attribute_edge_stats_sums_ledger_windows():
    deployment = build_pandemic_deployment(
        citizens=150, vaccinations=200, measurements=300
    )
    xdb = XDB(deployment)
    report = xdb.submit(CHO_QUERY)
    total_edge_bytes = sum(e.moved_bytes for e in report.plan.edges)
    fdw_bytes = report.transfers.bytes_for_tag("fdw")
    assert total_edge_bytes == fdw_bytes


def test_explicit_edges_serialize_longer_than_implicit():
    """Same plan, flipping one edge implicit→explicit, must not finish
    earlier (materialization waits for the full producer output)."""
    deployment = build_pandemic_deployment(
        citizens=200, vaccinations=300, measurements=400
    )
    xdb = XDB(deployment)
    report = xdb.submit(CHO_QUERY, cleanup=False)
    try:
        deployed = report.deployed
        baseline = timing.simulate_schedule(
            deployed,
            xdb.connectors,
            deployment.network,
            deployment.client_node,
            result_bytes=1000,
        )
        implicit_edges = [
            e
            for e in deployed.plan.edges
            if e.movement is Movement.IMPLICIT
        ]
        if implicit_edges:
            implicit_edges[0].movement = Movement.EXPLICIT
            flipped = timing.simulate_schedule(
                deployed,
                xdb.connectors,
                deployment.network,
                deployment.client_node,
                result_bytes=1000,
            )
            assert flipped.execution_seconds >= (
                baseline.execution_seconds - 1e-9
            )
            implicit_edges[0].movement = Movement.IMPLICIT
    finally:
        report.deployed.cleanup()
