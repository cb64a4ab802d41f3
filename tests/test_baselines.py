"""Baseline system tests: decomposition, equivalence, defining behaviors."""

import pytest

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.workloads.tpch import query

from conftest import assert_same_rows


@pytest.fixture(scope="module")
def systems(tpch_tiny):
    deployment, _ = tpch_tiny
    return {
        "garlic": GarlicSystem(deployment),
        "presto": PrestoSystem(deployment, workers=4),
        "sclera": ScleraSystem(deployment),
    }


@pytest.mark.parametrize("name", ["Q3", "Q5", "Q10"])
@pytest.mark.parametrize("system_key", ["garlic", "presto", "sclera"])
def test_baselines_match_ground_truth(
    systems, tpch_tiny_ground_truth, name, system_key
):
    report = systems[system_key].run(query(name))
    truth = tpch_tiny_ground_truth.execute(query(name))
    assert_same_rows(report.result.rows, truth.rows)


def test_garlic_pushes_colocated_joins(systems):
    # TD1 co-locates customer+orders on db2: Garlic pushes their join,
    # so Q3 decomposes into exactly 2 subqueries (db1: lineitem, db2: c⋈o).
    report = systems["garlic"].run(query("Q3"))
    assert report.subquery_count == 2


def test_presto_pushes_per_table_only(systems):
    # Presto fetches each table separately: 3 subqueries for Q3.
    report = systems["presto"].run(query("Q3"))
    assert report.subquery_count == 3


def test_presto_transfers_more_bytes_than_garlic(tpch_tiny, systems):
    garlic = systems["garlic"].run(query("Q3"))
    garlic_bytes = sum(r.payload_bytes for r in garlic.context.transfers)
    presto = systems["presto"].run(query("Q3"))
    presto_bytes = sum(r.payload_bytes for r in presto.context.transfers)
    assert presto_bytes > garlic_bytes
    assert presto.transfers.total_bytes == presto_bytes


def test_mediator_transfer_dominates_processing(systems):
    # Fig. 1's shape: data movement is the bulk of MW execution time.
    report = systems["presto"].run(query("Q3"))
    assert report.transfer_seconds > report.processing_seconds


def test_presto_scaling_workers_shrinks_processing_not_transfers(tpch_tiny):
    deployment, _ = tpch_tiny
    two = PrestoSystem(deployment, workers=2).run(query("Q5"))
    ten = PrestoSystem(deployment, workers=10).run(query("Q5"))
    # Transfer time is unaffected by workers (Fig. 11's point)...
    assert ten.transfer_seconds == pytest.approx(
        two.transfer_seconds, rel=0.05
    )
    # ...while mediator-side processing shrinks.
    assert (
        ten.details["mediator_processing"]
        <= two.details["mediator_processing"] + 1e-9
    )
    # Total barely improves.
    assert ten.total_seconds >= two.total_seconds * 0.7


def test_sclera_relays_through_mediator(tpch_tiny):
    deployment, _ = tpch_tiny
    system = ScleraSystem(deployment)
    window = system.run(query("Q3")).context.transfers
    shipped = [r for r in window if r.tag.startswith("sclera-ship")]
    fetched = [r for r in window if r.tag.startswith("sclera-fetch")]
    assert shipped and fetched
    # Each relayed intermediate crosses the wire twice (in and out of
    # the mediator node).
    assert any(r.src == deployment.middleware_node for r in shipped)
    assert all(r.dst == deployment.middleware_node for r in fetched)


def test_sclera_all_inter_task_movements_explicit(tpch_tiny):
    deployment, _ = tpch_tiny
    from repro.core.catalog import GlobalCatalog
    from repro.core.finalize import PlanFinalizer
    from repro.core.logical import LogicalOptimizer
    from repro.core.plan import Movement
    from repro.sql.parser import parse_statement

    system = ScleraSystem(deployment)
    plan = system.optimizer.optimize(parse_statement(query("Q5")))
    annotation = system._annotate(plan)
    dplan = PlanFinalizer().finalize(plan, annotation)
    assert dplan.edges
    for edge in dplan.edges:
        assert edge.movement is Movement.EXPLICIT


def test_sclera_slower_than_mediators(systems):
    garlic = systems["garlic"].run(query("Q5"))
    sclera = systems["sclera"].run(query("Q5"))
    assert sclera.total_seconds > garlic.total_seconds


def test_baselines_clean_up_temp_state(tpch_tiny, systems):
    deployment, _ = tpch_tiny
    before = {
        name: set(deployment.database(name).catalog.names())
        for name in deployment.database_names()
    }
    systems["sclera"].run(query("Q3"))
    systems["garlic"].run(query("Q3"))
    after = {
        name: set(deployment.database(name).catalog.names())
        for name in deployment.database_names()
    }
    assert before == after


def test_mediator_keeps_intermediates_off_members(tpch_tiny, systems):
    """MW systems centralize: member DBMSes never exchange data."""
    deployment, _ = tpch_tiny
    window = systems["presto"].run(query("Q5")).context.transfers
    members = set(deployment.database_names())
    for record in window:
        if record.tag.startswith("mediator-fetch"):
            assert record.dst == deployment.middleware_node
        assert not (
            record.src in members
            and record.dst in members
            and record.payload_bytes > 1024
        )
