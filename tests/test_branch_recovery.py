"""Task-level fault domains: branch-scoped failover, policy-bounded
partial results, and sibling cancellation in the gather.

A failed delegated branch of a partitioned gather must be repaired *in
place*: the one struck shard holder is quarantined (the engine's
breaker stays closed — the disk died, not the server), completed
sibling ``xm_`` snapshots are pinned and reused, and only the failed
branch re-routes to a replica holder.  Whole-query re-entry
(``repair_attempts``) stays at zero.  With no healthy holder left, a
``QoSPolicy.completeness_floor`` submission degrades to a partial answer —
a row-subset of the fault-free oracle with its completeness reported —
while a submission below its ``completeness_floor`` refuses and fails.
The gather underneath skips the remaining branches after the first
branch failure.
"""

import pytest

from repro.core.client import XDB
from repro.core.partition import (
    partition_completeness,
    partition_name,
    prune_missing_shards,
)
from repro.engine.parallel import WorkerPool
from repro.errors import ReproError
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.federation.deployment import Deployment
from repro.obs.context import QueryContext
from repro.qos import QoSPolicy
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER

from conftest import assert_same_rows

DBS = ["p1", "p2", "p3", "p4"]

ORDERS = Schema(
    [
        Field("o_orderkey", INTEGER),
        Field("o_custkey", INTEGER),
        Field("o_total", DOUBLE),
    ]
)
ORDERS_ROWS = [(i, i % 10, float(i * 7 % 90)) for i in range(80)]

AGG_SQL = """
    SELECT o_custkey, SUM(o_total) AS total
    FROM orders
    GROUP BY o_custkey
    ORDER BY total DESC, o_custkey
"""

SCAN_SQL = "SELECT o_orderkey, o_custkey FROM orders ORDER BY o_orderkey"


def build_sharded(replicate_shard=None, replica_db=None) -> Deployment:
    dep = Deployment(
        {name: "postgres" for name in DBS}, parallel_workers=2
    )
    dep.load_table("p1", "orders", ORDERS, ORDERS_ROWS)
    dep.partition_table("orders", "o_orderkey", DBS)
    if replicate_shard is not None:
        dep.replicate_table(
            partition_name("orders", replicate_shard), replica_db
        )
    return dep


def truth_rows(sql: str):
    dep = Deployment({"T": "postgres"})
    dep.load_table("T", "orders", ORDERS, ORDERS_ROWS)
    return XDB(dep).submit(sql).result.rows


def shard_outage(index: int):
    """A shard-scoped outage striking only calls that touch the shard."""
    db = DBS[index]
    return FaultInjector(
        FaultPolicy(
            outages=(
                EngineOutage(
                    db=db, table=partition_name("orders", index)
                ),
            )
        )
    )


# -- branch-scoped failover to a replica holder ---------------------------


def test_branch_failover_reuses_pinned_siblings():
    """Single-shard outage with a replica: repaired branch-locally.

    The struck holder is quarantined (breaker closed), the completed
    sibling snapshots are pinned, only the failed branch re-routes —
    and the whole-query repair loop is never entered.
    """
    dep = build_sharded(replicate_shard=3, replica_db="p1")
    xdb = XDB(dep, movement_policy="explicit")
    xdb.warm_metadata()
    truth = truth_rows(AGG_SQL)
    baseline = xdb.submit(AGG_SQL)
    assert_same_rows(baseline.result.rows, truth)
    shard = partition_name("orders", 3)
    # Strike whichever holder the planner actually picked; failover
    # must land on the other one.
    primary = baseline.recovery.placement[shard]
    backup = next(
        db for db in xdb.catalog.holders(shard) if db != primary
    )

    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db=primary, table=shard),))
    )
    with injector.install(dep):
        report = xdb.submit(AGG_SQL)
    assert_same_rows(report.result.rows, truth)
    assert injector.calls_by_shard  # the outage actually struck

    recovery = report.recovery
    assert recovery.branch_repairs == 1
    assert recovery.repair_attempts == 0  # no whole-query re-entry
    assert recovery.branch_events == [("failover", primary, shard)]
    # Executed sibling work was pinned, not redone.
    assert recovery.pinned_tasks
    # The shard holder is quarantined; the engine itself is not blamed.
    assert xdb.catalog.is_quarantined(primary, shard)
    assert primary not in recovery.repaired_dbs
    assert not dep.health.is_open(primary)  # the breaker never tripped
    assert (primary, shard) in dep.health.shard_outages
    # The repaired placement routes the shard to the replica holder.
    assert recovery.placement[shard] == backup
    assert f"branch failover: {primary}" in report.explain_analyze()


def assert_ledger_reconciled(xdb: XDB, dep: Deployment) -> None:
    """Every ledger entry names an object some engine still holds, or
    is ``leaked`` (what the reaper reconciles) — never a ``live``
    record of something already dropped."""
    held = {
        (db, name.lower())
        for db in dep.database_names()
        for name in dep.database(db).catalog.names()
    }
    stuck = [
        entry
        for entry in xdb.ledger.entries()
        if entry.status != "leaked" and entry.key not in held
    ]
    assert stuck == []


def test_unpinnable_salvage_is_dropped_in_the_ledger_too(monkeypatch):
    """Branch repair drops salvaged snapshots it cannot pin; they were
    recorded under an epoch the failed delegation already closed, so
    without the ledger hearing of the drop they stayed ``live`` forever
    (never pruned, never reaped)."""
    from repro.core import pipeline

    dep = build_sharded(replicate_shard=3, replica_db="p1")
    xdb = XDB(dep, movement_policy="explicit")
    xdb.warm_metadata()
    shard = partition_name("orders", 3)
    primary = xdb.submit(AGG_SQL).recovery.placement[shard]
    monkeypatch.setattr(pipeline, "_pinnable", lambda src: False)
    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db=primary, table=shard),))
    ).install(dep):
        report = xdb.submit(AGG_SQL)
    assert report.recovery.branch_repairs == 1
    assert report.recovery.pinned_tasks == []  # salvage found, none usable
    assert_ledger_reconciled(xdb, dep)
    assert xdb.ledger.entries() == []


def test_abandoned_salvage_is_dropped_in_the_ledger_too():
    """No remedy helps (the shard's only holder is gone): ``_recover``
    gives up on the salvage, and the ledger hears about it."""
    dep = build_sharded()
    xdb = XDB(dep, movement_policy="explicit")
    xdb.warm_metadata()
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError):
            xdb.submit(AGG_SQL)
    assert_ledger_reconciled(xdb, dep)
    assert xdb.ledger.entries() == []


def test_branch_failover_without_replica_falls_back_to_query_repair():
    """No replica, no partial policy: the branch repair cannot help and
    the failure propagates (the only holder of the shard is gone)."""
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError):
            xdb.submit(AGG_SQL)


# -- policy-bounded partial results ---------------------------------------


def test_partial_answer_is_subset_with_reported_completeness():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    truth = truth_rows(SCAN_SQL)
    spec = xdb.catalog.partition_spec("orders")
    assert spec is not None

    qos = QoSPolicy(completeness_floor=0.1)
    with shard_outage(3).install(dep):
        report = xdb.submit(SCAN_SQL, qos=qos)

    # The partial answer is a row-subset of the fault-free oracle.
    assert set(report.result.rows) < set(truth)
    shard = partition_name("orders", 3)
    lost = xdb.catalog.stats_of("p4", shard).row_count
    expected = (len(ORDERS_ROWS) - lost) / len(ORDERS_ROWS)
    assert len(report.result.rows) == len(ORDERS_ROWS) - lost

    recovery = report.recovery
    assert recovery.partial
    assert recovery.missing_partitions == [shard]
    assert recovery.completeness == pytest.approx(expected)
    assert recovery.branch_events == [("partial", "p4", shard)]
    assert recovery.repair_attempts == 0

    # Surfaced once in the report and in EXPLAIN ANALYZE.
    assert report.describe().count("partial answer") == 1
    assert "partial answer" in report.explain_analyze()


def test_partial_below_completeness_floor_is_refused():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    qos = QoSPolicy(completeness_floor=0.95)
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError, match="quarantined after a shard outage"):
            xdb.submit(SCAN_SQL, qos=qos)


def test_partial_requires_opt_in():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError, match="quarantined after a shard outage"):
            xdb.submit(SCAN_SQL, qos=QoSPolicy())


# -- the pruning + completeness primitives --------------------------------


def test_prune_missing_shards_collapses_gather_chain():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    state = xdb.pipeline.new_state(SCAN_SQL, budget=0)
    ctx = QueryContext(label="prune")
    with ctx:
        xdb.pipeline.plan(state, ctx)
    shard = partition_name("orders", 1)
    plan, pruned = prune_missing_shards(state.logical_plan, [shard])
    assert plan is not None
    assert pruned == [shard]

    def leaves(node):
        kids = node.children()
        if not kids and hasattr(node, "table"):
            yield node.table
        for kid in kids:
            yield from leaves(kid)

    assert shard not in set(leaves(plan))
    # Pruning an unknown table is a no-op.
    same, nothing = prune_missing_shards(state.logical_plan, ["ghost"])
    assert nothing == []


def test_partition_completeness_is_row_weighted():
    from repro.core.partition import PartitionSpec

    spec3 = PartitionSpec("orders", "o_orderkey", 3)
    rows = {"orders__p0": 60, "orders__p1": 20, "orders__p2": 20}
    completeness = partition_completeness(
        ["orders__p0"],
        lambda t: spec3 if t == "orders" else None,
        lambda shard: rows.get(shard),
    )
    assert completeness == pytest.approx(40 / 100)
    # Unknown shard rows fall back to a uniform fraction.
    spec4 = PartitionSpec("orders", "o_orderkey", 4)
    uniform = partition_completeness(
        ["orders__p0"],
        lambda t: spec4 if t == "orders" else None,
        lambda shard: None,
    )
    assert uniform == pytest.approx(0.75)


# -- the gather's fault domain: sibling cancellation ----------------------


def test_map_cancels_queued_siblings_on_first_failure():
    pool = WorkerPool()
    ran = []

    def ok():
        ran.append("ok")
        return 1

    def boom():
        raise ValueError("boom")

    def never():
        ran.append("never")
        return 3

    ctx = QueryContext(label="cancel")
    with ctx:
        with pytest.raises(ValueError):
            pool.map([ok, boom, never], context=ctx)
    assert ran == ["ok"]
    cancelled = ctx.root.subtree_events("branches-cancelled")
    assert [event.attributes["count"] for event in cancelled] == [1]
