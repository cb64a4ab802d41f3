"""Task-level fault domains: branch-scoped retry/failover, hedged
stragglers, and policy-bounded partial results.

A failed delegated branch of a partitioned gather must be repaired *in
place*: the one struck shard holder is quarantined (the engine's
breaker stays closed — the disk died, not the server), completed
sibling ``xm_`` snapshots are pinned and reused, and only the failed
branch re-routes to a replica holder.  Whole-query re-entry
(``repair_attempts``) stays at zero.  With no healthy holder left, a
``QoSPolicy.allow_partial`` submission degrades to a partial answer —
a row-subset of the fault-free oracle with its completeness reported —
while a submission below its ``completeness_floor`` refuses and fails.
The worker pool underneath hedges stragglers (speculative duplicate,
first result wins, loser cooperatively cancelled) and cancels queued
siblings after the first branch failure.
"""

import time

import pytest

from repro.connect.connector import RetryPolicy
from repro.core.client import XDB
from repro.core.partition import (
    partition_completeness,
    partition_name,
    prune_missing_shards,
)
from repro.engine.parallel import (
    BranchCancelled,
    CancelToken,
    HedgePolicy,
    WorkerPool,
    check_cancelled,
    current_cancel_token,
)
from repro.engine.physical import ParallelUnionAllOp, PhysicalPlan, chunked
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

    qos = QoSPolicy(allow_partial=True, completeness_floor=0.1)
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

    # Surfaced through the QoS receipt and EXPLAIN ANALYZE.
    assert report.qos.partial
    assert report.qos.completeness == pytest.approx(expected)
    assert report.qos.missing_partitions == [shard]
    assert "partial answer" in report.qos.describe()
    assert "partial answer" in report.explain_analyze()


def test_partial_below_completeness_floor_is_refused():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    qos = QoSPolicy(allow_partial=True, completeness_floor=0.95)
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError):
            xdb.submit(SCAN_SQL, qos=qos)


def test_partial_requires_opt_in():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    with shard_outage(3).install(dep):
        with pytest.raises(ReproError):
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


# -- worker-pool fault domains: cancellation + hedging --------------------


def test_map_cancels_queued_siblings_on_first_failure():
    pool = WorkerPool(1)  # strictly serial: order is deterministic
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
    assert ctx.metrics.value("parallel.branches_cancelled") == 1.0


def test_cancel_token_is_thread_local_and_cooperative():
    assert current_cancel_token() is None
    check_cancelled()  # no token: no-op
    token = CancelToken()
    assert not token.cancelled
    token.cancel()
    assert token.cancelled


def _straggler(duration: float):
    def run():
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            check_cancelled()
            time.sleep(0.002)
        return "slow"

    return run


def test_hedge_beats_straggler_and_cancels_loser():
    pool = WorkerPool(4)
    hedge = HedgePolicy(
        multiplier=3.0,
        factory=lambda index: (lambda: f"hedged-{index}"),
        poll_seconds=0.001,
    )
    ctx = QueryContext(label="hedge")
    started = time.monotonic()
    with ctx:
        outcomes = pool.map(
            [lambda: "a", lambda: "b", _straggler(30.0)],
            context=ctx,
            hedge=hedge,
        )
    elapsed = time.monotonic() - started
    assert [o.value for o in outcomes] == ["a", "b", "hedged-2"]
    assert outcomes[2].hedged and outcomes[2].hedge_won
    assert elapsed < 10.0  # the straggler was not waited out
    assert ctx.metrics.value("parallel.hedges_launched") == 1.0
    assert ctx.metrics.value("parallel.hedges_won") == 1.0
    assert ctx.metrics.value("parallel.hedges_wasted") == 0.0


def test_hedge_loser_that_finishes_counts_as_wasted():
    pool = WorkerPool(4)

    def slow_uncooperative():
        time.sleep(0.25)  # never polls check_cancelled
        return "slow"

    hedge = HedgePolicy(
        multiplier=2.0,
        factory=lambda index: (lambda: "hedged"),
        poll_seconds=0.001,
    )
    ctx = QueryContext(label="waste")
    with ctx:
        outcomes = pool.map(
            [lambda: 1, lambda: 2, slow_uncooperative],
            context=ctx,
            hedge=hedge,
        )
    assert outcomes[2].value == "hedged"
    assert ctx.metrics.value("parallel.hedges_wasted") == 1.0


def test_no_hedge_without_policy_or_samples():
    pool = WorkerPool(2)
    ctx = QueryContext(label="nohedge")
    with ctx:
        outcomes = pool.map([lambda: 1, lambda: 2], context=ctx)
    assert [o.value for o in outcomes] == [1, 2]
    assert ctx.metrics.value("parallel.hedges_launched") == 0.0


# -- hedging wired through the parallel gather ----------------------------


class _SlowOnceScan(PhysicalPlan):
    """Yields its rows after a shared-queue delay: the primary draws the
    long delay, its hedged clone draws nothing and runs fast."""

    def __init__(self, schema, rows, delays):
        super().__init__()
        self.schema = schema
        self._rows = rows
        self._delays = delays  # shared across clones on purpose

    def _produce_batches(self, hint):
        delay = self._delays.pop(0) if self._delays else 0.0
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            check_cancelled()
            time.sleep(0.002)
        return chunked(self._rows, hint)


def _fast_scan(schema, rows):
    return _SlowOnceScan(schema, rows, [])


def test_parallel_union_hedges_straggling_branch():
    schema = Schema([Field("x", INTEGER)])
    slow = _SlowOnceScan(schema, [(100,), (101,)], [30.0])
    op = ParallelUnionAllOp(
        [
            _fast_scan(schema, [(1,), (2,)]),
            _fast_scan(schema, [(3,)]),
            slow,
        ],
        schema,
        workers=4,
    )
    ctx = QueryContext(label="gather-hedge")
    ctx.hedge_multiplier = 3.0
    ctx.hedging_allowed = True
    started = time.monotonic()
    with ctx:
        rows = list(op.rows())
    elapsed = time.monotonic() - started
    # Branch order is preserved and the hedge's rows are identical.
    assert rows == [(1,), (2,), (3,), (100,), (101,)]
    assert elapsed < 10.0
    assert ctx.metrics.value("parallel.hedges_won") == 1.0
    # The gather's counter saw each row exactly once — the cancelled
    # primary's clone kept its own independent counters.
    assert op.rows_out == 5
    assert slow.rows_out == 0  # the primary never got to yield


def test_parallel_union_respects_gate_denial():
    schema = Schema([Field("x", INTEGER)])
    op = ParallelUnionAllOp(
        [_fast_scan(schema, [(1,)]), _fast_scan(schema, [(2,)])],
        schema,
        workers=2,
    )
    ctx = QueryContext(label="gate-denied")
    ctx.hedge_multiplier = 2.0
    ctx.hedging_allowed = False  # the workload gate saw saturation
    with ctx:
        assert op._hedge_policy(ctx) is None
        assert list(op.rows()) == [(1,), (2,)]


def test_physical_plan_clone_resets_counters_recursively():
    schema = Schema([Field("x", INTEGER)])
    inner = _fast_scan(schema, [(1,), (2,)])
    op = ParallelUnionAllOp([inner], schema, workers=1)
    list(op.rows())
    assert op.rows_out == 2 and inner.rows_out == 2
    dup = op.clone()
    assert dup.rows_out == 0
    assert dup.branches[0] is not inner
    assert dup.branches[0].rows_out == 0
    list(dup.rows())
    # Re-running the clone never touches the original's counters.
    assert inner.rows_out == 2


def test_hedged_query_end_to_end_is_correct():
    """A hedging-enabled submission stays correct (hedges may or may
    not fire — no branch straggles here) and reports cleanly."""
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    truth = truth_rows(AGG_SQL)
    report = xdb.submit(AGG_SQL, qos=QoSPolicy(hedge_multiplier=4.0))
    assert_same_rows(report.result.rows, truth)
    assert report.qos is not None and not report.qos.partial
