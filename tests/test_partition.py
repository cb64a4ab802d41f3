"""Partitioned tables and intra-query parallelism.

Covers the partition spec (routing, validation, compatibility), the
expansion pass through a real federation (co-partitioned joins staying
in-situ, mismatched keys forcing a repartition edge), composition with
replication and drift (a dead shard's replica is picked; drift on one
partition quarantines only that holder), the schedule simulator's
worker-slot model, and the gather's branch runner — the span tree
stays well-formed, counters stay query-scoped, and no thread is
started.
"""

import threading
from collections import Counter

import pytest

from repro.core.client import XDB
from repro.core.partition import (
    PartitionSpec,
    cross_shard_bytes,
    is_partition_table,
    partition_name,
    stable_hash,
)
from repro.core.timing import simulate_schedule
from repro.drift import apply_drift
from repro.engine.parallel import WorkerPool, makespan
from repro.errors import CatalogError
from repro.faults import SchemaDrift
from repro.federation.deployment import Deployment
from repro.health import BreakerConfig
from repro.obs.context import validate_chrome_trace
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar

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

LINEITEM = Schema(
    [
        Field("l_orderkey", INTEGER),
        Field("l_qty", INTEGER),
    ]
)
LINEITEM_ROWS = [(i % 80, 1 + i % 5) for i in range(200)]

CUSTOMER = Schema(
    [
        Field("c_custkey", INTEGER),
        Field("c_name", varchar(16)),
    ]
)
CUSTOMER_ROWS = [(i, f"cust{i}") for i in range(10)]

JOIN_SQL = """
    SELECT o.o_custkey, SUM(l.l_qty) AS total
    FROM orders o, lineitem l
    WHERE o.o_orderkey = l.l_orderkey
    GROUP BY o.o_custkey
    ORDER BY total DESC, o.o_custkey
"""

TRIPLE_SQL = """
    SELECT c.c_name, SUM(l.l_qty) AS total
    FROM customer c, orders o, lineitem l
    WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
    GROUP BY c.c_name
    ORDER BY total DESC, c.c_name
"""

ORDERS_SQL = """
    SELECT o_custkey, SUM(o_total) AS total
    FROM orders
    GROUP BY o_custkey
    ORDER BY total DESC, o_custkey
"""


def load_tables(dep: Deployment, db: str) -> None:
    dep.load_table(db, "orders", ORDERS, ORDERS_ROWS)
    dep.load_table(db, "lineitem", LINEITEM, LINEITEM_ROWS)
    dep.load_table(db, "customer", CUSTOMER, CUSTOMER_ROWS)


def build_sharded(
    workers: int = 2,
    lineitem_key: str = "l_orderkey",
    orders_dbs=None,
) -> Deployment:
    """orders + lineitem hash-partitioned across four engines; the
    customer dimension replicated everywhere."""
    dep = Deployment(
        {name: "postgres" for name in DBS}, parallel_workers=workers
    )
    load_tables(dep, "p1")
    for db in DBS[1:]:
        dep.replicate_table("customer", db, from_db="p1")
    dep.partition_table("orders", "o_orderkey", orders_dbs or DBS)
    dep.partition_table("lineitem", lineitem_key, DBS)
    return dep


def truth_rows(sql: str):
    """Ground truth: the same data, unpartitioned, on one engine."""
    dep = Deployment({"T": "postgres"})
    load_tables(dep, "T")
    return XDB(dep).submit(sql).result.rows


def branch_tasks(dplan):
    return [
        task
        for task in dplan.tasks.values()
        if any(is_partition_table(name) for name in task.base_tables())
    ]


def all_spans(root):
    yield root
    for child in root.children:
        yield from all_spans(child)


# -- the spec: routing, validation, compatibility ------------------------


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(CatalogError):
        PartitionSpec("t", "k", 4, scheme="mod")
    with pytest.raises(CatalogError):
        PartitionSpec("t", "k", 0)
    with pytest.raises(CatalogError):
        PartitionSpec("t", "k", 4, scheme="range", bounds=(10,))
    spec = PartitionSpec("t", "k", 3, scheme="range", bounds=(10, 20))
    assert spec.partition_names() == ["t__p0", "t__p1", "t__p2"]


def test_hash_routing_is_stable_and_in_range():
    spec = PartitionSpec("t", "k", 4)
    values = [0, 1, -17, 10**9, "abc", "", None, True, 2.5]
    routed = [spec.index_for(v) for v in values]
    assert all(0 <= index < 4 for index in routed)
    # Routing is a pure function of the value — a second spec instance
    # (another session) must agree on placement.
    again = PartitionSpec("t", "k", 4)
    assert [again.index_for(v) for v in values] == routed
    assert stable_hash("abc") == stable_hash("abc")


def test_range_routing_respects_bounds():
    spec = PartitionSpec("t", "k", 3, scheme="range", bounds=(10, 20))
    assert spec.index_for(5) == 0
    assert spec.index_for(10) == 1  # bounds are upper-exclusive
    assert spec.index_for(15) == 1
    assert spec.index_for(20) == 2
    assert spec.index_for(10**6) == 2
    assert spec.index_for(None) == 0


def test_compatibility_requires_scheme_count_and_bounds():
    base = PartitionSpec("a", "k", 4)
    assert base.compatible_with(PartitionSpec("b", "j", 4))
    assert not base.compatible_with(PartitionSpec("b", "j", 3))
    assert not base.compatible_with(
        PartitionSpec("b", "j", 4, scheme="range", bounds=(1, 2, 3))
    )


def test_partition_table_splits_rows_and_drops_original():
    dep = build_sharded()
    spec = dep.partition_specs["orders"]
    for db in DBS:
        assert dep.database(db).catalog.get("orders") is None
    scattered = []
    for index, db in enumerate(DBS):
        shard = dep.database(db).catalog.get(partition_name("orders", index))
        assert shard is not None
        for row in shard.rows:
            assert spec.index_for(row[0]) == index
            scattered.append(row)
    assert sorted(scattered) == sorted(ORDERS_ROWS)


def test_is_partition_table_only_matches_shard_names():
    assert is_partition_table("orders__p0")
    assert is_partition_table("a__p12")
    assert not is_partition_table("orders")
    assert not is_partition_table("__p1")
    assert not is_partition_table("orders__pX")


# -- placement: in-situ shard joins vs forced repartition ----------------


def test_co_partitioned_join_stays_in_situ():
    dep = build_sharded()
    report = XDB(dep).submit(JOIN_SQL)
    assert_same_rows(report.result.rows, truth_rows(JOIN_SQL))

    branches = branch_tasks(report.plan)
    assert len(branches) == len(DBS)
    for task in branches:
        shards = sorted(
            name for name in task.base_tables() if is_partition_table(name)
        )
        # The branch join runs where its shards live: both sides of the
        # zipped join are in one task, annotated at the hosting engine.
        index = int(shards[0].rsplit("__p", 1)[1])
        assert shards == [f"lineitem__p{index}", f"orders__p{index}"]
        assert task.annotation == DBS[index]
    assert cross_shard_bytes(report.plan) == 0


def test_replicated_dimension_joins_on_each_shard():
    dep = build_sharded()
    report = XDB(dep).submit(TRIPLE_SQL)
    assert_same_rows(report.result.rows, truth_rows(TRIPLE_SQL))
    branches = branch_tasks(report.plan)
    assert len(branches) == len(DBS)
    for task in branches:
        # Rule 1's partition anchor pulls the replicated dimension onto
        # the shard's engine, so the whole branch merges into one task.
        assert "customer" in task.base_tables()
    assert cross_shard_bytes(report.plan) == 0


def test_mismatched_partition_keys_force_repartition_edge():
    dep = build_sharded(lineitem_key="l_qty")
    report = XDB(dep).submit(JOIN_SQL)
    assert_same_rows(report.result.rows, truth_rows(JOIN_SQL))
    # lineitem is partitioned on a non-join key: branches cannot zip, so
    # shard output must move into the join — a repartition point.
    assert cross_shard_bytes(report.plan) > 0


# -- composition with replication and drift ------------------------------


def test_dead_shards_replica_is_picked():
    dep = build_sharded()
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    dep.replicate_table(partition_name("orders", 0), "p4")
    xdb = XDB(dep)
    xdb.warm_metadata()
    baseline = xdb.submit(ORDERS_SQL)
    assert baseline.result.rows == truth_rows(ORDERS_SQL)

    dep.health.report_outage("p1")
    report = xdb.submit(ORDERS_SQL)
    assert_same_rows(report.result.rows, baseline.result.rows)
    shard0 = [
        task
        for task in report.plan.tasks.values()
        if partition_name("orders", 0) in task.base_tables()
    ]
    assert shard0 and all(task.annotation == "p4" for task in shard0)
    assert all(
        task.annotation != "p1" for task in report.plan.tasks.values()
    )


def test_drift_on_one_partition_quarantines_only_that_holder():
    dep = build_sharded()
    shard = partition_name("orders", 0)
    dep.replicate_table(shard, "p4")
    xdb = XDB(dep)
    truth = xdb.submit(ORDERS_SQL).result.rows

    apply_drift(
        dep.database("p1"),
        SchemaDrift(
            db="p1", table=shard, kind="drop_column", column="o_total"
        ),
    )
    report = xdb.submit(ORDERS_SQL)
    assert report.recovery.drifted
    assert ("p1", shard) in report.recovery.quarantined
    assert xdb.catalog.is_quarantined("p1", shard)
    # Only the drifted holder is out; every sibling shard still serves.
    for index, db in enumerate(DBS):
        if index != 0:
            assert not xdb.catalog.is_quarantined(
                db, partition_name("orders", index)
            )
    assert_same_rows(report.result.rows, truth)


# -- the simulator's worker-slot model -----------------------------------


def test_worker_slots_cap_serializes_same_engine_tasks():
    # Two shards per engine: a 1-slot pool must serialize them, a wider
    # pool overlaps them again, and None keeps the legacy unbounded
    # overlap exactly.
    dep = build_sharded(orders_dbs=["p1", "p1", "p2", "p2"])
    report = XDB(dep).submit(ORDERS_SQL)

    def resim(slots):
        return simulate_schedule(
            report.deployed,
            dep.connectors,
            dep.network,
            dep.client_node,
            result_bytes=report.result.byte_size(),
            worker_slots=slots,
        ).execution_seconds

    unbounded = resim(None)
    serial = resim(1)
    wide = resim(2)
    assert serial > unbounded
    assert unbounded <= wide <= serial


def test_makespan_is_lpt_list_scheduling():
    assert makespan([], 3) == 0.0
    assert makespan([5.0], 4) == 5.0
    assert makespan([4.0, 3.0, 3.0, 2.0], 1) == pytest.approx(12.0)
    assert makespan([4.0, 3.0, 3.0, 2.0], 2) == pytest.approx(6.0)
    assert makespan([4.0, 3.0, 3.0, 2.0], 8) == pytest.approx(4.0)


# -- the gather's branch runner ------------------------------------------


def test_worker_pool_returns_outcomes_in_order_and_reraises():
    pool = WorkerPool()
    assert pool.map([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]

    def boom():
        raise ValueError("branch died")

    with pytest.raises(ValueError, match="branch died"):
        pool.map([lambda: 1, boom, lambda: 3])


def test_parallel_scan_span_tree_is_well_formed():
    dep = build_sharded()
    report = XDB(dep).submit(JOIN_SQL)
    root = report.context.tracer.root
    spans = list(all_spans(root))

    assert all(span.wall_end is not None for span in spans)
    branches = [span for span in spans if span.kind == "parallel"]
    assert len(branches) == len(DBS)
    for span in branches:
        assert span.wall_seconds >= 0.0
        assert span.status != "error"
    # No orphans: reachability from the root covers every span the
    # tracer ever allocated (ids are dense from the root's).
    ids = sorted(span.span_id for span in spans)
    assert ids == list(range(min(ids), min(ids) + len(ids)))
    validate_chrome_trace(report.to_chrome_trace())


def test_a_submission_starts_no_thread(monkeypatch):
    dep = build_sharded(workers=2)
    xdb = XDB(dep)
    xdb.warm_metadata()
    started = []
    original = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    report = xdb.submit(JOIN_SQL)
    assert started == []
    assert len(report.context.tracer.root.find_all(kind="parallel")) == len(DBS)


def test_parallel_counters_do_not_leak_across_queries():
    dep = build_sharded()
    xdb = XDB(dep)
    xdb.warm_metadata()
    # The first submission plans; the second reuses its plan and keeps
    # its cascade, which the next two run on.
    first = xdb.submit(JOIN_SQL)
    second = xdb.submit(JOIN_SQL)
    third = xdb.submit(JOIN_SQL)
    fourth = xdb.submit(JOIN_SQL)
    reports = (first, second, third, fourth)
    assert len({id(r.context) for r in reports}) == 4

    # Identical submissions measure identically: nothing from the third
    # query's gather bled into the fourth query's context.
    def event_counts(report):
        return Counter(e.name for e in report.context.root.subtree_events())

    assert event_counts(third) == event_counts(fourth)
    assert third.resilience == fourth.resilience
    third_summary = third.context.trace_summary()
    fourth_summary = fourth.context.trace_summary()
    for key in ("spans", "events", "transfers", "sim_seconds"):
        assert third_summary[key] == fourth_summary[key], key

    # The planning submission differs from a reuse only by what planning
    # records: its parse step and lopt / ann phases (consultations
    # included) against the reuse's plan-reused event — and by its
    # cleanup, outside the phases, which the reuse skips.
    def outside_planning(report):
        spans, events, records = 0, Counter(), []
        stack = [s for s in report.context.root.children if s.kind == "phase"]
        while stack:
            span = stack.pop()
            if span.name in ("parse", "lopt", "ann"):
                continue
            spans += 1
            events.update(
                e.name for e in span.events if e.name != "plan-reused"
            )
            records.extend(span.records)
            stack.extend(span.children)
        return spans, events, len(records)

    assert outside_planning(first) == outside_planning(second)
    assert first.resilience == second.resilience
    assert first.phases["exec"] == second.phases["exec"]
    assert not first.context.root.subtree_events("plan-reused")
    assert len(second.context.root.subtree_events("plan-reused")) == 1
