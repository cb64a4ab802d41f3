"""Reports are reads: an ``XDBReport`` stores only what its span tree
cannot say, and reads every other value off the tree on first access.

A submission whose views nobody reads builds none of them; a view read
late — after more submissions and a reap on the same client — equals
the value it had right after its own submit, because a closed query
context never changes and the few stored inputs are captured at report
time.
"""

import dataclasses
import functools
from collections import Counter

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB, XDBReport
from repro.core.pipeline import RecoveryReport
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.obs.context import QueryContext
from repro.qos import GateConfig, QoSPolicy, QoSReport
from repro.workloads.tpch import query

from test_drift import build_small as build_replicated
from test_fault_injection import build_partitioned
from test_qos import JOIN_QUERY, build_small

VIEWS = ("phases", "transfers", "consultations", "resilience", "recovery", "qos")

#: what a report stores: what the tree does not hold, plus the inputs
#: its views need that the tree lacks
STORED = (
    "result",
    "plan",
    "deployed",
    "annotation",
    "schedule",
    "context",
    "feedback",
    "placement_before",
    "leaked_objects",
    "connector_names",
)


def counted(calls, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_a_submit_builds_no_view_until_one_is_read(monkeypatch, tpch_tiny):
    calls = Counter()
    for owner, name in (
        (RecoveryReport, "of"),
        (QoSReport, "of"),
    ):
        wrapped = counted(calls, f"{owner.__name__}.{name}", owner.of.__func__)
        monkeypatch.setattr(owner, name, classmethod(wrapped))
    for name in ("resilience_summary", "transfer_summary"):
        wrapped = counted(calls, name, getattr(QueryContext, name))
        monkeypatch.setattr(QueryContext, name, wrapped)

    deployment, _ = tpch_tiny
    report = XDB(deployment).submit(
        query("Q3"), qos=QoSPolicy(deadline_seconds=1e6)
    )
    assert not calls

    for view in VIEWS:
        getattr(report, view)
    for view in VIEWS:  # read once: a second read is the cached value
        getattr(report, view)
    assert calls == {
        "RecoveryReport.of": 1,
        "QoSReport.of": 1,
        "resilience_summary": 1,
        "transfer_summary": 1,
    }
    assert report.qos is not None


def plain_td1():
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = XDB(deployment)
    return xdb, xdb.submit(query("Q3")), lambda: xdb.submit(query("Q5"))


def repaired():
    sql = "SELECT e.kind, SUM(e.weight) AS total FROM events e GROUP BY e.kind"
    deployment = build_replicated(replicate=True)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    victim = xdb.plan_query(sql).root.annotation
    # The annotator probes availability up front: the outage opens one
    # call later, mid-delegation.
    outage = EngineOutage(db=victim, after_calls=1)
    with FaultInjector(FaultPolicy(outages=(outage,))).install(deployment):
        report = xdb.submit(sql)
    return xdb, report, lambda: xdb.submit(sql)


def stale_read():
    deployment = build_small()
    deployment.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    xdb = XDB(deployment, movement_policy="explicit")
    prepared = xdb.prepare(JOIN_QUERY)
    prepared.execute()
    root = prepared.deployed.root_db
    other = next(db for db in ("A", "B") if db != root)
    blocker = deployment.workload_gate.acquire([other], at=xdb.clock.now())
    policy = QoSPolicy(max_staleness_seconds=1e6)
    report = prepared.execute(qos=policy)
    blocker.release(xdb.clock.now())
    return xdb, report, lambda: prepared.execute(qos=policy)


def partial():
    deployment, shard = build_partitioned()
    xdb = XDB(deployment)
    xdb.warm_metadata()
    sql = "SELECT o_orderkey, o_custkey FROM orders ORDER BY o_orderkey"
    outage = EngineOutage(db="A", table=shard)
    policy = QoSPolicy(completeness_floor=0.0)
    with FaultInjector(FaultPolicy(outages=(outage,))).install(deployment):
        report = xdb.submit(sql, qos=policy)
    # the struck shard stays quarantined: later queries read elsewhere
    return xdb, report, lambda: xdb.submit("SELECT id FROM misc")


#: scenario → what its views must show (so each one exercises the view
#: it is here for)
SCENARIOS = {
    "plain-td1": (plain_td1, lambda views: views["consultations"] > 0),
    "repaired": (repaired, lambda views: views["recovery"].repair_attempts == 1),
    "stale-read": (stale_read, lambda views: views["qos"].stale_read),
    "partial": (partial, lambda views: views["recovery"].partial),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_view_read_late_equals_the_one_read_at_submit(name):
    build, shows = SCENARIOS[name]
    xdb, report, again = build()
    # A copy of the stored fields, read right away; the report itself
    # is first read after the client has moved on.
    early = dataclasses.replace(report)
    views = {view: getattr(early, view) for view in VIEWS}
    assert shows(views)
    for _ in range(3):
        again()
    xdb.reap()
    assert {view: getattr(report, view) for view in VIEWS} == views


def test_the_stored_set_is_pinned():
    assert tuple(f.name for f in dataclasses.fields(XDBReport)) == STORED
