"""Every teardown path balances the delegated-object ledger.

Each ``xf_/xm_/xv_`` object a delegation cascade creates must leave
its engine through exactly one DROP that finds it — whether the
cascade is cleaned up, rolled back after a failed DDL statement,
cancelled by a deadline (mid-cascade or after delegation), partly
salvaged by a branch repair, pinned by a mid-query adaptation, or torn
down by a prepared handle's ``close()`` or by the client's — and
whatever a path could not drop is owed in the ledger until the reaper
collects it.  After
every path heals, one ``reap()`` leaves no leak, and nothing on an
engine outside a live epoch.

The chaos CI job re-runs this file under several fault seeds
(``XDB_FAULT_SEED``): every path runs under seeded transient faults
that the retry layer absorbs.
"""

import os
from collections import Counter

import pytest

from repro.core.client import XDB
from repro.core.partition import partition_name
from repro.drift.ledger import DELEGATED_PREFIXES
from repro.engine.database import Database
from repro.errors import DeadlineExceeded, DelegationError, OptimizerError
from repro.faults import EngineOutage, FaultInjector, FaultPolicy, ScriptedFault
from repro.feedback import FeedbackStore
from repro.federation.deployment import Deployment
from repro.qos import QoSPolicy
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.types import DOUBLE, INTEGER, varchar

CHAOS_SEED = int(os.environ.get("XDB_FAULT_SEED", "11"))
TRANSIENT_RATE = 0.1

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""

AGG_SQL = """
    SELECT o_custkey, SUM(o_total) AS total
    FROM orders
    GROUP BY o_custkey
    ORDER BY total DESC, o_custkey
"""

SHARDS = ["p1", "p2", "p3", "p4"]

CREATES = (ast.CreateForeignTable, ast.CreateTableAs, ast.CreateView)


def two_dbs() -> Deployment:
    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "users",
        Schema(
            [
                Field("id", INTEGER),
                Field("name", varchar(16)),
                Field("score", DOUBLE),
            ]
        ),
        [(i, f"user{i}", float(i * 10 % 70)) for i in range(1, 21)],
    )
    dep.load_table(
        "B",
        "events",
        Schema(
            [
                Field("user_id", INTEGER),
                Field("kind", varchar(8)),
                Field("weight", INTEGER),
            ]
        ),
        [
            (1 + i % 25, ["login", "query", "logout"][i % 3], i % 7)
            for i in range(60)
        ],
    )
    return dep


def sharded() -> Deployment:
    """orders hash-partitioned over four engines, shard 3 replicated."""
    dep = Deployment({db: "postgres" for db in SHARDS}, parallel_workers=2)
    schema = Schema(
        [
            Field("o_orderkey", INTEGER),
            Field("o_custkey", INTEGER),
            Field("o_total", DOUBLE),
        ]
    )
    rows = [(i, i % 10, float(i * 7 % 90)) for i in range(80)]
    dep.load_table("p1", "orders", schema, rows)
    dep.partition_table("orders", "o_orderkey", SHARDS)
    dep.replicate_table(partition_name("orders", 3), "p1")
    return dep


def faults(*scripted, outages=()) -> FaultInjector:
    return FaultInjector(
        FaultPolicy(
            seed=CHAOS_SEED,
            transient_error_rate=TRANSIENT_RATE,
            scripted=scripted,
            outages=outages,
        )
    )


def warmed(dep: Deployment, **options) -> XDB:
    xdb = XDB(dep, **options)
    xdb.warm_metadata()
    return xdb


# -- the teardown paths ----------------------------------------------------
# Each builds its federation, runs one path under seeded transient
# faults and returns the client and its deployment, faults uninstalled.


def clean_submit():
    dep = two_dbs()
    xdb = warmed(dep)
    with faults().install(dep):
        assert len(xdb.submit(JOIN_QUERY).result) > 0
    return xdb, dep


def ddl_failure_mid_cascade():
    dep = two_dbs()
    xdb = warmed(dep)
    # each fault counts only the calls the ones before it let through,
    # so four of them fail DDL calls 3–6: one statement's four attempts
    kill_third = [ScriptedFault(op="ddl", nth=3)] * 4
    with faults(*kill_third).install(dep):
        with pytest.raises(DelegationError) as err:
            xdb.submit(JOIN_QUERY)
    assert err.value.rolled_back
    return xdb, dep


def _expire_in(phase: str):
    """Submit with a deadline halfway through the last engine call of
    the clean run's ``phase`` step, timed under the same fault
    schedule, so the cascade has objects to roll back."""
    probe_dep = two_dbs()
    probe = warmed(probe_dep)
    with faults().install(probe_dep):
        report = probe.submit(JOIN_QUERY)
    step = next(
        span
        for span in report.context.root.iter_spans()
        if span.name == phase
    )
    last = [span for span in step.iter_spans() if span.kind == "call"][-1]
    dep = two_dbs()
    xdb = warmed(dep)
    budget = last.sim_start + last.sim_seconds / 2.0
    with faults().install(dep):
        with pytest.raises(DeadlineExceeded) as err:
            xdb.submit(JOIN_QUERY, qos=QoSPolicy(deadline_seconds=budget))
    assert err.value.phase == phase
    assert err.value.rolled_back
    return xdb, dep


def deadline_mid_cascade():
    return _expire_in("delegate")


def deadline_after_delegation():
    return _expire_in("execute")


def branch_repair_pins_salvage():
    dep = sharded()
    xdb = warmed(dep, movement_policy="explicit")
    shard = partition_name("orders", 3)
    primary = xdb.submit(AGG_SQL).recovery.placement[shard]
    outage = EngineOutage(db=primary, table=shard)
    with faults(outages=(outage,)).install(dep):
        report = xdb.submit(AGG_SQL)
    assert report.recovery.branch_repairs == 1
    assert report.recovery.pinned_tasks
    return xdb, dep


def adaptation_pins_snapshot():
    dep = two_dbs()
    xdb = warmed(
        dep,
        movement_policy="explicit",
        feedback=FeedbackStore(),
        adaptivity_threshold=2.0,
    )
    xdb.catalog.override_stats("B", "events", 1)
    with faults().install(dep):
        report = xdb.submit(JOIN_QUERY)
    assert report.recovery.adaptations == 1
    assert report.recovery.pinned_tasks
    return xdb, dep


def prepared_close():
    """A close whose non-root engine is down: the leak is reported and
    owed in the ledger."""
    dep = two_dbs()
    xdb = warmed(dep)
    with faults().install(dep):
        prepared = xdb.prepare(JOIN_QUERY)
        prepared.execute()
        prepared.execute()
    root = prepared.deployed.root_db
    dep.health.report_outage("B" if root == "A" else "A")
    with pytest.raises(DelegationError):
        prepared.close()
    assert xdb.ledger.leaked_count() > 0
    return xdb, dep


def client_close_with_open_handle():
    """``XDB.close()`` with a prepared handle open and a repeated query's
    cascade kept: both cascades end, and the handle is closed."""
    dep = two_dbs()
    xdb = warmed(dep)
    with faults().install(dep):
        prepared = xdb.prepare(JOIN_QUERY)
        prepared.execute()
        for _ in range(3):
            xdb.submit(JOIN_QUERY)
        xdb.close()
    with pytest.raises(OptimizerError, match="closed"):
        prepared.execute()
    assert xdb.ledger.live_epochs() == set()
    return xdb, dep


PATHS = [
    clean_submit,
    ddl_failure_mid_cascade,
    deadline_mid_cascade,
    deadline_after_delegation,
    branch_repair_pins_salvage,
    adaptation_pins_snapshot,
    prepared_close,
    client_close_with_open_handle,
]


@pytest.fixture
def engine_spy(monkeypatch):
    """Every delegated object an engine creates, and per object the
    DROPs that found it."""
    created = set()
    found_drops = Counter()
    execute_statement, drop = Database.execute_statement, Database._drop

    def spy_execute(self, statement, sql):
        result = execute_statement(self, statement, sql)
        if isinstance(statement, CREATES) and statement.name.lower().startswith(
            DELEGATED_PREFIXES
        ):
            created.add((id(self), statement.name.lower()))
        return result

    def spy_drop(self, statement):
        if self.catalog.get(statement.name) is not None:
            found_drops[(id(self), statement.name.lower())] += 1
        return drop(self, statement)

    monkeypatch.setattr(Database, "execute_statement", spy_execute)
    monkeypatch.setattr(Database, "_drop", spy_drop)
    return created, found_drops


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__)
def test_teardown_path_balances_the_ledger(path, engine_spy):
    created, found_drops = engine_spy
    xdb, dep = path()
    assert created

    # heal: faults are gone, breakers half-open after the cool-down
    dep.health.clock.advance(dep.health.config.cooldown_seconds + 1.0)
    report = xdb.reap()
    assert report.unreachable == [] and report.failed == []

    assert xdb.ledger.leaked_count() == 0
    live = xdb.ledger.live_epochs()
    for db in dep.database_names():
        for _kind, name in dep.connector(db).list_objects(DELEGATED_PREFIXES):
            entry = xdb.ledger.entry_for(db, name)
            epoch = entry.epoch if entry else xdb.ledger.epoch_of_name(name)
            assert epoch in live, f"{name} on {db} outlived its epoch"
    assert {
        obj: found_drops[obj] for obj in created if found_drops[obj] != 1
    } == {}
    assert set(found_drops) <= created

