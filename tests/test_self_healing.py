"""Self-healing federation tests: circuit breakers, replicated tables,
and the client's automatic plan-repair loop.

The chaos CI job re-runs this file under several fault seeds
(``XDB_FAULT_SEED``); tests that draw randomness read the seed so a
schedule that breaks under one seed is reproducible locally.
"""

import os

import pytest

from repro.connect.connector import RetryPolicy
from repro.core.client import XDB
from repro.core.pipeline import PlanPipeline
from repro.errors import (
    CircuitOpenError,
    EngineUnavailableError,
)
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.federation.deployment import Deployment
from repro.health import BreakerConfig, BreakerState, HealthRegistry
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar

from conftest import assert_same_rows

CHAOS_SEED = int(os.environ.get("XDB_FAULT_SEED", "11"))

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""

EVENTS_QUERY = """
    SELECT e.kind, SUM(e.weight) AS total
    FROM events e
    GROUP BY e.kind
    ORDER BY e.kind
"""


def build_small(replicate: bool = False) -> Deployment:
    """users @ A, events @ B — optionally replicating events onto A."""
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
    if replicate:
        dep.replicate_table("events", "A", from_db="B")
    return dep


def exec_strike_point(build, victim, sql, skip_exec_calls=0):
    """``after_calls`` making an exec-phase call on ``victim`` fail.

    Measured on a fresh identical build so the real run replays the
    same guarded-call schedule.  ``skip_exec_calls`` lets that many
    exec-phase calls through first (a mid-cascade strike) — needed
    when the query makes no annotation-phase calls on the victim, so
    an outage window opening at the ann/exec boundary would already be
    visible to the annotator's up-front availability probe.  Also
    returns the fault-free rows.
    """
    dep = build()
    xdb = XDB(dep)
    xdb.warm_metadata()
    counting = FaultInjector(FaultPolicy()).install(dep)
    try:
        report = xdb.submit(sql, cleanup=False)
    finally:
        counting.uninstall()
    total = counting.calls_by_db.get(victim, 0)
    exec_calls = sum(
        1 for db, _ in report.deployed.ddl_log if db == victim
    )
    if report.plan.root.annotation == victim:
        exec_calls += 1  # the root also serves the final XDB query
    assert exec_calls > skip_exec_calls, (
        f"query places only {exec_calls} exec call(s) on {victim!r}"
    )
    return total - exec_calls + skip_exec_calls, report.result.rows


# -- circuit-breaker state machine ---------------------------------------


def test_breaker_trips_after_failure_threshold():
    registry = HealthRegistry(
        BreakerConfig(failure_threshold=3, cooldown_seconds=5.0)
    )
    registry.record_failure("A")
    registry.record_failure("A")
    assert registry.state("A") is BreakerState.CLOSED
    assert registry.allow("A")
    registry.record_failure("A")
    assert registry.is_open("A")
    assert not registry.allow("A")
    assert registry.breaker("A").trips == 1
    transitions = [(e.old_state, e.new_state) for e in registry.events]
    assert transitions == [(BreakerState.CLOSED, BreakerState.OPEN)]


def test_success_resets_the_failure_streak():
    registry = HealthRegistry(BreakerConfig(failure_threshold=3))
    registry.record_failure("A")
    registry.record_failure("A")
    registry.record_success("A")
    registry.record_failure("A")
    registry.record_failure("A")
    assert registry.state("A") is BreakerState.CLOSED
    registry.record_failure("A")
    assert registry.is_open("A")


def test_cooldown_half_open_probe_and_readmission():
    registry = HealthRegistry(
        BreakerConfig(failure_threshold=1, cooldown_seconds=5.0)
    )
    registry.record_failure("A")
    assert registry.is_open("A")
    assert registry.gate("A") == "blocked"
    registry.clock.advance(5.0)
    assert registry.gate("A") == "probe"
    assert registry.state("A") is BreakerState.HALF_OPEN
    registry.record_success("A")
    assert registry.state("A") is BreakerState.CLOSED
    states = [e.new_state for e in registry.events]
    assert states == [
        BreakerState.OPEN,
        BreakerState.HALF_OPEN,
        BreakerState.CLOSED,
    ]


def test_failed_probe_reopens_for_another_cooldown():
    registry = HealthRegistry(
        BreakerConfig(failure_threshold=1, cooldown_seconds=5.0)
    )
    registry.record_failure("A")
    registry.clock.advance(5.0)
    assert registry.gate("A") == "probe"
    registry.record_failure("A", "probe failed")
    assert registry.is_open("A")
    # A fresh cool-down starts from the re-open, not the original trip.
    assert registry.gate("A") == "blocked"
    registry.clock.advance(5.0)
    assert registry.gate("A") == "probe"


def test_report_outage_force_trips():
    registry = HealthRegistry(BreakerConfig(failure_threshold=3))
    registry.report_outage("A", "client saw it die")
    assert registry.is_open("A")
    assert registry.breaker("A").trips == 1


# -- connector gating ----------------------------------------------------


def test_open_breaker_fails_fast_without_consuming_anything():
    dep = build_small()
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    injector = FaultInjector(FaultPolicy()).install(dep)
    try:
        connector = dep.connector("B")
        dep.health.report_outage("B")
        calls_before = injector.calls_by_db.get("B", 0)
        with pytest.raises(CircuitOpenError) as err:
            with QueryContext():
                connector.table_stats("events")
        assert err.value.db == "B"
        # Neither the fault schedule nor the retry budget moved.
        assert injector.calls_by_db.get("B", 0) == calls_before
        metrics = err.value.context.metrics
        assert metrics.value("connector.retries", db="B") == 0
        assert metrics.value("connector.failures", db="B") == 0
        assert metrics.value("connector.breaker_fastfails", db="B") == 1
    finally:
        injector.uninstall()


def test_open_breaker_excludes_engine_from_placement():
    dep = build_small()
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    dep.health.report_outage("B")
    assert not dep.connector("B").is_available()
    assert dep.connector("A").is_available()


# -- satellite: deterministic backoff jitter -----------------------------


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy()

    def collect():
        dep = Deployment({"A": "postgres"})
        rng = dep.connector("A")._backoff_rng
        return [policy.backoff_for(a, rng=rng) for a in range(1, 6)]

    first, second = collect(), collect()
    assert first == second  # identically-seeded runs agree exactly
    pure = [policy.backoff_for(a) for a in range(1, 6)]
    assert first != pure  # jitter actually perturbs the exponential
    for jittered, base in zip(first, pure):
        assert 0.5 * base <= jittered <= 1.5 * base


def test_retry_backoff_identical_across_seeded_runs():
    def run():
        dep = build_small()
        xdb = XDB(dep)
        xdb.warm_metadata()
        for connector in dep.connectors.values():
            connector.retry_policy = RetryPolicy(max_attempts=10)
        injector = FaultInjector(
            FaultPolicy(seed=CHAOS_SEED, transient_error_rate=0.25)
        ).install(dep)
        try:
            report = xdb.submit(JOIN_QUERY)
        finally:
            injector.uninstall()
        return (
            report.result.rows,
            {
                name: counters.backoff_seconds
                for name, counters in report.resilience.by_connector.items()
            },
        )

    rows_a, backoff_a = run()
    rows_b, backoff_b = run()
    assert backoff_a == backoff_b
    assert_same_rows(rows_a, rows_b)


# -- satellite: transfer-accounting ordering -----------------------------


def test_push_rows_records_transfer_only_after_create():
    dep = build_small()
    connector = dep.connector("A")

    def boom(*args, **kwargs):
        raise EngineUnavailableError("injected: engine died mid-ship")

    connector.database.create_table = boom
    with pytest.raises(EngineUnavailableError) as err:
        with QueryContext():
            connector.push_rows(
                "tmp_ship", Schema([Field("x", INTEGER)]), [(1,), (2,)]
            )
    shipped = [
        r for r in err.value.context.transfers if r.tag == "mediator-ship"
    ]
    assert shipped == []  # no bytes credited for rows that never landed


def test_run_query_records_transfer_only_after_execute():
    dep = build_small()
    connector = dep.connector("B")

    def boom(*args, **kwargs):
        raise EngineUnavailableError("injected: engine died mid-query")

    connector.database.execute_select = boom
    with pytest.raises(EngineUnavailableError) as err:
        with QueryContext():
            connector.run_query(
                __import__("repro.sql.parser", fromlist=["parse_statement"])
                .parse_statement("SELECT kind FROM events"),
                dep.client_node,
            )
    results = [r for r in err.value.context.transfers if r.tag == "result"]
    assert results == []


# -- satellite: table_rows goes through the guarded path -----------------


def test_table_rows_is_guarded_and_counts_control_messages():
    dep = build_small()
    connector = dep.connector("B")
    with QueryContext() as ctx:
        assert connector.table_rows("events") == 60.0
    assert ctx.metrics.value("connector.control_messages", db="B") == 1
    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="B"),))
    ).install(dep):
        with pytest.raises(EngineUnavailableError):
            connector.table_rows("events")


# -- replicated tables in the catalog ------------------------------------


def test_replicated_table_is_visible_with_all_holders():
    dep = build_small(replicate=True)
    xdb = XDB(dep)
    xdb.warm_metadata()
    assert sorted(xdb.catalog.holders("events")) == ["A", "B"]
    assert xdb.catalog.is_replicated("events")
    assert not xdb.catalog.is_replicated("users")
    resolved = xdb.catalog.resolve_table(("events",))
    assert sorted(resolved.replica_dbs) == ["A", "B"]
    # Qualified names pin the holder: the user chose a replica.
    pinned = xdb.catalog.resolve_table(("B", "events"))
    assert pinned.source_db == "B"
    assert pinned.replica_dbs == ()


def test_scan_reroutes_to_surviving_replica_without_repair():
    dep = build_small(replicate=True)
    xdb = XDB(dep)
    xdb.warm_metadata()
    truth = xdb.submit(JOIN_QUERY).result.rows
    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="B"),))
    ).install(dep):
        report = xdb.submit(JOIN_QUERY)
    assert_same_rows(report.result.rows, truth)
    assert set(report.plan.annotations()) == {"A"}
    # Known-down up front: routed around, no repair loop needed.
    assert report.recovery is not None
    assert not report.recovery.repaired


def test_all_replica_holders_down_fails_fast_with_diagnostic():
    dep = build_small(replicate=True)
    xdb = XDB(dep)
    xdb.warm_metadata()
    with FaultInjector(
        FaultPolicy(
            outages=(EngineOutage(db="A"), EngineOutage(db="B"))
        )
    ).install(dep):
        with pytest.raises(EngineUnavailableError) as err:
            xdb.submit(EVENTS_QUERY)
    message = str(err.value)
    assert "'events'" in message
    assert "'A'" in message and "'B'" in message
    assert "unreachable" in message


# -- automatic plan repair -----------------------------------------------


def test_exec_outage_repairs_onto_replica():
    strike, truth = exec_strike_point(
        lambda: build_small(replicate=True), "A", EVENTS_QUERY,
        skip_exec_calls=1,
    )
    dep = build_small(replicate=True)
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    xdb = XDB(dep)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="A", after_calls=strike),))
    ).install(dep)
    try:
        report = xdb.submit(EVENTS_QUERY)
    finally:
        injector.uninstall()
    assert_same_rows(report.result.rows, truth)
    recovery = report.recovery
    assert recovery is not None and recovery.repaired
    assert recovery.repair_attempts == 1
    assert recovery.repaired_dbs == ["A"]
    assert recovery.repair_seconds >= 0.0
    # Placement diff shows the move off the dead holder.
    diff = recovery.placement_diff()
    assert diff and all(
        old == "A" and new == "B" for old, new in diff.values()
    )
    assert any(
        e.new_state is BreakerState.OPEN and e.db == "A"
        for e in recovery.breaker_transitions
    )
    assert dep.health.is_open("A")
    assert "recovery:" in report.describe()


def test_prepared_execution_reports_breaker_transitions():
    """A breaker tripped while a prepared handle executes shows in that
    execution's recovery report, like a submission's."""
    dep = build_small(replicate=True)
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    xdb = XDB(dep)
    xdb.warm_metadata()
    with xdb.prepare(EVENTS_QUERY) as prepared:
        truth = prepared.execute().result.rows
        victim = prepared.plan.root.annotation
        injector = FaultInjector(
            FaultPolicy(outages=(EngineOutage(db=victim),))
        ).install(dep)
        try:
            report = prepared.execute()
        finally:
            injector.uninstall()
        assert_same_rows(report.result.rows, truth)
        assert report.recovery.repaired_dbs == [victim]
        assert any(
            e.new_state is BreakerState.OPEN and e.db == victim
            for e in report.recovery.breaker_transitions
        )
        assert prepared.plan.root.annotation != victim
        quiet = prepared.execute()
        assert not quiet.recovery.touched
        assert quiet.recovery.breaker_transitions == []


def test_zero_repair_budget_propagates_the_outage():
    strike, _ = exec_strike_point(
        lambda: build_small(replicate=True), "A", EVENTS_QUERY,
        skip_exec_calls=1,
    )
    dep = build_small(replicate=True)
    xdb = XDB(dep, repair_budget=0)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="A", after_calls=strike),))
    ).install(dep)
    try:
        with pytest.raises(Exception) as err:
            xdb.submit(EVENTS_QUERY)
    finally:
        injector.uninstall()
    assert PlanPipeline.classify(err.value).db == "A"


def test_unreplicated_holder_outage_is_unrepairable():
    """Repair cannot help when the dead engine is the only data holder."""
    strike, _ = exec_strike_point(lambda: build_small(), "B", JOIN_QUERY)
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="B", after_calls=strike),))
    ).install(dep)
    try:
        with pytest.raises(EngineUnavailableError) as err:
            xdb.submit(JOIN_QUERY)
    finally:
        injector.uninstall()
    assert "'events'" in str(err.value)


def test_open_breaker_caps_calls_to_the_downed_engine():
    strike, truth = exec_strike_point(
        lambda: build_small(replicate=True), "A", EVENTS_QUERY,
        skip_exec_calls=1,
    )
    dep = build_small(replicate=True)
    threshold = 3
    dep.configure_health(
        BreakerConfig(failure_threshold=threshold, cooldown_seconds=1e9)
    )
    xdb = XDB(dep)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="A", after_calls=strike),))
    ).install(dep)
    try:
        for _ in range(5):
            report = xdb.submit(EVENTS_QUERY)
            assert_same_rows(report.result.rows, truth)
    finally:
        injector.uninstall()
    # One failed call tripped the breaker; with the cool-down effectively
    # infinite, no later query re-probes the dead engine.
    assert injector.calls_by_db["A"] <= strike + threshold
    assert injector.calls_by_db["A"] == strike + 1


# -- re-admission after recovery -----------------------------------------


def test_half_open_probe_readmits_recovered_engine():
    strike, truth = exec_strike_point(
        lambda: build_small(replicate=True), "A", EVENTS_QUERY,
        skip_exec_calls=1,
    )
    dep = build_small(replicate=True)
    dep.configure_health(
        BreakerConfig(failure_threshold=1, cooldown_seconds=4.0)
    )
    xdb = XDB(dep)
    xdb.warm_metadata()
    # A dies at its first exec call and stays down for 2 further calls
    # (the two failed half-open probes below), then recovers.
    injector = FaultInjector(
        FaultPolicy(
            outages=(
                EngineOutage(db="A", after_calls=strike, duration_calls=3),
            )
        )
    ).install(dep)
    try:
        repaired = xdb.submit(EVENTS_QUERY)
        assert repaired.recovery.repaired
        assert set(repaired.plan.annotations()) == {"B"}

        # Probe while still down: the breaker re-opens each time, and
        # the probe consumes the outage window like any real call.
        for _ in range(2):
            dep.health.clock.advance(10.0)
            report = xdb.submit(EVENTS_QUERY)
            assert set(report.plan.annotations()) == {"B"}
            assert dep.health.is_open("A")
            assert_same_rows(report.result.rows, truth)

        # Outage over: the next probe succeeds, the breaker closes, and
        # the very next identical query places work on A again.
        dep.health.clock.advance(10.0)
        report = xdb.submit(EVENTS_QUERY)
        assert dep.health.breaker("A").state is BreakerState.CLOSED
        assert set(report.plan.annotations()) == {"A"}
        assert not report.recovery.repaired
        assert_same_rows(report.result.rows, truth)
    finally:
        injector.uninstall()
    assert dep.health.breaker("A").probes >= 3


# -- acceptance: TD1 with a mid-workload outage --------------------------


def build_tpch_replicated():
    from repro.bench.scenarios import build_tpch_deployment

    deployment, _ = build_tpch_deployment("TD1", 0.001)
    deployment.replicate_table("customer", "db3")
    deployment.replicate_table("orders", "db3")
    return deployment


def test_td1_mid_workload_outage_repairs_every_query():
    from repro.workloads.tpch import QUERIES, query

    names = sorted(QUERIES)

    # Counting pass (fault-free): ground truth + the strike point that
    # kills db2 at the first exec-phase call of the first query that
    # places work on it.
    dep = build_tpch_replicated()
    xdb = XDB(dep)
    xdb.warm_metadata()
    counting = FaultInjector(FaultPolicy()).install(dep)
    truth = {}
    strike = None
    struck_query = None
    try:
        for name in names:
            before = counting.calls_by_db.get("db2", 0)
            report = xdb.submit(query(name))
            truth[name] = report.result.rows
            ddl_on_victim = sum(
                1 for db, _ in report.deployed.ddl_log if db == "db2"
            )
            exec_calls = ddl_on_victim + (
                1 if report.plan.root.annotation == "db2" else 0
            )
            after = counting.calls_by_db.get("db2", 0)
            if strike is None and exec_calls:
                # cleanup drops one object per DDL; ann consults are
                # whatever remains of the window.
                ann_calls = (after - before) - exec_calls - ddl_on_victim
                strike = before + ann_calls
                struck_query = name
    finally:
        counting.uninstall()
    assert strike is not None, "no TD1 query places work on db2"

    # Real pass on a fresh identical build: db2 dies mid-workload and
    # never comes back.
    dep = build_tpch_replicated()
    dep.configure_health(BreakerConfig(cooldown_seconds=1e9))
    xdb = XDB(dep)
    xdb.warm_metadata()
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="db2", after_calls=strike),))
    ).install(dep)
    repaired_reports = {}
    try:
        for name in names:
            report = xdb.submit(query(name))
            assert_same_rows(report.result.rows, truth[name])
            repaired_reports[name] = report
    finally:
        injector.uninstall()

    # The struck query healed through the repair loop, moving its db2
    # tasks onto the replica holder.
    recovery = repaired_reports[struck_query].recovery
    assert recovery.repaired
    assert recovery.repaired_dbs == ["db2"]
    moved = recovery.placement_diff()
    assert moved and all(old == "db2" for old, _ in moved.values())
    # The breaker capped traffic to the dead engine: one failed call,
    # then every later query failed fast / routed around without
    # re-probing.
    assert injector.calls_by_db["db2"] == strike + 1
    assert dep.health.is_open("db2")
