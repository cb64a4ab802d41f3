"""Federation resilience tests: fault injection, retry/backoff,
deploy-or-rollback delegation, and degradation-aware placement."""

import gc

import pytest

from repro.connect.connector import RetryPolicy
from repro.core.client import XDB
from repro.core.delegate import DeployedQuery
from repro.errors import (
    ConnectorTimeoutError,
    DelegationError,
    EngineUnavailableError,
    NetworkPartitionedError,
    ReproError,
)
from repro.faults import (
    EngineOutage,
    FaultInjector,
    FaultPolicy,
    LinkFault,
    ScriptedFault,
)
from repro.federation.deployment import Deployment
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER, varchar

from conftest import assert_same_rows

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""


def catalog_names(deployment):
    return {
        name: set(deployment.database(name).catalog.names())
        for name in deployment.database_names()
    }


def set_retry_policy(deployment, policy):
    for connector in deployment.connectors.values():
        connector.retry_policy = policy


# -- transactional delegation (deploy-or-rollback) -----------------------


def test_killed_nth_ddl_rolls_back_every_object(two_db_deployment):
    """Kill each Nth DDL statement: zero objects remain on every engine."""
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    before = catalog_names(deployment)

    # Discover how many DDL statements this delegation issues.
    probe = xdb.submit(JOIN_QUERY)
    ddl_count = len(probe.deployed.ddl_log)
    assert ddl_count >= 3
    assert catalog_names(deployment) == before

    set_retry_policy(deployment, RetryPolicy(max_attempts=1))
    try:
        for nth in range(1, ddl_count + 1):
            injector = FaultInjector(
                FaultPolicy(scripted=(ScriptedFault(op="ddl", nth=nth),))
            ).install(deployment)
            try:
                with pytest.raises(DelegationError) as err:
                    xdb.submit(JOIN_QUERY)
            finally:
                injector.uninstall()

            assert catalog_names(deployment) == before
            # The failed statement is the last one logged.
            assert len(err.value.ddl_log) == nth
            assert len(err.value.rolled_back) == nth - 1
            assert not err.value.leaked
            assert err.value.failed_db in deployment.database_names()
    finally:
        set_retry_policy(deployment, RetryPolicy())

    # The federation recovers: the same query succeeds afterwards.
    report = xdb.submit(JOIN_QUERY)
    assert catalog_names(deployment) == before
    assert len(report.result) > 0


def test_delegation_error_carries_ddl_log(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    set_retry_policy(deployment, RetryPolicy(max_attempts=1))
    with FaultInjector(
        FaultPolicy(scripted=(ScriptedFault(op="ddl", nth=2),))
    ).install(deployment):
        with pytest.raises(DelegationError) as err:
            xdb.submit(JOIN_QUERY)
    for db, sql in err.value.ddl_log:
        assert db in deployment.database_names()
        assert sql.startswith("CREATE")


# -- transient faults + retry/backoff ------------------------------------


def test_transient_faults_are_absorbed_by_retries(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    truth = xdb.submit(JOIN_QUERY).result.rows

    set_retry_policy(deployment, RetryPolicy(max_attempts=8))
    injector = FaultInjector(
        FaultPolicy(seed=11, transient_error_rate=0.15)
    ).install(deployment)
    try:
        report = xdb.submit(JOIN_QUERY)
    finally:
        injector.uninstall()

    assert_same_rows(report.result.rows, truth)
    assert injector.injected_transients > 0
    assert report.resilience is not None
    assert report.resilience.failures == injector.injected_transients
    assert report.resilience.retries > 0
    assert report.resilience.giveups == 0
    assert report.resilience.backoff_seconds > 0.0
    # Counters surface in the client's breakdown.
    assert "resilience:" in report.describe()
    assert set(report.phases) == {"prep", "lopt", "ann", "exec"}
    # Backoff is priced into the phase times.
    assert report.total_seconds > 0.0


def test_fault_schedule_is_deterministic(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    set_retry_policy(deployment, RetryPolicy(max_attempts=8))

    counts = []
    for _ in range(2):
        injector = FaultInjector(
            FaultPolicy(seed=7, transient_error_rate=0.2)
        ).install(deployment)
        try:
            xdb.submit(JOIN_QUERY)
        finally:
            injector.uninstall()
        counts.append(injector.injected_transients)
    assert counts[0] == counts[1] > 0


def test_failed_submission_error_carries_its_context(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    set_retry_policy(deployment, RetryPolicy(max_attempts=2))
    injector = FaultInjector(
        FaultPolicy(seed=7, transient_error_rate=1.0)
    ).install(deployment)
    try:
        with pytest.raises(ReproError) as err:
            xdb.submit(JOIN_QUERY)
    finally:
        injector.uninstall()
        set_retry_policy(deployment, RetryPolicy())
    ctx = err.value.context
    assert isinstance(ctx, QueryContext)
    resilience = ctx.resilience_summary()
    assert resilience.giveups >= 1
    assert resilience.retries >= resilience.giveups
    assert ctx.root.subtree_events("giveup")


def test_only_the_innermost_context_claims_an_error():
    with pytest.raises(ReproError) as err:
        with QueryContext(label="outer"):
            with QueryContext(label="inner") as inner:
                raise ReproError("boom")
    assert err.value.context is inner
    assert ReproError("fresh").context is None


# -- acceptance: TPC-H TD1 under seeded faults ---------------------------


@pytest.fixture(scope="module")
def tpch_faulty():
    from repro.bench.scenarios import build_tpch_deployment

    deployment, _ = build_tpch_deployment("TD1", 0.001)
    return deployment


def test_td1_paper_queries_identical_under_20pct_faults(tpch_faulty):
    from repro.workloads.tpch import QUERIES, query

    deployment = tpch_faulty
    xdb = XDB(deployment)
    xdb.warm_metadata()
    truth = {
        name: xdb.submit(query(name)).result.rows for name in sorted(QUERIES)
    }
    before = catalog_names(deployment)

    set_retry_policy(deployment, RetryPolicy(max_attempts=10))
    injector = FaultInjector(
        FaultPolicy(seed=42, transient_error_rate=0.2)
    ).install(deployment)
    try:
        for name in sorted(QUERIES):
            report = xdb.submit(query(name))
            assert_same_rows(report.result.rows, truth[name])
    finally:
        injector.uninstall()
        set_retry_policy(deployment, RetryPolicy())

    assert injector.injected_transients > 0
    # No short-lived object remains on any engine.
    assert catalog_names(deployment) == before


# -- degradation-aware placement -----------------------------------------


def test_dead_data_holder_yields_clear_diagnostic(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    before = catalog_names(deployment)
    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="B"),))
    ).install(deployment):
        with pytest.raises(EngineUnavailableError) as err:
            xdb.submit(JOIN_QUERY)
    message = str(err.value)
    assert "'B'" in message and "'events'" in message
    assert catalog_names(deployment) == before
    # Engine back up: the query works again.
    assert len(xdb.submit(JOIN_QUERY).result) > 0


def test_outage_constrains_candidate_set():
    """An unreachable third DBMS is excluded from A; planning succeeds."""
    # A third engine that holds no data for this query.
    deployment_c = Deployment({"A": "postgres", "B": "postgres", "C": "postgres"})
    deployment_c.load_table(
        "A",
        "users",
        Schema([Field("id", INTEGER), Field("name", varchar(16))]),
        [(i, f"u{i}") for i in range(10)],
    )
    deployment_c.load_table(
        "B",
        "events",
        Schema([Field("user_id", INTEGER), Field("kind", varchar(8))]),
        [(1 + i % 10, ["login", "query"][i % 2]) for i in range(30)],
    )
    xdb = XDB(deployment_c, prune_candidates=False)
    xdb.warm_metadata()
    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="C"),))
    ).install(deployment_c):
        report = xdb.submit(
            "SELECT u.name FROM users u, events e WHERE u.id = e.user_id"
        )
    assert len(report.result) > 0
    assert report.annotation is not None
    candidates = {
        db
        for decision in report.annotation.decisions.values()
        for db, _, _ in decision.costs
    }
    assert "C" not in candidates
    assert candidates <= {"A", "B"}


def test_slow_link_trips_timeout_budget_then_recovers(two_db_deployment):
    deployment = two_db_deployment
    set_retry_policy(
        deployment,
        RetryPolicy(max_attempts=2, call_timeout_seconds=1.0),
    )
    connector = deployment.connector("B")
    injector = FaultInjector(
        FaultPolicy(
            link_faults=(
                LinkFault(
                    src=deployment.middleware_node,
                    dst=connector.node,
                    latency_factor=1e7,
                ),
            )
        )
    ).install(deployment)
    try:
        assert not connector.is_available()
        with QueryContext() as ctx:
            with pytest.raises(ConnectorTimeoutError):
                connector.execute_sql("SELECT 1 AS x FROM events")
        giveups = ctx.root.subtree_events("giveup")
        assert [event.attributes["db"] for event in giveups] == ["B"]
    finally:
        injector.uninstall()
    assert connector.is_available()
    set_retry_policy(deployment, RetryPolicy())
    assert len(connector.execute_sql("SELECT user_id FROM events")) > 0


def test_partitioned_link_is_retryable_and_heals(two_db_deployment):
    deployment = two_db_deployment
    network = deployment.network
    connector = deployment.connector("B")
    set_retry_policy(deployment, RetryPolicy(max_attempts=2))
    network.partition_link(deployment.middleware_node, connector.node)
    try:
        assert not connector.is_available()
        with QueryContext() as ctx:
            with pytest.raises(NetworkPartitionedError):
                connector.execute_sql("SELECT user_id FROM events")
        # initial attempt + retry
        failures = [
            event
            for event in ctx.root.subtree_events()
            if event.name in ("retry", "giveup")
            and event.attributes["db"] == "B"
        ]
        assert len(failures) >= 2
    finally:
        network.heal_link(deployment.middleware_node, connector.node)
    assert connector.is_available()
    set_retry_policy(deployment, RetryPolicy())
    assert len(connector.execute_sql("SELECT user_id FROM events")) > 0


# -- shard-scoped outages (fault × partition composition) ----------------


def build_partitioned():
    from repro.core.partition import partition_name

    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "orders",
        Schema([Field("o_orderkey", INTEGER), Field("o_custkey", INTEGER)]),
        [(i, i % 7) for i in range(40)],
    )
    dep.partition_table("orders", "o_orderkey", ["A", "B"])
    dep.load_table(
        "A",
        "misc",
        Schema([Field("id", INTEGER)]),
        [(1,), (2,)],
    )
    return dep, partition_name("orders", 0)


def test_shard_outage_strikes_only_matching_calls():
    """A shard-scoped outage is a dead disk, not a dead server: calls
    whose payload references the shard fail with the shard attached;
    everything else on the engine keeps answering."""
    dep, shard = build_partitioned()
    connector = dep.connector("A")
    set_retry_policy(dep, RetryPolicy(max_attempts=1))
    injector = FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="A", table=shard),))
    ).install(dep)
    try:
        # Non-matching payloads pass straight through.
        assert len(connector.execute_sql("SELECT id FROM misc")) == 2
        with pytest.raises(EngineUnavailableError) as err:
            connector.execute_sql(f"SELECT o_orderkey FROM {shard}")
        assert err.value.table == shard
        assert err.value.db == "A"
        # Only matching calls consumed the shard counter.
        assert injector.calls_by_shard == {("A", shard): 1}
        # The engine is still available: the outage is below engine level.
        assert connector.is_available()
    finally:
        injector.uninstall()
        set_retry_policy(dep, RetryPolicy())


def test_shard_outage_composes_with_partitioned_query():
    """Composition: a partitioned gather under a shard-scoped outage
    quarantines exactly one holder and degrades to a policy-bounded
    partial answer; sibling shards keep serving."""
    from repro.qos import QoSPolicy

    dep, shard = build_partitioned()
    xdb = XDB(dep)
    xdb.warm_metadata()
    sql = "SELECT o_orderkey, o_custkey FROM orders ORDER BY o_orderkey"
    truth = {tuple(row) for row in xdb.submit(sql).result.rows}

    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db="A", table=shard),))
    ).install(dep) as injector:
        report = xdb.submit(sql, qos=QoSPolicy(completeness_floor=0.0))
    assert injector.calls_by_shard
    got = {tuple(row) for row in report.result.rows}
    assert got < truth  # a strict row-subset of the fault-free oracle
    assert report.recovery.partial
    assert report.recovery.missing_partitions == [shard]
    assert 0.0 < report.recovery.completeness < 1.0
    # Only the struck holder is quarantined; the sibling still serves.
    assert xdb.catalog.is_quarantined("A", shard)
    from repro.core.partition import partition_name

    assert not xdb.catalog.is_quarantined("B", partition_name("orders", 1))
    # The engine-level breaker never tripped for a shard fault.
    assert not dep.health.is_open("A")


def test_shard_outage_window_expires_like_engine_outage():
    dep, shard = build_partitioned()
    connector = dep.connector("A")
    set_retry_policy(dep, RetryPolicy(max_attempts=1))
    injector = FaultInjector(
        FaultPolicy(
            outages=(
                EngineOutage(
                    db="A", table=shard, after_calls=1, duration_calls=1
                ),
            )
        )
    ).install(dep)
    try:
        probe = f"SELECT o_orderkey FROM {shard}"
        assert connector.execute_sql(probe) is not None  # call 1: before
        with pytest.raises(EngineUnavailableError):
            connector.execute_sql(probe)  # call 2: inside the window
        assert connector.execute_sql(probe) is not None  # call 3: after
        assert injector.calls_by_shard == {("A", shard): 3}
    finally:
        injector.uninstall()
        set_retry_policy(dep, RetryPolicy())


# -- DeployedQuery hardening ---------------------------------------------


def test_deployed_query_without_connectors_raises_cleanly():
    deployed = DeployedQuery(
        plan=None,
        root_db="A",
        xdb_query=None,
        created_objects=[],
        ddl_log=[],
        edge_views={},
    )
    # No objects: cleanup and refresh are no-ops, not TypeErrors.
    deployed.cleanup()
    deployed.refresh_materializations()

    deployed.created_objects.append(("A", "VIEW", "xv_1_1"))
    with pytest.raises(DelegationError):
        deployed.cleanup()


def test_cleanup_is_idempotent(two_db_deployment):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    before = catalog_names(deployment)
    report = xdb.submit(JOIN_QUERY, cleanup=False)
    assert catalog_names(deployment) != before
    report.deployed.cleanup()
    assert catalog_names(deployment) == before
    report.deployed.cleanup()  # second call: no-op, no error
    assert catalog_names(deployment) == before


def test_prepared_close_twice(two_db_deployment):
    xdb = XDB(two_db_deployment)
    xdb.warm_metadata()
    prepared = xdb.prepare(JOIN_QUERY)
    prepared.close()
    prepared.close()


def test_failed_refresh_keeps_previous_snapshot(two_db_deployment):
    """A CTAS that fails mid-refresh must not leave a missing snapshot."""
    deployment = two_db_deployment
    xdb = XDB(deployment, movement_policy="explicit")
    xdb.warm_metadata()
    prepared = xdb.prepare(JOIN_QUERY)
    try:
        prepared.execute()
        assert prepared.deployed.materializations
        db, table_name, ctas = prepared.deployed.materializations[0]
        holder = deployment.database(db)
        snapshot = list(holder.catalog.get(table_name).rows)

        # Break the CTAS's input: drop the remote view behind the
        # foreign table it scans.
        foreign_name = ctas.query.from_items[0].parts[0]
        foreign = holder.catalog.get(foreign_name)
        remote_db = deployment.database(foreign.server)
        remote_db.execute(f"DROP VIEW {foreign.remote_object}")

        with pytest.raises(ReproError):
            prepared.execute()  # triggers refresh_materializations

        # The previous snapshot survives the failed rebuild.
        table = holder.catalog.get(table_name)
        assert table is not None
        assert list(table.rows) == snapshot
    finally:
        prepared.close()


# -- id()-keyed state must hold strong references ------------------------


def test_estimator_cache_pins_plan_nodes(two_db_deployment):
    database = two_db_deployment.database("A")
    from repro.relational.builder import build_plan
    from repro.sql.parser import parse_statement

    plan = build_plan(
        parse_statement("SELECT id FROM users"), database.catalog
    )
    plan = database.planner.optimize(plan)
    estimator = database.planner.make_estimator()
    rows = estimator.estimate_rows(plan)
    key = id(plan)
    del plan
    gc.collect()
    # The cache entry keeps the node alive, so its id cannot be
    # recycled and alias a stale estimate.
    node, estimate = estimator._cache[key]
    assert node is not None
    assert estimate.rows == rows
    # New nodes can never collide with a cached id.
    from repro.relational import algebra

    schema = Schema([Field("id", INTEGER)])
    for i in range(50):
        fresh = algebra.Scan(f"t{i}", f"t{i}", schema, source_db="A")
        assert id(fresh) not in estimator._cache or (
            estimator._cache[id(fresh)][0] is fresh
        )


def test_annotation_pins_plan_nodes(two_db_deployment):
    from repro.core.annotate import PlanAnnotator
    from repro.core.catalog import GlobalCatalog
    from repro.core.logical import LogicalOptimizer
    from repro.relational import algebra
    from repro.sql.parser import parse_statement

    deployment = two_db_deployment
    catalog = GlobalCatalog(deployment.connectors)
    optimizer = LogicalOptimizer(catalog)
    plan = optimizer.optimize(parse_statement(JOIN_QUERY))
    annotator = PlanAnnotator(deployment.connectors, deployment.network)
    annotation = annotator.annotate(plan)

    # Every annotated id is backed by a live node reference.
    assert set(annotation.node_db) <= set(annotation._node_refs)
    node_dbs = dict(annotation.node_db)
    del plan
    gc.collect()
    assert annotation.node_db == node_dbs
    # Fresh allocations cannot alias an annotated id.
    schema = Schema([Field("id", INTEGER)])
    for i in range(50):
        fresh = algebra.Scan(f"n{i}", f"n{i}", schema, source_db="A")
        assert id(fresh) not in annotation.node_db or (
            annotation._node_refs[id(fresh)] is fresh
        )
