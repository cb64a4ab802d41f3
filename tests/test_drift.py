"""Schema-drift resilience: versioned catalog, drift recovery, and the
epoch-fenced orphan reaper.

The remote sources are autonomous (the paper's in-situ premise), so
their schemas move underneath the federation.  These tests pin the
whole lifecycle: fingerprint detection, re-introspection + replanning
inside the repair budget, quarantine of unreconcilable holders,
prepared-plan invalidation, and the reaper's fencing invariants.
"""

import pytest

from repro.core.client import XDB
from repro.drift import ObjectLedger, apply_drift, schema_fingerprint
from repro.drift.fingerprint import schema_diff
from repro.errors import ReproError, SchemaDriftError
from repro.faults import FaultInjector, FaultPolicy, SchemaDrift
from repro.federation.deployment import Deployment
from repro.qos import QoSPolicy
from repro.relational.schema import Field, Schema
from repro.sql.types import BIGINT, DOUBLE, INTEGER, varchar

from conftest import assert_same_rows

EVENTS_STAR = "SELECT * FROM events WHERE weight > 1"

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
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


def drifted_truth(drift: SchemaDrift, sql: str):
    """Oracle rows: a fresh client over an already-drifted deployment."""
    dep = build_small()
    apply_drift(dep.database(drift.db), drift)
    return XDB(dep).submit(sql).result.rows


# -- fingerprints and the versioned catalog ------------------------------


def test_fingerprint_tracks_names_types_and_epoch():
    schema = Schema([Field("a", INTEGER), Field("b", varchar(8))])
    base = schema_fingerprint(schema)
    assert base == schema_fingerprint(schema)  # deterministic
    renamed = Schema([Field("a", INTEGER), Field("c", varchar(8))])
    retyped = Schema([Field("a", BIGINT), Field("b", varchar(8))])
    assert schema_fingerprint(renamed) != base
    assert schema_fingerprint(retyped) != base
    assert schema_fingerprint(schema, stats_epoch=2) != base


def test_schema_diff_classifies_changes():
    old = Schema([Field("a", INTEGER), Field("b", varchar(8))])
    new = Schema([Field("a", BIGINT), Field("c", varchar(8))])
    added, removed, retyped, dropped = schema_diff(old, new)
    assert added == ["c"]
    assert removed == ["b"]
    assert retyped and retyped[0].startswith("a:")
    assert not dropped
    added, removed, retyped, dropped = schema_diff(old, None)
    assert dropped and removed == ["a", "b"]


def test_catalog_versions_and_lazy_verification():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    version = xdb.catalog.catalog_version
    assert version > 0
    assert xdb.catalog.fingerprint_of("B", "events")

    # A refresh pre-verifies everything it read: no guarded calls.
    counting = FaultInjector(FaultPolicy()).install(dep)
    try:
        xdb.catalog.verify_table("B", "events")
        assert counting.calls_by_db.get("B", 0) == 0
    finally:
        counting.uninstall()

    apply_drift(
        dep.database("B"),
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
    )
    # Cached verification stays silent; a forced one sees the drift.
    xdb.catalog.verify_table("B", "events")
    with pytest.raises(SchemaDriftError) as err:
        xdb.catalog.verify_table("B", "events", force=True)
    assert err.value.db == "B" and err.value.table == "events"
    assert "category" in err.value.added
    assert "kind" in err.value.removed
    assert not err.value.dropped

    # Refreshing bumps the version and adopts the live schema.
    xdb.catalog.refresh()
    assert xdb.catalog.catalog_version > version
    xdb.catalog.verify_table("B", "events", force=True)  # reconciled


# -- submit-path drift recovery ------------------------------------------


def test_submit_absorbs_rename_drift():
    dep = build_small()
    xdb = XDB(dep)
    xdb.submit(EVENTS_STAR)  # warm catalog + plans

    drift = SchemaDrift(
        db="B", table="events", kind="rename_column",
        column="kind", new_name="category",
    )
    apply_drift(dep.database("B"), drift)
    report = xdb.submit(EVENTS_STAR)

    assert report.recovery.drifted
    assert report.recovery.drift_events == 1
    assert ("B", "events") in report.recovery.drifted_tables
    assert "drift" in report.recovery.describe()
    assert [f.name for f in report.result.schema] == [
        "user_id", "category", "weight",
    ]
    assert_same_rows(report.result.rows, drifted_truth(drift, EVENTS_STAR))
    # Recovery reconciled the catalog: nothing left to absorb.
    clean = xdb.submit(EVENTS_STAR)
    assert not clean.recovery.drifted


def test_submit_absorbs_drop_column_drift():
    dep = build_small()
    xdb = XDB(dep)
    baseline = xdb.submit(EVENTS_STAR)
    assert len(baseline.result.schema) == 3

    drift = SchemaDrift(
        db="B", table="events", kind="drop_column", column="kind"
    )
    apply_drift(dep.database("B"), drift)
    report = xdb.submit(EVENTS_STAR)

    assert report.recovery.drifted
    assert [f.name for f in report.result.schema] == ["user_id", "weight"]
    assert_same_rows(report.result.rows, drifted_truth(drift, EVENTS_STAR))


def test_mid_delegation_drift_is_absorbed():
    """Drift landing between the cascade's guarded calls still recovers."""
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    truth = drifted_truth(
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
        EVENTS_STAR,
    )
    # Land the drift right before the exec-phase calls on B: measure a
    # fault-free run's guarded-call schedule, then subtract the calls
    # the execution itself makes (DDL statements + the root query).
    counting = FaultInjector(FaultPolicy()).install(dep)
    try:
        probe = xdb.submit(EVENTS_STAR, cleanup=False)
    finally:
        counting.uninstall()
    total = counting.calls_by_db.get("B", 0)
    exec_calls = sum(1 for db, _ in probe.deployed.ddl_log if db == "B")
    if probe.deployed.root_db == "B":
        exec_calls += 1  # the root also serves the final XDB query
    assert exec_calls >= 1
    strike = total - exec_calls

    injector = FaultInjector(
        FaultPolicy(
            drifts=(
                SchemaDrift(
                    db="B", table="events", kind="rename_column",
                    column="kind", new_name="category",
                    after_calls=strike,
                ),
            )
        )
    ).install(dep)
    try:
        report = xdb.submit(EVENTS_STAR)
    finally:
        injector.uninstall()
    assert report.recovery.drifted
    assert_same_rows(report.result.rows, truth)


def test_drift_budget_exhaustion_propagates():
    dep = build_small()
    xdb = XDB(dep, repair_budget=0)
    xdb.submit(EVENTS_STAR)
    apply_drift(
        dep.database("B"),
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
    )
    with pytest.raises(ReproError):
        xdb.submit(EVENTS_STAR)


def test_dropped_table_is_unreconcilable():
    dep = build_small()
    xdb = XDB(dep)
    xdb.submit(EVENTS_STAR)
    apply_drift(
        dep.database("B"),
        SchemaDrift(db="B", table="events", kind="drop_table"),
    )
    with pytest.raises(SchemaDriftError) as exc_info:
        xdb.submit(EVENTS_STAR)
    assert exc_info.value.dropped
    assert exc_info.value.quarantined
    assert exc_info.value.diff_summary() == "table dropped"


def test_drift_events_land_on_the_span_tree():
    dep = build_small()
    xdb = XDB(dep)
    xdb.submit(EVENTS_STAR)
    apply_drift(
        dep.database("B"),
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
    )
    report = xdb.submit(EVENTS_STAR)
    events = report.context.tracer.root.subtree_events("schema-drift")
    assert events and events[0].attributes["table"] == "events"


# -- replicas and quarantine ---------------------------------------------


def test_replica_drift_quarantines_and_reroutes():
    dep = build_small(replicate=True)
    xdb = XDB(dep)
    first = xdb.submit(JOIN_QUERY)
    truth = first.result.rows
    victim = first.recovery.placement["events"]
    survivor = "A" if victim == "B" else "B"

    # The chosen replica loses the very column the query needs; the
    # other replica still carries it.
    apply_drift(
        dep.database(victim),
        SchemaDrift(
            db=victim, table="events", kind="drop_column", column="kind"
        ),
    )
    report = xdb.submit(JOIN_QUERY)
    assert report.recovery.drifted
    assert (victim, "events") in report.recovery.quarantined
    assert xdb.catalog.is_quarantined(victim, "events")
    assert report.recovery.placement["events"] == survivor
    assert_same_rows(report.result.rows, truth)

    # A refresh re-admits the (still drifted) holder.
    xdb.catalog.refresh()
    assert not xdb.catalog.is_quarantined(victim, "events")


# -- the object ledger and the epoch-fenced reaper -----------------------


def orphan_on(dep, db: str, name: str) -> None:
    """Plant an engine-held object shaped like a delegated leftover."""
    dep.database(db).create_table(
        name, Schema([Field("x", INTEGER)]), [(1,)]
    )


def engine_holds(dep, db: str, name: str) -> bool:
    held = dep.connector(db).list_objects(("xf_", "xm_", "xv_"))
    return name.lower() in {obj.lower() for _, obj in held}


def test_reaper_drops_closed_epochs_and_fences_live_ones():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()

    # A prepared query's cascade belongs to a live epoch.
    prepared = xdb.prepare(JOIN_QUERY)
    live_objects = [
        (db, name)
        for db, _kind, name in prepared.deployed.created_objects
    ]
    assert live_objects
    assert xdb.ledger.live_epochs()

    # A leftover from a closed (crashed) epoch sits next to them.
    orphan_on(dep, "B", "xm_999_zombie")
    report = xdb.reap()
    assert ("B", "TABLE", "xm_999_zombie") in report.dropped
    assert not engine_holds(dep, "B", "xm_999_zombie")
    for db, name in live_objects:
        assert engine_holds(dep, db, name)  # fencing: live epoch kept
    assert report.kept_live

    # The live deployment still works, then retires cleanly.
    assert len(prepared.execute().result) > 0
    prepared.close()
    assert xdb.reap().orphans_dropped == 0
    for db, name in live_objects:
        assert not engine_holds(dep, db, name)


def test_reaper_ignores_foreign_namespaces():
    dep = build_small()
    mine = XDB(dep, ddl_namespace="mine")
    mine.warm_metadata()
    orphan_on(dep, "B", "xm_other7_tmp")  # another client's leftover
    report = mine.reap()
    assert report.dropped == []
    assert engine_holds(dep, "B", "xm_other7_tmp")


def test_breaker_recovery_schedules_deferred_sweep():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    orphan_on(dep, "B", "xm_41_leftover")

    dep.health.report_outage("B")
    assert xdb.reaper.pending() == set()
    dep.health.record_success("B")  # half-open probe succeeds
    assert xdb.reaper.pending() == {"B"}

    # The next submission performs the sweep, outside the query path.
    xdb.submit("SELECT name FROM users WHERE id < 5")
    assert xdb.reaper.pending() == set()
    assert not engine_holds(dep, "B", "xm_41_leftover")


def test_prepared_execution_performs_the_deferred_sweep():
    """A session that only re-executes handles still collects a
    recovered engine's orphans: the sweep is the pipeline's, not
    ``submit``'s."""
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    with xdb.prepare(JOIN_QUERY) as prepared:
        prepared.execute()
        orphan_on(dep, "B", "xm_41_leftover")
        dep.health.report_outage("B")
        dep.health.record_success("B")  # half-open probe succeeds
        assert xdb.reaper.pending() == {"B"}

        prepared.execute()
        assert xdb.reaper.pending() == set()
        assert not engine_holds(dep, "B", "xm_41_leftover")


def test_leaked_objects_surface_and_reconcile():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    # The ledger remembers a leak whose object was cleaned out of band.
    xdb.ledger.record("B", "TABLE", "xm_12_gone", epoch=12)
    xdb.ledger.mark_leaked("B", "xm_12_gone")

    report = xdb.submit("SELECT name FROM users WHERE id < 5")
    assert report.resilience.leaked_objects == 1
    assert "leaked" in report.resilience.describe()

    reap = xdb.reap()
    assert ("B", "TABLE", "xm_12_gone") in reap.reconciled
    assert xdb.ledger.leaked_count() == 0
    clean = xdb.submit("SELECT name FROM users WHERE id < 5")
    assert clean.resilience.leaked_objects == 0


def test_ledger_persists_and_fences_across_restart(tmp_path):
    path = str(tmp_path / "ledger.json")
    dep = build_small()

    first = XDB(dep, ledger_path=path)
    first.warm_metadata()
    prepared = first.prepare(JOIN_QUERY)  # live epoch with real objects
    live_epoch = prepared.deployed.epoch
    first.ledger.record("B", "TABLE", "xm_3_crashed", epoch=3)
    first.ledger.mark_leaked("B", "xm_3_crashed")
    orphan_on(dep, "B", "xm_3_crashed")

    # A restarted client reads the same ledger: the leak is still owed,
    # the prepared epoch is still fenced, and new delegations number
    # themselves above everything the predecessor ever created.
    reborn = XDB(dep, ledger_path=path)
    reborn.warm_metadata()
    assert reborn.ledger.leaked_count() == 1
    assert reborn.ledger.is_live(live_epoch)
    report = reborn.reap()
    assert ("B", "TABLE", "xm_3_crashed") in report.dropped
    assert report.kept_live  # the first client's prepared cascade
    assert len(prepared.execute().result) > 0
    assert reborn.submit(EVENTS_STAR).deployed.epoch > live_epoch
    prepared.close()


def test_ledger_forgets_settled_entries_but_not_its_high_water(tmp_path):
    path = str(tmp_path / "ledger.json")
    ledger = ObjectLedger(path=path)
    # a cascade that cleans up: close first, then each DROP lands
    ledger.open_epoch(1)
    ledger.record("A", "VIEW", "xv_1_1", 1)
    ledger.record("B", "TABLE", "xm_1_2", 1)
    ledger.close_epoch(1)
    ledger.mark_dropped("A", "xv_1_1")
    ledger.mark_leaked("B", "xm_1_2")
    assert [e.name for e in ledger.entries()] == ["xm_1_2"]
    assert ledger.leaked_count() == 1
    # a rolled-back cascade: marks land first, then the epoch closes
    ledger.open_epoch(2)
    ledger.record("A", "VIEW", "xv_2_1", 2)
    ledger.mark_dropped("A", "xv_2_1")
    assert ledger.entry_for("A", "xv_2_1") is not None  # epoch still live
    ledger.close_epoch(2)
    assert ledger.entry_for("A", "xv_2_1") is None
    # paying the leak down forgets it too; the high-water mark stays
    ledger.mark_dropped("B", "xm_1_2")
    assert ledger.entries() == [] and ledger.leaked_count() == 0
    assert ledger.max_epoch() == 2
    assert ObjectLedger(path=path).max_epoch() == 2


# -- prepared queries under drift ----------------------------------------


def test_prepared_query_replans_after_drift():
    dep = build_small()
    xdb = XDB(dep)
    prepared = xdb.prepare(EVENTS_STAR)
    prepared.execute()

    drift = SchemaDrift(
        db="B", table="events", kind="rename_column",
        column="kind", new_name="category",
    )
    apply_drift(dep.database("B"), drift)
    truth = drifted_truth(drift, EVENTS_STAR)

    report = prepared.execute()
    assert report.recovery is not None and report.recovery.drifted
    assert not prepared.stale_plan
    assert_same_rows(report.result.rows, truth)
    # Subsequent executions run on the adopted plan, drift-free.
    again = prepared.execute()
    assert again.recovery is None or not again.recovery.drifted
    assert_same_rows(again.result.rows, truth)
    prepared.close()


def test_submit_recovery_invalidates_prepared_plans():
    dep = build_small()
    xdb = XDB(dep)
    prepared = xdb.prepare(EVENTS_STAR)
    prepared.execute()
    apply_drift(
        dep.database("B"),
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
    )
    xdb.submit(EVENTS_STAR)  # absorbs the drift, bumps the catalog
    assert prepared.stale_plan  # invalidated by the recovery path
    report = prepared.execute()
    assert not prepared.stale_plan
    assert [f.name for f in report.result.schema] == [
        "user_id", "category", "weight",
    ]
    prepared.close()


def test_prepared_query_degrades_to_snapshot_on_drift():
    dep = build_small()
    # Explicit data movement materializes the moved relation, giving
    # the prepared query a snapshot to degrade onto.
    xdb = XDB(dep, movement_policy="explicit")
    prepared = xdb.prepare(JOIN_QUERY)
    baseline = prepared.execute()
    assert prepared.deployed.materializations

    apply_drift(
        dep.database("B"),
        SchemaDrift(
            db="B", table="events", kind="rename_column",
            column="kind", new_name="category",
        ),
    )
    xdb.submit("SELECT * FROM events WHERE weight > 1")  # marks it stale
    assert prepared.stale_plan

    report = prepared.execute(
        qos=QoSPolicy(max_staleness_seconds=1e9)
    )
    assert report.qos is not None and report.qos.stale_read
    assert report.qos.stale_reason == "drift"
    assert_same_rows(report.result.rows, baseline.result.rows)
    prepared.close()
