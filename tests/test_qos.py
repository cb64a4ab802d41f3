"""QoS tests: deadlines, admission control, cancellation, degradation.

Covers the overload-robustness layer end to end: the deadline algebra
and its grace budget, expiry at every phase boundary with transactional
rollback (zero leaked objects — or, when the grace budget is also
exhausted, leaks *reported* in the structured error), the workload
gate's slot model on the simulated clock (waits, sheds, several
clients contending), stale reads against a snapshot oracle, and the
half-open breaker's single-probe admission.
"""

import pytest

from repro.core.client import XDB
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    DeadlineExceeded,
    OverloadError,
)
from repro.federation.deployment import Deployment
from repro.health import BreakerConfig, BreakerState, HealthRegistry
from repro.obs.context import QueryContext
from repro.qos import (
    PRIORITY_NORMAL,
    Deadline,
    GateConfig,
    QoSPolicy,
    WorkloadGate,
)
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER, varchar

from conftest import assert_same_rows

JOIN_QUERY = """
    SELECT u.name, COUNT(*) AS n
    FROM users u, events e
    WHERE u.id = e.user_id
    GROUP BY u.name
    ORDER BY u.name
"""


def build_small() -> Deployment:
    """users @ A, events @ B — the minimal cross-database join."""
    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "users",
        Schema([Field("id", INTEGER), Field("name", varchar(16))]),
        [(i, f"user{i}") for i in range(1, 11)],
    )
    dep.load_table(
        "B",
        "events",
        Schema([Field("user_id", INTEGER), Field("kind", varchar(8))]),
        [(1 + i % 10, ["login", "query"][i % 2]) for i in range(40)],
    )
    return dep


def residue(dep: Deployment):
    """Short-lived delegation objects left on any engine."""
    return sorted(
        f"{name}:{obj}"
        for name, database in dep.databases.items()
        for obj in database.catalog.names()
        if obj.startswith(("xf_", "xm_", "xv_"))
    )


# -- deadline algebra ------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_deadline_draws_down_armed_clock_and_consumed_seconds():
    clock = FakeClock()
    deadline = Deadline(10.0).arm(clock)
    assert deadline.remaining_seconds == 10.0
    clock.now = 7.0
    assert deadline.elapsed_seconds == 7.0
    assert deadline.remaining_seconds == pytest.approx(3.0)
    assert not deadline.expired
    clock.now = 10.5
    assert deadline.expired
    with pytest.raises(DeadlineExceeded) as err:
        deadline.check("execute", detail="query@A")
    assert err.value.phase == "execute"
    assert err.value.detail == "query@A"
    assert err.value.budget_seconds == 10.0
    assert err.value.elapsed_seconds == pytest.approx(10.5)


def test_deadline_rejects_negative_budget_and_ignores_negative_consume():
    with pytest.raises(ValueError):
        Deadline(-1.0)
    assert Deadline(5.0).elapsed_seconds == 0.0


def test_call_cap_is_min_of_remaining_per_call_and_policy_cap():
    clock = FakeClock()
    deadline = Deadline(10.0, per_call_cap_seconds=4.0).arm(clock)
    assert deadline.call_cap(30.0) == 4.0  # per-call cap binds
    assert deadline.call_cap(2.0) == 2.0  # policy cap binds
    clock.now = 7.0
    assert deadline.call_cap(30.0) == pytest.approx(3.0)  # remaining binds
    clock.now = 12.0
    assert deadline.call_cap(30.0) == 0.0  # never negative
    assert Deadline(10.0).call_cap(None) == 10.0


def test_grace_window_opens_bounded_cleanup_budget():
    clock = FakeClock()
    deadline = Deadline(2.0, grace_seconds=5.0).arm(clock)
    clock.now = 3.0  # a second past the deadline
    assert deadline.expired
    with deadline.grace():
        assert deadline.in_grace
        assert deadline.remaining_seconds == pytest.approx(5.0)
        clock.now = 6.0
        assert deadline.remaining_seconds == pytest.approx(2.0)
        with deadline.grace():  # nested: same anchor, no fresh budget
            assert deadline.remaining_seconds == pytest.approx(2.0)
        clock.now = 9.0
        assert deadline.expired
        err = deadline.exceeded("rollback")
        assert "grace budget" in str(err)
    assert not deadline.in_grace
    assert deadline.expired  # the original deadline is still gone


# -- the workload gate (units) ---------------------------------------------


def test_gate_admits_under_capacity_and_releases():
    gate = WorkloadGate(GateConfig(max_concurrent=2, max_queue=0))
    a = gate.acquire(["A"], at=0.0)
    b = gate.acquire(["A"], at=0.0)
    assert (a.waited_seconds, b.waited_seconds) == (0.0, 0.0)
    with pytest.raises(OverloadError):  # both slots held
        gate.acquire(["A"], at=0.0)
    a.release(1.0)
    a.release(5.0)  # idempotent: the first release stamped the slot
    c = gate.acquire(["A"], at=1.0)
    assert c.waited_seconds == 0.0
    b.release(1.0)
    c.release(1.0)
    d = gate.acquire(["A"], at=1.0)
    e = gate.acquire(["A"], at=1.0)
    assert (d.waited_seconds, e.waited_seconds) == (0.0, 0.0)
    assert (gate.admitted, gate.sheds) == (5, 1)


def test_gate_sheds_nonblocking_and_zero_queue():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=0))
    lease = gate.acquire(["A"])
    with pytest.raises(OverloadError) as err:
        gate.acquire(["A"])  # the one slot is held: shed at once
    assert err.value.db == "A"
    assert err.value.retry_after_seconds > 0.0
    lease.release(2.0)
    with pytest.raises(OverloadError):
        gate.acquire(["A"], at=1.0)  # waiting room of size 0: no wait
    assert gate.sheds == 2


def test_gate_multi_engine_acquisition_is_all_or_nothing():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=0))
    held = gate.acquire(["B"])
    with pytest.raises(OverloadError) as err:
        gate.acquire(["A", "B"])
    assert err.value.db == "B"
    # A was not reserved by the shed arrival: it is still free.
    probe = gate.acquire(["A"])
    assert probe.waited_seconds == 0.0
    probe.release(0.0)
    held.release(0.0)


def test_gate_shed_then_retry_after_succeeds():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=0))
    lease = gate.acquire(["A"], at=0.0)
    lease.release(0.2)
    with pytest.raises(OverloadError) as err:
        gate.acquire(["A"], at=0.1)
    hint = err.value.retry_after_seconds
    assert hint > 0.0
    # The backoff hint pays off: capacity is free when it runs out.
    retry = gate.acquire(["A"], at=0.1 + hint)
    assert retry.engines == ["A"]
    assert retry.waited_seconds == 0.0


def test_gate_expired_deadline_in_queue_raises_admission_phase():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=4))
    gate.acquire(["A"], at=0.0).release(5.0)
    clock = FakeClock()
    deadline = Deadline(1.0).arm(clock)
    with pytest.raises(DeadlineExceeded) as err:
        gate.acquire(["A"], deadline=deadline, at=0.0)
    assert err.value.phase == "admission"
    assert "queue@A" in err.value.detail
    # Nothing was reserved: a later arrival is admitted at the release.
    assert gate.acquire(["A"], at=0.0).waited_seconds == 5.0


def test_gate_queue_penalty_charges_simulated_seconds():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=4))
    holder = gate.acquire(["A"], at=0.0)
    holder.release(0.5)
    # Each arrival at 0 waits for every release ahead of it.
    first = gate.acquire(["A"], at=0.0)
    assert first.waited_seconds == 0.5
    first.release(0.5 + 0.75)
    second = gate.acquire(["A"], at=0.0)
    assert second.waited_seconds == pytest.approx(1.25)
    second.release(2.0)
    # A later arrival waits only for what is still ahead of it.
    assert gate.acquire(["A"], at=1.5).waited_seconds == pytest.approx(0.5)


def test_gate_equal_priority_arrival_is_shed_not_the_older_waiter():
    gate = WorkloadGate(GateConfig(max_concurrent=1, max_queue=1))
    gate.acquire(["A"], at=0.0).release(1.0)
    waiter = gate.acquire(["A"], priority=PRIORITY_NORMAL, at=0.0)
    assert waiter.waited_seconds == 1.0
    waiter.release(2.0)
    # The waiting room is full until the reservation starts at 1.0: the
    # arrival is shed and the older reservation keeps its place.
    with pytest.raises(OverloadError) as err:
        gate.acquire(["A"], priority=PRIORITY_NORMAL, at=0.5)
    assert err.value.retry_after_seconds == pytest.approx(0.5)
    assert gate.acquire(["A"], at=1.0).waited_seconds == 1.0


# -- end-to-end: deadlines through the client ------------------------------


def phase_marks(dep: Deployment, xdb: XDB):
    """Simulated-clock marks of the clean run's phase boundaries."""
    report = xdb.submit(JOIN_QUERY)
    spans = {
        span.name: span for span in report.context.root.iter_spans()
    }
    return report, spans


def cold_client(dep: Deployment) -> XDB:
    """A warmed client that has planned nothing yet: its submission
    plans on the timeline :func:`phase_marks` measured, where a repeat
    on the measuring client would reuse the plan and skip lopt / ann."""
    xdb = XDB(dep)
    xdb.warm_metadata()
    return xdb


def test_submit_with_qos_reports_receipt_and_meets_deadline():
    dep = build_small()
    xdb = XDB(dep)
    report = xdb.submit(
        JOIN_QUERY,
        qos=QoSPolicy(deadline_seconds=60.0, per_call_cap_seconds=10.0),
    )
    assert report.qos is not None
    assert report.qos.deadline_seconds == 60.0
    assert 0.0 < report.qos.deadline_remaining_seconds < 60.0
    assert report.qos.admitted_engines == ["A", "B"]
    assert not report.qos.stale_read
    assert "deadline" in report.qos.describe()
    assert residue(dep) == []


def test_deadline_zero_expires_in_prep_phase():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    with pytest.raises(DeadlineExceeded) as err:
        xdb.submit(JOIN_QUERY, qos=QoSPolicy(deadline_seconds=0.0))
    assert err.value.phase == "prep"
    assert residue(dep) == []


def test_deadline_expiry_mid_delegation_rolls_back_everything():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    _, spans = phase_marks(dep, xdb)
    delegate = spans["delegate"]
    assert delegate.sim_seconds > 0.0  # DDL control messages cost sim time
    budget = delegate.sim_start + delegate.sim_seconds / 2.0
    with pytest.raises(DeadlineExceeded) as err:
        cold_client(dep).submit(
            JOIN_QUERY, qos=QoSPolicy(deadline_seconds=budget)
        )
    exc = err.value
    assert exc.phase == "delegate"
    assert exc.rolled_back  # the partial cascade was dropped...
    assert exc.leaked == []  # ...completely: nothing left behind
    assert residue(dep) == []  # and the engines agree


def test_deadline_expiry_after_execution_cancels_and_rolls_back():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    _, spans = phase_marks(dep, xdb)
    execute = spans["execute"]
    assert execute.sim_seconds > 0.0  # the result transfer costs sim time
    budget = execute.sim_start + execute.sim_seconds / 2.0
    with pytest.raises(DeadlineExceeded) as err:
        xdb.submit(JOIN_QUERY, qos=QoSPolicy(deadline_seconds=budget))
    exc = err.value
    assert exc.phase == "execute"
    assert exc.rolled_back
    assert exc.leaked == []
    assert residue(dep) == []


def test_expiry_phases_cover_ann_delegate_execute():
    """Sweep budgets across the clean run's timeline: every expiry is a
    structured DeadlineExceeded in a real phase, and no budget —
    however unluckily placed — leaks a single object."""
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    _, spans = phase_marks(dep, xdb)
    execute = spans["execute"]
    total = execute.sim_start + execute.sim_seconds
    seen = set()
    for fraction in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        with pytest.raises(DeadlineExceeded) as err:
            cold_client(dep).submit(
                JOIN_QUERY,
                qos=QoSPolicy(deadline_seconds=total * fraction),
            )
        assert err.value.leaked == []
        assert residue(dep) == []
        seen.add(err.value.phase)
    assert seen <= {"prep", "lopt", "ann", "admission", "delegate", "execute"}
    assert {"ann", "delegate"} <= seen or {"ann", "execute"} <= seen


def test_exhausted_grace_budget_reports_leaks_not_silence():
    dep = build_small()
    xdb = XDB(dep)
    xdb.warm_metadata()
    _, spans = phase_marks(dep, xdb)
    delegate = spans["delegate"]
    budget = delegate.sim_start + delegate.sim_seconds / 2.0
    with pytest.raises(DeadlineExceeded) as err:
        xdb.submit(
            JOIN_QUERY,
            qos=QoSPolicy(deadline_seconds=budget, grace_seconds=0.0),
        )
    exc = err.value
    # With no grace budget the rollback drops all fail fast: every
    # object the cascade created must be *reported* leaked...
    assert exc.rolled_back == []
    assert exc.leaked
    # ...and the report must match what is actually left on the engines.
    left = residue(dep)
    assert len(left) == len(exc.leaked)
    for db, _kind, name in exc.leaked:
        assert f"{db}:{name}" in left
    # A later explicit cleanup (fresh budget) clears the leak.
    for db, kind, name in exc.leaked:
        from repro.sql import ast

        dep.connector(db).execute_ddl(
            ast.DropObject(kind=kind, name=name, if_exists=True)
        )
    assert residue(dep) == []


def test_submit_sheds_with_retry_after_when_gate_is_full():
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    blocker = dep.workload_gate.acquire(["A"])
    xdb = XDB(dep)
    xdb.warm_metadata()
    with pytest.raises(OverloadError) as err:
        xdb.submit(JOIN_QUERY, qos=QoSPolicy())
    assert err.value.retry_after_seconds > 0.0
    assert residue(dep) == []
    blocker.release(xdb.clock.now())
    # The shed submission retried after the hint succeeds unchanged.
    report = xdb.submit(JOIN_QUERY, qos=QoSPolicy())
    assert len(report.result.rows) == 10
    # It repeats the shed one's text, so it keeps its cascade until
    # the client closes.
    xdb.close()
    assert residue(dep) == []


def test_submit_without_qos_bypasses_nothing_but_has_no_deadline():
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    blocker = dep.workload_gate.acquire(["A"])
    xdb = XDB(dep)
    xdb.warm_metadata()
    # Admission applies to every submission, QoS policy or not.
    with pytest.raises(OverloadError):
        xdb.submit(JOIN_QUERY)
    blocker.release(xdb.clock.now())
    report = xdb.submit(JOIN_QUERY)
    assert report.qos is None


def test_two_clients_contend_on_the_simulated_clock():
    """Clients created together arrive at one simulated instant: the
    second waits exactly as long as the first holds its slots, pays
    for it from its deadline, and a third finds the waiting room full."""
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=1))
    clients = [XDB(dep, ddl_namespace=f"c{name}_") for name in "abc"]
    for xdb in clients:
        xdb.warm_metadata()
    policy = QoSPolicy(deadline_seconds=60.0)

    def admit_span(report):
        [span] = report.context.root.find_all(name="admit")
        return span

    first = clients[0].submit(JOIN_QUERY, qos=policy)
    assert first.qos.admission_wait_seconds == 0.0
    hold = first.context.root.sim_end - admit_span(first).sim_end
    assert hold > 0.0
    assert clients[0].clock.now() == pytest.approx(first.context.root.sim_end)

    second = clients[1].submit(JOIN_QUERY, qos=policy)
    assert second.qos.admission_wait_seconds == pytest.approx(hold)
    assert admit_span(second).sim_seconds == pytest.approx(hold)
    spent = [
        policy.deadline_seconds - report.qos.deadline_remaining_seconds
        for report in (first, second)
    ]
    assert spent[1] == pytest.approx(spent[0] + hold)

    with pytest.raises(OverloadError) as err:
        clients[2].submit(JOIN_QUERY, qos=policy)
    assert err.value.retry_after_seconds > 0.0
    assert [r.qos.admitted_engines for r in (first, second)] == [["A", "B"]] * 2
    assert residue(dep) == []


# -- graceful degradation: stale reads -------------------------------------


def test_stale_read_serves_snapshot_when_engines_saturated():
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    xdb = XDB(dep, movement_policy="explicit")  # force materialization
    prepared = xdb.prepare(JOIN_QUERY)
    assert prepared.deployed.materializations
    oracle = prepared.execute().result.sorted_rows()

    # A new user with new events arrives.  Only the root engine's
    # table is read live; the other side is served from the snapshot,
    # so a fresh read sees the newcomer and a stale read cannot.
    dep.database("A").execute("INSERT INTO users VALUES (11, 'user11')")
    dep.database("B").execute("INSERT INTO events VALUES (11, 'query')")
    dep.database("B").execute("INSERT INTO events VALUES (11, 'login')")

    # Saturate an engine the full plan needs but the stale path does
    # not: the root keeps one free token for the degraded execution.
    root = prepared.deployed.root_db
    other = next(db for db in ("A", "B") if db != root)
    blocker = dep.workload_gate.acquire([other], at=xdb.clock.now())

    # Without a staleness bound the execution is shed outright.
    with pytest.raises(OverloadError):
        prepared.execute(qos=QoSPolicy())

    # With one, it degrades: answered from the existing snapshots.
    report = prepared.execute(qos=QoSPolicy(max_staleness_seconds=1e6))
    assert report.qos.stale_read
    assert report.qos.staleness_seconds is not None
    assert report.qos.admitted_engines == [root]
    assert_same_rows(report.result.sorted_rows(), oracle)

    # Capacity restored: the next execution refreshes and sees the
    # newcomer that the stale read correctly omitted.
    blocker.release(xdb.clock.now())
    fresh = prepared.execute(qos=QoSPolicy(max_staleness_seconds=1e6))
    assert not fresh.qos.stale_read
    fresh_counts = dict(fresh.result.rows)
    stale_counts = dict(report.result.rows)
    assert "user11" not in stale_counts
    assert fresh_counts["user11"] == 2
    prepared.close()
    assert residue(dep) == []


def test_stale_read_respects_staleness_bound():
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    xdb = XDB(dep, movement_policy="explicit")
    prepared = xdb.prepare(JOIN_QUERY)
    prepared.execute()
    root = prepared.deployed.root_db
    other = next(db for db in ("A", "B") if db != root)
    # Age the snapshots on the federation's simulated clock.
    dep.health.clock.advance(100.0)
    blocker = dep.workload_gate.acquire([other], at=xdb.clock.now())
    # The snapshots are 100 simulated seconds old: a 10-second bound
    # refuses the degraded answer and the shed propagates.
    with pytest.raises(OverloadError):
        prepared.execute(qos=QoSPolicy(max_staleness_seconds=10.0))
    # A loose bound accepts it and reports the age served.
    report = prepared.execute(qos=QoSPolicy(max_staleness_seconds=200.0))
    assert report.qos.stale_read
    assert report.qos.staleness_seconds >= 100.0
    blocker.release(xdb.clock.now())
    prepared.close()


def test_stale_read_reports_the_staleness_it_was_served_at():
    dep = build_small()
    dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    xdb = XDB(dep, movement_policy="explicit")
    prepared = xdb.prepare(JOIN_QUERY)
    prepared.execute()
    root = prepared.deployed.root_db
    other = next(db for db in ("A", "B") if db != root)
    dep.health.clock.advance(100.0)
    blocker = dep.workload_gate.acquire([other], at=xdb.clock.now())
    bound = 101.0
    report = prepared.execute(qos=QoSPolicy(max_staleness_seconds=bound))
    [event] = report.context.root.subtree_events("stale-read")
    assert report.qos.stale_read
    # The receipt is the age the snapshots were served at, not a
    # second clock read after the run's own calls moved it on.
    assert report.qos.staleness_seconds == event.attributes["staleness_seconds"]
    assert report.qos.staleness_seconds <= bound
    assert report.qos.stale_reason == event.attributes["reason"]
    blocker.release(xdb.clock.now())
    prepared.close()


def test_stale_read_on_refresh_circuit_open(monkeypatch):
    dep = build_small()
    xdb = XDB(dep, movement_policy="explicit")
    prepared = xdb.prepare(JOIN_QUERY)
    oracle = prepared.execute().result.sorted_rows()
    dep.database("A").execute("INSERT INTO users VALUES (12, 'user12')")
    dep.database("B").execute("INSERT INTO events VALUES (12, 'query')")

    def broken_refresh():
        raise CircuitOpenError("circuit breaker is open", db="B")

    monkeypatch.setattr(
        prepared.deployed, "refresh_materializations", broken_refresh
    )
    # Without the staleness opt-in the breaker error propagates.
    with pytest.raises(CircuitOpenError):
        prepared.execute(qos=QoSPolicy())
    # With it, the existing snapshot answers.
    report = prepared.execute(qos=QoSPolicy(max_staleness_seconds=1e6))
    assert report.qos.stale_read
    assert_same_rows(report.result.sorted_rows(), oracle)
    monkeypatch.undo()
    prepared.close()


# -- the half-open probe slot ----------------------------------------------


def trip_and_cool(registry: HealthRegistry, db: str) -> None:
    registry.report_outage(db)
    registry.clock.advance(registry.config.cooldown_seconds + 1.0)


def test_half_open_admits_exactly_one_probe():
    registry = HealthRegistry(BreakerConfig(cooldown_seconds=5.0))
    trip_and_cool(registry, "A")
    assert registry.gate("A") == "probe"
    # The probe is in flight: everyone else fails fast.
    assert registry.gate("A") == "blocked"
    assert registry.gate("A") == "blocked"
    # Its outcome settles the breaker either way.
    registry.record_failure("A", "probe failed")
    assert registry.state("A") is BreakerState.OPEN
    registry.clock.advance(10.0)
    assert registry.gate("A") == "probe"
    registry.record_success("A")
    assert registry.state("A") is BreakerState.CLOSED
    assert registry.gate("A") == "closed"


def test_aborted_probe_releases_the_slot():
    registry = HealthRegistry(BreakerConfig(cooldown_seconds=5.0))
    trip_and_cool(registry, "A")
    assert registry.gate("A") == "probe"
    assert registry.gate("A") == "blocked"
    # The probe call died before reaching the engine (no outcome):
    # the slot is handed back and the next caller may probe.
    registry.finish_probe("A")
    assert registry.gate("A") == "probe"


def test_guarded_call_probe_abort_releases_slot_via_connector():
    dep = build_small()
    connector = dep.connector("A")
    dep.health.report_outage("A")
    dep.health.clock.advance(dep.health.config.cooldown_seconds + 1.0)

    class Boom(Exception):
        pass

    def exploding_call():
        raise Boom("not an engine outcome")

    # The probe call dies on a non-engine error: no outcome recorded,
    # but the probe slot must not stay stuck.
    with pytest.raises(Boom):
        connector._guarded("probe-test", exploding_call)
    assert dep.health.state("A") is BreakerState.HALF_OPEN
    assert dep.health.gate("A") == "probe"


def test_guarded_probe_success_closes_breaker():
    dep = build_small()
    dep.health.report_outage("A")
    dep.health.clock.advance(dep.health.config.cooldown_seconds + 1.0)
    tables = dep.connector("A").list_tables()
    assert "users" in tables
    assert dep.health.state("A") is BreakerState.CLOSED


# -- per-query backoff jitter ----------------------------------------------


def test_backoff_jitter_streams_are_per_query_not_per_process():
    a1 = QueryContext(label="q-alpha").backoff_rng("A")
    a2 = QueryContext(label="q-alpha").backoff_rng("A")
    b = QueryContext(label="q-beta").backoff_rng("A")
    draw_a1 = [a1.random() for _ in range(4)]
    draw_a2 = [a2.random() for _ in range(4)]
    draw_b = [b.random() for _ in range(4)]
    # Same labelled workload → identical backoff across runs…
    assert draw_a1 == draw_a2
    # …but concurrent distinct queries do not share a stream.
    assert draw_a1 != draw_b


def test_connector_uses_context_jitter_stream():
    from repro.connect.connector import RetryPolicy

    policy = RetryPolicy()
    expected_rng = QueryContext(label="jitter-test").backoff_rng("A")
    expected = policy.backoff_for(1, rng=expected_rng)
    dep = build_small()
    connector = dep.connector("A")
    calls = {"n": 0}

    def flaky():
        from repro.errors import TransientConnectorError

        calls["n"] += 1
        if calls["n"] == 1:
            raise TransientConnectorError("injected")
        return "ok"

    ctx = QueryContext(label="jitter-test")
    with ctx:
        assert connector._guarded("fetch", flaky) == "ok"
    backoff = sum(
        event.attributes["backoff_seconds"]
        for event in ctx.root.subtree_events("retry")
        if event.attributes["db"] == "A"
    )
    assert backoff == pytest.approx(expected)


# -- context plumbing ------------------------------------------------------


def test_connector_error_hierarchy_for_qos_errors():
    from repro.errors import ReproError

    assert issubclass(DeadlineExceeded, ReproError)
    assert issubclass(OverloadError, ReproError)
    assert not issubclass(DeadlineExceeded, ConnectorError)
    err = OverloadError("x", db="A", retry_after_seconds=0.5, priority=2)
    assert (err.db, err.retry_after_seconds, err.priority) == ("A", 0.5, 2)
    dead = DeadlineExceeded(
        "x", phase="delegate", rolled_back=[("A", "VIEW", "xv_1_0")]
    )
    assert dead.phase == "delegate"
    assert dead.leaked == []
