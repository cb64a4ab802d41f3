"""One execute path, one recovery routine.

``XDB.submit`` and ``PreparedQuery.execute`` are the same pipeline
entered at different stages, so they must report the same numbers for
the same work, and every row of the recovery table
(:data:`repro.core.pipeline.RECOVERY`) must behave the same on both:
land in its scope, spend its budget, re-enter at its stage.
"""

import contextlib
import importlib
import importlib.util
import pathlib

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.core.partition import partition_name
from repro.core.pipeline import BRANCH_REPAIR_BUDGET, RECOVERY
from repro.drift import apply_drift
from repro.errors import CircuitOpenError, OverloadError
from repro.faults import EngineOutage, FaultInjector, FaultPolicy, SchemaDrift
from repro.federation.deployment import Deployment
from repro.feedback.store import FeedbackStore
from repro.qos import GateConfig, QoSPolicy
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER, varchar
from repro.workloads.tpch import query

from conftest import assert_same_rows
from test_branch_recovery import AGG_SQL, build_sharded
from test_drift import EVENTS_STAR, JOIN_QUERY, build_small

TPCH = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")


def steps(span):
    """Names of the step spans in a phase span's subtree."""
    return [s.name for s in span.iter_spans() if s.kind == "step"]


def exec_span(report):
    (span,) = [
        s for s in report.context.root.iter_spans() if s.name == "exec"
    ]
    return span


def exec_steps(report):
    return steps(exec_span(report))


# -- (i) parity: the two entry points agree -------------------------------


@pytest.fixture(scope="module")
def td1():
    deployment, _ = build_tpch_deployment("TD1", 0.002)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    return xdb


@pytest.mark.parametrize("name", TPCH)
def test_first_prepared_execution_agrees_with_submit(td1, name):
    """Same rows, schedule, observations and admission; the exec phase
    and the bytes moved differ by exactly the delegation's control
    traffic, which a prepared query pays once, in ``prepare``."""
    policy = QoSPolicy()
    submitted = td1.submit(query(name), qos=policy)
    with td1.prepare(query(name)) as handle:
        first = handle.execute(qos=policy)
        second = handle.execute()
    assert_same_rows(first.result.rows, submitted.result.rows)
    assert first.schedule.total_seconds == submitted.schedule.total_seconds
    assert first.feedback == submitted.feedback
    assert first.qos.admitted_engines == submitted.qos.admitted_engines
    assert first.recovery is not None and not first.recovery.touched
    assert first.consultations == 0 and first.annotation is None
    assert first.phases["prep"] == first.phases["lopt"] == 0.0

    def delegation(report):
        return [
            record
            for record in exec_span(report).subtree_records()
            if record.tag == "delegation"
        ]

    assert delegation(submitted) and not delegation(first)
    assert first.transfers.total_bytes == (
        submitted.transfers.total_bytes
        - sum(record.payload_bytes for record in delegation(submitted))
    )
    assert first.phases["exec"] == pytest.approx(
        submitted.phases["exec"]
        - sum(record.seconds for record in delegation(submitted))
    )
    # The second execution re-enters at ``execute``: it refreshes the
    # handle's materializations and delegates nothing.
    assert exec_steps(first) == ["admit", "execute", "schedule"]
    assert exec_steps(second) == ["admit", "refresh", "execute", "schedule"]
    assert second.phases["exec"] == pytest.approx(first.phases["exec"])
    # No consultation rides in a prepared exec span, so charging it the
    # same control tags as a submission changes no number.
    assert not [
        record
        for report in (first, second)
        for record in exec_span(report).subtree_records()
        if record.tag in ("consult", "probe")
    ]


def test_second_execution_refreshes_exactly_the_materializations():
    dep = build_small()
    xdb = XDB(dep, movement_policy="explicit")  # force materialization
    calls = []
    with xdb.prepare(JOIN_QUERY) as handle:
        cascade = handle.deployed
        assert cascade.materializations
        refresh = cascade.refresh_materializations
        cascade.refresh_materializations = lambda: (
            calls.append(1),
            refresh(),
        )
        handle.execute()
        assert calls == []  # the first run reads the CTAS snapshots
        report = handle.execute()
        assert calls == [1]
        assert handle.deployed is cascade
    assert "delegate" not in exec_steps(report)


# -- (ii) the recovery table, row by row, on both entry points ------------


def three_db() -> Deployment:
    """users @ A, events @ B, kinds @ C replicated on D: an explicit
    plan materializes users on B before it touches kinds' holder."""
    dep = Deployment({name: "postgres" for name in "ABCD"})
    dep.load_table(
        "A",
        "users",
        Schema([Field("id", INTEGER), Field("name", varchar(16))]),
        [(i, f"user{i}") for i in range(1, 21)],
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
    dep.load_table(
        "C",
        "kinds",
        Schema([Field("kind", varchar(8)), Field("cost", INTEGER)]),
        [("login", 1), ("query", 2), ("logout", 3)],
    )
    dep.replicate_table("kinds", "D", from_db="C")
    return dep


THREE_WAY = """
    SELECT u.name, SUM(e.weight * k.cost) AS total
    FROM users u, events e, kinds k
    WHERE u.id = e.user_id AND e.kind = k.kind
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""


class Scenario:
    """One failure class: a deployment, a query, and how to strike."""

    sql = JOIN_QUERY
    xdb_options = {}
    qos = None
    #: the class only strikes while a cascade is being delegated, so a
    #: prepared handle has to replan inside the faulted execution
    strikes_delegation = False
    #: call-scope remedies need a retained cascade to fall back on
    entries = ("submit", "prepared")

    def build(self) -> Deployment:
        return build_small()

    def strike(self, dep, xdb, handle):
        return contextlib.nullcontext()


class Overload(Scenario):
    xdb_options = {"movement_policy": "explicit"}
    qos = QoSPolicy(max_staleness_seconds=1e6)
    entries = ("prepared",)

    def build(self):
        dep = build_small()
        dep.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
        return dep

    @contextlib.contextmanager
    def strike(self, dep, xdb, handle):
        other = next(db for db in "AB" if db != handle.deployed.root_db)
        blocker = dep.workload_gate.acquire([other])
        try:
            yield
        finally:
            blocker.release()


class BreakerOpen(Scenario):
    xdb_options = {"movement_policy": "explicit"}
    qos = QoSPolicy(max_staleness_seconds=1e6)
    entries = ("prepared",)

    @contextlib.contextmanager
    def strike(self, dep, xdb, handle):
        def broken_refresh():
            raise CircuitOpenError("circuit breaker is open", db="B")

        handle.deployed.refresh_materializations = broken_refresh
        yield


class ShardOutage(Scenario):
    sql = AGG_SQL
    xdb_options = {"movement_policy": "explicit"}
    # only DDL names the shard; a deployed cascade reads it through views
    strikes_delegation = True

    def build(self):
        return build_sharded(replicate_shard=3, replica_db="p1")

    def strike(self, dep, xdb, handle):
        shard = partition_name("orders", 3)
        primary = xdb.plan_query(self.sql)
        holder = next(
            task.annotation
            for task in primary.tasks.values()
            for scan in task.expr.leaves()
            if scan.table == shard
        )
        return FaultInjector(
            FaultPolicy(outages=(EngineOutage(db=holder, table=shard),))
        ).install(dep)


class BranchOutage(Scenario):
    sql = THREE_WAY
    xdb_options = {"movement_policy": "explicit"}
    strikes_delegation = True

    def build(self):
        return three_db()

    def strike(self, dep, xdb, handle):
        # The first exec-phase call on kinds' holder (its view) passes;
        # the CTAS fetching through it fails — after the users snapshot
        # on the healthy root completed.
        return FaultInjector(
            FaultPolicy(outages=(EngineOutage(db="C", after_calls=1),))
        ).install(dep)


class SchemaDrifted(Scenario):
    sql = EVENTS_STAR

    @contextlib.contextmanager
    def strike(self, dep, xdb, handle):
        apply_drift(
            dep.database("B"),
            SchemaDrift(
                db="B", table="events", kind="rename_column",
                column="kind", new_name="category",
            ),
        )
        yield


class BlownEstimate(Scenario):
    xdb_options = {"movement_policy": "explicit", "adaptivity_threshold": 2.0}
    strikes_delegation = True

    @contextlib.contextmanager
    def strike(self, dep, xdb, handle):
        xdb.catalog.override_stats("B", "events", 1)
        if handle is not None:
            handle.invalidate()  # replan on the overridden statistics
        yield


class EngineDown(Scenario):
    sql = "SELECT e.kind, SUM(e.weight) AS total FROM events e GROUP BY e.kind"

    def build(self):
        return build_small(replicate=True)

    def strike(self, dep, xdb, handle):
        victim = xdb.plan_query(self.sql).root.annotation
        # A submission's annotator probes availability up front, so its
        # window opens one call later, mid-delegation.
        window = EngineOutage(db=victim, after_calls=int(handle is None))
        return FaultInjector(FaultPolicy(outages=(window,))).install(dep)


SCENARIOS = {
    "overload": Overload,
    "breaker-open": BreakerOpen,
    "shard-outage": ShardOutage,
    "branch-outage": BranchOutage,
    "schema-drift": SchemaDrifted,
    "blown-estimate": BlownEstimate,
    "engine-outage": EngineDown,
}

#: how each scope shows in the report
SCOPE_COUNTER = {
    "call": lambda report: int(report.qos.stale_read),
    "branch": lambda report: report.recovery.branch_repairs,
    "stage": lambda report: (
        report.recovery.drift_events + report.recovery.adaptations
    ),
    "query": lambda report: report.recovery.repair_attempts,
}


def test_every_failure_class_has_a_scenario():
    assert set(SCENARIOS) == set(RECOVERY)


@pytest.mark.parametrize("entry", ["submit", "prepared"])
@pytest.mark.parametrize("cls", sorted(RECOVERY))
def test_recovery_table_row(cls, entry):
    remedy, scenario = RECOVERY[cls], SCENARIOS[cls]()
    if entry not in scenario.entries:
        pytest.skip(f"a {remedy.scope}-scope remedy needs a retained cascade")
    dep = scenario.build()
    xdb = XDB(dep, feedback=FeedbackStore(), **scenario.xdb_options)
    xdb.warm_metadata()
    armed = {"budget": 2, "branch_budget": BRANCH_REPAIR_BUDGET,
             "adapt_budget": 1}

    handle = None
    if entry == "prepared":
        handle = xdb.prepare(scenario.sql)
        if scenario.strikes_delegation:
            handle.invalidate()
        else:
            handle.execute()
        state = handle.state
        run = lambda: handle.execute(qos=scenario.qos)  # noqa: E731
    else:
        state = xdb.pipeline.new_state(scenario.sql, budget=2)
        run = lambda: xdb._run(state, scenario.qos, cleanup=True)  # noqa: E731
    with scenario.strike(dep, xdb, handle):
        report = run()
    if handle is not None:
        handle.close()

    # lands in the stated scope — and in no other
    acted = {
        scope: counter(report)
        for scope, counter in SCOPE_COUNTER.items()
        if scope != "call" or report.qos is not None
    }
    assert acted.pop(remedy.scope) == 1
    assert not any(acted.values()), acted
    # spends the stated budget — and no other
    spent = {name: value - getattr(state, name) for name, value in armed.items()}
    assert spent == {
        name: int(name == remedy.budget) for name in armed
    }
    # re-enters at the stated stage — and no earlier
    reentered = exec_steps(report)
    if remedy.reentry == "execute":
        assert report.qos.stale_reason == cls
        assert not {"optimize", "annotate", "delegate"} & set(reentered)
    else:
        assert remedy.reentry in reentered and "delegate" in reentered
        replanned = handle is not None and scenario.strikes_delegation
        if remedy.reentry == "annotate" and not replanned:
            assert "optimize" not in reentered


def test_call_scope_needs_a_retained_cascade():
    """A submission has no snapshots to fall back on: the shed
    propagates even under a staleness policy."""
    dep = Overload().build()
    xdb = XDB(dep)
    xdb.warm_metadata()
    blocker = dep.workload_gate.acquire(["B"])
    try:
        with pytest.raises(OverloadError):
            xdb.submit(JOIN_QUERY, qos=Overload.qos)
    finally:
        blocker.release()


# -- (iii) the perf benchmark's patch points still resolve ----------------


def test_benchmark_boundaries_resolve():
    """``benchmarks/perf/spans.py`` replaces these attributes by name
    for a traced round; a control-plane refactor that drops one must
    fail here, not in ``run.py --trace 1``."""
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "perf" / "spans.py"
    )
    spec = importlib.util.spec_from_file_location("perf_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, module_name, class_name, attribute in spans.BOUNDARIES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert attribute in owner.__dict__, (layer, module_name, attribute)
        assert callable(getattr(owner, attribute))
