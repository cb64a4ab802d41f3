"""The observability spine: tracer/metrics units, span-tree invariants
over real submissions, context-scoped counter isolation, and the
Chrome trace / EXPLAIN ANALYZE exports."""

import pytest

from repro.connect.connector import RetryPolicy
from repro.core.client import XDB
from repro.faults import FaultInjector, FaultPolicy
from repro.obs.context import (
    CONTROL_TAGS,
    QueryContext,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_context
from repro.obs.tracer import Tracer
from repro.workloads.tpch import query

from conftest import assert_same_rows

JOIN_QUERY = """
    SELECT u.name, SUM(e.weight) AS total
    FROM users u, events e
    WHERE u.id = e.user_id AND e.kind = 'login'
    GROUP BY u.name
    ORDER BY total DESC, u.name
"""


def set_retry_policy(deployment, policy):
    for connector in deployment.connectors.values():
        connector.retry_policy = policy


# -- unit: metrics registry ----------------------------------------------


def test_metrics_counters_and_labels():
    metrics = MetricsRegistry()
    metrics.inc("connector.retries", db="A")
    metrics.inc("connector.retries", 2, db="A")
    metrics.inc("connector.retries", db="B")
    assert metrics.value("connector.retries", db="A") == 3
    assert metrics.value("connector.retries", db="B") == 1
    assert metrics.value("connector.retries", db="missing") == 0
    assert set(metrics.label_values("connector.retries", "db")) == {"A", "B"}


def test_metrics_reject_negative_increment():
    metrics = MetricsRegistry()
    with pytest.raises(ValueError):
        metrics.inc("net.bytes", -1)


def test_metrics_histogram_and_gauge():
    metrics = MetricsRegistry()
    metrics.set_gauge("queue.depth", 4)
    assert metrics.gauge("queue.depth") == 4
    for value in (1.0, 3.0, 2.0):
        metrics.observe("latency", value)
    hist = metrics.histogram("latency")
    assert hist.count == 3
    assert hist.minimum == 1.0 and hist.maximum == 3.0
    assert hist.mean == pytest.approx(2.0)


# -- unit: tracer --------------------------------------------------------


def test_tracer_nesting_and_sim_clock():
    tracer = Tracer(root_name="t")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            tracer.advance(1.5)
        tracer.advance(0.5)
    root = tracer.finish()
    assert outer.parent is root
    assert inner.parent is outer
    assert inner.sim_seconds == pytest.approx(1.5)
    assert outer.sim_seconds == pytest.approx(2.0)
    assert root.sim_seconds == pytest.approx(2.0)
    # Wall intervals nest too.
    assert outer.wall_start <= inner.wall_start <= inner.wall_end
    assert inner.wall_end <= outer.wall_end


def test_tracer_rejects_out_of_order_end():
    tracer = Tracer()
    a = tracer.start_span("a")
    tracer.start_span("b")
    with pytest.raises(RuntimeError):
        tracer.end_span(a)


def test_tracer_error_status_and_events():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom") as span:
            tracer.add_event("checkpoint", step=1)
            raise ValueError("x")
    assert span.status == "error"
    assert [e.name for e in span.events] == ["checkpoint"]
    assert tracer.current is tracer.root  # stack unwound


def test_iter_spans_matches_a_recursive_preorder_walk():
    tracer = Tracer(root_name="root")
    parent = tracer.root
    for depth in range(200):  # a deep spine, each level with siblings
        spine = tracer.record_span(f"d{depth}", parent=parent)
        for leaf in range(3):
            tracer.record_span(f"d{depth}.{leaf}", parent=parent)
        parent = spine
    for wide in range(500):  # and a wide fan-out under the root
        tracer.record_span(f"w{wide}", parent=tracer.root)

    def recursive(span):
        yield span
        for child in span.children:
            yield from recursive(child)

    walked = list(tracer.root.iter_spans())
    assert len(walked) == 1 + 200 * 4 + 500
    assert [s.span_id for s in walked] == [
        s.span_id for s in recursive(tracer.root)
    ]
    inner = tracer.root.children[0]
    assert list(inner.iter_spans()) == list(recursive(inner))
    # deeper than the interpreter's recursion limit
    tail = parent
    for depth in range(3000):
        tail = tracer.record_span(f"deep{depth}", parent=tail)
    assert tracer.root.find("deep2999") is tail


def test_context_activation_is_scoped():
    assert current_context() is None
    with QueryContext() as ctx:
        assert current_context() is ctx
        with QueryContext() as inner:
            assert current_context() is inner
        assert current_context() is ctx
    assert current_context() is None


# -- span-tree invariants over a real submission -------------------------


@pytest.fixture
def joined_report(two_db_deployment):
    xdb = XDB(two_db_deployment)
    return xdb.submit(JOIN_QUERY)


def test_phases_nest_under_root_without_overlap(joined_report):
    ctx = joined_report.context
    phases = [s for s in ctx.root.children if s.kind == "phase"]
    assert [s.name for s in phases] == ["prep", "lopt", "ann", "exec"]
    for span in phases:
        assert span.parent is ctx.root
        assert span.finished
    for prev, nxt in zip(phases, phases[1:]):
        assert prev.wall_end <= nxt.wall_start
        assert prev.sim_end <= nxt.sim_start


def test_phase_times_are_span_views(joined_report):
    ctx = joined_report.context
    for name in ("prep", "lopt", "ann"):
        span = ctx.root.find(name)
        assert joined_report.phases[name] == pytest.approx(
            ctx.phase_seconds(span)
        )
    exec_span = ctx.root.find("exec")
    assert joined_report.phases["exec"] == pytest.approx(
        joined_report.schedule.total_seconds
        + ctx.control_seconds(exec_span)
        + ctx.backoff_in(exec_span)
    )


def test_every_transfer_attributed_to_exactly_one_span(joined_report):
    ctx = joined_report.context
    attributed = [
        id(record)
        for span in ctx.root.iter_spans()
        for record in span.records
    ]
    assert sorted(attributed) == sorted(id(r) for r in ctx.transfers)
    # And the context saw exactly the records the network logged while
    # it was active (the whole submission, including cleanup drops).
    assert len(ctx.transfers) > 0


def test_every_ddl_statement_becomes_a_span_event(joined_report):
    ctx = joined_report.context
    exec_span = ctx.root.find("exec")
    ddl_events = exec_span.subtree_events("ddl")
    logged = [
        (event.attributes["db"], event.attributes["sql"])
        for event in ddl_events
    ]
    assert logged == joined_report.deployed.ddl_log
    assert len(logged) > 0


def test_engine_calls_become_call_spans(joined_report):
    ctx = joined_report.context
    call_spans = ctx.root.find_all(kind="call")
    assert call_spans, "connector calls must open spans"
    for span in call_spans:
        assert span.attributes["db"]
        assert span.attributes["op"]
    # Every DDL statement ran inside some ddl call span.
    ddl_calls = [s for s in call_spans if s.attributes["op"] == "ddl"]
    assert len(ddl_calls) >= len(joined_report.deployed.ddl_log)


def test_operator_trees_become_operator_spans(joined_report):
    ctx = joined_report.context
    operators = ctx.root.find_all(kind="operator")
    assert operators
    labels = {span.name for span in operators}
    assert any(label.startswith("SeqScan") for label in labels)
    for span in operators:
        assert span.attributes["rows_out"] >= 0


def test_transfer_summary_matches_report(joined_report):
    ctx = joined_report.context
    exec_span = ctx.root.find("exec")
    assert ctx.transfer_summary(exec_span) == joined_report.transfers


def test_schedule_spans_agree_with_schedule_result(tpch_tiny):
    deployment, _ = tpch_tiny
    xdb = XDB(deployment)
    report = xdb.submit(query("Q5"))
    ctx = report.context
    sim_parent = ctx.root.find("schedule-sim")
    assert sim_parent is not None
    assert sim_parent.sim_seconds == pytest.approx(
        report.schedule.total_seconds
    )
    task_spans = {
        span.attributes["task_id"]: span
        for span in sim_parent.children
        if span.kind == "task" and "task_id" in span.attributes
    }
    assert set(task_spans) == set(report.schedule.tasks)
    for task_id, timing in report.schedule.tasks.items():
        span = task_spans[task_id]
        assert span.timebase == "schedule"
        assert span.sim_start == pytest.approx(timing.start)
        assert span.sim_end == pytest.approx(timing.finish)
        assert span.attributes["db"] == timing.db


# -- counter isolation (the leak the context fixes) ----------------------


def test_prepared_query_reports_are_identical_across_executions(
    two_db_deployment,
):
    xdb = XDB(two_db_deployment)
    with xdb.prepare(JOIN_QUERY) as prepared:
        # Discard the first run: it alone skips re-materialization.
        first = prepared.execute()
        second = prepared.execute()
        third = prepared.execute()
    assert_same_rows(second.result.rows, first.result.rows)
    assert second.phases == third.phases
    assert second.transfers == third.transfers
    assert (
        second.resilience.by_connector == third.resilience.by_connector
    )
    assert second.context is not third.context
    # Wall-clock seconds jitter run to run; everything simulated or
    # counted must reproduce exactly.
    second_summary = second.context.trace_summary()
    third_summary = third.context.trace_summary()
    for key in ("spans", "events", "transfers", "sim_seconds",
                "net_seconds", "backoff_seconds"):
        assert second_summary[key] == third_summary[key], key


def test_resilience_counters_do_not_leak_across_submissions(
    two_db_deployment,
):
    deployment = two_db_deployment
    xdb = XDB(deployment)
    xdb.warm_metadata()
    set_retry_policy(deployment, RetryPolicy(max_attempts=8))
    injector = FaultInjector(
        FaultPolicy(seed=11, transient_error_rate=0.15)
    ).install(deployment)
    try:
        faulty = xdb.submit(JOIN_QUERY)
    finally:
        injector.uninstall()
    clean = xdb.submit(JOIN_QUERY)

    assert faulty.resilience.failures == injector.injected_transients
    assert faulty.resilience.failures > 0
    # The second submission's report starts from zero: its context
    # never saw the faults, and nothing outside a context kept them.
    assert clean.resilience.failures == 0
    assert clean.resilience.retries == 0
    assert clean.resilience.backoff_seconds == 0.0
    # Retry span events surface only on the faulty run's trace.
    assert faulty.context.root.subtree_events("retry")
    assert not clean.context.root.subtree_events("retry")


def test_connector_counters_mirror_into_context_metrics(joined_report):
    ctx = joined_report.context
    total_control = sum(
        ctx.metrics.counters("connector.control_messages").values()
    )
    assert total_control > 0
    consultations = sum(
        ctx.metrics.counters("connector.consultations").values()
    )
    assert consultations == joined_report.consultations


# -- exports -------------------------------------------------------------


def test_chrome_trace_is_valid_and_complete(joined_report):
    payload = joined_report.to_chrome_trace()
    count = validate_chrome_trace(payload)
    events = payload["traceEvents"]
    assert count == len(events)
    names = [e["name"] for e in events]
    # Every phase span, every DDL statement, every transfer is present.
    for phase in ("prep", "lopt", "ann", "exec"):
        assert phase in names
    assert names.count("ddl") == len(joined_report.deployed.ddl_log)
    instant_transfers = [
        e for e in events if e["name"] == "transfer" and e["ph"] == "i"
    ]
    assert len(instant_transfers) == len(joined_report.context.transfers)
    # Schedule track (tid=2) carries the per-task intervals.
    assert any(
        e.get("tid") == 2 and e["ph"] == "X" and e["name"].startswith("task-")
        for e in events
    )
    for event in events:
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]}
        )
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
                ]
            }
        )


def test_explain_analyze_renders_the_span_tree(two_db_deployment):
    xdb = XDB(two_db_deployment)
    text = xdb.explain_analyze(JOIN_QUERY)
    assert "phases:" in text
    for name in ("prep", "lopt", "ann", "exec"):
        assert name in text
    assert "schedule-sim" in text
    assert "SeqScan" in text
    assert "ddl@" in text  # connector call spans


def test_control_tags_cover_the_critical_path_traffic():
    assert set(CONTROL_TAGS) == {"delegation", "control", "consult", "probe"}
