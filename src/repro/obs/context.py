"""The per-query observation context: one spine for all instrumentation.

A :class:`QueryContext` owns

* a query id,
* a :class:`~repro.obs.tracer.Tracer` (the span tree over the
  wall/simulated clock duality), and
* a :class:`~repro.obs.metrics.MetricsRegistry` (context-scoped
  counters — nothing leaks across queries),

plus the raw observation streams every layer feeds it while it is
active: attributed :class:`~repro.net.network.TransferRecord` objects,
connector retry/backoff counters, and circuit-breaker transitions.

The client activates the context for the duration of one submission
(``with ctx:``); layers reached indirectly find it through
:func:`repro.obs.runtime.current_context`.  It is the only place an
observation is kept: a call made outside any context is priced,
guarded and retried, but nothing records it.  Every number the
:class:`~repro.core.client.XDBReport` (or a baseline's report) shows is
a *view* over its context, and a :class:`~repro.errors.ReproError`
that leaves a context carries it as ``exc.context``.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.net.metrics import (
    ConnectorResilience,
    ResilienceSummary,
    TransferSummary,
    summarize,
)
from repro.net.network import TransferRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_context, pop_context, push_context
from repro.obs.tracer import Span, Tracer

#: transfer tags that ride the execution critical path as control
#: messages (DDL cascade, consultations, probes) rather than data flow
CONTROL_TAGS = ("delegation", "control", "consult", "probe")

_QUERY_IDS = itertools.count(1)


class QueryContext:
    """Tracer + metrics + attribution streams for one query submission."""

    def __init__(
        self,
        query_id: Optional[str] = None,
        label: str = "",
        qos: Optional[object] = None,
    ) -> None:
        self.query_id = query_id or f"q{next(_QUERY_IDS)}"
        self.label = label
        self.tracer = Tracer(
            root_name=self.query_id, query_id=self.query_id, label=label
        )
        self.metrics = MetricsRegistry()
        #: every transfer attributed to this context, in order
        self.transfers: List[TransferRecord] = []
        #: circuit-breaker transitions observed while active
        self.breaker_events: List[object] = []
        #: the submission's QoS contract (a ``repro.qos.QoSPolicy``,
        #: duck-typed so the observability spine stays QoS-agnostic)
        self.qos = qos
        #: the armed per-query deadline budget, drawing down the
        #: tracer's simulated clock (None without a deadline)
        self.deadline = None
        if qos is not None:
            deadline = qos.make_deadline()
            if deadline is not None:
                deadline.arm(lambda: self.tracer.sim_now)
            self.deadline = deadline
        #: coarse phase label for structured DeadlineExceeded errors
        self.current_phase = ""
        #: straggler-hedging contract for this submission: the QoS
        #: latency multiple (None = hedging disabled) and whether the
        #: admission gate's capacity probe permits speculative
        #: duplicates right now — both stamped by the pipeline, read by
        #: the parallel executor's worker pool
        self.hedge_multiplier: Optional[float] = None
        self.hedging_allowed = True
        #: real + simulated admission-gate spend (report views)
        self.admission_wait_seconds = 0.0
        self.admission_sim_seconds = 0.0
        self._jitter_rngs: Dict[str, random.Random] = {}

    # -- activation ----------------------------------------------------

    def __enter__(self) -> "QueryContext":
        push_context(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pop_context(self)
        self.tracer.finish()
        if isinstance(exc, ReproError) and exc.context is None:
            exc.context = self

    @property
    def root(self) -> Span:
        return self.tracer.root

    # -- recording (called by the layers) ------------------------------

    def record_transfer(self, record: TransferRecord) -> None:
        """Attribute one transfer to the active span, advancing the
        simulated clock by its link time."""
        span = self.tracer.current
        self.transfers.append(record)
        span.records.append(record)
        self.tracer.advance(record.seconds)
        self.tracer.add_event(
            "transfer",
            src=record.src,
            dst=record.dst,
            tag=record.tag,
            payload_bytes=record.payload_bytes,
            rows=record.rows,
            seconds=record.seconds,
        )
        self.metrics.inc("net.transfers", tag=record.tag)
        self.metrics.inc("net.bytes", record.payload_bytes, tag=record.tag)
        self.metrics.inc("net.rows", record.rows, tag=record.tag)

    def add_backoff(self, db: str, seconds: float) -> None:
        """Attribute simulated retry backoff to the active span."""
        self.tracer.current.backoff_seconds += seconds
        self.tracer.advance(seconds)
        self.metrics.inc("connector.backoff_seconds", seconds, db=db)

    def enter_phase(self, name: str) -> None:
        """Mark the submission's coarse phase and enforce the deadline.

        The phase label lands in any
        :class:`~repro.errors.DeadlineExceeded` raised afterwards, so a
        caller can tell *where* the budget ran out (``"admission"``,
        ``"plan"``, ``"delegate"``, ``"execute"``, ``"cleanup"``).
        """
        self.current_phase = name
        if self.deadline is not None:
            self.deadline.check(name)

    def record_admission(self, lease: object) -> None:
        """Attribute one admission-gate lease to this query.

        The lease's real queue wait was already charged against the
        deadline by the gate itself; here we fold it into the report
        views and advance the simulated clock by the gate's
        deterministic queue penalty (attributed to the active span,
        i.e. the ``admit`` step).
        """
        waited = getattr(lease, "waited_seconds", 0.0)
        penalty = getattr(lease, "sim_penalty_seconds", 0.0)
        self.admission_wait_seconds += waited
        self.admission_sim_seconds += penalty
        self.metrics.inc("qos.admissions")
        if waited:
            self.metrics.inc("qos.admission_wait_seconds", waited)
        if penalty:
            self.tracer.advance(penalty)
        self.tracer.add_event(
            "admitted",
            engines=",".join(getattr(lease, "engines", [])),
            waited_seconds=waited,
            sim_penalty_seconds=penalty,
            priority=getattr(lease, "priority", 0),
        )

    def backoff_rng(self, db: str) -> random.Random:
        """Per-query deterministic jitter stream for ``db``'s backoff.

        Seeded by the query label rather than shared process-wide, so
        concurrent queries against one engine do not synchronize their
        retry storms, while two runs of the same labelled workload
        still backoff identically.
        """
        rng = self._jitter_rngs.get(db)
        if rng is None:
            rng = self._jitter_rngs[db] = random.Random(
                f"backoff:{db}:{self.label}"
            )
        return rng

    def record_breaker_event(self, event: object) -> None:
        """Collect a circuit-breaker state transition."""
        self.breaker_events.append(event)
        self.metrics.inc("breaker.transitions", db=getattr(event, "db", ""))
        self.tracer.add_event(
            "breaker",
            db=getattr(event, "db", ""),
            old=str(getattr(event, "old_state", "")),
            new=str(getattr(event, "new_state", "")),
            reason=getattr(event, "reason", ""),
        )

    def record_operator_tree(self, plan: object, db: str = "") -> None:
        """Mirror an executed physical-operator tree as child spans.

        ``plan`` duck-types the executor's :class:`PhysicalPlan`
        (``label()``, ``children()``, ``rows_out``); each operator
        becomes a synthetic span carrying its observed cardinality.
        """

        def build(node: object, parent: Span) -> None:
            extra = {}
            if getattr(node, "_instrumented", False):
                # Measured inclusive wall seconds (see
                # repro.engine.instrument) — the calibration harness
                # reads these off the span tree.
                extra["exec_seconds"] = getattr(node, "exec_seconds", 0.0)
            span = self.tracer.record_span(
                node.label(),
                parent=parent,
                kind="operator",
                db=db,
                rows_out=getattr(node, "rows_out", 0),
                **extra,
            )
            for child in node.children():
                build(child, span)

        build(plan, self.tracer.current)
        self.metrics.inc("engine.queries", db=db)

    def record_schedule(self, schedule: object) -> Span:
        """Mirror a simulated schedule as spans on the schedule timebase.

        Task spans carry the exact :class:`TaskTiming` intervals —
        ``sim_start``/``sim_end`` equal the simulator's ``start`` and
        ``finish`` — so trace consumers see the same critical path the
        report's ``schedule`` field describes.
        """
        parent = self.tracer.record_span(
            "schedule-sim",
            kind="schedule",
            timebase="schedule",
            sim_start=0.0,
            sim_end=schedule.total_seconds,
            execution_seconds=schedule.execution_seconds,
            result_transfer_seconds=schedule.result_transfer_seconds,
        )
        for timing in schedule.tasks.values():
            self.tracer.record_span(
                f"task-{timing.task_id}@{timing.db}",
                parent=parent,
                kind="task",
                timebase="schedule",
                sim_start=timing.start,
                sim_end=timing.finish,
                task_id=timing.task_id,
                db=timing.db,
                proc_seconds=timing.proc_seconds,
            )
        self.tracer.record_span(
            "result-transfer",
            parent=parent,
            kind="task",
            timebase="schedule",
            sim_start=schedule.execution_seconds,
            sim_end=schedule.total_seconds,
        )
        return parent

    # -- report views --------------------------------------------------

    def phase_seconds(self, span: Span) -> float:
        """The paper's phase currency: real CPU + simulated time."""
        return span.wall_seconds + span.sim_seconds

    def control_seconds(
        self, span: Span, tags: Tuple[str, ...] = CONTROL_TAGS
    ) -> float:
        """Simulated seconds of control messages in ``span``'s subtree."""
        return sum(
            record.seconds
            for record in span.subtree_records()
            if record.tag in tags
        )

    def backoff_in(self, span: Span) -> float:
        return span.subtree_backoff_seconds()

    def transfer_summary(
        self, span: Optional[Span] = None
    ) -> TransferSummary:
        """Aggregate the transfers attributed to ``span``'s subtree
        (default: the whole context)."""
        records = (
            self.transfers if span is None else span.subtree_records()
        )
        return summarize(records)

    def resilience_summary(
        self, connector_names: Iterable[str] = ()
    ) -> ResilienceSummary:
        """Context-scoped retry/failure counters, per connector.

        ``connector_names`` seeds the per-connector map (so quiet
        connectors appear with zero counters); any connector that
        recorded activity is included regardless.
        """
        names = list(connector_names)
        seen = set(names)
        for counter in (
            "connector.retries",
            "connector.failures",
            "connector.giveups",
            "connector.breaker_fastfails",
            "connector.backoff_seconds",
        ):
            for db in self.metrics.label_values(counter, "db"):
                if db not in seen:
                    seen.add(db)
                    names.append(db)
        by_connector = {
            db: ConnectorResilience(
                retries=int(self.metrics.value("connector.retries", db=db)),
                failures=int(
                    self.metrics.value("connector.failures", db=db)
                ),
                giveups=int(self.metrics.value("connector.giveups", db=db)),
                backoff_seconds=self.metrics.value(
                    "connector.backoff_seconds", db=db
                ),
                fastfails=int(
                    self.metrics.value("connector.breaker_fastfails", db=db)
                ),
            )
            for db in names
        }
        return ResilienceSummary(by_connector=by_connector)

    def trace_summary(self) -> Dict[str, float]:
        """Flat numbers for the bench harness's :class:`RunRecord`."""
        root = self.root
        spans = list(root.iter_spans())
        return {
            "spans": float(len(spans)),
            "events": float(sum(len(s.events) for s in spans)),
            "transfers": float(len(self.transfers)),
            "wall_seconds": root.wall_seconds,
            "sim_seconds": root.sim_seconds,
            "net_seconds": sum(r.seconds for r in self.transfers),
            "backoff_seconds": root.subtree_backoff_seconds(),
        }

    # -- textual export ------------------------------------------------

    def explain_tree(self) -> str:
        """EXPLAIN ANALYZE-style rendering of the span tree."""
        lines: List[str] = []

        def describe(span: Span) -> str:
            if span.timebase == "schedule":
                timing = (
                    f"sim {span.sim_start:.3f}s -> {span.sim_end:.3f}s"
                )
            elif span.kind == "operator":
                timing = f"rows_out={span.attributes.get('rows_out', 0)}"
            else:
                timing = (
                    f"{span.seconds:.4f}s "
                    f"(wall {span.wall_seconds:.4f}s "
                    f"+ sim {span.sim_seconds:.4f}s)"
                )
            extras = []
            if span.records:
                moved = sum(r.payload_bytes for r in span.records)
                extras.append(
                    f"{len(span.records)} transfer(s), {moved} B"
                )
            if span.backoff_seconds:
                extras.append(f"backoff {span.backoff_seconds:.3f}s")
            named = [e.name for e in span.events if e.name != "transfer"]
            if named:
                extras.append(f"events: {', '.join(named[:6])}")
            if span.status != "ok":
                extras.append(f"status={span.status}")
            tail = f"  [{'; '.join(extras)}]" if extras else ""
            return f"{span.name} ({span.kind}): {timing}{tail}"

        def walk(span: Span, depth: int) -> None:
            lines.append("  " * depth + describe(span))
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    # -- Chrome trace-event export -------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """Export the span tree as Chrome trace-event JSON.

        Two tracks: ``tid=1`` carries the middleware timeline (spans on
        the combined wall+sim clock, plus instant events for transfers,
        DDL, retries, and breaker transitions); ``tid=2`` carries the
        schedule-simulation timebase (per-task intervals).  Load the
        file in ``chrome://tracing`` or Perfetto.
        """
        root = self.root
        wall0 = root.wall_start
        scale = 1_000_000.0  # seconds → microseconds

        def us(value: float) -> float:
            return round(value * scale, 3)

        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"xdb query {self.query_id}"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "ts": 0,
                "args": {"name": "middleware (wall+sim)"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 2,
                "ts": 0,
                "args": {"name": "schedule simulation"},
            },
        ]
        for span in root.iter_spans():
            if span.timebase == "schedule":
                ts = us(span.sim_start)
                dur = us(max(span.sim_seconds, 0.0))
                tid = 2
            else:
                ts = us((span.wall_start - wall0) + span.sim_start)
                dur = us(max(span.wall_seconds + span.sim_seconds, 0.0))
                tid = 1
            args: Dict[str, object] = dict(span.attributes)
            args["status"] = span.status
            if span.records:
                args["transfers"] = len(span.records)
            if span.backoff_seconds:
                args["backoff_seconds"] = span.backoff_seconds
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
            for event in span.events:
                events.append(
                    {
                        "name": event.name,
                        "cat": "event",
                        "ph": "i",
                        "ts": us((event.wall_at - wall0) + event.sim_at),
                        "pid": 1,
                        "tid": tid,
                        "s": "t",
                        "args": dict(event.attributes),
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "query_id": self.query_id,
                "label": self.label,
                "metrics": self.metrics.snapshot(),
            },
        }


def validate_chrome_trace(payload: object) -> int:
    """Validate Chrome trace-event JSON structure; returns event count.

    Enforces the subset of the trace-event format this exporter emits:
    a ``traceEvents`` list whose entries carry ``name``/``ph``/``ts``/
    ``pid``/``tid``, with a non-negative ``dur`` on complete (``X``)
    events.  Raises :class:`ValueError` on the first violation.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace payload needs a non-empty traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{index}] missing {key!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"traceEvents[{index}].name must be a string")
        if event["ph"] not in ("X", "i", "M", "B", "E", "C"):
            raise ValueError(
                f"traceEvents[{index}].ph {event['ph']!r} not a known phase"
            )
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"traceEvents[{index}].ts must be numeric")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{index}] is 'X' but has no valid dur"
                )
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"traceEvents[{index}].args must be an object")
    return len(events)


def add_event(name: str, **attributes: object) -> None:
    """Annotate the active context's current span (no-op without one)."""
    ctx = current_context()
    if ctx is not None:
        ctx.tracer.add_event(name, **attributes)
