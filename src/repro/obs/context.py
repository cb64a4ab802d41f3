"""The per-query observation context: one spine for all instrumentation.

A :class:`QueryContext` owns a query id and a
:class:`~repro.obs.tracer.Tracer`: the span tree over the
wall/simulated clock duality, whose spans carry the events every layer
records while the context is active (retries, give-ups, breaker
transitions, admissions, recovery decisions) and the attributed
:class:`~repro.net.network.TransferRecord` objects (``transfers``
reads them off the tree).  Nothing else is stored: every count is a
read of that tree, so nothing leaks across queries.

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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.net.metrics import (
    ConnectorResilience,
    ResilienceSummary,
    TransferSummary,
    summarize,
)
from repro.net.network import TransferRecord
from repro.obs.runtime import current_context, pop_context, push_context
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:
    from repro.qos.gate import AdmissionLease

#: transfer tags that ride the execution critical path as control
#: messages (DDL cascade, consultations, probes) rather than data flow
CONTROL_TAGS = ("delegation", "control", "consult", "probe")

_QUERY_IDS = itertools.count(1)


class QueryContext:
    """The span tree and attributed transfers of one query submission."""

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

    @property
    def transfers(self) -> List[TransferRecord]:
        """Every transfer attributed to this context (span-tree order)."""
        return self.root.subtree_records()

    # -- recording (called by the layers) ------------------------------

    def record_transfer(self, record: TransferRecord) -> None:
        """Attribute one transfer to the active span, advancing the
        simulated clock by its link time."""
        self.tracer.current.records.append(record)
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

    def record_retry(
        self, db: str, op: str, attempt: int, seconds: float
    ) -> None:
        """Attribute a retry's simulated backoff to the active span and
        record it as a ``retry`` event (what the resilience counts read)."""
        self.tracer.current.backoff_seconds += seconds
        self.tracer.advance(seconds)
        self.tracer.add_event(
            "retry", db=db, op=op, attempt=attempt, backoff_seconds=seconds
        )

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

    def record_admission(self, lease: "AdmissionLease") -> None:
        """Attribute one admission-gate lease to this query.

        The lease's simulated wait advances the tracer inside the active
        span (the ``admit`` step), so the armed deadline draws it down
        on its one clock.
        """
        waited = lease.waited_seconds
        if waited:
            self.tracer.advance(waited)
        self.tracer.add_event(
            "admitted",
            engines=",".join(lease.engines),
            waited_seconds=waited,
            priority=lease.priority,
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

    def record_breaker_event(self, event) -> None:
        """Record a circuit-breaker transition (a ``repro.health.
        BreakerEvent``) as a ``breaker`` event; ``RecoveryReport.of``
        rebuilds it from there."""
        self.tracer.add_event(
            "breaker",
            db=event.db,
            old=str(event.old_state),
            new=str(event.new_state),
            at=event.at_seconds,
            reason=event.reason,
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
        return summarize((self.root if span is None else span).subtree_records())

    def resilience_summary(
        self, connector_names: Iterable[str] = ()
    ) -> ResilienceSummary:
        """Per-connector retry/failure counts, read off the span tree.

        One pass over the ``retry``, ``giveup`` and
        ``breaker-fastfail`` events.  ``connector_names`` seeds the
        per-connector map (so quiet connectors appear with zero counts);
        any connector with such an event is included regardless.
        """
        # db -> [retries, giveups, backoff seconds, breaker fast-fails]
        tally: Dict[str, list] = {db: [0, 0, 0.0, 0] for db in connector_names}
        for event in self.root.subtree_events():
            if event.name not in ("retry", "giveup", "breaker-fastfail"):
                continue
            row = tally.setdefault(event.attributes["db"], [0, 0, 0.0, 0])
            if event.name == "retry":
                row[0] += 1
                row[2] += event.attributes["backoff_seconds"]
            elif event.name == "giveup":
                row[1] += 1
            else:
                row[3] += 1
        return ResilienceSummary(
            by_connector={
                db: ConnectorResilience(
                    retries=retries,
                    giveups=giveups,
                    backoff_seconds=backoff,
                    fastfails=fastfails,
                )
                for db, (retries, giveups, backoff, fastfails) in tally.items()
            }
        )

    def trace_summary(self) -> Dict[str, float]:
        """Flat numbers for the bench harness's :class:`RunRecord`."""
        root = self.root
        spans = list(root.iter_spans())
        transfers = root.subtree_records()
        return {
            "spans": float(len(spans)),
            "events": float(sum(len(s.events) for s in spans)),
            "transfers": float(len(transfers)),
            "wall_seconds": root.wall_seconds,
            "sim_seconds": root.sim_seconds,
            "net_seconds": sum(r.seconds for r in transfers),
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
        schedule-simulation timebase (per-task intervals).
        ``otherData.metrics`` counts the events per name.  Load the
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
        # events per name, exported as the summary counts
        counts: Dict[str, int] = {}
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
                counts[event.name] = counts.get(event.name, 0) + 1
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
                "metrics": dict(sorted(counts.items())),
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
