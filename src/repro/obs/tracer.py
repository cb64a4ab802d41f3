"""Nested spans over a dual clock: real wall time + simulated time.

Every span carries **two** intervals:

* a *wall-clock* interval (``wall_start``/``wall_end``, from
  :func:`repro.obs.clock.wall_now`) measuring real middleware CPU; and
* a *simulated-clock* interval (``sim_start``/``sim_end``) on the
  tracer's simulated clock, which advances only when simulated cost is
  attributed to the active span — network transfer seconds and retry
  backoff.  Nothing else moves it, so for any span
  ``sim_seconds == attributed network + backoff`` of its subtree.

The paper's phase breakdown (real optimizer CPU + simulated network
time) is therefore just ``span.wall_seconds + span.sim_seconds`` — the
same numbers the old mark-based slicing produced, now scoped to a span
tree instead of global ledger indices.

Spans also carry :class:`SpanEvent` point annotations (retries, DDL
statements, breaker transitions, transfers) and a list of attributed
:class:`~repro.net.network.TransferRecord` objects.  *Synthetic* spans
(``Tracer.record_span``) describe intervals on a foreign timebase —
the schedule simulator's task timeline, the executor's operator tree —
without touching the live span stack.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.clock import wall_now


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span."""

    name: str
    wall_at: float
    sim_at: float
    attributes: Dict[str, object] = field(default_factory=dict)


class Span:
    """One node of the trace tree."""

    __slots__ = (
        "name",
        "kind",
        "span_id",
        "parent",
        "children",
        "timebase",
        "wall_start",
        "wall_end",
        "sim_start",
        "sim_end",
        "attributes",
        "events",
        "records",
        "backoff_seconds",
        "status",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        span_id: int,
        parent: Optional["Span"],
        wall_start: float,
        sim_start: float,
        timebase: str = "query",
        attributes: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent = parent
        self.children: List[Span] = []
        self.timebase = timebase
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.events: List[SpanEvent] = []
        #: transfer records attributed to this span (not its subtree)
        self.records: List[object] = []
        #: simulated backoff seconds attributed directly to this span
        self.backoff_seconds = 0.0
        self.status = "ok"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, kind={self.kind!r})"

    # -- durations -----------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        end = self.wall_end if self.wall_end is not None else wall_now()
        return end - self.wall_start

    @property
    def sim_seconds(self) -> float:
        end = self.sim_end if self.sim_end is not None else self.sim_start
        return end - self.sim_start

    @property
    def seconds(self) -> float:
        """The combined duration: real CPU plus simulated time."""
        return self.wall_seconds + self.sim_seconds

    @property
    def finished(self) -> bool:
        return self.wall_end is not None

    # -- tree traversal ------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order.

        An explicit stack, not one generator per level: report views
        walk every span tree several times per query.
        """
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> Optional["Span"]:
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: Optional[str] = None, kind: Optional[str] = None):
        return [
            span
            for span in self.iter_spans()
            if (name is None or span.name == name)
            and (kind is None or span.kind == kind)
        ]

    # -- subtree aggregations ------------------------------------------

    def subtree_records(self) -> List[object]:
        """Transfer records attributed anywhere in this subtree."""
        out: List[object] = []
        for span in self.iter_spans():
            out.extend(span.records)
        return out

    def subtree_backoff_seconds(self) -> float:
        return sum(span.backoff_seconds for span in self.iter_spans())

    def subtree_events(self, name: Optional[str] = None) -> List[SpanEvent]:
        out: List[SpanEvent] = []
        for span in self.iter_spans():
            for event in span.events:
                if name is None or event.name == name:
                    out.append(event)
        return out


class Tracer:
    """Builds the span tree and owns the simulated clock.

    Thread-aware: each thread keeps its own stack of open spans, so
    worker-pool branches build disjoint subtrees concurrently.  A
    worker announces itself with :meth:`adopt` (seeding its stack under
    the span it works for) and cleans up with :meth:`release`.  Span-id
    allocation, child attachment, and the simulated clock share one
    lock; everything else is single-writer per thread.
    """

    def __init__(self, root_name: str = "query", **attributes: object):
        self._lock = threading.RLock()
        self._next_id = 0
        #: the simulated clock: network + backoff seconds attributed so far
        self.sim_now = 0.0
        self.root = self._new_span(
            root_name, kind="query", parent=None, attributes=attributes
        )
        self._home_thread = threading.get_ident()
        self._stacks: Dict[int, List[Span]] = {
            self._home_thread: [self.root]
        }

    # -- span lifecycle ------------------------------------------------

    def _new_span(
        self,
        name: str,
        kind: str,
        parent: Optional[Span],
        timebase: str = "query",
        sim_start: Optional[float] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        with self._lock:
            span = Span(
                name,
                kind=kind,
                span_id=self._next_id,
                parent=parent,
                wall_start=wall_now(),
                sim_start=self.sim_now if sim_start is None else sim_start,
                timebase=timebase,
                attributes=attributes,
            )
            self._next_id += 1
            if parent is not None:
                parent.children.append(span)
        return span

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's stack (un-adopted threads see the root)."""
        return self._stacks.setdefault(threading.get_ident(), [self.root])

    @property
    def current(self) -> Span:
        """The innermost open span (the attribution target)."""
        return self._stack[-1]

    def adopt(self, parent: Span) -> None:
        """Seed the calling worker thread's span stack under ``parent``.

        Spans the worker opens become children of ``parent`` instead of
        landing on some other thread's stack.
        """
        self._stacks[threading.get_ident()] = [parent]

    def release(self, parent: Span) -> None:
        """Drop the calling worker thread's stack (closes stragglers)."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            return
        while len(stack) > 1:
            self.end_span(stack[-1])
        if ident != self._home_thread:
            del self._stacks[ident]

    def start_span(self, name: str, kind: str = "span", **attributes) -> Span:
        span = self._new_span(
            name, kind=kind, parent=self.current, attributes=attributes
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} ended out of order (innermost open "
                f"span is {self._stack[-1].name!r})"
            )
        span.wall_end = wall_now()
        span.sim_end = self.sim_now
        self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes):
        """Open a child span of the current span for the ``with`` body."""
        span = self.start_span(name, kind=kind, **attributes)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self.end_span(span)

    def finish(self) -> Span:
        """Close the root span (idempotent); returns it."""
        with self._lock:
            for ident, stack in list(self._stacks.items()):
                while len(stack) > 1:  # defensive: close stragglers
                    span = stack.pop()
                    span.wall_end = wall_now()
                    span.sim_end = self.sim_now
                if ident != self._home_thread:
                    del self._stacks[ident]
            if self.root.wall_end is None:
                self.root.wall_end = wall_now()
                self.root.sim_end = self.sim_now
        return self.root

    # -- synthetic spans (foreign timebases) ---------------------------

    def record_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        kind: str = "span",
        timebase: str = "query",
        sim_start: Optional[float] = None,
        sim_end: Optional[float] = None,
        **attributes: object,
    ) -> Span:
        """Attach an already-timed span without opening it on the stack.

        Used for intervals measured elsewhere: schedule-simulation task
        timings (``timebase="schedule"``) and executor operator trees.
        """
        span = self._new_span(
            name,
            kind=kind,
            parent=parent or self.current,
            timebase=timebase,
            sim_start=sim_start,
            attributes=attributes,
        )
        span.wall_end = span.wall_start
        span.sim_end = span.sim_start if sim_end is None else sim_end
        return span

    # -- attribution ---------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Advance the simulated clock (simulated cost was incurred)."""
        if seconds < 0:
            raise ValueError("the simulated clock cannot run backwards")
        with self._lock:
            self.sim_now += seconds
            return self.sim_now

    def add_event(
        self,
        name: str,
        attributes: Optional[Dict[str, object]] = None,
        **kw: object,
    ) -> SpanEvent:
        """Annotate the current span with a point event."""
        attrs = dict(attributes or {})
        attrs.update(kw)
        event = SpanEvent(
            name=name,
            wall_at=wall_now(),
            sim_at=self.sim_now,
            attributes=attrs,
        )
        self.current.events.append(event)
        return event
