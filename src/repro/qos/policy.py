"""Per-query QoS: what one submission is allowed to cost and to shed.

A :class:`QoSPolicy` travels with one query submission (``XDB.submit``
/ ``PreparedQuery.execute``) and declares

* its **deadline** — the consumable budget of
  :class:`~repro.qos.deadline.Deadline` seconds, with an optional
  per-call cap and a rollback grace budget;
* its **priority** — the order in which a caller submits queries that
  arrive at the same simulated instant (``PRIORITY_HIGH`` before
  ``PRIORITY_NORMAL`` before ``PRIORITY_LOW``): the admission gate
  serves arrivals in the order they reach it and never revokes a
  reservation;
* its **staleness bound** — an opt-in contract for graceful
  degradation: a prepared query with ``max_staleness_seconds`` set may
  be answered from its existing materialization snapshots (skipping
  the refresh) when an authoritative engine is saturated or its
  breaker is open, provided the snapshots are no older than the bound
  on the federation's simulated clock.  The staleness the read was
  served at is recorded in ``XDBReport.qos``;
* its **partial-results bound** — with ``completeness_floor`` set, a
  query whose partition shard lost every healthy holder is answered
  from the surviving shards, provided the row-weighted completeness
  stays at or above the floor and above zero.  The partial answer is
  reported once, in ``XDBReport.recovery``.

The :class:`QoSReport` is the submission-side receipt: admission wait,
deadline spend, and whether (and how stale) a stale read was — read
by :meth:`QoSReport.of` off the query context's ``admitted`` and
``stale-read`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.qos.deadline import DEFAULT_GRACE_SECONDS, Deadline

#: Priority levels (higher is submitted first at one simulated instant).
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2


@dataclass(frozen=True)
class QoSPolicy:
    """One query's quality-of-service contract."""

    #: total deadline budget (None = no deadline, legacy behavior)
    deadline_seconds: Optional[float] = None
    #: per-call ceiling below the remaining deadline (the tentpole's
    #: ``min(remaining_deadline, per_call_cap)`` rule)
    per_call_cap_seconds: Optional[float] = None
    #: cleanup budget once the deadline has expired mid-delegation
    grace_seconds: float = DEFAULT_GRACE_SECONDS
    #: admission priority (submitted first among simultaneous arrivals)
    priority: int = PRIORITY_NORMAL
    #: opt-in staleness bound for degraded (snapshot) answers; None
    #: means the query insists on authoritative data
    max_staleness_seconds: Optional[float] = None
    #: opt-in *partial results*: when a partition shard has lost every
    #: healthy holder, answer from the surviving shards instead of
    #: failing, provided the row-weighted completeness (fraction of
    #: partitioned rows still reachable) stays above 0 and at or above
    #: this floor; None means the query insists on a complete answer
    completeness_floor: Optional[float] = None

    def make_deadline(self) -> Optional[Deadline]:
        """Build this policy's :class:`Deadline` (None without one)."""
        if self.deadline_seconds is None:
            return None
        return Deadline(
            self.deadline_seconds,
            per_call_cap_seconds=self.per_call_cap_seconds,
            grace_seconds=self.grace_seconds,
        )


@dataclass
class QoSReport:
    """What one submission's QoS machinery actually did."""

    priority: int = PRIORITY_NORMAL
    #: the submitted deadline budget (None = no deadline)
    deadline_seconds: Optional[float] = None
    #: budget left when the result came back
    deadline_remaining_seconds: Optional[float] = None
    #: simulated seconds spent waiting for admission-gate slots
    admission_wait_seconds: float = 0.0
    #: engines the submission held admission slots for
    admitted_engines: List[str] = field(default_factory=list)
    #: snapshot age (simulated seconds) when the answer was served from
    #: materialization snapshots instead of refreshing them (None: fresh)
    staleness_seconds: Optional[float] = None
    #: why the read degraded: "overload", "breaker-open", or "drift"
    stale_reason: str = ""

    @classmethod
    def of(cls, ctx) -> "QoSReport":
        """The receipt of ``ctx``, a query context run under a policy.

        The policy and the deadline come from the context; the summed
        admission wait and the last lease's engines from its
        ``admitted`` events; the stale read from the ``stale-read``
        event of the attempt that answered.
        """
        policy, deadline = ctx.qos, ctx.deadline
        report = cls(
            priority=policy.priority,
            deadline_seconds=policy.deadline_seconds,
            deadline_remaining_seconds=(
                deadline.remaining_seconds if deadline is not None else None
            ),
        )
        for event in ctx.root.subtree_events():
            attrs = event.attributes
            if event.name == "admitted":
                report.admission_wait_seconds += attrs["waited_seconds"]
                report.admitted_engines = attrs["engines"].split(",")
            elif event.name == "stale-read":
                report.staleness_seconds = attrs["staleness_seconds"]
                report.stale_reason = attrs["reason"]
        return report

    @property
    def stale_read(self) -> bool:
        """Whether the answer came from the existing snapshots."""
        return self.staleness_seconds is not None

    def describe(self) -> str:
        parts = [f"priority={self.priority}"]
        if self.deadline_seconds is not None:
            parts.append(
                f"deadline {self.deadline_seconds:.3f}s "
                f"(remaining {self.deadline_remaining_seconds:.3f}s)"
            )
        if self.admission_wait_seconds:
            parts.append(f"admission wait {self.admission_wait_seconds:.3f}s")
        if self.stale_read:
            reason = f", {self.stale_reason}" if self.stale_reason else ""
            parts.append(
                f"stale read ({self.staleness_seconds:.3f}s behind{reason})"
            )
        return ", ".join(parts)
