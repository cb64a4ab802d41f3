"""Admission control: per-engine concurrency slots on the simulated clock.

XDB is a middleware with no execution engine of its own, so the only
resource it can protect is the autonomous DBMSes it delegates to.  The
:class:`WorkloadGate` is that protection: every engine gets
``max_concurrent`` slots, each remembering when (in simulated seconds)
its last holder let go — the same slot model the schedule simulator
uses for ``worker_slots``.  A submission arrives at a simulated instant
``at`` and acquires one slot per engine its delegation plan touches,
all or nothing, then holds them through delegation, execution and
cleanup and releases them at the simulated instant it finished.

* Every engine has a slot free at ``at``: admitted with zero wait.
* Otherwise, if an engine it would wait on already has ``max_queue``
  reservations that start after ``at``, the arrival is shed with an
  :class:`~repro.errors.OverloadError` carrying a
  ``retry_after_seconds`` hint scaled by that queue depth.
* Otherwise the query waits until every engine it needs has a slot
  free.  A slot whose holder has not released yet has no release time:
  an arrival that would wait on one is shed.  A wait longer than the
  caller's remaining deadline raises
  :class:`~repro.errors.DeadlineExceeded` (phase ``"admission"``).

The wait is simulated time: the client advances the query's tracer by
it inside the ``admit`` span, so the armed deadline sees it on its one
clock.  Nothing is ever revoked once reserved; priority orders arrivals
at the same simulated instant because callers submit them in priority
order.  A gate, like the deployment that owns it, belongs to one
thread.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import OverloadError
from repro.qos.deadline import Deadline
from repro.qos.policy import PRIORITY_NORMAL


@dataclass(frozen=True)
class GateConfig:
    """Capacity limits every engine under a gate shares."""

    #: concurrency slots per engine (admitted queries holding one)
    max_concurrent: int = 4
    #: reservations per engine that may wait for a slot (0 = shed
    #: whenever no slot is free)
    max_queue: int = 16
    #: base of the ``retry_after_seconds`` hint on shed (scaled by the
    #: shedding engine's queue depth)
    retry_after_seconds: float = 0.25


class _Engine:
    """One engine's slots and the starts of its latest reservations."""

    __slots__ = ("slots", "starts")

    def __init__(self, config: GateConfig):
        #: per slot: when its holder released it (None = still held)
        self.slots: List[Optional[float]] = [0.0] * config.max_concurrent
        #: the latest ``max_queue`` reservation starts, sorted — enough
        #: to tell whether ``max_queue`` of them start after an arrival
        self.starts: List[float] = []

    def free_at(self, at: float) -> Optional[float]:
        """When a slot is free for an arrival at ``at`` (None: only
        unreleased slots are left)."""
        released = [r for r in self.slots if r is not None]
        if not released:
            return None
        return max(at, min(released))

    def queued(self, at: float) -> int:
        """Reservations (among the latest kept) starting after ``at``."""
        return len(self.starts) - bisect.bisect_right(self.starts, at)


class AdmissionLease:
    """Slots held by one admitted query; release exactly once."""

    def __init__(
        self,
        slots: Sequence[Tuple[_Engine, int]],
        engines: Sequence[str],
        waited_seconds: float,
        priority: int,
    ):
        self._slots = list(slots)
        self.engines = list(engines)
        #: simulated seconds between arrival and admission
        self.waited_seconds = waited_seconds
        self.priority = priority

    def release(self, at: float) -> None:
        """Stamp ``at`` (simulated seconds) as the held slots' release
        time; later calls do nothing."""
        for engine, index in self._slots:
            engine.slots[index] = at
        self._slots = []


class WorkloadGate:
    """Per-engine admission control shared by every client of a
    deployment."""

    def __init__(self, config: Optional[GateConfig] = None):
        self.config = config or GateConfig()
        self._engines: Dict[str, _Engine] = {}
        #: lifetime counters (the overload benchmark reads these)
        self.admitted = 0
        self.sheds = 0

    def horizon(self) -> float:
        """The latest release stamped on any slot (0.0 before any) —
        the simulated present a newly created client joins at."""
        return max(
            (r for e in self._engines.values() for r in e.slots
             if r is not None),
            default=0.0,
        )

    def _engine(self, db: str) -> _Engine:
        engine = self._engines.get(db)
        if engine is None:
            engine = self._engines[db] = _Engine(self.config)
        return engine

    def acquire(
        self,
        engines: Sequence[str],
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[Deadline] = None,
        at: float = 0.0,
    ) -> AdmissionLease:
        """Reserve one slot per engine for an arrival at ``at``.

        All or nothing: raises :class:`OverloadError` when shed and
        :class:`DeadlineExceeded` when the wait would outlast
        ``deadline``, reserving nothing either way.
        """
        wanted = sorted(set(engines))
        states = [self._engine(db) for db in wanted]
        start, binding = at, None
        for db, state in zip(wanted, states):
            when = state.free_at(at)
            if when == at:
                continue
            depth = state.queued(at)
            if when is None or depth >= self.config.max_queue:
                self.sheds += 1
                why = (
                    "every slot is held" if when is None
                    else f"{depth} reservation(s) queued"
                )
                raise OverloadError(
                    f"engine {db!r} is overloaded: {why}",
                    db=db,
                    retry_after_seconds=(
                        self.config.retry_after_seconds * (depth + 1)
                    ),
                    priority=priority,
                )
            if when > start:
                start, binding = when, db
        waited = start - at
        if (
            binding is not None
            and deadline is not None
            and waited > deadline.remaining_seconds
        ):
            raise deadline.exceeded("admission", detail=f"queue@{binding}")
        held = []
        for state in states:
            # Best fit: the latest release at or before the start, so a
            # client that submits back to back keeps reusing one slot.
            index = max(
                (i for i, r in enumerate(state.slots)
                 if r is not None and r <= start),
                key=lambda i: state.slots[i],
            )
            state.slots[index] = None
            held.append((state, index))
            bisect.insort(state.starts, start)
            if len(state.starts) > self.config.max_queue:
                del state.starts[0]
        self.admitted += 1
        return AdmissionLease(held, wanted, waited, priority)
