"""Admission control: per-engine concurrency tokens + bounded queues.

XDB is a middleware with no execution engine of its own, so the only
resource it can protect is the autonomous DBMSes it delegates to.  The
:class:`WorkloadGate` is that protection: every engine gets
``max_concurrent`` concurrency tokens and a bounded waiting room of
``max_queue`` slots.  A submission acquires one token per engine its
delegation plan touches — in globally sorted engine order, so
concurrent multi-engine acquisitions cannot deadlock — holds them
through delegation, execution, and cleanup, then releases.

**Load shedding.**  When an engine's waiting room is full the gate
sheds work instead of letting it time out silently:

* an arrival with *higher* priority than the lowest-priority waiter
  evicts that waiter (the waiter's ``acquire`` raises
  :class:`~repro.errors.OverloadError`) and takes its queue slot;
* otherwise the arrival itself is shed with an ``OverloadError``
  carrying a ``retry_after_seconds`` hint scaled by the queue depth.

A waiter whose deadline or ``max_wait_seconds`` runs out while queued
leaves with :class:`~repro.errors.DeadlineExceeded` (phase
``"admission"``) or ``OverloadError`` — never a bare timeout.

**Clocks.**  Queue waiting is real (``threading`` primitives — the
overload benchmark drives the gate from genuinely concurrent client
threads) and is charged against the waiter's deadline 1:1.  On top of
that, ``queue_slot_sim_seconds`` charges a *simulated* penalty per
queue position ahead at enqueue time, modelling the service time of
the queue ahead on the deterministic clock the rest of the federation
uses; the client attributes it to the query's ``admit`` span.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import OverloadError
from repro.obs.clock import wall_now
from repro.qos.deadline import Deadline
from repro.qos.policy import PRIORITY_NORMAL

_WAITER_SEQ = itertools.count(1)


@dataclass(frozen=True)
class GateConfig:
    """Capacity limits every engine under a gate shares."""

    #: concurrency tokens per engine (admitted queries holding one)
    max_concurrent: int = 4
    #: bounded waiting-room slots per engine (0 = shed immediately)
    max_queue: int = 16
    #: longest real wait in the queue before a deadline-less caller is
    #: shed (deadline-bound callers are bounded by their own budget)
    max_wait_seconds: float = 30.0
    #: base of the ``retry_after_seconds`` hint on shed (scaled by the
    #: shedding engine's queue depth)
    retry_after_seconds: float = 0.25
    #: simulated seconds charged per queue position ahead at enqueue —
    #: the deterministic model of queueing delay (0 disables)
    queue_slot_sim_seconds: float = 0.0


class _Waiter:
    """One queued acquisition attempt for one engine."""

    __slots__ = ("priority", "seq", "event", "granted", "shed")

    def __init__(self, priority: int):
        self.priority = priority
        self.seq = next(_WAITER_SEQ)
        self.event = threading.Event()
        self.granted = False
        self.shed = False


@dataclass
class _EngineState:
    active: int = 0
    waiters: List[_Waiter] = field(default_factory=list)


class AdmissionLease:
    """Tokens held by one admitted query; release exactly once."""

    def __init__(
        self,
        gate: "WorkloadGate",
        engines: Sequence[str],
        waited_seconds: float,
        sim_penalty_seconds: float,
        priority: int,
    ):
        self._gate = gate
        self.engines = list(engines)
        #: real seconds spent queued across all engine acquisitions
        self.waited_seconds = waited_seconds
        #: simulated queue penalty to attribute to the admit span
        self.sim_penalty_seconds = sim_penalty_seconds
        self.priority = priority
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            for db in self.engines:
                self._gate._release_one(db)

    def __enter__(self) -> "AdmissionLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class WorkloadGate:
    """Per-engine admission control shared by every client of a
    deployment (thread-safe)."""

    def __init__(self, config: Optional[GateConfig] = None):
        self.config = config or GateConfig()
        self._lock = threading.Lock()
        self._engines: Dict[str, _EngineState] = {}
        #: lifetime counters (the overload benchmark reads these)
        self.admitted = 0
        self.sheds = 0
        self.evictions = 0
        self.wait_timeouts = 0
        self.total_wait_seconds = 0.0

    # -- introspection -------------------------------------------------

    def _state(self, db: str) -> _EngineState:
        state = self._engines.get(db)
        if state is None:
            state = self._engines[db] = _EngineState()
        return state

    def saturated(self, db: str) -> bool:
        """No free token for ``db`` right now (callers would queue)."""
        with self._lock:
            state = self._engines.get(db)
            return (
                state is not None
                and state.active >= self.config.max_concurrent
            )

    def depth(self, db: str) -> int:
        with self._lock:
            state = self._engines.get(db)
            return len(state.waiters) if state is not None else 0

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {
                db: {"active": s.active, "queued": len(s.waiters)}
                for db, s in sorted(self._engines.items())
            }

    # -- acquisition ---------------------------------------------------

    def acquire(
        self,
        engines: Sequence[str],
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[Deadline] = None,
        block: bool = True,
    ) -> AdmissionLease:
        """Take one token per engine (sorted order; all or nothing).

        Raises :class:`OverloadError` when shed and
        :class:`DeadlineExceeded` when the caller's budget expires in
        the queue; either way every token already taken is returned.
        """
        wanted = sorted(set(engines))
        granted: List[str] = []
        waited = 0.0
        sim_penalty = 0.0
        try:
            for db in wanted:
                db_waited, db_penalty = self._acquire_one(
                    db, priority, deadline, block
                )
                granted.append(db)
                waited += db_waited
                sim_penalty += db_penalty
        except BaseException:
            for db in granted:
                self._release_one(db)
            raise
        with self._lock:
            self.admitted += 1
            self.total_wait_seconds += waited
        return AdmissionLease(self, granted, waited, sim_penalty, priority)

    def _retry_after(self, queue_depth: int) -> float:
        return self.config.retry_after_seconds * (queue_depth + 1)

    def _acquire_one(
        self,
        db: str,
        priority: int,
        deadline: Optional[Deadline],
        block: bool,
    ):
        cfg = self.config
        with self._lock:
            state = self._state(db)
            # A free token is taken straight away even past waiters:
            # release() hands tokens to waiters directly, so a waiter
            # can only be pending while every token is held.
            if state.active < cfg.max_concurrent:
                state.active += 1
                return 0.0, 0.0
            if not block:
                self.sheds += 1
                raise self._overload(db, priority, len(state.waiters))
            if len(state.waiters) >= cfg.max_queue:
                victim = self._evictable(state, priority)
                if victim is None:
                    # The arrival is (one of) the lowest priority here:
                    # shed it, not an older equal-priority waiter.
                    self.sheds += 1
                    raise self._overload(db, priority, len(state.waiters))
                state.waiters.remove(victim)
                victim.shed = True
                victim.event.set()
                self.evictions += 1
            penalty = len(state.waiters) * cfg.queue_slot_sim_seconds
            waiter = _Waiter(priority)
            state.waiters.append(waiter)

        timeout = cfg.max_wait_seconds
        if deadline is not None:
            timeout = min(timeout, max(deadline.remaining_seconds, 0.0))
        start = wall_now()
        waiter.event.wait(timeout)
        waited = wall_now() - start
        if deadline is not None:
            deadline.consume(waited)

        with self._lock:
            state = self._state(db)
            if waiter.granted:
                return waited, penalty
            if waiter.shed:
                self.sheds += 1
                raise self._overload(
                    db, priority, len(state.waiters), evicted=True
                )
            # Timed out (or the deadline ran dry) while queued.
            if waiter in state.waiters:
                state.waiters.remove(waiter)
            queue_depth = len(state.waiters)
            self.wait_timeouts += 1
        if deadline is not None and deadline.expired:
            raise deadline.exceeded("admission", detail=f"queue@{db}")
        self.sheds += 1
        raise OverloadError(
            f"admission wait for engine {db!r} exceeded "
            f"{timeout:.3f}s (queue depth {queue_depth})",
            db=db,
            retry_after_seconds=self._retry_after(queue_depth),
            priority=priority,
        )

    @staticmethod
    def _evictable(
        state: _EngineState, priority: int
    ) -> Optional[_Waiter]:
        """The waiter a strictly higher-priority arrival may evict:
        the youngest of the lowest-priority waiters (older waiters of
        equal priority keep their accumulated progress)."""
        if not state.waiters:
            return None
        victim = min(state.waiters, key=lambda w: (w.priority, -w.seq))
        return victim if victim.priority < priority else None

    def _overload(
        self, db: str, priority: int, queue_depth: int, evicted: bool = False
    ) -> OverloadError:
        why = (
            "evicted by a higher-priority query"
            if evicted
            else f"waiting room is full ({queue_depth} queued)"
        )
        return OverloadError(
            f"engine {db!r} is overloaded: {why}",
            db=db,
            retry_after_seconds=self._retry_after(queue_depth),
            priority=priority,
        )

    # -- release -------------------------------------------------------

    def _release_one(self, db: str) -> None:
        with self._lock:
            state = self._state(db)
            if state.waiters:
                # Hand the token to the highest-priority, oldest waiter
                # directly: active count is unchanged.
                winner = min(
                    state.waiters, key=lambda w: (-w.priority, w.seq)
                )
                state.waiters.remove(winner)
                winner.granted = True
                winner.event.set()
            elif state.active > 0:
                state.active -= 1
