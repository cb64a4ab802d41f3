"""Federation health tracking: circuit breakers over a simulated clock.

The :class:`HealthRegistry` is the federation's memory of engine
outages.  PR 1's resilience layer reacts to faults *per call* (retry,
rollback, re-plan); the registry makes the reaction *stateful*: one
:class:`CircuitBreaker` per DBMS connector absorbs outcome events from
the connector's guarded call path and gates future calls:

* **closed** — normal operation; a streak of hard failures
  (``failure_threshold`` consecutive :class:`EngineUnavailableError`
  or retry-budget exhaustions) trips the breaker open;
* **open** — every guarded call fails fast with
  :class:`~repro.errors.CircuitOpenError` *without* consuming the
  retry budget or the fault injector's schedule, and
  :meth:`DBMSConnector.is_available` reports the engine unhealthy so
  the annotator routes placement around it;
* **half-open** — after ``cooldown_seconds`` on the registry's
  simulated clock, exactly one probe is allowed through; success
  closes the breaker (the engine is re-admitted to placement), failure
  re-opens it for another cool-down.

The clock is *simulated*: it advances ``TICK_SECONDS`` per recorded
outcome event anywhere in the federation (and can be advanced manually
by tests and benchmarks), so breaker timing is deterministic and free
of wall-clock sleeps, like the rest of the resilience machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.runtime import current_context


class BreakerState(enum.Enum):
    """Circuit-breaker state (classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:
        return self.value


#: how far a registry's simulated clock advances per recorded outcome
TICK_SECONDS = 1.0


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for every breaker a registry creates.

    ``failure_threshold`` consecutive hard failures trip a closed
    breaker open; ``cooldown_seconds`` (simulated) must elapse before a
    half-open probe is allowed.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 8.0


@dataclass(frozen=True)
class BreakerEvent:
    """One breaker state transition, stamped with simulated time."""

    db: str
    old_state: BreakerState
    new_state: BreakerState
    at_seconds: float
    reason: str = ""

    def __str__(self) -> str:
        return (
            f"{self.db}: {self.old_state} -> {self.new_state} "
            f"@{self.at_seconds:.1f}s ({self.reason})"
        )


class SimulatedClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("the simulated clock cannot run backwards")
        self._now += seconds
        return self._now


class CircuitBreaker:
    """One connector's breaker: closed → open → half-open → closed."""

    def __init__(
        self,
        db: str,
        config: BreakerConfig,
        clock: SimulatedClock,
    ):
        self.db = db
        self.config = config
        self._clock = clock
        self.state = BreakerState.CLOSED
        self.failure_streak = 0
        self.opened_at: Optional[float] = None
        #: True while a half-open probe call is in flight — the single
        #: probe slot; later gate checks fast-fail until the probe
        #: records an outcome (or aborts via :meth:`probe_finished`)
        self._probe_inflight = False
        #: lifetime counters (observability)
        self.trips = 0
        self.probes = 0

    # -- gating --------------------------------------------------------

    def gate(self) -> str:
        """What the next guarded call may do: ``"closed"`` (proceed),
        ``"blocked"`` (fail fast), or ``"probe"`` (one half-open probe).

        Checking the gate while open-and-cooled transitions the breaker
        to half-open — the caller's next real call *is* the probe.
        While that probe is in flight the half-open breaker admits
        nobody else: exactly one caller consumes the probe slot, later
        callers fast-fail as if the breaker were open.
        """
        if self.state is BreakerState.CLOSED:
            return "closed"
        if self.state is BreakerState.OPEN:
            elapsed = self._clock.now() - (self.opened_at or 0.0)
            if elapsed < self.config.cooldown_seconds:
                return "blocked"
            self._transition(BreakerState.HALF_OPEN, "cool-down elapsed")
        if self._probe_inflight:
            return "blocked"
        self._probe_inflight = True
        self.probes += 1
        return "probe"

    def probe_finished(self) -> None:
        """Release the probe slot without an outcome (probe aborted —
        e.g. the guarded call died on a non-engine error).

        Only meaningful while still half-open: once an outcome landed,
        the breaker has moved on (and may even be mid-way through a
        *new* probe that this late release must not clobber).
        """
        if self.state is BreakerState.HALF_OPEN:
            self._probe_inflight = False

    # -- outcome events ------------------------------------------------

    def record_success(self) -> None:
        self._probe_inflight = False
        self.failure_streak = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, "probe succeeded")

    def record_failure(self, reason: str = "hard failure") -> None:
        self._probe_inflight = False
        if self.state is BreakerState.CLOSED:
            self.failure_streak += 1
            if self.failure_streak >= self.config.failure_threshold:
                self._open(f"{reason} (threshold reached)")
        else:
            # A half-open probe failed (or a straggler call raced an
            # open breaker): back to open for another cool-down.
            self._open(reason)

    def trip(self, reason: str = "outage reported") -> None:
        """Force the breaker open (e.g. the client observed an outage)."""
        if self.state is not BreakerState.OPEN:
            self._open(reason)
        else:
            self.opened_at = self._clock.now()

    # -- internals -----------------------------------------------------

    def _open(self, reason: str) -> None:
        self.failure_streak = self.config.failure_threshold
        self.opened_at = self._clock.now()
        self.trips += 1
        self._transition(BreakerState.OPEN, reason)

    def _transition(self, new_state: BreakerState, reason: str) -> None:
        if new_state is self.state:
            return
        event = BreakerEvent(
            db=self.db,
            old_state=self.state,
            new_state=new_state,
            at_seconds=self._clock.now(),
            reason=reason,
        )
        self.state = new_state
        # Kept only as a ``breaker`` event of the active query context.
        ctx = current_context()
        if ctx is not None:
            ctx.record_breaker_event(event)


class HealthRegistry:
    """One breaker per connector plus the shared simulated clock.

    Fed outcome events by :meth:`DBMSConnector._guarded`; consulted by
    the connector's gate (fail fast while open) and by
    :meth:`DBMSConnector.is_available` (placement-time health).  The
    client's plan-repair loop reports observed outages here so the
    *next* annotation round routes around the dead engine immediately.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ):
        self.config = config or BreakerConfig()
        self.clock = clock or SimulatedClock()
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: shard-scoped outage observations keyed ``(db, table)`` — the
        #: engine stayed healthy, one relation on it did not, so these
        #: never feed a breaker's failure streak
        self.shard_outages: Dict[tuple, int] = {}
        #: callbacks fired when a breaker closes after being non-closed
        #: (engine recovery) — e.g. the orphan reaper marks the engine
        #: pending for a reconciliation sweep
        self._recovery_listeners: List[Callable[[str], None]] = []

    def breaker(self, db: str) -> CircuitBreaker:
        breaker = self.breakers.get(db)
        if breaker is None:
            breaker = CircuitBreaker(db, self.config, self.clock)
            self.breakers[db] = breaker
        return breaker

    # -- gating --------------------------------------------------------

    def gate(self, db: str) -> str:
        return self.breaker(db).gate()

    def allow(self, db: str) -> bool:
        """Whether a guarded call to ``db`` may proceed right now."""
        return self.gate(db) != "blocked"

    def state(self, db: str) -> BreakerState:
        return self.breaker(db).state

    def is_open(self, db: str) -> bool:
        return self.state(db) is BreakerState.OPEN

    # -- outcome events ------------------------------------------------

    def add_recovery_listener(self, listener: Callable[[str], None]) -> None:
        """Register a callback invoked with the db name whenever an
        engine's breaker closes after being open/half-open (i.e. the
        engine just recovered).  Listeners run after the breaker has
        settled and must not raise into the guarded call path."""
        self._recovery_listeners.append(listener)

    def record_success(self, db: str) -> None:
        self.clock.advance(TICK_SECONDS)
        breaker = self.breaker(db)
        was_recovering = breaker.state is not BreakerState.CLOSED
        breaker.record_success()
        if not was_recovering or breaker.state is not BreakerState.CLOSED:
            return
        for listener in self._recovery_listeners:
            try:
                listener(db)
            except Exception:  # noqa: BLE001 - listeners must not break calls
                pass

    def record_failure(self, db: str, reason: str = "hard failure") -> None:
        self.clock.advance(TICK_SECONDS)
        self.breaker(db).record_failure(reason)

    def report_outage(self, db: str, reason: str = "outage observed") -> None:
        """Force-open ``db``'s breaker (the client saw it die)."""
        self.breaker(db).trip(reason)

    def report_shard_outage(
        self, db: str, table: str, reason: str = "shard unreachable"
    ) -> None:
        """Note a *shard-scoped* outage on ``db`` without tripping it.

        The failure domain is one relation (a dead disk under a single
        partition shard), not the engine: the breaker must stay closed
        so the rest of the engine keeps serving, while placement-level
        avoidance is handled by the catalog's quarantine.  Recorded
        here purely for observability (counters; the breaker's own
        failure streak is untouched).
        """
        key = (db, table.lower())
        self.shard_outages[key] = self.shard_outages.get(key, 0) + 1

    def finish_probe(self, db: str) -> None:
        """Release ``db``'s probe slot if the probe never recorded an
        outcome (the guarded call aborted before reaching the engine)."""
        self.breaker(db).probe_finished()

    # -- observability -------------------------------------------------

    def describe(self) -> str:
        if not self.breakers and not self.shard_outages:
            return "health: no breakers"
        parts = [
            f"{name}={breaker.state}"
            for name, breaker in sorted(self.breakers.items())
        ]
        for (db, table), count in sorted(self.shard_outages.items()):
            parts.append(f"{db}.{table}=shard-outage×{count}")
        return "health: " + " ".join(parts)
