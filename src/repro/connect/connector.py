"""The DBMS connector: XDB's only handle on an underlying database.

Responsibilities (paper §III–§V):

* metadata — list relations, schemas, and statistics for the global
  catalog (the "prep" phase of the breakdown experiment);
* costing — the annotator's consulting approach (§IV-B2): every call
  is one guarded, counted consultation round-trip; what the engine
  answers is its own price list (:class:`repro.engine.cost.CostModel`);
* delegation — render DDL in the DBMS's own dialect and ship it as a
  control message;
* execution — submit the final XDB query (or, for the mediator
  baselines, fetch subquery results into the mediator node);
* resilience — every control/DDL/fetch path runs through a guarded
  retry loop: transient faults (injected or environmental) back off
  exponentially in *simulated* seconds, slow links trip a per-call
  timeout budget, and engine outages fail fast so the optimizer can
  re-plan around the dead engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.engine.database import Database
from repro.engine.fdw import PROTOCOL_FACTORS
from repro.engine.result import Result
from repro.engine.stats import TableStats
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    ConnectorTimeoutError,
    EngineUnavailableError,
    NetworkError,
    NetworkPartitionedError,
    TransientConnectorError,
)
from repro.health import HealthRegistry
from repro.net.network import CONTROL_MESSAGE_BYTES, Network
from repro.obs.runtime import current_context
from repro.relational.schema import Schema
from repro.sql import ast
from repro.sql.render import render

T = TypeVar("T")

#: Errors the guarded retry loop may retry; anything else fails fast.
RETRYABLE_ERRORS = (TransientConnectorError, NetworkPartitionedError)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout configuration for one connector.

    Backoff is exponential — ``base_backoff_seconds * multiplier**k``,
    capped at ``max_backoff_seconds``, then jittered ±``jitter_ratio``
    from a seeded RNG so concurrent callers hitting the same degraded
    link do not back off in lockstep (no thundering herd on retry) —
    and accrues in *simulated* seconds (the query context's
    ``connector.backoff_seconds`` metric), so phase breakdowns price
    retries without real sleeps.  The jitter RNG is seeded per
    connector name (per query label inside a context), so two
    identically-seeded runs accrue identical backoff.
    ``call_timeout_seconds`` is the per-call budget: a control round
    trip whose simulated time would exceed it raises
    :class:`ConnectorTimeoutError` (retryable — the link may recover).
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    call_timeout_seconds: Optional[float] = 30.0
    jitter_ratio: float = 0.5

    def backoff_for(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Backoff after the ``attempt``-th (1-based) failed attempt.

        Without ``rng`` the value is the pure capped exponential; with
        ``rng`` it is jittered uniformly in ``±jitter_ratio`` of that.
        """
        raw = self.base_backoff_seconds * (
            self.backoff_multiplier ** (attempt - 1)
        )
        capped = min(raw, self.max_backoff_seconds)
        if rng is not None and self.jitter_ratio > 0.0:
            capped *= 1.0 + self.jitter_ratio * (2.0 * rng.random() - 1.0)
        return capped


@dataclass(frozen=True)
class CalibratedExplain:
    """A remote cost estimate aligned to the common currency (seconds)."""

    estimated_rows: float
    cost_seconds: float
    row_width: int
    plan_text: str


class DBMSConnector:
    """Connector between the middleware node and one database."""

    def __init__(
        self,
        database: Database,
        network: Network,
        middleware_node: str,
        protocol: str = "binary",
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if protocol not in PROTOCOL_FACTORS:
            raise ConnectorError(f"unknown wire protocol {protocol!r}")
        self.database = database
        self.network = network
        self.middleware_node = middleware_node
        self.protocol = protocol
        self.retry_policy = retry_policy or RetryPolicy()
        #: fault-injection hook (see :mod:`repro.faults`); ``None`` in
        #: production — the guard path then adds no overhead beyond a
        #: timeout precheck
        self.fault_injector = None
        #: shared circuit-breaker registry (see :mod:`repro.health`);
        #: ``None`` disables breaker gating entirely
        self.health: Optional[HealthRegistry] = None
        #: per-connector seeded RNG for deterministic backoff jitter
        #: outside any query context
        self._backoff_rng = random.Random(f"backoff:{database.name}")

    @property
    def name(self) -> str:
        return self.database.name

    @property
    def node(self) -> str:
        return self.database.node

    @property
    def profile(self):
        return self.database.profile

    def _bump(self, counter: str) -> None:
        """Count one ``connector.<counter>{db=…}`` in the active query's
        metrics; outside a query context nothing is kept."""
        ctx = current_context()
        if ctx is not None:
            ctx.metrics.inc(f"connector.{counter}", db=self.name)

    # -- resilience -------------------------------------------------------------

    def _guarded(
        self, op: str, fn: Callable[[], T], detail: Optional[str] = None
    ) -> T:
        """Run ``fn`` with breaker gating, faults, timeout, and retry.

        One tracer span covers the whole engine call (all attempts);
        retries, backoff, breaker fast-fails, and give-ups surface as
        span events on it.  ``detail`` is the call's payload (rendered
        SQL, a table name) when the call site has one cheaply — the
        fault injector matches shard-scoped outages against it.
        """
        ctx = current_context()
        if ctx is None:
            return self._guarded_attempts(op, fn, None, detail)
        with ctx.tracer.span(
            f"{op}@{self.name}", kind="call", db=self.name, op=op
        ):
            return self._guarded_attempts(op, fn, ctx, detail)

    def _guarded_attempts(
        self,
        op: str,
        fn: Callable[[], T],
        ctx,
        detail: Optional[str] = None,
    ) -> T:
        """The guarded retry loop behind :meth:`_guarded`.

        An open circuit breaker fails the call fast with
        :class:`CircuitOpenError` before the retry loop or the fault
        injector sees it — the federation already knows the engine is
        down.  Otherwise the loop retries :data:`RETRYABLE_ERRORS` up
        to ``retry_policy.max_attempts`` total attempts, accruing
        jittered exponential backoff into the context's simulated
        clock (no real sleeping).  Non-retryable errors,
        e.g. an engine outage, propagate immediately so callers can
        re-plan; every call outcome is reported to the health registry
        so breakers trip on failure streaks and close on recovery.
        """
        policy = self.retry_policy
        registry = self.health
        deadline = getattr(ctx, "deadline", None) if ctx is not None else None
        phase = ""
        if ctx is not None:
            phase = getattr(ctx, "current_phase", "") or op
        probe = False
        if registry is not None:
            gate = registry.gate(self.name)
            if gate == "blocked":
                self._bump("breaker_fastfails")
                if ctx is not None:
                    ctx.tracer.add_event(
                        "breaker-fastfail", db=self.name, op=op
                    )
                raise CircuitOpenError(
                    f"circuit breaker for DBMS {self.name!r} is open; "
                    f"failing {op!r} fast until the cool-down elapses",
                    db=self.name,
                )
            probe = gate == "probe"
        try:
            attempt = 0
            while True:
                attempt += 1
                try:
                    if deadline is not None:
                        deadline.check(phase, detail=f"{op}@{self.name}")
                    if self.fault_injector is not None:
                        self.fault_injector.before_call(
                            self.name, op, detail
                        )
                    self._check_timeout(op, deadline=deadline, phase=phase)
                    result = fn()
                except RETRYABLE_ERRORS:
                    self._bump("failures")
                    if attempt >= policy.max_attempts:
                        self._bump("giveups")
                        if ctx is not None:
                            ctx.tracer.add_event(
                                "giveup",
                                db=self.name,
                                op=op,
                                attempts=attempt,
                            )
                        if registry is not None:
                            registry.record_failure(
                                self.name, f"retry budget exhausted ({op})"
                            )
                            probe = False
                        raise
                    self._bump("retries")
                    rng = (
                        ctx.backoff_rng(self.name)
                        if ctx is not None
                        else self._backoff_rng
                    )
                    backoff = policy.backoff_for(attempt, rng=rng)
                    if ctx is not None:
                        ctx.add_backoff(self.name, backoff)
                        ctx.tracer.add_event(
                            "retry",
                            db=self.name,
                            op=op,
                            attempt=attempt,
                            backoff_seconds=backoff,
                        )
                except EngineUnavailableError as exc:
                    if exc.db is None:
                        exc.db = self.name
                    if ctx is not None:
                        ctx.tracer.add_event(
                            "engine-unavailable", db=self.name, op=op
                        )
                    if registry is not None:
                        registry.record_failure(
                            self.name, f"engine unavailable ({op})"
                        )
                        probe = False
                    raise
                else:
                    if registry is not None:
                        registry.record_success(self.name)
                        probe = False
                    return result
        finally:
            # A probe that never reached an outcome (deadline expiry,
            # timeout, non-retryable execution error) must hand the
            # half-open probe slot back, or the breaker deadlocks.
            if probe and registry is not None:
                registry.finish_probe(self.name)

    def _check_timeout(
        self, op: str, deadline=None, phase: str = ""
    ) -> None:
        """Enforce the per-call budget against the current link state.

        The precheck prices a control round trip middleware ↔ DBMS on
        the (possibly degraded) link *before* executing, so a timed-out
        call has no partial server-side effect and is safe to retry.

        With an armed per-query ``deadline`` the budget is the tentpole
        rule ``min(remaining_deadline, per_call_cap, policy_cap)``.
        When the *deadline* is what the call cannot fit into, the error
        is a non-retryable :class:`~repro.errors.DeadlineExceeded` —
        retrying cannot mint new budget; when only a static cap binds,
        the retryable :class:`ConnectorTimeoutError` is kept (the link
        may recover).
        """
        policy_budget = self.retry_policy.call_timeout_seconds
        if policy_budget is None and deadline is None:
            return
        round_trip = 2 * self.network.transfer_time(
            self.middleware_node, self.node, CONTROL_MESSAGE_BYTES
        )
        if deadline is not None:
            remaining = max(deadline.remaining_seconds, 0.0)
            budget = deadline.call_cap(policy_budget)
            if round_trip > budget:
                if round_trip > remaining:
                    raise deadline.exceeded(
                        phase or op, detail=f"{op}@{self.name}"
                    )
                raise ConnectorTimeoutError(
                    f"control round trip to {self.name!r} would take "
                    f"{round_trip:.3f}s, exceeding the {budget:.3f}s "
                    f"per-call budget ({op})"
                )
        elif round_trip > policy_budget:
            raise ConnectorTimeoutError(
                f"control round trip to {self.name!r} would take "
                f"{round_trip:.3f}s, exceeding the {policy_budget:.3f}s "
                f"per-call budget ({op})"
            )

    def is_available(self) -> bool:
        """Placement-time health check, circuit-breaker aware.

        Used by the annotator's degradation-aware placement: an engine
        that is down, partitioned away from the middleware, or behind a
        link too slow for the call budget is excluded from the
        candidate set ``A`` (§IV-B2 topology-constraint machinery).

        With a health registry attached, an *open* breaker answers
        ``False`` instantly — no per-query re-probing of a known-dead
        engine.  Once the simulated-clock cool-down elapses the check
        becomes the half-open probe: one real control round trip (it
        consumes the fault schedule like any call) that re-admits the
        engine on success and re-opens the breaker on failure.
        Without a registry (or while the breaker is closed) the checks
        below are pure probes that consume nothing.
        """
        if self.health is not None:
            gate = self.health.gate(self.name)
            if gate == "blocked":
                return False
            if gate == "probe":
                return self._half_open_probe()
        if self.fault_injector is not None and self.fault_injector.engine_down(
            self.name
        ):
            return False
        if self.network.is_partitioned(self.middleware_node, self.node):
            return False
        try:
            self._check_timeout("probe")
        except ConnectorTimeoutError:
            return False
        return True

    def _half_open_probe(self) -> bool:
        """One real probe through a half-open breaker.

        Unlike the closed-state availability checks this is a genuine
        call: it consumes the fault injector's schedule and counts a
        control round trip, because the whole point is to test whether
        the engine answers again.  Success closes the breaker
        (re-admission), any failure re-opens it for another cool-down.
        """
        try:
            try:
                if self.fault_injector is not None:
                    self.fault_injector.before_call(self.name, "probe")
                if self.network.is_partitioned(
                    self.middleware_node, self.node
                ):
                    raise NetworkPartitionedError(
                        f"probe: link {self.middleware_node} <-> "
                        f"{self.node} is partitioned"
                    )
                self._check_timeout("probe")
            except (ConnectorError, NetworkError):
                self.health.record_failure(
                    self.name, "half-open probe failed"
                )
                return False
            self._control("probe")
            self.health.record_success(self.name)
            return True
        finally:
            # Whatever happened, the single half-open probe slot this
            # availability check consumed is handed back (no-op when a
            # recorded outcome already released it).
            self.health.finish_probe(self.name)

    # -- metadata ---------------------------------------------------------------

    def _control(self, tag: str) -> None:
        self._bump("control_messages")
        self.network.record_control_message(
            self.middleware_node, self.node, tag=tag
        )
        self.network.record_control_message(
            self.node, self.middleware_node, tag=tag
        )

    def list_tables(self) -> Dict[str, Schema]:
        """Names and schemas of the database's stored tables."""

        def call() -> Dict[str, Schema]:
            self._control("metadata")
            return {
                table.name: table.schema
                for table in self.database.catalog.tables()
                if not table.temporary
            }

        return self._guarded("metadata", call)

    def table_stats(self, name: str) -> Optional[TableStats]:
        def call() -> Optional[TableStats]:
            self._control("metadata")
            return self.database.table_stats(name)

        return self._guarded("metadata", call, detail=name)

    def table_schema(self, name: str) -> Optional[Schema]:
        """The *live* schema of one stored table (None when dropped).

        The global catalog's fingerprint verification calls this — one
        guarded metadata round-trip per verified table — to compare
        the engine's current truth against its recorded snapshot.
        """

        def call() -> Optional[Schema]:
            self._control("metadata")
            obj = self.database.catalog.get(name)
            if obj is None or obj.kind != "TABLE" or obj.temporary:
                return None
            return obj.schema

        return self._guarded("metadata", call, detail=name)

    def list_objects(self, prefixes=()) -> List[Tuple[str, str]]:
        """(kind, name) of every catalog object matching ``prefixes``.

        The orphan reaper's reconciliation primitive: what does this
        engine actually hold right now?  Matching is case-insensitive;
        empty ``prefixes`` lists everything.
        """

        def call() -> List[Tuple[str, str]]:
            self._control("metadata")
            lowered = tuple(p.lower() for p in prefixes)
            return [
                (obj.kind, obj.name)
                for obj in self.database.catalog.objects()
                if not lowered or obj.name.lower().startswith(lowered)
            ]

        return self._guarded("metadata", call)

    def table_rows(self, name: str) -> float:
        # Routed through the guarded metadata path (table_stats), so
        # fault injection, breaker gating, and control-message
        # accounting all see it — previously the one connector path
        # faults could not reach.
        stats = self.table_stats(name)
        if stats is None:
            raise ConnectorError(
                f"no statistics for table {name!r} on {self.name}"
            )
        return float(stats.row_count)

    # -- costing (the consulting approach) ---------------------------------------

    def explain(self, query: ast.Select) -> CalibratedExplain:
        """One consultation round-trip: remote EXPLAIN, calibrated."""

        def call() -> CalibratedExplain:
            self._bump("consultations")
            self._control("consult")
            info = self.database.explain_select(query)
            return CalibratedExplain(
                estimated_rows=info.estimated_rows,
                cost_seconds=self.database.cost_model.seconds(
                    info.total_cost
                ),
                row_width=info.row_width,
                plan_text=info.plan_text,
            )

        return self._guarded("consult", call)

    def estimate_join_cost(
        self,
        local_rows: float,
        moved_rows: float,
        output_rows: float,
        materialized: bool,
    ) -> float:
        """Costing function for a cross-database join at this DBMS.

        This is the connector-provided costing function of §IV-B2 (the
        "consulting approach", wrapping the engine's EXPLAIN machinery):
        one call = one consultation round-trip.

        The quote itself is the engine's
        :meth:`~repro.engine.cost.CostModel.planned_join_seconds`, in
        calibrated seconds.
        """

        def call() -> None:
            self._bump("consultations")
            self._control("consult")

        self._guarded("consult", call)
        return self.database.cost_model.planned_join_seconds(
            local_rows, moved_rows, output_rows, materialized
        )

    # -- delegation ----------------------------------------------------------------

    def execute_ddl(self, statement: ast.Statement) -> Result:
        """Render ``statement`` in the DBMS's dialect and execute it."""
        sql = render(statement, self.database.dialect)

        def call() -> Result:
            self._control("delegation")
            return self.database.execute(sql)

        return self._guarded("ddl", call, detail=sql)

    def execute_sql(self, sql: str) -> Result:
        def call() -> Result:
            self._control("delegation")
            return self.database.execute(sql)

        return self._guarded("ddl", call, detail=sql)

    # -- execution / data movement ----------------------------------------------------

    def run_query(self, query: ast.Select, client_node: str) -> Result:
        """Run a final query; the result travels DBMS → client.

        Failure accounting: the transfer is recorded only after the
        remote execution succeeds (same ordering as :meth:`fetch` and
        :meth:`push_rows`) — a failed call must not inflate the
        query's transfers with bytes that never moved.
        """

        def call() -> Result:
            result = self.database.execute_select(query)
            self.network.record_transfer(
                src=self.node,
                dst=client_node,
                payload_bytes=int(
                    result.byte_size() * PROTOCOL_FACTORS[self.protocol]
                ),
                rows=len(result),
                tag="result",
                protocol=self.protocol,
            )
            return result

        return self._guarded(
            "query", call, detail=self._injector_detail(query)
        )

    def _injector_detail(self, query: ast.Select) -> Optional[str]:
        """Render a query payload for shard-scoped fault matching.

        Only paid when an injector is installed — production runs skip
        the render entirely.
        """
        if self.fault_injector is None:
            return None
        return render(query, self.database.dialect)

    def fetch(self, query: ast.Select, tag: str = "mediator-fetch") -> Result:
        """Fetch a subquery result into the middleware node (MW path)."""

        def call() -> Result:
            result = self.database.execute_select(query)
            self.network.record_transfer(
                src=self.node,
                dst=self.middleware_node,
                payload_bytes=int(
                    result.byte_size() * PROTOCOL_FACTORS[self.protocol]
                ),
                rows=len(result),
                tag=tag,
                protocol=self.protocol,
            )
            return result

        return self._guarded(
            "fetch", call, detail=self._injector_detail(query)
        )

    def push_rows(
        self,
        table_name: str,
        schema: Schema,
        rows: List[tuple],
        tag: str = "mediator-ship",
    ) -> None:
        """Ship rows from the middleware into a (temp) table (MW path).

        The transfer is recorded only *after* the table lands: an
        engine outage between shipping and creating must not credit
        ``net.metrics`` with bytes that never arrived.
        """

        def call() -> None:
            self.database.create_table(table_name, schema, rows, replace=True)
            self.network.record_transfer(
                src=self.middleware_node,
                dst=self.node,
                payload_bytes=int(
                    schema.row_width()
                    * len(rows)
                    * PROTOCOL_FACTORS[self.protocol]
                ),
                rows=len(rows),
                tag=tag,
                protocol=self.protocol,
            )

        return self._guarded("fetch", call)
