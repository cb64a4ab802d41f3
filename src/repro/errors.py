"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystems raise the most
specific subclass available; error messages always carry enough context
(object names, positions) to debug a failing query without a stack trace.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: the innermost :class:`~repro.obs.context.QueryContext` the error
    #: left, set as it leaves — a failed submission's retries, give-ups
    #: and breaker fast-fails are read off it (None outside any context)
    context = None


class SQLError(ReproError):
    """Base class for errors in the SQL front end."""


class LexerError(SQLError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SQLError):
    """Raised when the parser cannot derive a statement from the tokens."""


class BindError(ReproError):
    """Raised when names in a query cannot be resolved against a catalog."""


class TypeCheckError(ReproError):
    """Raised when an expression is applied to incompatible types."""


class CatalogError(ReproError):
    """Raised for unknown / duplicate tables, views, servers, or columns."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during evaluation."""


class ConnectorError(ReproError):
    """Raised when a DBMS connector cannot reach or drive its database."""


class TransientConnectorError(ConnectorError):
    """A retryable connector failure (dropped packet, hiccup, restart).

    The connector's retry loop treats this class (and subclasses) as
    safe to retry with backoff; anything else fails the call at once.
    """


class ConnectorTimeoutError(TransientConnectorError):
    """A call's simulated round trip exceeded its per-call timeout budget."""


class EngineUnavailableError(ConnectorError):
    """The DBMS behind a connector is down (engine outage).

    Not retryable: an outage outlives a backoff window, so callers
    should re-plan around the engine (or surface a clear diagnostic
    when the engine holds data the query needs).  ``db`` names the
    unavailable engine when one specific engine can be blamed — the
    client's plan-repair loop uses it to record the outage in the
    health registry and re-plan around that engine; ``db=None`` marks
    an unrepairable condition (e.g. every holder of a table is down).

    ``table`` narrows the fault domain below the engine: a
    shard-scoped outage (only ``orders__p3`` is unreachable, the rest
    of the engine answers) names the struck table so branch-scoped
    recovery can quarantine exactly that (db, table) holder instead of
    tripping the whole engine's breaker.
    """

    def __init__(self, message: str, db=None, table=None):
        super().__init__(message)
        #: the unavailable DBMS, when a single engine can be blamed
        self.db = db
        #: the struck table for shard-scoped faults (None = whole engine)
        self.table = table


class CircuitOpenError(EngineUnavailableError):
    """A call failed fast because the engine's circuit breaker is open.

    Raised by the connector's guard *before* touching the retry budget
    or the fault injector's schedule: while a breaker is open the
    federation already knows the engine is down and re-probing it per
    query would only waste the budget (see :mod:`repro.health`).
    """


class NetworkError(ReproError):
    """Raised for invalid simulated-network configurations or routes."""


class NetworkPartitionedError(NetworkError):
    """A link is (temporarily) partitioned; transfers on it fail.

    Retryable by the connector layer — partitions heal, unlike the
    permanent topology constraints of :meth:`Network.forbid_link`.
    """


class SchemaDriftError(CatalogError):
    """A remote table's live schema no longer matches the global catalog.

    Raised by the catalog's fingerprint verification (and by the
    client's drift sniffing) when a remote engine changed a table
    underneath the federation — the paper's in-situ premise means the
    sources are autonomous, so this is an expected operational event,
    not a bug.  Carries a field-level diff so the recovery path (and a
    human reading the error) can see exactly what moved:

    * ``added`` — columns present on the engine but not in the catalog;
    * ``removed`` — columns the catalog knows but the engine dropped
      (a rename shows up as one ``removed`` plus one ``added``);
    * ``retyped`` — ``"col: old -> new"`` entries for type changes;
    * ``dropped`` — True when the whole table vanished from the engine.

    ``quarantined`` marks a table the recovery path gave up on: its
    holders are excluded from placement until a catalog refresh.
    """

    def __init__(
        self,
        message: str,
        db: str = "",
        table: str = "",
        added=None,
        removed=None,
        retyped=None,
        dropped: bool = False,
        quarantined: bool = False,
        expected_fingerprint: str = "",
        actual_fingerprint: str = "",
    ):
        super().__init__(message)
        #: the DBMS whose live schema drifted
        self.db = db
        #: the drifted table (catalog-cased name)
        self.table = table
        #: column names the engine added
        self.added = list(added) if added else []
        #: column names the engine dropped (or renamed away)
        self.removed = list(removed) if removed else []
        #: ``"col: old -> new"`` per type change
        self.retyped = list(retyped) if retyped else []
        #: the table no longer exists on the engine
        self.dropped = dropped
        #: the table is quarantined (placement avoids its holders)
        self.quarantined = quarantined
        self.expected_fingerprint = expected_fingerprint
        self.actual_fingerprint = actual_fingerprint

    def diff_summary(self) -> str:
        """Compact field-level diff for events and logs."""
        if self.dropped:
            return "table dropped"
        parts = []
        if self.added:
            parts.append("+" + ",".join(self.added))
        if self.removed:
            parts.append("-" + ",".join(self.removed))
        if self.retyped:
            parts.append("~" + ",".join(self.retyped))
        return " ".join(parts) or "fingerprint mismatch"


class OptimizerError(ReproError):
    """Raised when the cross-database optimizer cannot produce a plan."""


class DelegationError(ReproError):
    """Raised when a delegation plan cannot be deployed onto the DBMSes.

    Carries the structured deployment context: the DDL statements
    executed before the failure (``ddl_log``), the objects dropped by
    the deploy-or-rollback pass (``rolled_back``), and any objects the
    rollback itself could not remove (``leaked`` — empty in the normal
    case).

    Branch-scoped recovery (PR 11) adds a salvage channel: completed
    explicit-edge ``xm_`` snapshots living on *healthy* engines survive
    the rollback and are reported in ``salvaged`` as
    ``(task_id, db, "TABLE", name)`` so the pipeline can pin them as
    placeholder scans and re-delegate only the failed branch.
    """

    def __init__(
        self,
        message: str,
        ddl_log=None,
        rolled_back=None,
        leaked=None,
        failed_db=None,
        salvaged=None,
    ):
        super().__init__(message)
        #: (db, rendered DDL) executed before the failure
        self.ddl_log = list(ddl_log) if ddl_log else []
        #: (db, kind, name) dropped during rollback
        self.rolled_back = list(rolled_back) if rolled_back else []
        #: (db, kind, name) the rollback could not drop
        self.leaked = list(leaked) if leaked else []
        #: the DBMS whose statement failed, when known
        self.failed_db = failed_db
        #: (task_id, db, kind, name) completed snapshots kept for reuse
        self.salvaged = list(salvaged) if salvaged else []


class DeadlineExceeded(ReproError):
    """A query's deadline budget ran out (see :mod:`repro.qos`).

    Not retryable: the budget is per *query*, so once it is gone no
    amount of retrying inside the same submission can help.  Carries
    the phase the query died in (``prep``/``lopt``/``ann``/
    ``admission``/``delegate``/``execute``/``refresh``/``rollback``),
    the call-level detail when a connector raised it, and — when the
    expiry interrupted a deployed or partially deployed cascade — the
    rollback accounting (``rolled_back``/``leaked``), mirroring
    :class:`DelegationError` so no object is ever silently dropped.
    """

    def __init__(
        self,
        message: str,
        phase: str = "",
        detail: str = "",
        budget_seconds=None,
        elapsed_seconds=None,
        rolled_back=None,
        leaked=None,
    ):
        super().__init__(message)
        #: coarse phase the deadline expired in
        self.phase = phase
        #: call-level detail (``"ddl@db2"``) when a connector raised it
        self.detail = detail
        #: the query's total budget, in deadline seconds
        self.budget_seconds = budget_seconds
        #: budget consumed at expiry
        self.elapsed_seconds = elapsed_seconds
        #: (db, kind, name) dropped by the cancellation rollback
        self.rolled_back = list(rolled_back) if rolled_back else []
        #: (db, kind, name) the cancellation rollback could not drop
        self.leaked = list(leaked) if leaked else []


class OverloadError(ReproError):
    """A query was shed by admission control (see :mod:`repro.qos`).

    Raised *before* any engine work happens: the waiting room for some
    engine is full (or the caller lost its slot to a higher-priority
    query), so the submission consumed no capacity and is safe to retry
    after ``retry_after_seconds``.
    """

    def __init__(
        self,
        message: str,
        db=None,
        retry_after_seconds=None,
        priority=None,
    ):
        super().__init__(message)
        #: the engine whose admission queue shed the query
        self.db = db
        #: suggested client back-off before resubmitting (seconds)
        self.retry_after_seconds = retry_after_seconds
        #: the shed query's priority
        self.priority = priority


class WorkloadError(ReproError):
    """Raised for invalid workload configurations (scale factors, TDs)."""
