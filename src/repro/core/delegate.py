"""The delegation engine: Algorithm 1 of the paper (§V-A).

The engine walks the delegation plan depth-first.  For each task it

1. recursively deploys the child tasks, obtaining their view names;
2. creates a **foreign table** on the task's DBMS pointing at each
   child view (``CREATEFOREIGNTABLE``);
3. for **explicit** edges additionally materializes the foreign table
   into a local relation (``CREATELOCALTABLE``, a ``CREATE TABLE AS``);
4. creates a **virtual relation** (a view) for the task's own algebraic
   expression (``CREATEVIRTUALTABLE``) — the paper's safeguard against
   vendor-specific wrapper pushdown: all of the task's operations are
   pinned inside the remote view, so no capability mismatch can leak
   them to the wrong DBMS.

The traversal returns the *XDB query* — ``SELECT * FROM <root view>`` —
which the client runs on the root task's DBMS to trigger the in-situ
cascade (§V-B).  All created objects are short-lived and dropped by
:meth:`DeployedQuery.cleanup`.

Deployment is **transactional** (deploy-or-rollback): if any DDL
statement fails mid-cascade, every object created so far is dropped in
reverse creation order and a structured :class:`DelegationError`
carrying the DDL log is raised — a partially deployed cascade never
leaks onto the autonomous engines.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.connect.connector import DBMSConnector
from repro.core.plan import DelegationPlan, Movement, Task, TaskEdge
from repro.drift.ledger import DelegatedObject, ObjectLedger
from repro.errors import (
    DeadlineExceeded,
    DelegationError,
    EngineUnavailableError,
    ReproError,
)
from repro.obs.context import add_event
from repro.obs.runtime import current_context
from repro.relational.decompile import plan_to_select
from repro.sql import ast


@dataclass
class DeployedQuery:
    """A delegation plan deployed onto the DBMSes, ready to execute.

    :meth:`DelegationEngine.delegate` creates it empty and Algorithm 1
    appends every object, DDL statement, edge view and snapshot to it
    as the cascade is built; :meth:`cleanup` and :meth:`cancel` tear it
    down through the ledger's one drop routine.
    """

    plan: DelegationPlan
    root_db: str
    xdb_query: Optional[ast.Select] = None
    #: (db, object kind, object name) in creation order
    created_objects: List[DelegatedObject] = field(default_factory=list)
    #: (db, rendered DDL) in execution order — Fig. 7 style
    ddl_log: List[Tuple[str, str]] = field(default_factory=list)
    #: index of an edge in ``plan.edges`` -> its producing view name:
    #: keyed by position, so a run's fresh edges (``plan.for_run()``)
    #: map to the same views
    edge_views: Dict[int, str] = field(default_factory=dict)
    #: (db, table name, CTAS statement) per explicit edge, so a prepared
    #: query can refresh its materializations before re-execution
    materializations: List[Tuple[str, str, ast.CreateTableAs]] = field(
        default_factory=list
    )
    #: producer task id -> (db, name) of the finished ``xm_`` snapshot
    #: that materializes its output — what adaptation and salvage pin
    snapshots: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    #: the client's delegated-object ledger and this deployment's epoch
    #: in it — teardown retires the epoch so the reaper may collect
    #: whatever a failed drop leaves behind
    ledger: ObjectLedger = field(default_factory=ObjectLedger)
    epoch: int = 0
    _connectors: Mapping[str, DBMSConnector] = field(
        repr=False, default_factory=dict
    )

    def _connector(self, db: str) -> DBMSConnector:
        connector = self._connectors.get(db)
        if connector is None:
            raise DelegationError(
                f"no connector for DBMS {db!r} — this DeployedQuery was "
                "built without its federation's connectors"
            )
        return connector

    def cleanup(self) -> None:
        """Drop every short-lived object, consumers before producers.

        Best-effort and idempotent: objects whose DROP fails stay
        queued so a later call can retry; a second call over an empty
        ledger is a no-op.  Initiating cleanup retires this
        deployment's ledger epoch — from here on the reaper may
        collect whatever a failed drop leaves behind.
        """
        self._release()
        if self.created_objects:
            raise DelegationError(
                "cleanup could not drop every short-lived object: "
                + "; ".join(
                    f"{kind} {name!r} on {db!r}"
                    for db, kind, name in self.created_objects
                ),
                leaked=list(self.created_objects),
            )

    def cancel(self, exc: DeadlineExceeded) -> None:
        """Cooperative cancellation after deadline expiry.

        The cascade — partial or complete — is rolled back under the
        deadline's bounded *grace* budget, so teardown cannot hang
        forever either, and ``exc`` gets the exact accounting: what was
        dropped and what (if the grace budget also ran out) leaked.
        """
        with grace():
            rolled_back, leaked = self._release(rollback=True)
        exc.rolled_back = list(exc.rolled_back) + rolled_back
        exc.leaked = list(exc.leaked) + leaked
        add_event(
            "deadline-cancelled",
            phase=exc.phase,
            rolled_back=len(exc.rolled_back),
            leaked=len(exc.leaked),
        )

    def _release(
        self,
        keep: Sequence[DelegatedObject] = (),
        skip_db: Optional[str] = None,
        rollback: bool = False,
    ) -> Tuple[List[DelegatedObject], List[DelegatedObject]]:
        """Retire the epoch and drop every object but ``keep``; what
        could not be dropped stays queued in ``created_objects``."""
        self.ledger.close_epoch(self.epoch)
        objects = [obj for obj in self.created_objects if obj not in keep]
        dropped, leaked = self.ledger.drop(
            self._connectors, objects, skip_db=skip_db, rollback=rollback
        )
        self.created_objects[:] = leaked[::-1]
        return dropped, leaked

    def refresh_materializations(self) -> None:
        """Re-run every explicit edge's CTAS against fresh base data.

        Views (implicit edges) always see fresh data; materialized
        intermediates are snapshots and must be rebuilt before a
        prepared query re-executes.  The rebuild uses ``CREATE OR
        REPLACE TABLE AS`` — the engine computes the fresh result
        before swapping, so a failing CTAS leaves the previous
        snapshot in place instead of a missing table.
        """
        for db, table_name, ctas in self.materializations:
            refresh = dataclasses.replace(ctas, or_replace=True)
            self._connector(db).execute_ddl(refresh)


def grace():
    """The active deadline's grace budget for a teardown (a no-op
    without a deadline)."""
    ctx = current_context()
    if ctx is None or ctx.deadline is None:
        return contextlib.nullcontext()
    return ctx.deadline.grace()


class DelegationEngine:
    """Rewrites delegation plans into DBMS-specific DDL (Algorithm 1)."""

    def __init__(
        self,
        connectors: Mapping[str, DBMSConnector],
        ledger: Optional[ObjectLedger] = None,
    ):
        self._connectors = dict(connectors)
        #: durable record of every object ever created, and the owner
        #: of their names and epochs: its namespace keeps concurrent
        #: clients' short-lived ``xf_/xm_/xv_`` objects apart, and each
        #: new epoch is above every one it has seen, so new names
        #: cannot collide with a live or leaked one.
        self.ledger = ledger or ObjectLedger()

    def delegate(
        self, dplan: DelegationPlan, salvage: bool = False
    ) -> DeployedQuery:
        """Deploy ``dplan``; returns the XDB query for the client.

        With ``salvage`` set, a mid-cascade failure keeps completed
        explicit-edge ``xm_`` snapshots that live on engines *other*
        than the dead one instead of rolling them back — the raised
        :class:`DelegationError` reports them in ``salvaged`` so the
        pipeline's branch-scoped recovery can pin and re-fence them
        (the caller owns dropping them if it cannot).
        """
        epoch = self.ledger.open_epoch()
        deployed = DeployedQuery(
            plan=dplan,
            root_db=dplan.root.annotation,
            ledger=self.ledger,
            epoch=epoch,
            _connectors=self._connectors,
        )
        try:
            root_view = self._process_task(deployed, dplan.root)
        except DeadlineExceeded as exc:
            deployed.cancel(exc)
            raise
        except ReproError as exc:
            # When the cause is a dead engine, don't try to DROP the
            # objects created on it — every attempt would fail (or burn
            # the retry budget); mark them leaked for a later cleanup.
            # A *shard*-scoped outage (exc.table set) leaves the engine
            # itself answering, so nothing is skipped.
            dead_db = (
                exc.db
                if isinstance(exc, EngineUnavailableError)
                and getattr(exc, "table", None) is None
                else None
            )
            salvaged = (
                [
                    (task_id, db, "TABLE", name)
                    for task_id, (db, name) in deployed.snapshots.items()
                    if db != dead_db
                ]
                if salvage
                else []
            )
            ddl_log = deployed.ddl_log
            rolled_back, leaked = deployed._release(
                keep=[(db, kind, name) for _t, db, kind, name in salvaged],
                skip_db=dead_db,
                rollback=True,
            )
            message = (
                f"delegation failed after {len(ddl_log)} DDL "
                f"statement(s): {exc}; rolled back "
                f"{len(rolled_back)} object(s)"
            )
            if leaked:
                message += f", could not drop {len(leaked)} object(s)"
            if salvaged:
                message += (
                    f", salvaged {len(salvaged)} completed snapshot(s)"
                )
                add_event(
                    "salvage",
                    count=len(salvaged),
                    objects=",".join(name for _t, _d, _k, name in salvaged),
                )
            raise DelegationError(
                message,
                ddl_log=ddl_log,
                rolled_back=rolled_back,
                leaked=leaked,
                failed_db=ddl_log[-1][0] if ddl_log else None,
                salvaged=salvaged,
            ) from exc

        deployed.xdb_query = ast.Select(
            items=(ast.SelectItem(ast.Star()),),
            from_items=(ast.TableRef((root_view,)),),
        )
        return deployed

    # -- Algorithm 1 -------------------------------------------------------------

    def _process_task(self, deployed: DeployedQuery, task: Task) -> str:
        db = task.annotation
        if db not in self._connectors:
            raise DelegationError(f"no connector for DBMS {db!r}")

        dplan, epoch = deployed.plan, deployed.epoch
        for index, edge in enumerate(dplan.edges):
            if edge.consumer_id != task.task_id:
                continue
            child = dplan.tasks[edge.producer_id]
            child_view = self._process_task(deployed, child)
            deployed.edge_views[index] = child_view

            # CREATEFOREIGNTABLE(R_v, t.a)
            foreign_name = self.ledger.name(
                "FOREIGN TABLE", epoch, child.task_id
            )
            columns = tuple(
                ast.ColumnDef(fld.name, fld.type)
                for fld in child.expr.schema
            )
            self._create(
                deployed,
                db,
                "FOREIGN TABLE",
                ast.CreateForeignTable(
                    name=foreign_name,
                    columns=columns,
                    server=child.annotation,
                    remote_object=child_view,
                ),
            )

            if edge.movement is Movement.EXPLICIT:
                # CREATELOCALTABLE(R'_v, t.a): materialize on the consumer.
                local_name = self.ledger.name("TABLE", epoch, child.task_id)
                ctas = ast.CreateTableAs(
                    name=local_name,
                    query=ast.Select(
                        items=(ast.SelectItem(ast.Star()),),
                        from_items=(ast.TableRef((foreign_name,)),),
                    ),
                )
                self._create(deployed, db, "TABLE", ctas)
                deployed.materializations.append((db, local_name, ctas))
                deployed.snapshots[child.task_id] = (db, local_name)
                resolved_name = local_name
            else:
                resolved_name = foreign_name

            self._resolve_placeholder(task, edge, resolved_name)

        # CREATEVIRTUALTABLE(t.r, t.a)
        view_name = self.ledger.name("VIEW", epoch, task.task_id)
        create_view = ast.CreateView(
            name=view_name, query=plan_to_select(task.expr)
        )
        self._create(deployed, db, "VIEW", create_view)
        return view_name

    def _create(
        self,
        deployed: DeployedQuery,
        db: str,
        kind: str,
        statement,
    ) -> None:
        """Run one CREATE on ``db`` and record the object (in-memory +
        ledger).

        Ledger recording happens per object, *as created*, so a crash
        mid-cascade still leaves a durable trail for the reaper."""
        self._connectors[db].execute_ddl(statement, log=deployed.ddl_log)
        deployed.created_objects.append((db, kind, statement.name))
        self.ledger.record(db, kind, statement.name, deployed.epoch)

    @staticmethod
    def _resolve_placeholder(
        task: Task, edge: TaskEdge, object_name: str
    ) -> None:
        """Point the ``?`` placeholder scan at the created object."""
        for scan in task.expr.leaves():
            if scan.placeholder and scan.binding == edge.placeholder:
                scan.table = object_name
                return
        raise DelegationError(
            f"placeholder {edge.placeholder!r} not found in task "
            f"{task.task_id}"
        )
