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

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import DeadlineExceeded, EngineUnavailableError, ReproError

from repro.connect.connector import DBMSConnector
from repro.core.plan import DelegationPlan, Movement, Task, TaskEdge
from repro.drift.ledger import ObjectLedger
from repro.errors import DelegationError
from repro.obs.runtime import current_context
from repro.relational.decompile import plan_to_select
from repro.sql import ast


@dataclass
class DeployedQuery:
    """A delegation plan deployed onto the DBMSes, ready to execute."""

    plan: DelegationPlan
    root_db: str
    xdb_query: ast.Select
    #: (db, object kind, object name) in creation order
    created_objects: List[Tuple[str, str, str]]
    #: (db, rendered DDL) in execution order — Fig. 7 style
    ddl_log: List[Tuple[str, str]]
    #: edge -> producing view name (for ledger attribution)
    edge_views: Dict[int, str]
    #: (db, table name, CTAS statement) per explicit edge, so a prepared
    #: query can refresh its materializations before re-execution
    materializations: List[Tuple[str, str, ast.CreateTableAs]] = field(
        default_factory=list
    )
    #: the client's delegated-object ledger and this deployment's epoch
    #: in it — cleanup retires the epoch so the reaper may collect
    #: whatever a failed drop leaves behind
    ledger: Optional[ObjectLedger] = None
    epoch: int = 0
    #: namespaced epoch prefix baked into every object name — mid-query
    #: adaptation reconstructs ``xm_{query_id}_{task_id}`` from it when
    #: pinning executed producers
    query_id: str = ""
    _connectors: Mapping[str, DBMSConnector] = field(
        repr=False, default_factory=dict
    )

    def _connector(self, db: str) -> DBMSConnector:
        connector = self._connectors.get(db) if self._connectors else None
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
        if self.ledger is not None and self.epoch:
            self.ledger.close_epoch(self.epoch)
        remaining: List[Tuple[str, str, str]] = []
        errors: List[str] = []
        for db, kind, name in reversed(self.created_objects):
            try:
                self._connector(db).execute_ddl(
                    ast.DropObject(kind=kind, name=name, if_exists=True)
                )
                if self.ledger is not None:
                    self.ledger.mark_dropped(db, name)
            except ReproError as exc:
                remaining.append((db, kind, name))
                errors.append(f"{kind} {name!r} on {db!r}: {exc}")
                if self.ledger is not None:
                    self.ledger.mark_leaked(db, name)
        self.created_objects[:] = list(reversed(remaining))
        if errors:
            raise DelegationError(
                "cleanup could not drop every short-lived object: "
                + "; ".join(errors),
                leaked=remaining,
            )

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


class DelegationEngine:
    """Rewrites delegation plans into DBMS-specific DDL (Algorithm 1)."""

    def __init__(
        self,
        connectors: Mapping[str, DBMSConnector],
        namespace: str = "",
        ledger: Optional[ObjectLedger] = None,
    ):
        self._connectors = dict(connectors)
        #: prefix folded into every created object name — concurrent
        #: clients of one federation use distinct namespaces so their
        #: short-lived ``xf_/xm_/xv_`` objects cannot collide
        self._namespace = namespace
        #: durable record of every object ever created (drift PR);
        #: a restarted client resumes its counter above the ledger's
        #: highest epoch so new names cannot collide with leaked ones
        self._ledger = ledger
        self._query_counter = ledger.max_epoch() if ledger else 0

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
        self._query_counter += 1
        epoch = self._query_counter
        query_id = f"{self._namespace}{epoch}"
        if self._ledger is not None:
            self._ledger.open_epoch(epoch)
        created: List[Tuple[str, str, str]] = []
        ddl_log: List[Tuple[str, str]] = []
        edge_views: Dict[int, str] = {}
        materializations: List[Tuple[str, str, ast.CreateTableAs]] = []

        try:
            root_view = self._process_task(
                dplan,
                dplan.root,
                query_id,
                epoch,
                created,
                ddl_log,
                edge_views,
                materializations,
            )
        except DeadlineExceeded as exc:
            # Cooperative cancellation: the query's budget expired
            # mid-cascade.  The in-flight DDL is still rolled back —
            # under the deadline's bounded *grace* budget, so cleanup
            # cannot hang forever either — and the structured error
            # carries the exact accounting: what was dropped and what
            # (if the grace budget also ran out) was leaked.
            ctx = current_context()
            deadline = getattr(ctx, "deadline", None) if ctx else None
            if deadline is not None:
                with deadline.grace():
                    rolled_back, leaked = self.drop_objects(created)
            else:
                rolled_back, leaked = self.drop_objects(created)
            exc.rolled_back = rolled_back
            exc.leaked = leaked
            self._settle_epoch(epoch)
            self._note(
                "deadline-cancelled",
                phase=exc.phase,
                rolled_back=len(rolled_back),
                leaked=len(leaked),
            )
            raise
        except ReproError as exc:
            # When the cause is a dead engine, don't try to DROP the
            # objects created on it — every attempt would fail (or burn
            # the retry budget); mark them leaked for a later cleanup.
            # A *shard*-scoped outage (exc.table set) leaves the engine
            # itself answering, so nothing is skipped.
            shard = (
                getattr(exc, "table", None)
                if isinstance(exc, EngineUnavailableError)
                else None
            )
            dead_db = (
                exc.db
                if isinstance(exc, EngineUnavailableError) and shard is None
                else None
            )
            salvaged = (
                self._salvageable(created, materializations, dead_db)
                if salvage
                else []
            )
            keep_set = {
                (db, kind, name) for _tid, db, kind, name in salvaged
            }
            to_rollback = [obj for obj in created if obj not in keep_set]
            rolled_back, leaked = self.drop_objects(
                to_rollback, skip_db=dead_db
            )
            self._settle_epoch(epoch)
            failed_db = ddl_log[-1][0] if ddl_log else None
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
                self._note(
                    "salvage",
                    count=len(salvaged),
                    objects=",".join(name for _t, _d, _k, name in salvaged),
                )
            raise DelegationError(
                message,
                ddl_log=ddl_log,
                rolled_back=rolled_back,
                leaked=leaked,
                failed_db=failed_db,
                salvaged=salvaged,
            ) from exc

        xdb_query = ast.Select(
            items=(ast.SelectItem(ast.Star()),),
            from_items=(ast.TableRef((root_view,)),),
        )
        return DeployedQuery(
            plan=dplan,
            root_db=dplan.root.annotation,
            xdb_query=xdb_query,
            created_objects=created,
            ddl_log=ddl_log,
            edge_views=edge_views,
            materializations=materializations,
            ledger=self._ledger,
            epoch=epoch,
            query_id=query_id,
            _connectors=self._connectors,
        )

    @staticmethod
    def _salvageable(
        created: List[Tuple[str, str, str]],
        materializations: List[Tuple[str, str, ast.CreateTableAs]],
        dead_db: Optional[str],
    ) -> List[Tuple[int, str, str, str]]:
        """Completed ``xm_`` snapshots worth keeping through a rollback.

        Only explicit-edge materializations whose CTAS finished (they
        are in ``materializations``) and that live on a healthy engine
        qualify; the producer task id is parsed back out of the
        ``xm_{query_id}_{task_id}`` name so the pipeline can pin the
        matching subtree.
        """
        finished = {(db, name) for db, name, _ctas in materializations}
        out: List[Tuple[int, str, str, str]] = []
        for db, kind, name in created:
            if kind != "TABLE" or db == dead_db:
                continue
            if (db, name) not in finished:
                continue
            try:
                task_id = int(name.rsplit("_", 1)[1])
            except (IndexError, ValueError):
                continue
            out.append((task_id, db, kind, name))
        return out

    def _settle_epoch(self, epoch: int) -> None:
        """Retire a rolled-back cascade's epoch — whatever the rollback
        could not drop is now reapable."""
        if self._ledger is not None:
            self._ledger.close_epoch(epoch)

    def drop_objects(
        self,
        objects: List[Tuple[str, str, str]],
        skip_db: Optional[str] = None,
    ) -> Tuple[List[Tuple[str, str, str]], List[Tuple[str, str, str]]]:
        """Drop delegated objects, newest first (best effort), and tell
        the ledger what became of each.

        Returns ``(dropped, leaked)`` — drops go through the
        connectors' retry layer, so transient faults are absorbed; an
        object is only leaked when its DROP exhausts the retry budget.
        Objects on ``skip_db`` (an engine known to be down) are marked
        leaked without a drop attempt.  A leaked entry is what the
        reaper reconciles, so nothing dropped here — by a rollback or
        by a recovery path giving up on salvage — stays ``live``.
        """
        dropped: List[Tuple[str, str, str]] = []
        leaked: List[Tuple[str, str, str]] = []
        for db, kind, name in reversed(objects):
            connector = self._connectors.get(db)
            gone = False
            if connector is not None and db != skip_db:
                try:
                    connector.execute_ddl(
                        ast.DropObject(kind=kind, name=name, if_exists=True)
                    )
                    gone = True
                except ReproError:
                    pass
            (dropped if gone else leaked).append((db, kind, name))
            if self._ledger is not None:
                if gone:
                    self._ledger.mark_dropped(db, name)
                else:
                    self._ledger.mark_leaked(db, name)
            self._note(
                "rollback-drop" if gone else "rollback-leaked",
                db=db,
                kind=kind,
                object=name,
            )
        return dropped, leaked

    @staticmethod
    def _note(name: str, **attributes: object) -> None:
        """Annotate the active query trace (if any) with a point event."""
        ctx = current_context()
        if ctx is not None:
            ctx.tracer.add_event(name, **attributes)

    # -- Algorithm 1 -------------------------------------------------------------

    def _process_task(
        self,
        dplan: DelegationPlan,
        task: Task,
        query_id: str,
        epoch: int,
        created: List[Tuple[str, str, str]],
        ddl_log: List[Tuple[str, str]],
        edge_views: Dict[int, str],
        materializations: List[Tuple[str, str, ast.CreateTableAs]],
    ) -> str:
        connector = self._connectors.get(task.annotation)
        if connector is None:
            raise DelegationError(
                f"no connector for DBMS {task.annotation!r}"
            )

        for edge in dplan.in_edges(task):
            child = dplan.tasks[edge.producer_id]
            child_view = self._process_task(
                dplan,
                child,
                query_id,
                epoch,
                created,
                ddl_log,
                edge_views,
                materializations,
            )
            edge_views[id(edge)] = child_view

            # CREATEFOREIGNTABLE(R_v, t.a)
            foreign_name = f"xf_{query_id}_{child.task_id}"
            columns = tuple(
                ast.ColumnDef(fld.name, fld.type)
                for fld in child.expr.schema
            )
            create_ft = ast.CreateForeignTable(
                name=foreign_name,
                columns=columns,
                server=child.annotation,
                remote_object=child_view,
            )
            connector.execute_ddl(create_ft, log=ddl_log)
            self._track(
                created, epoch, task.annotation, "FOREIGN TABLE", foreign_name
            )

            if edge.movement is Movement.EXPLICIT:
                # CREATELOCALTABLE(R'_v, t.a): materialize on the consumer.
                local_name = f"xm_{query_id}_{child.task_id}"
                ctas = ast.CreateTableAs(
                    name=local_name,
                    query=ast.Select(
                        items=(ast.SelectItem(ast.Star()),),
                        from_items=(ast.TableRef((foreign_name,)),),
                    ),
                )
                connector.execute_ddl(ctas, log=ddl_log)
                self._track(
                    created, epoch, task.annotation, "TABLE", local_name
                )
                materializations.append(
                    (task.annotation, local_name, ctas)
                )
                resolved_name = local_name
            else:
                resolved_name = foreign_name

            self._resolve_placeholder(task, edge, resolved_name)

        # CREATEVIRTUALTABLE(t.r, t.a)
        view_name = f"xv_{query_id}_{task.task_id}"
        select = plan_to_select(task.expr)
        create_view = ast.CreateView(name=view_name, query=select)
        connector.execute_ddl(create_view, log=ddl_log)
        self._track(created, epoch, task.annotation, "VIEW", view_name)
        return view_name

    def _track(
        self,
        created: List[Tuple[str, str, str]],
        epoch: int,
        db: str,
        kind: str,
        name: str,
    ) -> None:
        """Record one freshly created object (in-memory + ledger).

        Ledger recording happens per object, *as created*, so a crash
        mid-cascade still leaves a durable trail for the reaper."""
        created.append((db, kind, name))
        if self._ledger is not None:
            self._ledger.record(db, kind, name, epoch)

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
