"""The comparison systems' shared front end, and the Mediator-Wrapper
machinery (§II-B, Fig. 4a).

:class:`BaselineSystem` is what Garlic, Presto and Sclera share; each
system is a placement and movement rule over it.  An MW system
decomposes a cross-database query into *local* subqueries (pushed to
the DBMSes through wrappers) and *global* operations performed by the
mediator on fetched intermediates.  Its rule is degenerate: any
operator whose inputs live on different DBMSes (or any binary operator
at all, for per-table pushdown systems like Presto) is annotated with
the mediator.

The execution timeline is simulated under the same model as XDB's
schedule: subqueries run in parallel on the sources, transfers share
the mediator's ingress link, and the mediator then computes the global
operations (optionally spread over W workers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.connect.connector import DBMSConnector
from repro.core.annotate import Annotation
from repro.core.catalog import GlobalCatalog
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer
from repro.core.plan import DelegationPlan, Movement, Task
from repro.engine.cost import CardinalityEstimator
from repro.engine.database import Database
from repro.engine.result import Result
from repro.errors import OptimizerError
from repro.federation.deployment import Deployment
from repro.net.metrics import TransferSummary
from repro.net.network import wire_bytes
from repro.obs.context import QueryContext
from repro.relational import algebra
from repro.relational.decompile import plan_to_select
from repro.sql import ast
from repro.sql.parser import parse_statement

#: Annotation label for operations the mediator performs itself.
MEDIATOR = "__mediator__"


@dataclass
class BaselineReport:
    """What a baseline run produced (mirrors :class:`XDBReport`)."""

    system: str
    result: Result
    total_seconds: float
    #: the "actual execution" share (white bar of Fig. 1)
    processing_seconds: float
    #: time attributable to moving data to/from the mediator (shaded bar)
    transfer_seconds: float
    #: the observation context the run opened: span tree, metrics and
    #: the transfers attributed to this run
    context: QueryContext
    subquery_count: int = 0
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def execution_seconds(self) -> float:
        return self.total_seconds

    @property
    def transfers(self) -> TransferSummary:
        return self.context.transfer_summary()


class BaselineSystem:
    """What every comparison system shares; each states only its rule.

    The front end is XDB's (a :class:`GlobalCatalog` over the system's
    protocol connectors, the :class:`LogicalOptimizer`, the
    :class:`PlanFinalizer`).  The annotation walk asks the rule where
    each binary operator runs (:meth:`_place`) and how each input gets
    there (:meth:`_movement`); a unary operator runs where its input
    does.

    Placeholder binding clears ``scan.placeholder``, so a mediator
    prices the task from its temp table's statistics.  XDB's
    ``DelegationEngine._resolve_placeholder`` keeps the flag, because
    plan-memo hits share task expressions across runs.
    """

    #: subclasses: system name for reports
    name = "baseline"
    #: wire protocol between the sources and the system's middleware
    protocol = "binary"
    #: prefix of the temp tables the system materializes
    temp_prefix = "tmp"

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        # The system's connectors may use a different protocol than XDB's.
        self.connectors: Dict[str, DBMSConnector] = {
            name: DBMSConnector(
                connector.database,
                deployment.network,
                deployment.middleware_node,
                protocol=self.protocol,
            )
            for name, connector in deployment.connectors.items()
        }
        self.catalog = GlobalCatalog(self.connectors)
        self.optimizer = LogicalOptimizer(self.catalog)
        self.finalizer = PlanFinalizer()
        self._temp_counter = 0

    # -- the rule ----------------------------------------------------------------

    def _place(self, child_dbs: List[str]) -> str:
        """Where an operator over inputs on ``child_dbs`` runs."""
        raise NotImplementedError

    def _movement(self, child_db: str, db: str) -> Movement:
        """How an input on ``child_db`` reaches its consumer on ``db``."""
        raise NotImplementedError

    # -- the front end -----------------------------------------------------------

    def _decompose(self, query: str) -> DelegationPlan:
        """Parse, check, optimize, annotate and finalize ``query``."""
        select = parse_statement(query)
        if not isinstance(select, ast.QUERY_STATEMENTS):
            raise OptimizerError(f"{self.name} accepts SELECT queries only")
        plan = self.optimizer.optimize(select)
        return self.finalizer.finalize(plan, self._annotate(plan))

    def _annotate(self, plan: algebra.LogicalPlan) -> Annotation:
        """Bind every node and edge of ``plan`` by the system's rule."""
        annotation = Annotation()

        def bind(node: algebra.LogicalPlan) -> str:
            if isinstance(node, algebra.Scan):
                if node.source_db is None:
                    raise OptimizerError(
                        f"scan of {node.table!r} lacks a source DBMS"
                    )
                annotation.bind_node(node, node.source_db)
                return node.source_db
            children = node.children()
            child_dbs = [bind(child) for child in children]
            db = child_dbs[0] if len(children) == 1 else self._place(child_dbs)
            annotation.bind_node(node, db)
            for child, child_db in zip(children, child_dbs):
                annotation.bind_edge(child, node, self._movement(child_db, db))
            return db

        bind(plan)
        return annotation

    # -- temp tables ---------------------------------------------------------------

    def _temp_name(self) -> str:
        self._temp_counter += 1
        return f"{self.temp_prefix}_{self._temp_counter}"

    def _resolve_placeholder(
        self, task: Task, placeholder: str, table: str
    ) -> None:
        for scan in task.expr.leaves():
            if scan.placeholder and scan.binding == placeholder:
                scan.table = table
                scan.placeholder = False
                return
        raise OptimizerError(
            f"placeholder {placeholder!r} missing in {self.name} task"
        )


class MediatorSystem(BaselineSystem):
    """Base class for the MW baselines."""

    name = "mediator"
    temp_prefix = "mw_tmp"
    #: whether co-located joins are pushed down (Garlic: yes, Presto: no)
    pushdown_colocated_joins = True
    #: mediator engine profile
    mediator_profile = "postgres"
    #: worker parallelism for mediator-side processing
    workers = 1

    def __init__(self, deployment: Deployment, mediator_name: str = None):
        super().__init__(deployment)
        mediator_name = mediator_name or f"{self.name}_mediator"
        self.mediator: Database = deployment.add_auxiliary_database(
            mediator_name, self.mediator_profile
        )

    # -- the MW rule ---------------------------------------------------------------

    def _place(self, child_dbs: List[str]) -> str:
        """Co-located operators go down (if the system pushes them);
        everything else runs on the mediator."""
        first = child_dbs[0]
        if (
            self.pushdown_colocated_joins
            and first != MEDIATOR
            and len(set(child_dbs)) == 1
        ):
            return first
        return MEDIATOR

    def _movement(self, child_db: str, db: str) -> Movement:
        return Movement.EXPLICIT

    # -- run --------------------------------------------------------------------

    def run(self, query: str) -> BaselineReport:
        """Execute ``query`` through the mediator and report metrics.

        The run opens its own :class:`QueryContext`, as ``XDB.submit``
        does: the report carries it, and its transfer summary is a view
        over it.
        """
        network = self.deployment.network
        with QueryContext(label=self.name) as ctx:
            dplan = self._decompose(query)

            # 1. Push every non-mediator task down and fetch its result.
            fetch_times: List[float] = []
            fetch_bytes_total = 0
            fetch_rows_total = 0
            source_processing: List[float] = []
            temp_names: Dict[int, str] = {}
            subqueries = 0
            for task in dplan.topological():
                if task.annotation == MEDIATOR:
                    continue
                if any(
                    dplan.tasks[e.producer_id].annotation == MEDIATOR
                    for e in dplan.in_edges(task)
                ):
                    raise OptimizerError(
                        "MW decomposition produced a source task depending on "
                        "the mediator"
                    )
                subqueries += 1
                connector = self.connectors[task.annotation]
                subquery = plan_to_select(task.expr)
                result = connector.fetch(
                    subquery, tag=f"mediator-fetch:{task.task_id}"
                )
                temp_name = self._materialize(task, result)
                temp_names[task.task_id] = temp_name

                proc = task_seconds(task, connector.database)
                fetch_bytes_total += wire_bytes(result.byte_size(), self.protocol)
                fetch_rows_total += len(result)
                latency = network.link_for(
                    connector.node, self.mediator.node
                ).latency
                fetch_times.append(proc + latency)
                source_processing.append(proc)

            # 2. Execute the mediator task(s) over the temp tables.
            mediator_tasks = [
                task
                for task in dplan.topological()
                if task.annotation == MEDIATOR
            ]
            result = None
            mediator_units = 0.0
            for task in mediator_tasks:
                for edge in dplan.in_edges(task):
                    child = dplan.tasks[edge.producer_id]
                    if child.annotation == MEDIATOR:
                        raise OptimizerError(
                            "nested mediator tasks should have been fused"
                        )
                    self._resolve_placeholder(task, edge.placeholder,
                                              temp_names[child.task_id])
                mediator_units += self.mediator.cost_model.plan_cost(
                    task.expr, _estimator(self.mediator)
                )
                result = self.mediator.execute_select(plan_to_select(task.expr))

            if result is None:
                # Fully pushable query (single source): fetch is the result.
                root_temp = temp_names[dplan.root.task_id]
                result = self.mediator.execute(
                    f"SELECT * FROM {root_temp}"
                )

            # 3. Result to the client.
            result_bytes = result.byte_size()
            network.record_transfer(
                src=self.mediator.node,
                dst=self.deployment.client_node,
                payload_bytes=result_bytes,
                rows=len(result),
                tag="result",
                protocol=self.protocol,
            )

            self._cleanup(list(temp_names.values()))

            # --- timeline ------------------------------------------------------
            # Data movement to the mediator has two components: the wire time
            # on its ingress link, and — dominantly — the per-row
            # (de)serialization the mediator pays for every fetched tuple
            # (the cost the paper isolates by preloading local tables).
            wire_seconds = network.transfer_time(
                self._slowest_source_node(dplan),
                self.mediator.node,
                fetch_bytes_total,
            )
            # Not parallelized: the connectors deliver row streams through
            # the coordinator.
            ingest_seconds = self.mediator.cost_model.protocol_decode_seconds(
                fetch_rows_total, self.protocol, fetch_charged=False
            )
            fetch_phase = max(fetch_times, default=0.0)
            mediator_seconds = self.mediator.cost_model.statement_seconds(
                mediator_units, self.workers
            )
            result_transfer = network.transfer_time(
                self.mediator.node, self.deployment.client_node, result_bytes
            )
            transfer_seconds = wire_seconds + ingest_seconds + result_transfer
            processing_seconds = fetch_phase + mediator_seconds
            total = processing_seconds + transfer_seconds

            return BaselineReport(
                system=self.name,
                result=result,
                total_seconds=total,
                processing_seconds=processing_seconds,
                transfer_seconds=transfer_seconds,
                context=ctx,
                subquery_count=subqueries,
                details={
                    "fetch_phase": fetch_phase,
                    "wire": wire_seconds,
                    "ingest": ingest_seconds,
                    "mediator_processing": mediator_seconds,
                    "result_transfer": result_transfer,
                },
            )

    # -- helpers ---------------------------------------------------------------

    def _materialize(self, task: Task, result: Result) -> str:
        name = self._temp_name()
        self.mediator.create_table(name, result.schema, result.rows)
        return name

    def _slowest_source_node(self, dplan: DelegationPlan) -> str:
        for task in dplan.topological():
            if task.annotation != MEDIATOR:
                return self.connectors[task.annotation].node
        return self.mediator.node

    def _cleanup(self, temp_tables: List[str]) -> None:
        for name in temp_tables:
            self.mediator.execute(f"DROP TABLE IF EXISTS {name}")


def _estimator(database: Database) -> CardinalityEstimator:
    return CardinalityEstimator(database.planner.scan_stats)


def task_seconds(task: Task, database: Database) -> float:
    """Seconds ``database`` takes to run ``task`` as one statement."""
    return database.cost_model.plan_seconds(task.expr, _estimator(database))
