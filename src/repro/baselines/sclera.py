"""ScleraDB-like baseline (§VI-B).

Sclera also executes joins "in-situ" on the underlying DBMSes, but —
per the paper's analysis — it (i) moves **every** intermediate table
explicitly, (ii) relays each movement **through its mediator** (so each
intermediate crosses the network twice), and (iii) places each join by
a simple heuristic (the left input's DBMS) rather than by cost.  The
combination costs it up to ~30× against XDB.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.mediator import BaselineReport, task_seconds
from repro.connect.connector import DBMSConnector
from repro.core.annotate import Annotation
from repro.core.catalog import GlobalCatalog
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer
from repro.core.plan import Movement
from repro.engine.cost import CostModel
from repro.engine.profiles import profile_for
from repro.errors import OptimizerError
from repro.federation.deployment import Deployment
from repro.obs.context import QueryContext
from repro.relational import algebra
from repro.relational.decompile import plan_to_select
from repro.sql import ast
from repro.sql.parser import parse_statement


class ScleraSystem:
    """Naive in-situ execution with mediator-relayed explicit movement."""

    name = "Sclera"
    protocol = "jdbc"

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
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

    # -- heuristic annotation: left input's DBMS, always explicit ----------

    def _annotate(self, plan: algebra.LogicalPlan) -> Annotation:
        annotation = Annotation()
        self._annotate_node(plan, annotation)
        return annotation

    def _annotate_node(
        self, node: algebra.LogicalPlan, annotation: Annotation
    ) -> str:
        if isinstance(node, algebra.Scan):
            if node.source_db is None:
                raise OptimizerError(
                    f"scan of {node.table!r} lacks a source DBMS"
                )
            annotation.bind_node(node, node.source_db)
            return node.source_db
        children = node.children()
        child_dbs = [
            self._annotate_node(child, annotation) for child in children
        ]
        db = child_dbs[0]  # unary inherit; binary: the LEFT input's DBMS
        annotation.bind_node(node, db)
        for child, child_db in zip(children, child_dbs):
            movement = (
                Movement.IMPLICIT
                if child_db == db
                else Movement.EXPLICIT
            )
            annotation.bind_edge(child, node, movement)
        return db

    # -- execution -----------------------------------------------------------

    def run(self, query: str) -> BaselineReport:
        """Execute ``query`` in-situ and report metrics; like the
        mediators, the run opens its own :class:`QueryContext`."""
        network = self.deployment.network
        with QueryContext(label=self.name) as ctx:
            select = parse_statement(query)
            if not isinstance(select, ast.QUERY_STATEMENTS):
                raise OptimizerError("Sclera accepts SELECT queries only")
            plan = self.optimizer.optimize(select)
            annotation = self._annotate(plan)
            dplan = self.finalizer.finalize(plan, annotation)

            # Fully serialized chain: compute each task, relay its result
            # through the mediator to the consumer, materialize, continue.
            total_seconds = 0.0
            processing_seconds = 0.0
            transfer_seconds = 0.0
            created: List[tuple] = []
            results: Dict[int, object] = {}

            for task in dplan.topological():
                connector = self.connectors[task.annotation]
                for edge in dplan.in_edges(task):
                    child = dplan.tasks[edge.producer_id]
                    child_result = results[edge.producer_id]
                    self._temp_counter += 1
                    temp_name = f"sclera_tmp_{self._temp_counter}"
                    # Relay through the mediator: child db -> mediator node
                    # happened at fetch time; mediator -> consumer now.
                    connector.push_rows(
                        temp_name,
                        child_result.schema,
                        child_result.rows,
                        tag=f"sclera-ship:{edge.producer_id}",
                    )
                    created.append((task.annotation, temp_name))
                    self._resolve_placeholder(task, edge.placeholder, temp_name)
                    child_connector = self.connectors[child.annotation]
                    leg_in = network.transfer_time(
                        child_connector.node,
                        self.deployment.middleware_node,
                        child_result.byte_size(),
                    )
                    leg_out = network.transfer_time(
                        self.deployment.middleware_node,
                        connector.node,
                        child_result.byte_size(),
                    )
                    transfer_seconds += leg_in + leg_out
                    transfer_seconds += self._relay_seconds(
                        len(child_result), connector
                    )

                subquery = plan_to_select(task.expr)
                if dplan.root_id == task.task_id:
                    result = connector.run_query(
                        subquery, self.deployment.client_node
                    )
                else:
                    result = connector.fetch(
                        subquery, tag=f"sclera-fetch:{task.task_id}"
                    )
                results[task.task_id] = result
                processing_seconds += task_seconds(task, connector.database)

            total_seconds = processing_seconds + transfer_seconds
            root_result = results[dplan.root_id]

            for db, temp_name in created:
                self.connectors[db].database.execute(
                    f"DROP TABLE IF EXISTS {temp_name}"
                )

            return BaselineReport(
                system=self.name,
                result=root_result,
                total_seconds=total_seconds,
                processing_seconds=processing_seconds,
                transfer_seconds=transfer_seconds,
                context=ctx,
                subquery_count=dplan.task_count(),
            )

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _resolve_placeholder(task, placeholder: str, table: str) -> None:
        for scan in task.expr.leaves():
            if scan.placeholder and scan.binding == placeholder:
                scan.table = table
                scan.placeholder = False
                return
        raise OptimizerError(
            f"placeholder {placeholder!r} missing in Sclera task"
        )

    def _relay_seconds(self, rows: int, consumer: DBMSConnector) -> float:
        """Per-row cost of relaying an intermediate through the mediator.

        The mediator deserializes the producer's stream (JDBC) and the
        consumer ingests and materializes it — every intermediate pays
        both legs, which is the bulk of Sclera's ~30× penalty.
        """
        mediator = CostModel(profile_for("postgres"))
        return mediator.protocol_decode_seconds(
            rows, self.protocol, fetch_charged=False
        ) + consumer.database.cost_model.relayed_input_seconds(
            rows, self.protocol
        )
