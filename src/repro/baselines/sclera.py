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

from repro.baselines.mediator import BaselineReport, BaselineSystem, task_seconds
from repro.connect.connector import DBMSConnector
from repro.core.plan import Movement
from repro.engine.cost import CostModel
from repro.engine.profiles import profile_for
from repro.obs.context import QueryContext
from repro.relational.decompile import plan_to_select


class ScleraSystem(BaselineSystem):
    """Naive in-situ execution with mediator-relayed explicit movement."""

    name = "Sclera"
    protocol = "jdbc"
    temp_prefix = "sclera_tmp"

    # -- the rule: the left input's DBMS; a move between DBMSes is explicit --

    def _place(self, child_dbs: List[str]) -> str:
        return child_dbs[0]

    def _movement(self, child_db: str, db: str) -> Movement:
        return Movement.IMPLICIT if child_db == db else Movement.EXPLICIT

    # -- execution -----------------------------------------------------------

    def run(self, query: str) -> BaselineReport:
        """Execute ``query`` in-situ and report metrics; like the
        mediators, the run opens its own :class:`QueryContext`."""
        network = self.deployment.network
        with QueryContext(label=self.name) as ctx:
            dplan = self._decompose(query)

            # Fully serialized chain: compute each task, relay its result
            # through the mediator to the consumer, materialize, continue.
            processing_seconds = 0.0
            transfer_seconds = 0.0
            created: List[tuple] = []
            results: Dict[int, object] = {}

            for task in dplan.topological():
                connector = self.connectors[task.annotation]
                for edge in dplan.in_edges(task):
                    child = dplan.tasks[edge.producer_id]
                    child_result = results[edge.producer_id]
                    temp_name = self._temp_name()
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
