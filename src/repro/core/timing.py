"""Pipeline-aware schedule simulation for delegated executions.

Engines run in-process, so wall-clock time says nothing about the
testbed the paper measured.  Instead, runtimes are *derived*: each
task's processing time is what its engine's price list
(:class:`repro.engine.cost.CostModel`) charges at the **observed**
cardinalities, and each edge's transfer time comes from the simulated
link characteristics and the bytes actually moved.  This module owns
the schedule, not the prices.  The schedule respects the paper's
dataflow semantics:

* an **implicit** (pipelined) edge lets the consumer start as soon as
  the producer starts — processing and transfer overlap (``max``);
* an **explicit** (materialized) edge serializes — the producer must
  finish and the transfer complete before the consumer starts (``sum``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.connect.connector import DBMSConnector
from repro.core.delegate import DeployedQuery
from repro.core.plan import DelegationPlan, Movement, Task, TaskEdge
from repro.engine.cost import CardinalityEstimator, ScanStats
from repro.net.network import Network, TransferRecord
from repro.obs.runtime import current_context
from repro.relational import algebra


@dataclass
class TaskTiming:
    """Simulated schedule entry for one task."""

    task_id: int
    db: str
    start: float
    proc_seconds: float
    finish: float


@dataclass
class ScheduleResult:
    """Output of the schedule simulation."""

    total_seconds: float
    execution_seconds: float  # without the final result transfer
    result_transfer_seconds: float
    tasks: Dict[int, TaskTiming] = field(default_factory=dict)

    def critical_finish(self) -> float:
        return max(
            (timing.finish for timing in self.tasks.values()), default=0.0
        )


def attribute_edge_stats(
    deployed: DeployedQuery, records: Iterable[TransferRecord]
) -> None:
    """Fill each edge's moved rows/bytes from the query's transfers.

    Fetches through a foreign table are tagged ``fdw:<remote object>``;
    each delegation edge is backed by exactly one producing view.
    """
    by_view: Dict[str, Tuple[int, int]] = {}
    for record in records:
        if record.tag.startswith("fdw:"):
            view = record.tag[len("fdw:") :]
            rows, payload = by_view.get(view, (0, 0))
            by_view[view] = (rows + record.rows, payload + record.payload_bytes)
    for edge in deployed.plan.edges:
        view = deployed.edge_views.get(id(edge), "").lower()
        rows, payload = by_view.get(view, (0, 0))
        edge.moved_rows = rows
        edge.moved_bytes = payload


def simulate_schedule(
    deployed: DeployedQuery,
    connectors: Mapping[str, DBMSConnector],
    network: Network,
    client_node: str,
    result_bytes: int,
    pipelined: bool = True,
    worker_slots: Optional[int] = None,
) -> ScheduleResult:
    """Simulate the decentralized execution of a deployed plan.

    ``pipelined=False`` is an ablation switch: implicit edges are timed
    as if materialized (producer → transfer → consumer strictly
    serialize), quantifying how much of XDB's win comes from the
    inter-DBMS pipelining of §V-B.

    ``worker_slots`` caps how many delegated tasks one engine advances
    at a time (its intra-query worker pool).  ``None`` keeps the legacy
    unbounded overlap; an integer K greedily assigns each task the
    engine slot that frees up earliest, so per-partition fragments on
    the same engine overlap up to K-wide.
    """
    dplan = deployed.plan
    proc = {
        task.task_id: _task_processing_seconds(task, dplan, connectors)
        for task in dplan.tasks.values()
    }

    start: Dict[int, float] = {}
    finish: Dict[int, float] = {}
    # engine name -> per-slot busy-until times (worker_slots mode only)
    slots: Dict[str, List[float]] = {}

    def schedule(task: Task) -> float:
        if task.task_id in finish:
            return finish[task.task_id]
        ready = 0.0
        absolute_bounds: List[float] = []  # earliest-finish constraints
        duration_bounds: List[float] = []  # bandwidth-bound stream times
        for edge in dplan.in_edges(task):
            child = dplan.tasks[edge.producer_id]
            child_finish = schedule(child)
            xfer = _edge_transfer_seconds(edge, child, task, connectors, network)
            link_latency = network.link_for(
                connectors[child.annotation].node,
                connectors[task.annotation].node,
            ).latency
            if edge.movement is Movement.EXPLICIT or not pipelined:
                ready = max(ready, child_finish + xfer)
            else:
                # Pipelined: consumption starts shortly after production,
                # but cannot finish before the stream fully arrives.
                ready = max(ready, start[child.task_id] + link_latency)
                absolute_bounds.append(child_finish + link_latency)
                duration_bounds.append(xfer)
        slot_index: Optional[int] = None
        if worker_slots is not None:
            engine_slots = slots.setdefault(
                task.annotation, [0.0] * worker_slots
            )
            slot_index = min(
                range(worker_slots), key=engine_slots.__getitem__
            )
            ready = max(ready, engine_slots[slot_index])
        start[task.task_id] = ready
        end = ready + proc[task.task_id]
        for bound in absolute_bounds:
            end = max(end, bound)
        for duration in duration_bounds:
            end = max(end, ready + duration)
        if slot_index is not None:
            slots[task.annotation][slot_index] = end
        finish[task.task_id] = end
        return end

    execution_seconds = schedule(dplan.root)

    root_node = connectors[dplan.root.annotation].node
    result_transfer = network.transfer_time(
        root_node, client_node, result_bytes
    )
    result = ScheduleResult(
        total_seconds=execution_seconds + result_transfer,
        execution_seconds=execution_seconds,
        result_transfer_seconds=result_transfer,
    )
    for task in dplan.tasks.values():
        result.tasks[task.task_id] = TaskTiming(
            task_id=task.task_id,
            db=task.annotation,
            start=start[task.task_id],
            proc_seconds=proc[task.task_id],
            finish=finish[task.task_id],
        )
    ctx = current_context()
    if ctx is not None:
        ctx.record_schedule(result)
    return result


# ---------------------------------------------------------------------------
# per-task processing time
# ---------------------------------------------------------------------------


def _task_processing_seconds(
    task: Task,
    dplan: DelegationPlan,
    connectors: Mapping[str, DBMSConnector],
) -> float:
    """The task's plan and its cross-database inputs, priced by its
    engine's :class:`~repro.engine.cost.CostModel` at the rows that
    actually moved."""
    database = connectors[task.annotation].database
    model = database.cost_model

    edge_rows = {
        edge.placeholder: float(edge.moved_rows or 0)
        for edge in dplan.in_edges(task)
    }

    def stats_provider(scan: algebra.Scan) -> ScanStats:
        if scan.placeholder:
            rows = edge_rows.get(scan.binding)
            if rows is None:
                rows = scan.estimated_rows or 1.0
            return ScanStats(row_count=max(rows, 1.0), columns={})
        return database.planner.scan_stats(scan)

    estimator = CardinalityEstimator(stats_provider)
    seconds = model.plan_seconds(task.expr, estimator)

    for edge in dplan.in_edges(task):
        child = dplan.tasks[edge.producer_id]
        rows = float(edge.moved_rows or 0)
        _, sibling = _consuming_join_sides(task, edge.placeholder)
        if edge.movement is Movement.EXPLICIT:
            seconds += model.materialized_input_seconds(rows)
        elif sibling is not None:
            seconds += model.forced_build_seconds(
                estimator.estimate_rows(sibling), rows
            )
        seconds += model.protocol_decode_seconds(
            rows, _edge_protocol(child, task, connectors), fetch_charged=True
        )
    return seconds


def _consuming_join_sides(task: Task, placeholder: str):
    """The placeholder scan and its sibling input in the consuming join."""

    def walk(node: algebra.LogicalPlan):
        if isinstance(node, algebra.Join):
            for side, other in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                for leaf in side.leaves():
                    if leaf.placeholder and leaf.binding == placeholder:
                        # Only direct consumption counts: the
                        # placeholder side must be the scan itself or a
                        # thin chain above it.
                        if leaf is side or leaf in side.children():
                            return leaf, other
        for child in node.children():
            found = walk(child)
            if found is not None:
                return found
        return None

    found = walk(task.expr)
    if found is None:
        for leaf in task.expr.leaves():
            if leaf.placeholder and leaf.binding == placeholder:
                return leaf, None
        return None, None
    return found


def _edge_protocol(
    producer: Task, consumer: Task, connectors: Mapping[str, DBMSConnector]
) -> str:
    from repro.federation.deployment import protocol_between

    return protocol_between(
        connectors[producer.annotation].profile.name,
        connectors[consumer.annotation].profile.name,
    )


def _edge_transfer_seconds(
    edge: TaskEdge,
    producer: Task,
    consumer: Task,
    connectors: Mapping[str, DBMSConnector],
    network: Network,
) -> float:
    payload = edge.moved_bytes or 0
    return network.transfer_time(
        connectors[producer.annotation].node,
        connectors[consumer.annotation].node,
        payload,
    )
