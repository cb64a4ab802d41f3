"""Delegation plans: the intermediate representation of §IV-A.

A delegation plan is a DAG ``G = (T, E)``: tasks are algebraic
expressions annotated with the DBMS that must evaluate them; edges are
dataflow operations between tasks, either *implicit* (pipelined through
a foreign table) or *explicit* (materialized on the consumer).

Task expressions are ordinary logical plans whose cross-task inputs are
*placeholder scans* (the paper's ``?`` dummy operators).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import OptimizerError
from repro.relational import algebra


class Movement(enum.Enum):
    """Dataflow operation type between two tasks (§IV-A)."""

    IMPLICIT = "i"
    EXPLICIT = "e"

    def __str__(self) -> str:
        return self.value


@dataclass
class TaskEdge:
    """A dataflow edge ``producer --x--> consumer``.

    ``placeholder`` names the dummy scan inside the consumer's
    expression that stands for the producer's output.
    """

    producer_id: int
    consumer_id: int
    movement: Movement
    placeholder: str
    #: filled after execution: rows / bytes actually moved
    moved_rows: Optional[int] = None
    moved_bytes: Optional[int] = None


@dataclass
class Task:
    """One unit of delegated work: ``annotation : expression``."""

    task_id: int
    annotation: str
    expr: algebra.LogicalPlan
    #: estimated output cardinality (from the logical phase)
    estimated_rows: float = 0.0
    #: the pre-finalization logical subtree this task evaluates — the
    #: cardinality-feedback loop fingerprints it to key observed row
    #: counts independently of how the plan was cut into tasks
    source_expr: Optional[algebra.LogicalPlan] = None
    #: derivations kept across the runs that share this task, each
    #: stored with the inputs it was derived from (see
    #: ``core.timing._task_processing_seconds`` and
    #: ``feedback.harvest.harvest_tasks``)
    _memo: Dict[str, tuple] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def placeholders(self) -> List[algebra.Scan]:
        """Placeholder scans inside this task's expression."""
        return [
            scan for scan in self.expr.leaves() if scan.placeholder
        ]

    def base_tables(self) -> List[str]:
        """Names of real stored relations this task scans."""
        return [
            scan.table for scan in self.expr.leaves() if not scan.placeholder
        ]

    def notation(self, compact: bool = True) -> str:
        """Paper-style algebra notation, e.g. ``⋈(⋈(n,r),s)``."""
        return _notation(self.expr, compact)

    def __str__(self) -> str:
        return f"{self.annotation}:{self.notation()}"


def _notation(plan: algebra.LogicalPlan, compact: bool) -> str:
    if isinstance(plan, algebra.Scan):
        return "?" if plan.placeholder else plan.table
    if isinstance(plan, algebra.Join):
        left = _notation(plan.left, compact)
        right = _notation(plan.right, compact)
        symbol = "x" if plan.kind == "CROSS" else "⋈"
        return f"{symbol}({left},{right})"
    if isinstance(plan, algebra.Filter):
        inner = _notation(plan.child, compact)
        return inner if compact else f"σ({inner})"
    if isinstance(plan, algebra.Project):
        inner = _notation(plan.child, compact)
        return inner if compact else f"π({inner})"
    if isinstance(plan, algebra.Aggregate):
        return f"γ({_notation(plan.child, compact)})"
    if isinstance(plan, algebra.Union):
        left = _notation(plan.left, compact)
        right = _notation(plan.right, compact)
        return f"∪({left},{right})"
    children = plan.children()
    if len(children) == 1:
        return _notation(children[0], compact)
    raise OptimizerError(
        f"cannot render notation for {type(plan).__name__}"
    )


class DelegationPlan:
    """The task DAG (a tree for left-deep plans) plus its edges."""

    def __init__(self) -> None:
        self.tasks: Dict[int, Task] = {}
        self.edges: List[TaskEdge] = []
        self.root_id: Optional[int] = None
        self._next_id = 1

    # -- construction ------------------------------------------------------

    def new_task(
        self,
        annotation: str,
        expr: algebra.LogicalPlan,
        estimated_rows: float = 0.0,
        source_expr: Optional[algebra.LogicalPlan] = None,
    ) -> Task:
        task = Task(
            self._next_id, annotation, expr, estimated_rows, source_expr
        )
        self.tasks[task.task_id] = task
        self._next_id += 1
        return task

    def add_edge(
        self,
        producer: Task,
        consumer: Task,
        movement: Movement,
        placeholder: str,
    ) -> TaskEdge:
        edge = TaskEdge(
            producer.task_id, consumer.task_id, movement, placeholder
        )
        self.edges.append(edge)
        return edge

    def set_root(self, task: Task) -> None:
        self.root_id = task.task_id

    def for_run(self) -> "DelegationPlan":
        """This plan for one more execution: the tasks are shared, the
        edges are new, so the rows and bytes one run records on them
        never show on another run's plan."""
        copy = DelegationPlan()
        copy.tasks = dict(self.tasks)
        copy.edges = [
            TaskEdge(e.producer_id, e.consumer_id, e.movement, e.placeholder)
            for e in self.edges
        ]
        copy.root_id = self.root_id
        copy._next_id = self._next_id
        return copy

    # -- navigation ---------------------------------------------------------

    @property
    def root(self) -> Task:
        if self.root_id is None:
            raise OptimizerError("delegation plan has no root task")
        return self.tasks[self.root_id]

    def children_of(self, task: Task) -> List[Task]:
        return [
            self.tasks[edge.producer_id]
            for edge in self.edges
            if edge.consumer_id == task.task_id
        ]

    def in_edges(self, task: Task) -> List[TaskEdge]:
        return [
            edge for edge in self.edges if edge.consumer_id == task.task_id
        ]

    def out_edge(self, task: Task) -> Optional[TaskEdge]:
        for edge in self.edges:
            if edge.producer_id == task.task_id:
                return edge
        return None

    def topological(self) -> Iterator[Task]:
        """Tasks bottom-up: every producer before its consumers."""
        visited: List[int] = []

        def visit(task: Task) -> None:
            for child in self.children_of(task):
                if child.task_id not in visited:
                    visit(child)
            visited.append(task.task_id)

        visit(self.root)
        for task_id in visited:
            yield self.tasks[task_id]

    # -- introspection -------------------------------------------------------

    def task_count(self) -> int:
        return len(self.tasks)

    def movement_counts(self) -> Dict[Movement, int]:
        counts = {Movement.IMPLICIT: 0, Movement.EXPLICIT: 0}
        for edge in self.edges:
            counts[edge.movement] += 1
        return counts

    def annotations(self) -> List[str]:
        seen: List[str] = []
        for task in self.tasks.values():
            if task.annotation not in seen:
                seen.append(task.annotation)
        return seen

    def describe(self) -> str:
        """Paper-style dump: one line per edge, Table IV format."""
        lines: List[str] = []
        for edge in self.edges:
            producer = self.tasks[edge.producer_id]
            consumer = self.tasks[edge.consumer_id]
            rows = (
                f"  [{edge.moved_rows} rows]"
                if edge.moved_rows is not None
                else ""
            )
            lines.append(
                f"{producer} --{edge.movement}--> {consumer}{rows}"
            )
        if not lines:
            lines.append(f"single task: {self.root}")
        return "\n".join(lines)
