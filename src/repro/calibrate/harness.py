"""Run the micro-workload and harvest per-operator observations.

The harness is deliberately indirect: it does **not** read timings off
the physical plan.  It executes each query inside a
:class:`~repro.obs.context.QueryContext` with
``Database.instrument_execution`` enabled, then walks the *operator
spans* the engine mirrored into the trace — the same spans ``/trace``
exports — and turns each one into an :class:`Observation` pairing the
operator's measured self seconds with its features: what
``repro.engine.cost.operator_features`` reads off the planner's own
operator charge at the measured row counts.  If the span export
breaks, calibration breaks: the observability spine is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.calibrate.workload import MicroWorkload, build_workload
from repro.engine.cost import operator_features
from repro.obs.context import QueryContext

#: Wall-seconds floor: keeps Q-error ratios finite when an operator ran
#: faster than the timer can resolve.
MIN_SECONDS = 1e-7


@dataclass
class Observation:
    """One measured operator instance from one query execution."""

    #: operator kind, normalized from the span label (``"SeqScan"``,
    #: ``"HashJoin"``, ``"DistinctOp"``, ...)
    op: str
    #: name of the workload query that produced it
    query: str
    #: constant name -> the cardinality driving it in
    #: ``CostModel.operator_cost``, evaluated at *measured* rows so the
    #: fit isolates constant error from cardinality-estimation error
    features: Dict[str, float] = field(default_factory=dict)
    #: measured self wall seconds (plus simulated transfer seconds for
    #: ForeignScan, whose cost constant models the whole fetch)
    seconds: float = MIN_SECONDS


def _span_kind(label: str) -> str:
    return label.split("[", 1)[0]


def _operator_spans(root, db_name: str) -> List[object]:
    """Every operator span for ``db_name`` under ``root``, pre-order."""
    found: List[object] = []

    def visit(span) -> None:
        if (
            span.kind == "operator"
            and span.attributes.get("db") == db_name
        ):
            found.append(span)
        for child in span.children:
            visit(child)

    visit(root)
    return found


def _span_self_seconds(span) -> float:
    """Inclusive measured seconds minus the children's inclusive."""
    inclusive = float(span.attributes.get("exec_seconds", 0.0))
    children = sum(
        float(child.attributes.get("exec_seconds", 0.0))
        for child in span.children
        if child.kind == "operator"
    )
    return max(inclusive - children, 0.0)


def observe_query(
    workload: MicroWorkload, name: str, sql: str
) -> List[Observation]:
    """Execute one workload query and extract its operator observations."""
    with QueryContext(label=f"calibrate:{name}") as ctx:
        workload.local.execute(sql)
    spans = _operator_spans(ctx.root, workload.local.name)
    fdw_seconds = sum(
        record.seconds for record in ctx.transfers if record.tag == "fdw"
    )
    foreign_count = sum(
        1 for span in spans if _span_kind(span.name) == "ForeignScan"
    )
    observations: List[Observation] = []
    for span in spans:
        kind = _span_kind(span.name)
        child_rows = [
            float(child.attributes.get("rows_out", 0))
            for child in span.children
            if child.kind == "operator"
        ]
        features = operator_features(
            kind, float(span.attributes.get("rows_out", 0)), child_rows
        )
        if not features:
            continue
        seconds = _span_self_seconds(span)
        if kind == "ForeignScan" and foreign_count:
            # The fetch constant models production + wire transfer; the
            # simulated network seconds live on the context's ledger.
            seconds += fdw_seconds / foreign_count
        observations.append(
            Observation(
                op=kind,
                query=name,
                features=features,
                seconds=max(seconds, MIN_SECONDS),
            )
        )
    return observations


def run_workload(profile: str, rows: int, repeat: int = 3) -> List[Observation]:
    """All observations for one profile over ``repeat`` fresh runs.

    Each repeat rebuilds the workload from the same seed, so repeats
    measure timing noise rather than data drift.
    """
    observations: List[Observation] = []
    for _ in range(repeat):
        workload = build_workload(profile, rows=rows)
        workload.local.instrument_execution = True
        for name, sql in workload.queries:
            observations.extend(observe_query(workload, name, sql))
    return observations
