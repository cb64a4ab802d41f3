"""Run the micro-workload, harvest per-operator observations, score them.

The harness is deliberately indirect: it does **not** read timings off
the physical plan.  It executes each query inside a
:class:`~repro.obs.context.QueryContext` with
``Database.instrument_execution`` enabled, then walks the *operator
spans* the engine mirrored into the trace — the same spans ``/trace``
exports — and turns each measured one into an :class:`Observation`:
the operator's kind, its measured row counts and its measured self
seconds.  If the span export breaks, calibration breaks: the
observability spine is load-bearing.

:func:`score` then prices every observation with the planner's own
charge, ``CostModel.operator_cost`` at the measured rows, so it judges
the one price list's constants apart from cardinality-estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Sequence

from repro.calibrate.workload import MicroWorkload, build_workload
from repro.engine.cost import CostModel
from repro.engine.profiles import profile_for
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
    #: measured output rows
    rows_out: float
    #: measured output rows of each child operator, in order
    child_rows: Sequence[float]
    #: measured self wall seconds (plus simulated transfer seconds for
    #: ForeignScan, whose cost constant models the whole fetch)
    seconds: float


def _span_kind(label: str) -> str:
    return label.split("[", 1)[0]


def _operator_spans(root, db_name: str) -> List[object]:
    """Every measured operator span for ``db_name`` under ``root``,
    pre-order; a span without ``exec_seconds`` measured nothing."""
    found: List[object] = []

    def visit(span) -> None:
        if (
            span.kind == "operator"
            and span.attributes.get("db") == db_name
            and "exec_seconds" in span.attributes
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
        record.seconds
        for record in ctx.transfers
        if record.tag.startswith("fdw:")
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
        seconds = _span_self_seconds(span)
        if kind == "ForeignScan" and foreign_count:
            # The fetch constant models production + wire transfer; the
            # simulated network seconds live on the context's ledger.
            seconds += fdw_seconds / foreign_count
        observations.append(
            Observation(
                op=kind,
                query=name,
                rows_out=float(span.attributes.get("rows_out", 0)),
                child_rows=child_rows,
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


def q_error(estimated: float, actual: float) -> float:
    """The planner-lie metric: ``max(est/actual, actual/est)`` (>= 1)."""
    est = max(estimated, 1e-12)
    act = max(actual, 1e-12)
    return max(est / act, act / est)


def score(observations: List[Observation], profile: str) -> Dict[str, object]:
    """Per-operator and overall Q-error of ``profile``'s prices against
    the measured seconds.  Kinds the price list charges nothing are
    skipped."""
    model = CostModel(profile_for(profile))
    per_op: Dict[str, List[float]] = {}
    for obs in observations:
        units = model.operator_cost(obs.op, obs.rows_out, obs.child_rows)
        if not units:
            continue
        per_op.setdefault(obs.op, []).append(
            q_error(model.seconds(units), obs.seconds)
        )
    all_errors = [err for errors in per_op.values() for err in errors]
    return {
        "per_operator": {
            op: {
                "count": len(errors),
                "median_q_error": median(errors),
                "max_q_error": max(errors),
            }
            for op, errors in sorted(per_op.items())
        },
        "median_q_error": median(all_errors) if all_errors else 1.0,
        "max_q_error": max(all_errors) if all_errors else 1.0,
        "observations": len(all_errors),
    }
