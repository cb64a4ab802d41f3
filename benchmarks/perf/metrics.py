"""Every metric the benchmark reports: name, unit, direction, bound.

One table serves the run (which names to print), ``--compare`` (which
bound to apply) and the smoke test (BENCHMARK.json must agree with it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from kernels import KERNELS
from spans import LAYERS
from workloads import QUERIES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the base value by which the metric may worsen before
    #: ``--compare`` calls it a regression; None = reported, never gated
    bound: Optional[float] = None


#: What a user of the federation sees.  All are measured with the
#: tracing wrappers off except ``trace_overhead_pct``, which is the
#: price of turning them on.  ``write_p50_ms`` exists on
#: ``prepared_fresh`` only.  The bounds are for two runs with the *same*
#: seed (``sim_exec_s`` and ``bytes_moved`` then repeat exactly);
#: BENCHMARK.json widens those two because its driver varies the seed.
END_TO_END: Tuple[Metric, ...] = (
    Metric("round_p50_ms", "ms", "lower", 0.10),
    Metric("queries_per_s", "1/s", "higher", 0.10),
    Metric("query_p90_ms", "ms", "lower", 0.15),
    Metric("write_p50_ms", "ms", "lower", 0.15),
    Metric("sim_exec_s", "sim_s", "lower", 0.01),
    Metric("bytes_moved", "bytes", "lower", 0.01),
    Metric("error_rate", "ratio", "lower", 0.0),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.20),
    Metric("trace_overhead_pct", "%", "lower"),
)

#: the subset a ``--trace 0`` run measures; the other three need the
#: traced run (``write_p50_ms``, ``trace_overhead_pct``) or are the
#: run's own verdict (``error_rate`` = failed / attempted)
UNTRACED = (
    "round_p50_ms",
    "queries_per_s",
    "query_p90_ms",
    "sim_exec_s",
    "bytes_moved",
    "peak_rss_mb",
    "setup_s",
)

PER_LAYER: Tuple[Metric, ...] = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.calls", "count", "lower"),
            Metric(f"{layer}.busy_ms", "ms", "lower"),
            Metric(f"{layer}.self_ms", "ms", "lower"),
        )
    )
    + (
        Metric("core.annotate.consultations", "count", "lower"),
        Metric("core.finalize.tasks", "count", "lower"),
        Metric("core.delegate.ddl_statements", "count", "lower"),
        Metric("core.partition.cross_shard_bytes", "bytes", "lower"),
        Metric("engine.fdw.rows_fetched", "count", "lower"),
        Metric("engine.planner.distinct_plan_ratio", "ratio", "higher"),
        Metric("obs.spans_per_query", "count", "lower"),
        Metric("obs.events_per_query", "count", "lower"),
        Metric("core.catalog.refresh.first_ms", "ms", "lower"),
    )
    + tuple(
        Metric(f"submit.{q.lower()}_p50_ms", "ms", "lower") for q in QUERIES
    )
    + tuple(
        Metric(f"engine.kernel.{kernel}.rows_per_s", "rows/s", "higher")
        for kernel in KERNELS
    )
    + (
        Metric("write_p50_ms", "ms", "lower"),
        Metric("trace_overhead_pct", "%", "lower"),
        Metric("raw.round_p50_ms", "ms", "lower"),
        Metric("yardstick.p50_ms", "ms", "lower"),
    )
)

#: the two names in both tables resolve to the end-to-end (bounded) entry
BY_NAME: Dict[str, Metric] = {m.name: m for m in PER_LAYER + END_TO_END}


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between runs with one seed."""
    return BY_NAME[name].unit in ("count", "bytes", "ratio", "sim_s") and (
        name != "error_rate"
    )
