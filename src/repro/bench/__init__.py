"""Benchmark harness: scenario builders, runners, and paper-style
reporting for every table and figure of the evaluation (§VI)."""

from repro.bench.scenarios import (
    HETEROGENEOUS_PROFILES,
    build_tpch_deployment,
    sf_label,
)
from repro.bench.harness import (
    RunRecord,
    SystemSet,
    build_systems,
    run_baseline,
    run_xdb,
    verify_equivalence,
)
from repro.bench.reporting import format_table, print_banner

__all__ = [
    "HETEROGENEOUS_PROFILES",
    "RunRecord",
    "SystemSet",
    "build_systems",
    "build_tpch_deployment",
    "format_table",
    "print_banner",
    "run_baseline",
    "run_xdb",
    "sf_label",
    "verify_equivalence",
]
