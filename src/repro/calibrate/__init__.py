"""Cost-model calibration harness.

The engine profiles in :mod:`repro.engine.profiles` ship with the
emulated testbed's cost constants, the one price list
(:mod:`repro.engine.cost`).  This package measures how far those prices
are from this executor: it runs a parameterized micro-workload per
engine profile with per-operator instrumentation enabled
(:mod:`repro.engine.instrument`), reads the measured timings back off
the observability spine's operator spans, prices each measured operator
with the planner's own ``CostModel.operator_cost``, and reports
per-operator **Q-error** — ``max(est/actual, actual/est)``.  It scores
the prices; it changes none of them.

Run it with ``python -m repro.calibrate``.
"""

from repro.calibrate.harness import Observation, q_error, run_workload, score
from repro.calibrate.workload import MicroWorkload, build_workload

__all__ = [
    "MicroWorkload",
    "Observation",
    "build_workload",
    "q_error",
    "run_workload",
    "score",
]
