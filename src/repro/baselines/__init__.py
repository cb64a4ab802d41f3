"""Baseline systems the paper compares against (§VI).

All three subclass :class:`~repro.baselines.mediator.BaselineSystem`:
they reuse XDB's front end (parser, global catalog, logical optimizer,
finalizer) and differ only in their placement and movement rule and
their runner, so that performance differences come from the *execution
architecture*, exactly as in the paper:

* :class:`~repro.baselines.garlic.GarlicSystem` — single-node
  PostgreSQL-style mediator; pushes selections, projections, and
  co-located joins; binary transfer protocol.
* :class:`~repro.baselines.presto.PrestoSystem` — scale-out mediator
  with W workers; per-table pushdown only; JDBC connectors.
* :class:`~repro.baselines.sclera.ScleraSystem` — "naive in-situ":
  joins run on the DBMSes but every intermediate is explicitly
  relayed through the mediator.
"""

from repro.baselines.garlic import GarlicSystem
from repro.baselines.mediator import BaselineReport, BaselineSystem, MediatorSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem

__all__ = [
    "BaselineReport",
    "BaselineSystem",
    "GarlicSystem",
    "MediatorSystem",
    "PrestoSystem",
    "ScleraSystem",
]
