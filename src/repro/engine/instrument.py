"""Per-operator wall-clock instrumentation for physical plans.

The calibration harness (:mod:`repro.calibrate`) needs *measured*
per-operator timings to regress the engine profiles' cost constants
against.  :func:`instrument_plan` wraps every operator's ``batches()``
entry point so each node accumulates the wall seconds spent producing
its output — including the time its children spend inside the node's
pulls.  :func:`self_seconds` subtracts the children's inclusive time
back out, yielding the operator's own contribution.

Timing granularity is one ``next()`` call — one chunk of up to 1024
rows — so timer overhead is negligible relative to the work measured.
All clock reads go through :func:`repro.obs.clock.wall_now`, the repo's
single sanctioned wall-clock site.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.physical import PhysicalPlan
from repro.obs.clock import wall_now


def instrument_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Attach timing wrappers to every operator in ``plan`` (in place)."""
    for node in plan.walk():
        if getattr(node, "_instrumented", False):
            continue
        node._instrumented = True  # type: ignore[attr-defined]
        node.exec_seconds = 0.0  # type: ignore[attr-defined]
        node.batches = _timed(node, node.batches)  # type: ignore[method-assign]
    return plan


def self_seconds(node: PhysicalPlan) -> float:
    """``node``'s own measured seconds, excluding its children.

    Inclusive timings nest (a parent's pull contains its children's
    pulls), so self time is inclusive minus the children's inclusive.
    """
    inclusive = getattr(node, "exec_seconds", 0.0)
    children = sum(
        getattr(child, "exec_seconds", 0.0) for child in node.children()
    )
    return max(inclusive - children, 0.0)


def _timed(node: PhysicalPlan, method):
    """Wrap an iterator-returning method, charging time to ``node``.

    The initial call is timed too: some operators (e.g. ``ForeignScan``)
    do their work eagerly and return a plain iterator rather than a lazy
    generator.
    """

    def wrapper(*args, **kwargs) -> Iterator:
        start = wall_now()
        iterator = iter(method(*args, **kwargs))
        node.exec_seconds += wall_now() - start  # type: ignore[attr-defined]
        while True:
            start = wall_now()
            try:
                item = next(iterator)
            except StopIteration:
                node.exec_seconds += wall_now() - start  # type: ignore[attr-defined]
                return
            node.exec_seconds += wall_now() - start  # type: ignore[attr-defined]
            yield item

    return wrapper
