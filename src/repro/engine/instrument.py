"""Per-operator wall-clock instrumentation for physical plans.

The calibration harness (:mod:`repro.calibrate`) needs *measured*
per-operator timings to regress the engine profiles' cost constants
against.  :func:`instrument_plan` wraps both of every operator's pull
entry points, ``batches()`` and ``mapped()``, so each node accumulates
the wall seconds spent producing its output — including the time its
children spend inside the node's pulls.  :func:`self_seconds` subtracts
the children's inclusive time back out, yielding the operator's own
contribution.

Work fused into a consumer is charged to the consumer.  A projection of
plain columns that is read through (``PhysicalPlan.mapped``) only hands
its input's chunks on, so it measures next to nothing; the narrowed
tuples are built, for the rows that survive, by the filter, probe or
projection that reads through it, and that operator's self time holds
them.

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
        clock = _Clock(node)
        node.batches = clock.batches(node.batches)  # type: ignore[method-assign]
        node.mapped = clock.mapped(node.mapped)  # type: ignore[method-assign]
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


class _Clock:
    """Charges wall time to one node.

    A pull nested inside another pull of the same node — the default
    ``mapped()`` is ``batches()`` — is charged once, by the outer one.
    """

    def __init__(self, node: PhysicalPlan):
        self._node = node
        self._running = False

    def _charge(self, step):
        if self._running:
            return step()
        self._running = True
        start = wall_now()
        try:
            return step()
        finally:
            self._node.exec_seconds += wall_now() - start  # type: ignore[attr-defined]
            self._running = False

    def _iterate(self, iterator: Iterator) -> Iterator:
        while True:
            try:
                item = self._charge(lambda: next(iterator))
            except StopIteration:
                return
            yield item

    def batches(self, method):
        """Wrap ``batches``.  The initial call is timed too: some
        operators (e.g. ``ForeignScan``) do their work eagerly."""

        def wrapper(*args, **kwargs) -> Iterator:
            yield from self._iterate(
                self._charge(lambda: iter(method(*args, **kwargs)))
            )

        return wrapper

    def mapped(self, method):
        """Wrap ``mapped``: the call, then every pull of its chunks."""

        def wrapper(*args, **kwargs):
            positions, chunks = self._charge(lambda: method(*args, **kwargs))
            return positions, self._iterate(iter(chunks))

        return wrapper
