"""The gather's branch runner: UNION ALL branches, one after another.

Partition expansion leaves the gathering engine with N independent
UNION ALL branches (one per shard).  ``WorkerPool.map`` runs them in
order on the query's own thread, each under a ``branch-N`` span of the
ambient :class:`~repro.obs.context.QueryContext`.  The engine has no
threads of its own: the member DBMSes running delegated tasks side by
side is the paper's parallelism, and the schedule simulator models it
with per-engine ``worker_slots``.  :func:`makespan` folds measured
branch seconds into the derived wall clock of a K-wide pool, with the
same longest-processing-time list scheduling as that slot model.

The first branch failure stops the drain: later branches are
*cancelled* (skipped, and counted by one ``branches-cancelled`` event)
and the error propagates.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Iterable, List, Sequence


class WorkerPool:
    """Runs plan branches in order, each as a ``branch-N`` span."""

    def map(
        self, thunks: Sequence[Callable[[], object]], context=None
    ) -> List[object]:
        """Every thunk's value, in order.

        ``context`` is the active :class:`QueryContext` (or None).  The
        first branch exception is re-raised; the branches after it do
        not run.
        """
        thunks = list(thunks)
        values: List[object] = []
        for index, thunk in enumerate(thunks):
            scope = (
                context.tracer.span(f"branch-{index}", kind="parallel", branch=index)
                if context is not None
                else nullcontext()
            )
            try:
                with scope:
                    values.append(thunk())
            except BaseException:
                cancelled = len(thunks) - index - 1
                if context is not None and cancelled:
                    context.tracer.add_event(
                        "branches-cancelled", count=cancelled
                    )
                raise
        return values


def makespan(durations: Iterable[float], workers: int) -> float:
    """Derived wall seconds to drain ``durations`` on ``workers`` slots.

    Longest-processing-time list scheduling: each duration goes to the
    slot that frees up earliest, largest first.  With one worker this
    is the plain sum; with enough workers, the longest branch.
    """
    workers = max(int(workers), 1)
    slots = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        index = min(range(workers), key=slots.__getitem__)
        slots[index] += duration
    return max(slots, default=0.0)
