"""Intra-query parallelism: a bounded worker pool for plan branches.

The vectorized executor is single-threaded per operator; partition
expansion, however, leaves the gathering engine with N independent
UNION ALL branches (one per shard).  ``WorkerPool`` drains such
branches through a fixed number of worker threads, propagating the
full observation context into each one:

* the ambient :class:`~repro.obs.context.QueryContext` is pushed onto
  the worker thread (:func:`repro.obs.runtime.push_context`), so
  connector counters, metrics, and events land in the right query;
* the worker *adopts* the spawning thread's current span on the shared
  tracer, so every branch's spans form a proper subtree — no orphans,
  no cross-thread interleaving.

Each branch's *busy time* is measured with the per-thread CPU clock
(:func:`repro.obs.clock.thread_cpu_now`): under the GIL, wall time on
concurrent branches double-counts contention, while thread-CPU time
stays comparable to a serial run.  :func:`makespan` converts such
busy times into the derived wall clock of a K-wide pool — the same
longest-processing-time list scheduling the schedule simulator's slot
model uses.

The pool's one task-level fault-domain behaviour is **sibling
cancellation**: the first branch failure marks the pool aborted, and
queued branches that have not started are *cancelled* (skipped and
counted in ``parallel.branches_cancelled``) instead of drained, so a
doomed gather stops paying for work whose result will be thrown away.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.obs.clock import thread_cpu_now
from repro.obs.runtime import pop_context, push_context


@dataclass
class BranchOutcome:
    """What one branch produced: its value and its thread-CPU cost."""

    index: int
    value: object = None
    busy_seconds: float = 0.0
    error: Optional[BaseException] = None
    #: True when the branch never ran (a sibling failed first)
    cancelled: bool = False


class WorkerPool:
    """Run independent thunks over at most ``workers`` threads."""

    def __init__(self, workers: int):
        self.workers = max(int(workers), 1)

    def map(
        self, thunks: Sequence[Callable[[], object]], context=None
    ) -> List[BranchOutcome]:
        """Run every thunk; outcomes come back in submission order.

        ``context`` is the active :class:`QueryContext` (or None); its
        tracer and metrics become visible inside every branch.  The
        first branch exception is re-raised after the in-flight
        branches settle; branches still *queued* at that point are
        cancelled, not drained.
        """
        thunks = list(thunks)
        outcomes = [BranchOutcome(index) for index in range(len(thunks))]
        if not thunks:
            return outcomes
        tracer = context.tracer if context is not None else None
        parent = tracer.current if tracer is not None else None
        work: "queue.SimpleQueue" = queue.SimpleQueue()
        for item in enumerate(thunks):
            work.put(item)
        # set on the first branch error: queued siblings cancel
        abort = threading.Event()

        def drain() -> None:
            if context is not None:
                push_context(context)
            try:
                while True:
                    try:
                        index, thunk = work.get_nowait()
                    except queue.Empty:
                        return
                    outcome = outcomes[index]
                    if abort.is_set():
                        # A sibling already failed, so this branch's
                        # result would be discarded — skip it instead
                        # of draining it.
                        outcome.cancelled = True
                        continue
                    _run_branch(outcome, thunk, tracer, parent)
                    if outcome.error is not None:
                        abort.set()
            finally:
                if context is not None:
                    pop_context(context)

        threads = [
            threading.Thread(
                target=drain, name=f"xdb-worker-{index}", daemon=True
            )
            for index in range(min(self.workers, len(thunks)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cancelled = sum(outcome.cancelled for outcome in outcomes)
        if context is not None and cancelled:
            context.metrics.inc("parallel.branches_cancelled", cancelled)
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return outcomes


def _run_branch(outcome: BranchOutcome, thunk, tracer, parent) -> None:
    """Run one thunk as span ``branch-N`` under ``parent``, recording
    its value or error and its thread-CPU seconds on ``outcome``."""
    span = None
    if tracer is not None and parent is not None:
        tracer.adopt(parent)
        span = tracer.start_span(
            f"branch-{outcome.index}", kind="parallel", branch=outcome.index
        )
    begin = thread_cpu_now()
    try:
        outcome.value = thunk()
    except BaseException as exc:  # re-raised by map()
        outcome.error = exc
    outcome.busy_seconds = thread_cpu_now() - begin
    if span is not None:
        span.attributes["busy_seconds"] = outcome.busy_seconds
        if outcome.error is not None:
            span.status = "error"
        tracer.end_span(span)
        tracer.release(parent)


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
