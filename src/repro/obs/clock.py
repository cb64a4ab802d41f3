"""The wall-clock source for the observability spine.

This module is the **only** place in the codebase allowed to touch
``time.perf_counter`` (enforced by a ruff ``flake8-tidy-imports``
banned-API rule): every other layer measures real time through
:func:`wall_now`, so wall-clock reads always flow into the tracer's
span intervals instead of ad-hoc module-level timing.

The *simulated* clock is the other half of the clock duality and lives
on the :class:`~repro.obs.tracer.Tracer` — it advances only when
simulated cost is attributed (network transfers, retry backoff), never
by itself.  A query runs on one thread, so a span's wall seconds are
what its work cost; parallelism (member DBMSes running delegated tasks
side by side) exists only on the simulated clock, as per-engine
``worker_slots`` in the schedule simulator.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``)."""
    return time.perf_counter()
