"""Per-query deadline budgets: the source of truth for call timeouts.

A :class:`Deadline` is one query's time budget.  It replaces the flat
``RetryPolicy.call_timeout_seconds`` as the authority on how long any
single engine call may take: each guarded connector call gets
``min(remaining_deadline, per_call_cap, policy_cap)``, and retries,
backoff, and admission-queue waits all draw down the *same* budget —
a query cannot spend more than its deadline by splitting the spend
across retries.

**Deadline algebra.**  The budget is measured in *deadline seconds*:
the query's simulated spend — network transfer time, retry backoff and
admission-queue waits attributed to its
:class:`~repro.obs.context.QueryContext` — read off the tracer's
simulated clock via the armed ``clock`` callable.  There is one clock
and nothing is charged beside it.

Wall-clock CPU is deliberately *not* charged: middleware CPU at these
scales is microseconds, and charging it would make every expiry test
machine-speed dependent.  The budget is therefore deterministic for a
fixed fault seed, like the rest of the resilience machinery.

**Cancellation grace.**  When a deadline expires mid-delegation the
in-flight DDL must still be rolled back — an expired budget is not a
license to leak catalog objects.  :meth:`grace` opens a bounded side
budget (``grace_seconds``) for exactly that cleanup work; if even the
grace budget runs out, the remaining drops fail fast with
:class:`~repro.errors.DeadlineExceeded` and the rollback accounting
reports them as leaked (never silently dropped).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.errors import DeadlineExceeded

#: Default side budget for cancellation rollback (deadline seconds).
DEFAULT_GRACE_SECONDS = 30.0


class Deadline:
    """One query's consumable time budget (deadline seconds)."""

    def __init__(
        self,
        budget_seconds: float,
        per_call_cap_seconds: Optional[float] = None,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
    ):
        if budget_seconds < 0:
            raise ValueError("deadline budget cannot be negative")
        self.budget_seconds = float(budget_seconds)
        #: optional per-call ceiling below the remaining budget
        self.per_call_cap_seconds = per_call_cap_seconds
        self.grace_seconds = float(grace_seconds)
        self._clock: Optional[Callable[[], float]] = None
        self._anchor = 0.0
        self._grace_anchor: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def arm(self, clock: Callable[[], float]) -> "Deadline":
        """Anchor the budget to ``clock`` (the query's simulated time).

        Everything the clock advances by *after* arming counts against
        the budget; :class:`~repro.obs.context.QueryContext` arms the
        deadline with its tracer's ``sim_now`` on construction.
        """
        self._clock = clock
        self._anchor = clock()
        return self

    # -- accounting ----------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        return (self._clock() - self._anchor) if self._clock else 0.0

    @property
    def remaining_seconds(self) -> float:
        """Budget left; inside :meth:`grace` this is the grace budget."""
        if self._grace_anchor is not None:
            return max(
                0.0,
                self.grace_seconds
                - (self.elapsed_seconds - self._grace_anchor),
            )
        return self.budget_seconds - self.elapsed_seconds

    @property
    def expired(self) -> bool:
        return self.remaining_seconds <= 0.0

    @property
    def in_grace(self) -> bool:
        return self._grace_anchor is not None

    # -- the call-budget rule ------------------------------------------

    def call_cap(self, policy_cap: Optional[float]) -> float:
        """Per-call budget: ``min(remaining, per_call_cap, policy_cap)``.

        The tentpole rule — no single engine call may outlive the
        query, and an explicit per-call cap keeps one slow call from
        eating the whole budget when the query still has retries and
        other calls ahead of it.
        """
        cap = max(self.remaining_seconds, 0.0)
        if self.per_call_cap_seconds is not None:
            cap = min(cap, self.per_call_cap_seconds)
        if policy_cap is not None:
            cap = min(cap, policy_cap)
        return cap

    # -- expiry --------------------------------------------------------

    def exceeded(self, phase: str, detail: str = "") -> DeadlineExceeded:
        """Build the structured expiry error for ``phase``."""
        where = f" during {detail}" if detail else ""
        budget = (
            self.grace_seconds if self._grace_anchor is not None
            else self.budget_seconds
        )
        kind = "grace budget" if self._grace_anchor is not None else "deadline"
        return DeadlineExceeded(
            f"{kind} of {budget:.3f}s exceeded in phase {phase!r}{where} "
            f"({self.elapsed_seconds:.3f}s consumed)",
            phase=phase,
            detail=detail,
            budget_seconds=budget,
            elapsed_seconds=self.elapsed_seconds,
        )

    def check(self, phase: str, detail: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            raise self.exceeded(phase, detail)

    # -- cancellation grace --------------------------------------------

    @contextmanager
    def grace(self) -> Iterator["Deadline"]:
        """Open the bounded cleanup budget for cancellation rollback.

        Nested grace windows share the outermost anchor: rollback of a
        rollback does not mint fresh budget.
        """
        opened = self._grace_anchor is None
        if opened:
            self._grace_anchor = self.elapsed_seconds
        try:
            yield self
        finally:
            if opened:
                self._grace_anchor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline({self.budget_seconds}s, "
            f"remaining={self.remaining_seconds:.3f}s)"
        )
