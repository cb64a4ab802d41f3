"""Ambient query-context propagation.

The middleware threads its :class:`~repro.obs.context.QueryContext`
explicitly through the layers it owns (client → delegation engine →
connectors), but some producers of observations are reached *through*
an autonomous component — the network substrate records a transfer from
inside an engine's FDW fetch, a circuit breaker transitions from deep
inside the guarded call path.  Those layers look up the **active**
context here instead of growing a context parameter on every call
signature (the OpenTelemetry "current span" pattern).

The stack is one module-level list: a process runs its queries on one
thread, so a LIFO keeps every observation attributed to the innermost
active query while re-entrant activations (a prepared query executed
while another context is live) stay well-defined.  This module
deliberately imports nothing from the rest of ``repro`` so every layer
can depend on it without cycles.
"""

from __future__ import annotations

from typing import List, Optional

#: active contexts, innermost last
_STACK: List[object] = []


def push_context(ctx: object) -> None:
    """Make ``ctx`` the active observation context."""
    _STACK.append(ctx)


def pop_context(ctx: object) -> None:
    """Deactivate ``ctx``; it must be the innermost active context."""
    if not _STACK or _STACK[-1] is not ctx:
        raise RuntimeError(
            "observation context stack corrupted: popped context is not "
            "the innermost active one"
        )
    _STACK.pop()


def current_context() -> Optional[object]:
    """The innermost active context (None outside queries)."""
    return _STACK[-1] if _STACK else None
