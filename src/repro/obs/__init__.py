"""``repro.obs`` — the observability spine.

One :class:`QueryContext` per query submission carries a
:class:`Tracer`: nested spans over the wall/simulated clock duality,
with the events and attributed transfers every layer records while the
context is active.  Every count and report is read off that tree.
See DESIGN.md §8.

Attribute access is lazy (PEP 562): low-level layers (the network
substrate, the health registry) import ``repro.obs.runtime`` while
they are themselves being imported by :mod:`repro.obs.context`, so the
package initializer must not eagerly re-import the high-level modules.
"""

from repro.obs.clock import wall_now
from repro.obs.runtime import current_context

__all__ = [
    "CONTROL_TAGS",
    "QueryContext",
    "Span",
    "SpanEvent",
    "Tracer",
    "add_event",
    "current_context",
    "validate_chrome_trace",
    "wall_now",
]

_LAZY = {
    "CONTROL_TAGS": "repro.obs.context",
    "QueryContext": "repro.obs.context",
    "add_event": "repro.obs.context",
    "validate_chrome_trace": "repro.obs.context",
    "Span": "repro.obs.tracer",
    "SpanEvent": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
