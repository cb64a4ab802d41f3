"""Simulated network: nodes, links, and transfer accounting.

The network never moves real bytes — engines run in-process — but every
inter-DBMS fetch and every control message is priced here, which is
what the paper's data-transfer experiments (Fig. 1 shading, Fig. 14)
measure, and what the schedule simulator uses to derive transfer times.
Links can be transiently degraded or partitioned (fault injection).
The network hands each priced transfer to the active
:class:`~repro.obs.context.QueryContext`, the only place it is kept;
``metrics`` aggregates a context's transfers and its connectors'
resilience counters.
"""

from repro.net.network import LinkSpec, Network, TransferRecord
from repro.net.metrics import (
    ConnectorResilience,
    ResilienceSummary,
    TransferSummary,
    summarize,
)

__all__ = [
    "ConnectorResilience",
    "LinkSpec",
    "Network",
    "ResilienceSummary",
    "TransferRecord",
    "TransferSummary",
    "summarize",
]
