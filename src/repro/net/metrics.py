"""Aggregations over a query's attributed transfers and its connectors'
resilience counters (retries, failures, give-ups, backoff) — both read
off a :class:`~repro.obs.context.QueryContext`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.net.network import Network, TransferRecord


@dataclass
class TransferSummary:
    """Aggregate view over a set of transfer records."""

    total_bytes: int = 0
    total_rows: int = 0
    transfer_count: int = 0
    by_tag: Dict[str, int] = field(default_factory=dict)
    by_edge: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def total_megabytes(self) -> float:
        return self.total_bytes / 1_000_000.0

    def bytes_for_tag(self, tag_prefix: str) -> int:
        return sum(
            count
            for tag, count in self.by_tag.items()
            if tag.startswith(tag_prefix)
        )


def summarize(records: Iterable[TransferRecord]) -> TransferSummary:
    """Aggregate ``records`` (cross-site bytes: :func:`site_breakdown`)."""
    summary = TransferSummary()
    for record in records:
        summary.total_bytes += record.payload_bytes
        summary.total_rows += record.rows
        summary.transfer_count += 1
        summary.by_tag[record.tag] = (
            summary.by_tag.get(record.tag, 0) + record.payload_bytes
        )
        edge = (record.src, record.dst)
        summary.by_edge[edge] = (
            summary.by_edge.get(edge, 0) + record.payload_bytes
        )
    return summary


def site_breakdown(
    records: Iterable[TransferRecord],
    network: Network,
) -> Tuple[int, int, int]:
    """Byte totals ``(total, to_cloud, cross_site)`` over ``records``.

    ``to_cloud`` counts bytes entering the cloud site from elsewhere
    (mediator/middleware ingress); ``cross_site`` counts all bytes on
    links crossing site boundaries (WAN traffic).  The records are the
    query's *attributed* transfers (a :class:`~repro.obs.context.
    QueryContext` stream).
    """
    total = 0
    to_cloud = 0
    cross_site = 0
    for record in records:
        total += record.payload_bytes
        src_site = network.node_site(record.src)
        dst_site = network.node_site(record.dst)
        if dst_site == "cloud" and src_site != "cloud":
            to_cloud += record.payload_bytes
        if src_site != dst_site:
            cross_site += record.payload_bytes
    return total, to_cloud, cross_site


# -- resilience counters ----------------------------------------------------


@dataclass(frozen=True)
class ConnectorResilience:
    """One connector's retry/failure counters within one query."""

    retries: int = 0
    giveups: int = 0
    backoff_seconds: float = 0.0
    #: calls rejected up-front by an open circuit breaker
    fastfails: int = 0

    @property
    def failures(self) -> int:
        """Every retryable failure ends in a retry or a give-up."""
        return self.retries + self.giveups


@dataclass
class ResilienceSummary:
    """Per-connector and aggregate resilience counters for one window."""

    by_connector: Dict[str, ConnectorResilience] = field(default_factory=dict)
    #: outstanding leaked DDL objects in the client's ledger at report
    #: time — cumulative across submissions, paid down by the reaper
    leaked_objects: int = 0

    @property
    def retries(self) -> int:
        return sum(c.retries for c in self.by_connector.values())

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.by_connector.values())

    @property
    def giveups(self) -> int:
        return sum(c.giveups for c in self.by_connector.values())

    @property
    def backoff_seconds(self) -> float:
        return sum(c.backoff_seconds for c in self.by_connector.values())

    @property
    def fastfails(self) -> int:
        return sum(c.fastfails for c in self.by_connector.values())

    @property
    def degraded(self) -> bool:
        """Whether any fault was absorbed (or not) during the window."""
        return self.failures > 0 or self.fastfails > 0

    def describe(self) -> str:
        parts = [
            f"{self.retries} retries",
            f"{self.failures} failures",
            f"{self.giveups} give-ups",
            f"{self.backoff_seconds:.3f}s backoff",
        ]
        if self.fastfails:
            parts.append(f"{self.fastfails} breaker fast-fails")
        if self.leaked_objects:
            parts.append(f"{self.leaked_objects} leaked objects outstanding")
        noisy = {
            name: c
            for name, c in sorted(self.by_connector.items())
            if c.failures or c.retries or c.fastfails
        }
        if noisy:
            per = ", ".join(
                f"{name}: r={c.retries} f={c.failures}"
                for name, c in noisy.items()
            )
            parts.append(f"({per})")
        return " ".join(parts)


def edge_rows(records: Iterable[TransferRecord]) -> Dict[Tuple[str, str], int]:
    """Rows moved per (src, dst) edge — feeds Table IV style analyses."""
    rows: Dict[Tuple[str, str], int] = {}
    for record in records:
        edge = (record.src, record.dst)
        rows[edge] = rows.get(edge, 0) + record.rows
    return rows
