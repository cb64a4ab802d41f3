"""Runners: execute one query on one system and normalize the metrics.

Every run executes under its own :class:`~repro.obs.context.QueryContext`
(XDB and the baselines each open one), so each
:class:`RunRecord` isolates exactly one query execution — runtime,
data-transfer decomposition (intra-federation vs. to-the-cloud), and
plan statistics where applicable — from the transfers *attributed to
that context*, the only place they are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.core.client import XDB
from repro.engine.result import Result
from repro.errors import ReproError
from repro.federation.deployment import Deployment
from repro.net.metrics import site_breakdown

@dataclass
class RunRecord:
    """Normalized metrics for one (system, query) execution."""

    system: str
    query: str
    total_seconds: float
    transfer_seconds: float
    processing_seconds: float
    #: bytes moved over the network, total
    bytes_total: int
    #: bytes entering the cloud site (mediator/middleware ingress)
    bytes_to_cloud: int
    #: bytes crossing site boundaries (geo scenario accounting)
    bytes_cross_site: int
    rows_returned: int
    result: Optional[Result] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: flat span/transfer totals from the run's observation context
    trace_summary: Optional[Dict[str, float]] = None

    @property
    def megabytes_total(self) -> float:
        return self.bytes_total / 1_000_000.0

    @property
    def megabytes_to_cloud(self) -> float:
        return self.bytes_to_cloud / 1_000_000.0

    @property
    def megabytes_cross_site(self) -> float:
        return self.bytes_cross_site / 1_000_000.0


def run_xdb(
    deployment: Deployment,
    query: str,
    query_name: str = "query",
    xdb: Optional[XDB] = None,
    keep_result: bool = True,
    qos=None,
) -> RunRecord:
    """Execute ``query`` through XDB and collect normalized metrics.

    ``qos`` (a :class:`~repro.qos.QoSPolicy`) opts the run into
    admission control and a per-query deadline; the resulting
    admission/deadline numbers land in ``record.extra``.
    """
    system = xdb or XDB(deployment)
    report = system.submit(query, qos=qos)
    ctx = report.context
    total, to_cloud, cross_site = site_breakdown(
        ctx.transfers, deployment.network
    )
    processing = sum(
        timing.proc_seconds for timing in report.schedule.tasks.values()
    )
    record = RunRecord(
        system="XDB",
        query=query_name,
        total_seconds=report.total_seconds,
        transfer_seconds=max(
            report.schedule.total_seconds - processing, 0.0
        ),
        processing_seconds=processing,
        bytes_total=total,
        bytes_to_cloud=to_cloud,
        bytes_cross_site=cross_site,
        rows_returned=len(report.result),
        result=report.result if keep_result else None,
        extra={
            "prep": report.phases["prep"],
            "lopt": report.phases["lopt"],
            "ann": report.phases["ann"],
            "exec": report.phases["exec"],
            "consultations": float(report.consultations),
            "tasks": float(report.plan.task_count()),
        },
        trace_summary=ctx.trace_summary(),
    )
    if report.qos is not None:
        record.extra["admission_wait_seconds"] = (
            report.qos.admission_wait_seconds
        )
        if report.qos.deadline_remaining_seconds is not None:
            record.extra["deadline_remaining_seconds"] = (
                report.qos.deadline_remaining_seconds
            )
    return record


def run_baseline(
    system,
    deployment: Deployment,
    query: str,
    query_name: str = "query",
    keep_result: bool = True,
) -> RunRecord:
    """Execute ``query`` on a comparison system (Garlic, Presto or
    Sclera) and collect normalized metrics."""
    report = system.run(query)
    ctx = report.context
    total, to_cloud, cross_site = site_breakdown(
        ctx.transfers, deployment.network
    )
    return RunRecord(
        system=report.system,
        query=query_name,
        total_seconds=report.total_seconds,
        transfer_seconds=report.transfer_seconds,
        processing_seconds=report.processing_seconds,
        bytes_total=total,
        bytes_to_cloud=to_cloud,
        bytes_cross_site=cross_site,
        rows_returned=len(report.result),
        result=report.result if keep_result else None,
        extra=dict(report.details),
        trace_summary=ctx.trace_summary(),
    )


@dataclass
class SystemSet:
    """All four systems over one deployment, with warm metadata.

    Building the systems once per scenario (and pre-gathering catalog
    metadata) keeps per-query measurements free of one-time setup —
    matching the paper's methodology of reporting per-query averages
    over repeated runs.
    """

    deployment: Deployment
    xdb: XDB
    garlic: GarlicSystem
    presto: PrestoSystem
    sclera: ScleraSystem

    def run_all(
        self, query: str, query_name: str, check: bool = True
    ) -> Dict[str, RunRecord]:
        records = {
            "XDB": run_xdb(self.deployment, query, query_name, xdb=self.xdb)
        }
        for key, system in (
            ("Garlic", self.garlic),
            ("Presto", self.presto),
            ("Sclera", self.sclera),
        ):
            records[key] = run_baseline(
                system, self.deployment, query, query_name
            )
        if check:
            verify_equivalence(list(records.values()))
        return records


def build_systems(
    deployment: Deployment,
    presto_workers: int = 4,
) -> SystemSet:
    """Construct and warm all four systems over ``deployment``.

    Every system prices with the *testbed* profile constants, the one
    price list: the paper's figures are defined by the emulated testbed
    (Hive's multi-second startup, per-engine per-tuple costs).
    Constants fitted to this repository's in-memory executor would
    collapse the emulated mediator baselines and invert the
    micro-scale comparisons (EXPERIMENTS.md, "Calibrated profiles"),
    so the calibration harness only scores these prices.
    """
    xdb = XDB(deployment)
    garlic = GarlicSystem(deployment)
    presto = PrestoSystem(deployment, workers=presto_workers)
    sclera = ScleraSystem(deployment)
    # Warm the metadata caches so measurements isolate query work.
    xdb.warm_metadata()
    garlic.catalog.refresh()
    presto.catalog.refresh()
    sclera.catalog.refresh()
    return SystemSet(deployment, xdb, garlic, presto, sclera)


def verify_equivalence(records: List[RunRecord], places: int = 2) -> None:
    """Assert all runs returned the same multiset of rows (rounded)."""

    def normalize(result: Result):
        rows = []
        for row in result.rows:
            rows.append(
                tuple(
                    round(value, places) if isinstance(value, float) else value
                    for value in row
                )
            )
        return sorted(map(repr, rows))

    keeper = [r for r in records if r.result is not None]
    if len(keeper) < 2:
        return
    reference = normalize(keeper[0].result)
    for record in keeper[1:]:
        candidate = normalize(record.result)
        if candidate != reference:
            raise ReproError(
                f"result mismatch between {keeper[0].system} and "
                f"{record.system} on {record.query}: "
                f"{len(reference)} vs {len(candidate)} normalized rows"
            )
