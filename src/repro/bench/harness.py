"""Runners: execute one query on one system and normalize the metrics.

Every run executes under its own :class:`~repro.obs.context.QueryContext`
(XDB and the baselines each open one), so each
:class:`RunRecord` isolates exactly one query execution — runtime,
data-transfer decomposition (intra-federation vs. to-the-cloud), and
plan statistics where applicable — from the transfers *attributed to
that context*, the only place they are kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.core.client import XDB
from repro.engine.profiles import load_calibrated
from repro.engine.result import Result
from repro.errors import ReproError
from repro.federation.deployment import Deployment
from repro.net.metrics import site_breakdown

#: default calibrated engine-profile overlay, emitted by
#: ``python -m repro.calibrate`` (repo-relative)
_DEFAULT_CALIBRATED_PROFILES = os.path.join(
    os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    ),
    "benchmarks",
    "results",
    "calibrated_profiles.json",
)


def apply_calibrated_profiles(path: Optional[str] = None) -> bool:
    """Install the calibrated engine-profile overlay, if one exists.

    ``path`` defaults to the repository's
    ``benchmarks/results/calibrated_profiles.json``.  Returns True when
    an overlay was loaded.
    """
    candidate = path or _DEFAULT_CALIBRATED_PROFILES
    if not os.path.exists(candidate):
        return False
    load_calibrated(candidate)
    return True


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
            + report.qos.admission_sim_seconds
        )
        if report.qos.deadline_remaining_seconds is not None:
            record.extra["deadline_remaining_seconds"] = (
                report.qos.deadline_remaining_seconds
            )
    return record


def _run_baseline(
    system,
    deployment: Deployment,
    query: str,
    query_name: str,
    keep_result: bool,
) -> RunRecord:
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


def run_garlic(
    deployment: Deployment,
    query: str,
    query_name: str = "query",
    system: Optional[GarlicSystem] = None,
    keep_result: bool = True,
) -> RunRecord:
    system = system or GarlicSystem(deployment)
    return _run_baseline(system, deployment, query, query_name, keep_result)


def run_presto(
    deployment: Deployment,
    query: str,
    query_name: str = "query",
    workers: int = 4,
    system: Optional[PrestoSystem] = None,
    keep_result: bool = True,
) -> RunRecord:
    system = system or PrestoSystem(deployment, workers=workers)
    return _run_baseline(system, deployment, query, query_name, keep_result)


def run_sclera(
    deployment: Deployment,
    query: str,
    query_name: str = "query",
    system: Optional[ScleraSystem] = None,
    keep_result: bool = True,
) -> RunRecord:
    system = system or ScleraSystem(deployment)
    return _run_baseline(system, deployment, query, query_name, keep_result)


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
            "XDB": run_xdb(self.deployment, query, query_name, xdb=self.xdb),
            "Garlic": run_garlic(
                self.deployment, query, query_name, system=self.garlic
            ),
            "Presto": run_presto(
                self.deployment, query, query_name, system=self.presto
            ),
            "Sclera": run_sclera(
                self.deployment, query, query_name, system=self.sclera
            ),
        }
        if check:
            verify_equivalence(list(records.values()))
        return records


def build_systems(
    deployment: Deployment,
    presto_workers: int = 4,
    calibrated: Optional[bool] = None,
) -> SystemSet:
    """Construct and warm all four systems over ``deployment``.

    The fidelity benchmarks cost with the hand-set *testbed* profile
    constants by default: the paper's figures are defined by the
    emulated testbed (Hive's multi-second startup, per-engine
    per-tuple costs), and the calibration harness fits constants to
    this repository's real in-memory executor instead — applying that
    overlay collapses the emulated mediator baselines and inverts the
    micro-scale comparisons (see EXPERIMENTS.md, "Calibrated
    profiles").  Opt in to the calibrated overlay with
    ``calibrated=True``, the ``--calibrated`` flag of
    ``repro.bench.run``, or the ``XDB_CALIBRATED`` environment
    variable; the overlay itself is resolved by
    :func:`apply_calibrated_profiles`.
    """
    if calibrated is None:
        calibrated = bool(os.environ.get("XDB_CALIBRATED"))
    if calibrated:
        apply_calibrated_profiles()
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
