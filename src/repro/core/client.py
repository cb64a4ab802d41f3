"""The XDB facade: submit a cross-database query, get results + metrics.

Mirrors the paper's client flow (Fig. 4b): the middleware optimizes and
delegates, then hands the client an *XDB query* which the client runs on
the root DBMS — XDB itself never touches the data path.  The report
carries the §VI-E phase breakdown (prep / lopt / ann / exec), the
delegation plan with per-edge movement statistics (Table IV), and the
transfer summary for the data-movement experiments (Fig. 14).

The machinery itself lives in :mod:`repro.core.pipeline`: a submission
is a :class:`~repro.core.pipeline.PlanState` driven through the
re-enterable stage sequence by :class:`~repro.core.pipeline.
PlanPipeline`, whose ``execute`` is the only execute path and whose
recovery table is the only recovery routine.  This module keeps the
user-facing surface: :class:`XDB` (``submit`` enters the pipeline at
``parse``), :class:`PreparedQuery` (a retained state that re-enters at
``execute``), and the :class:`XDBReport` both are answered with.

Every submission runs inside one :class:`~repro.obs.context.
QueryContext`: the phase breakdown, transfer summary, resilience
counters, and recovery report are all *views* over its span tree and
context-scoped metrics — phase times combine real middleware CPU
(span wall time) with the simulated network and retry-backoff seconds
attributed to the phase's subtree (span sim time).  There is no
global counter or transfer log to read from, so concurrent or repeated
submissions cannot leak observations into each other; a submission
that fails hands its context out on the error (``exc.context``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.annotate import Annotation, PlanAnnotator
from repro.core.catalog import GlobalCatalog
from repro.core.delegate import DelegationEngine, DeployedQuery
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer
from repro.core.pipeline import (  # noqa: F401  (RecoveryReport re-export)
    PlanPipeline,
    PlanState,
    RecoveryReport,
)
from repro.core.plan import DelegationPlan

# noqa: F401 — the perf benchmark's tracer replaces these two names in
# this module's namespace (benchmarks/perf/spans.py BOUNDARIES).
from repro.core.timing import ScheduleResult, simulate_schedule  # noqa: F401
from repro.drift.ledger import ObjectLedger
from repro.drift.reaper import OrphanReaper, ReapReport
from repro.engine.result import Result
from repro.errors import OptimizerError, ReproError
from repro.federation.deployment import Deployment
from repro.feedback.harvest import harvest_execution  # noqa: F401
from repro.feedback.report import qerror_table
from repro.feedback.store import FeedbackOverlay, FeedbackStore, Observation
from repro.net.metrics import ResilienceSummary, TransferSummary
from repro.obs.context import QueryContext
from repro.qos import QoSPolicy, QoSReport
from repro.sql import ast


@dataclass
class XDBReport:
    """Everything a query submission produced."""

    result: Result
    plan: DelegationPlan
    deployed: DeployedQuery
    #: None for executions of a prepared query (no annotation phase)
    annotation: Optional[Annotation]
    schedule: ScheduleResult
    #: simulated seconds per phase: prep / lopt / ann / exec — phase
    #: times include any simulated retry backoff spent in that phase
    phases: Dict[str, float]
    transfers: TransferSummary
    consultations: int
    #: per-connector retry/failure counters for this submission
    resilience: ResilienceSummary
    #: what the recovery scopes did for this submission (untouched in
    #: the common case — see :attr:`RecoveryReport.touched`)
    recovery: RecoveryReport
    #: the observation context the submission ran under: span tree,
    #: context-scoped metrics, attributed transfers, trace exports
    context: QueryContext
    #: QoS receipt — admission wait, deadline spend, staleness — when
    #: the submission carried a :class:`~repro.qos.QoSPolicy`
    qos: Optional[QoSReport]
    #: Q-Error observations harvested from this execution (estimate vs
    #: actual per task boundary and base-table scan)
    feedback: List[Observation]

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())

    @property
    def execution_seconds(self) -> float:
        return self.phases.get("exec", 0.0)

    @property
    def optimization_seconds(self) -> float:
        return (
            self.phases.get("prep", 0.0)
            + self.phases.get("lopt", 0.0)
            + self.phases.get("ann", 0.0)
        )

    def _phase_line(self) -> str:
        return "phases: " + ", ".join(
            f"{name}={seconds:.3f}s" for name, seconds in self.phases.items()
        )

    def describe(self) -> str:
        lines = [
            f"delegation plan ({self.plan.task_count()} tasks, "
            f"root @ {self.plan.root.annotation}):",
            self.plan.describe(),
            self._phase_line(),
            f"data moved: {self.transfers.total_megabytes:.3f} MB in "
            f"{self.transfers.transfer_count} transfers",
        ]
        if self.resilience.degraded:
            lines.append(f"resilience: {self.resilience.describe()}")
        if self.recovery.touched:
            lines.append(f"recovery: {self.recovery.describe()}")
        if self.qos is not None:
            lines.append(f"qos: {self.qos.describe()}")
        return "\n".join(lines)

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE-style span tree for this submission."""
        out = self._phase_line() + "\n" + self.context.explain_tree()
        if self.feedback:
            table = qerror_table(self.feedback)
            if table:
                out += "\n" + table
        resilience = self._branch_resilience_section()
        if resilience:
            out += "\n" + resilience
        return out

    def _branch_resilience_section(self) -> str:
        """Branch-level fault handling for EXPLAIN ANALYZE output.

        Summarizes how the submission survived: what each recovery
        scope did (:meth:`RecoveryReport.parts`) and the
        speculative-execution (hedging) activity of the parallel
        gather.  Empty when nothing happened — the section only shows
        up on submissions that exercised a fault domain.
        """
        lines = [f"  {part}" for part in self.recovery.parts()]
        metrics = self.context.metrics
        launched = int(metrics.value("parallel.hedges_launched"))
        if launched:
            lines.append(
                f"  hedges: {launched} launched, "
                f"{int(metrics.value('parallel.hedges_won'))} won, "
                f"{int(metrics.value('parallel.hedges_wasted'))} wasted"
            )
        cancelled = int(metrics.value("parallel.branches_cancelled"))
        if cancelled:
            lines.append(f"  branches cancelled: {cancelled}")
        if not lines:
            return ""
        return "branch resilience:\n" + "\n".join(lines)

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON for this submission's span tree."""
        return self.context.to_chrome_trace()


class XDB:
    """The middleware: cross-database optimizer + delegation engine."""

    def __init__(
        self,
        deployment: Deployment,
        movement_policy: str = "cost",
        prune_candidates: bool = True,
        plan_shape: str = "left-deep",
        repair_budget: int = 2,
        ddl_namespace: str = "",
        ledger_path: Optional[str] = None,
        feedback: Optional[FeedbackStore] = None,
        feedback_path: Optional[str] = None,
        adaptivity_threshold: Optional[float] = None,
    ):
        """Create the middleware over ``deployment``.

        The keyword arguments expose the optimizer's ablation knobs:
        ``movement_policy`` ("cost"/"implicit"/"explicit"),
        ``prune_candidates`` (Rule 4's two-candidate pruning), and
        ``plan_shape`` ("left-deep" per the paper, or "bushy" — the
        paper's future-work extension, §IV-B footnote 5).
        ``repair_budget`` bounds the self-healing plan-repair loop:
        how many times one submission may re-plan around an engine
        outage before the failure propagates (0 disables repair).
        ``ddl_namespace`` prefixes every short-lived DDL object this
        client creates — concurrent XDB instances sharing one
        federation give themselves distinct namespaces so their
        ``xf_/xm_/xv_`` objects cannot collide.  ``ledger_path``
        persists the delegated-object ledger as JSON, so a restarted
        client can still reap what a crashed one leaked.

        The Q-Error loop is opt-in: pass a :class:`FeedbackStore` (or
        ``feedback_path`` to persist one as JSON) and every execution
        harvests per-operator (estimate, actual) pairs that re-steer
        the join-order DP and Rule-4 costing of later plans.
        ``adaptivity_threshold`` additionally arms *mid-query*
        adaptation: when a materialized task boundary's Q-Error exceeds
        it, the unexecuted plan suffix is re-annotated with the
        executed tasks pinned.
        """
        self.deployment = deployment
        self.repair_budget = repair_budget
        self.connectors = deployment.connectors
        self.catalog = GlobalCatalog(
            self.connectors,
            partition_specs=deployment.partition_specs,
        )
        #: the persistent Q-Error store (None keeps the loop off)
        if feedback is None and feedback_path is not None:
            feedback = FeedbackStore(path=feedback_path)
        self.feedback = feedback
        self.feedback_overlay = (
            FeedbackOverlay(feedback) if feedback is not None else None
        )
        self.optimizer = LogicalOptimizer(
            self.catalog,
            plan_shape=plan_shape,
            feedback=self.feedback_overlay,
        )
        self.annotator = PlanAnnotator(
            self.connectors,
            deployment.network,
            movement_policy=movement_policy,
            prune_candidates=prune_candidates,
            catalog=self.catalog,
        )
        self.finalizer = PlanFinalizer()
        #: durable record of every delegated DDL object (drift PR);
        #: feeds the cumulative leak accounting and the orphan reaper
        self.ledger = ObjectLedger(namespace=ddl_namespace, path=ledger_path)
        self.delegator = DelegationEngine(
            self.connectors, namespace=ddl_namespace, ledger=self.ledger
        )
        #: epoch-fenced reaper: reconciles engine-held ``xf_/xm_/xv_``
        #: objects against the ledger, dropping only retired epochs
        self.reaper = OrphanReaper(
            self.ledger, self.connectors, health=deployment.health
        )
        # Engine recovery (breaker half-open → closed) marks the engine
        # pending; the *next* submission sweeps it — sweeping inside the
        # guarded call path would recurse into the connectors.
        deployment.health.add_recovery_listener(self.reaper.note_recovery)
        #: live PreparedQuery handles, so drift recovery can invalidate
        #: prepared plans that scan a re-introspected table
        self._prepared: "weakref.WeakSet[PreparedQuery]" = weakref.WeakSet()
        #: the re-enterable planning pipeline every submission runs on
        self.pipeline = PlanPipeline(
            deployment,
            self.catalog,
            self.optimizer,
            self.annotator,
            self.finalizer,
            self.delegator,
            repair_budget=repair_budget,
            feedback=feedback,
            adaptivity_threshold=adaptivity_threshold,
            on_drift=self._invalidate_prepared,
        )

    # -- public API --------------------------------------------------------------

    def submit(
        self,
        query: Union[str, ast.Select],
        cleanup: bool = True,
        refresh_metadata: bool = False,
        qos: Optional[QoSPolicy] = None,
    ) -> XDBReport:
        """Run a cross-database query end to end and report everything.

        Self-healing: when a DBMS turns out to be unavailable during
        annotation-time consultation, delegation, or execution, the
        outage is reported to the deployment's health registry (the
        breaker trips, so subsequent calls fail fast), any partially
        deployed objects are cleaned up best-effort, and the cached
        logical plan is re-annotated — replicated tables route to a
        surviving holder — then re-delegated and re-executed.  The loop
        is bounded by ``repair_budget``; unrepairable outages (the only
        holder of a table is down) propagate immediately.

        QoS: with a :class:`~repro.qos.QoSPolicy` the submission holds
        one admission token per engine its plan touches for the whole
        execution phase (queueing or shedding under overload, by
        priority), draws every connector call, retry, backoff, and
        queue wait from one per-query :class:`~repro.qos.Deadline`
        budget, and — should that budget expire mid-delegation — rolls
        the in-flight DDL back under the deadline's grace budget before
        raising a structured :class:`~repro.errors.DeadlineExceeded`.
        """
        state = self.pipeline.new_state(query, budget=self.repair_budget)
        return self._run(state, qos, cleanup, refresh_metadata)

    def _run(
        self,
        state: PlanState,
        qos: Optional[QoSPolicy],
        cleanup: bool,
        refresh_metadata: bool = False,
    ) -> XDBReport:
        """One pass of ``state`` through the pipeline, under a fresh
        :class:`QueryContext` — the body of both entry points.

        A state that has not been planned yet (``submit``) runs the
        planning phases first; a prepared query's state enters at
        ``execute`` and reports zero planning phases.
        """
        # Engines that recovered since the last entry get their
        # deferred orphan sweep now, outside the query's context (and
        # never allowed to fail the query itself).
        try:
            self.reaper.sweep_pending()
        except ReproError:
            pass
        plans = state.dplan is None
        ctx = QueryContext(label=state.label or "prepared", qos=qos)
        with ctx:
            phases = {"prep": 0.0, "lopt": 0.0, "ann": 0.0}
            if plans:
                spans = self.pipeline.plan(state, ctx, refresh_metadata)
                for name, span in zip(phases, spans):
                    phases[name] = ctx.phase_seconds(span)
            self.pipeline.execute(state, ctx, cleanup=cleanup)
            phases["exec"] = state.exec_seconds

            recovery = state.recovery
            qos_report = None
            if qos is not None:
                stale = bool(state.stale_reason)
                qos_report = QoSReport(
                    priority=qos.priority,
                    deadline_seconds=qos.deadline_seconds,
                    deadline_remaining_seconds=(
                        ctx.deadline.remaining_seconds
                        if ctx.deadline is not None
                        else None
                    ),
                    admission_wait_seconds=ctx.admission_wait_seconds,
                    admission_sim_seconds=ctx.admission_sim_seconds,
                    admitted_engines=list(state.lease.engines),
                    stale_read=stale,
                    staleness_seconds=(
                        self.pipeline.staleness(state) if stale else None
                    ),
                    stale_reason=state.stale_reason,
                    partial=recovery.partial,
                    completeness=recovery.completeness,
                    missing_partitions=list(recovery.missing_partitions),
                )

            resilience = ctx.resilience_summary(self.connectors)
            resilience.leaked_objects = self.ledger.leaked_count()
            # The planning fields describe the planning *this* entry
            # did: an execution that entered at ``execute`` consulted
            # nobody.
            annotation = state.annotation if plans else None
            return XDBReport(
                result=state.result,
                plan=state.dplan,
                deployed=state.deployed,
                annotation=annotation,
                schedule=state.schedule,
                phases=phases,
                transfers=state.transfers,
                consultations=annotation.consultations if plans else 0,
                resilience=resilience,
                recovery=recovery,
                context=ctx,
                qos=qos_report,
                feedback=list(state.observations),
            )

    def reap(self, dbs: Optional[List[str]] = None) -> ReapReport:
        """Reconcile engine-held delegated objects against the ledger.

        Sweeps every reachable engine (or just ``dbs``), dropping
        ``xf_/xm_/xv_`` objects from *retired* epochs — a live
        deployment's objects are fenced and never touched.  Engines
        that are down are skipped and re-swept automatically after
        their breaker closes (see the recovery listener).
        """
        return self.reaper.sweep(dbs)

    def explain(self, query: Union[str, ast.Select]) -> str:
        """Produce the delegation plan (Table IV style) without executing."""
        return self.plan_query(query).describe()

    def explain_analyze(
        self,
        query: Union[str, ast.Select],
        cleanup: bool = True,
        refresh_metadata: bool = False,
    ) -> str:
        """Run the query and render its observed span tree.

        The cross-database analogue of ``EXPLAIN ANALYZE``: submits the
        query, then prints the phase breakdown, every span (engine
        calls, DDL statements, operator cardinalities, schedule tasks)
        with its wall/simulated timings, and the per-operator Q-Error
        table — estimated vs actual rows, worst miss flagged as the
        planning locus with its routed rewrite hypothesis.
        """
        report = self.submit(
            query, cleanup=cleanup, refresh_metadata=refresh_metadata
        )
        return report.explain_analyze()

    def plan_query(
        self, query: Union[str, ast.Select]
    ) -> DelegationPlan:
        """Optimize + annotate + finalize, returning the delegation plan."""
        state = self.pipeline.new_state(query, budget=0)
        self.pipeline.plan(state)
        return state.dplan

    def prepare(self, query: Union[str, ast.Select]) -> "PreparedQuery":
        """Optimize + delegate once; execute many times on fresh data.

        The delegation cascade stays deployed: re-executions skip the
        optimizer and delegation phases entirely, re-materialize the
        explicit edges, and re-run the XDB query — since every implicit
        edge is a view, results always reflect the current base data
        (the paper's "ad-hoc queries on fresh data" motivation without
        re-planning).
        """
        state = self.pipeline.new_state(query, budget=0)
        self.pipeline.plan(state)
        self.pipeline.deploy(state)
        prepared = PreparedQuery(self, state)
        self._prepared.add(prepared)
        return prepared

    def invalidate_metadata(self) -> None:
        self.pipeline.metadata_fresh = False

    def warm_metadata(self) -> None:
        """Gather global-catalog metadata ahead of time (benchmarks)."""
        self.catalog.refresh()
        self.pipeline.metadata_fresh = True

    # -- internals ------------------------------------------------------------------

    def _invalidate_prepared(self, db: str, table: str) -> None:
        """Mark prepared queries scanning ``db.table`` as stale."""
        for prepared in list(self._prepared):
            scanned = PlanPipeline.placement(prepared.state.dplan)
            if table.lower() in {name.lower() for name in scanned}:
                prepared.state.stale_plan = True


class PreparedQuery:
    """A delegated query kept deployed for repeated execution.

    The handle is a retained :class:`PlanState`: every :meth:`execute`
    re-enters the pipeline at the ``execute`` stage under a *fresh*
    :class:`QueryContext`, so repeated executions report identical,
    independent numbers — counters cannot leak from one run into the
    next.  Use as a context manager (or call :meth:`close`) so the
    short-lived views / foreign tables are dropped from the DBMSes
    afterwards.
    """

    def __init__(self, xdb: XDB, state: PlanState):
        self._xdb = xdb
        #: the planned, deployed state — source query, plan and cascade
        #: — that schema drift or a blown estimate replans in place
        self.state = state
        self.executions = 0
        self._closed = False

    @property
    def deployed(self) -> Optional[DeployedQuery]:
        """The cascade currently deployed (None between a recovery that
        tore it down and the execution that re-delegates)."""
        return self.state.deployed

    @property
    def plan(self) -> DelegationPlan:
        return self.state.dplan

    @property
    def stale_plan(self) -> bool:
        """Whether the deployed cascade predates a known schema drift."""
        return self.state.stale_plan

    def invalidate(self) -> None:
        """Force the next :meth:`execute` to replan before running."""
        self.state.stale_plan = True

    def staleness_seconds(self) -> float:
        """Age of the materialization snapshots (simulated seconds)."""
        return self._xdb.pipeline.staleness(self.state)

    def execute(self, qos: Optional[QoSPolicy] = None) -> XDBReport:
        """Run the deployed XDB query against the current base data.

        The first execution reads the snapshots its delegation built;
        later ones re-materialize the explicit edges first.

        Graceful degradation: a policy with ``max_staleness_seconds``
        set allows the execution to fall back to the *existing*
        materialization snapshots — skipping the refresh and admitting
        against the root engine only — when the gate sheds the full
        engine set or a snapshot host's breaker is open, provided the
        snapshots are younger than the bound.  The served staleness is
        recorded in ``report.qos``.

        Recovery: the execution draws on the same recovery table as
        ``submit``, within the client's ``repair_budget``.  When the
        catalog learns a scanned table drifted, the handle either
        serves a staleness-bounded read from the existing snapshots
        (``report.qos.stale_reason == "drift"``) or replans end to
        end; an execution that trips over the drift itself
        re-introspects the table and replans.

        Cardinality feedback: when the client carries a feedback store
        and an execution's worst Q-Error blows the adaptivity
        threshold, the *next* execute replans the same way — this time
        the optimizer's estimators run under the learned cardinalities,
        so the replanned cascade reflects observed row counts.
        """
        if self._closed:
            raise OptimizerError("prepared query is closed")
        xdb = self._xdb
        xdb.pipeline.rearm(self.state, budget=xdb.repair_budget)
        report = xdb._run(self.state, qos, cleanup=False)
        self.executions += 1
        return report

    def close(self) -> None:
        """Drop every deployed object."""
        if not self._closed:
            if self.state.deployed is not None:
                self.state.deployed.cleanup()
            self._closed = True

    def __enter__(self) -> "PreparedQuery":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
