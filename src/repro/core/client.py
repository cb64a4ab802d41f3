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
recovery table is the only recovery routine, and which keeps every
deployed cascade.  This module keeps the user-facing surface:
:class:`XDB` (``submit`` enters the pipeline at ``parse``, a repeated
text at ``execute`` on the cascade its plan-memo entry keeps),
:class:`PreparedQuery` (a key on a cascade the pipeline keeps, re-run
at ``execute``), and the :class:`XDBReport` both are answered with.

Every submission runs inside one :class:`~repro.obs.context.
QueryContext`, and every number its report shows is a view over that
span tree: there is no global counter or transfer log, so interleaved
or repeated submissions cannot leak observations into each other, and
a submission that fails hands its context out on the error
(``exc.context``).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro.core.annotate import Annotation, PlanAnnotator
from repro.core.catalog import GlobalCatalog
from repro.core.delegate import DelegationEngine, DeployedQuery
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer
from repro.core.pipeline import PlanPipeline, PlanState, RecoveryReport
from repro.core.plan import DelegationPlan

# noqa: F401 — the perf benchmark's tracer replaces these two names in
# this module's namespace (benchmarks/perf/spans.py BOUNDARIES).
from repro.core.timing import ScheduleResult, simulate_schedule  # noqa: F401
from repro.drift.reaper import OrphanReaper, ReapReport
from repro.engine.result import Result
from repro.errors import ReproError
from repro.federation.deployment import Deployment
from repro.feedback.harvest import harvest_execution  # noqa: F401
from repro.feedback.report import qerror_table
from repro.feedback.store import FeedbackOverlay, FeedbackStore, Observation
from repro.net.metrics import ResilienceSummary, TransferSummary
from repro.obs.context import QueryContext
from repro.obs.tracer import Span
from repro.qos import QoSPolicy, QoSReport
from repro.sql import ast


@dataclass
class XDBReport:
    """Everything a query submission produced.

    The fields are what the span tree does not hold; ``phases``,
    ``transfers``, ``consultations``, ``resilience``, ``recovery`` and
    ``qos`` are views over :attr:`context`, each read on first access.
    """

    result: Result
    plan: DelegationPlan
    #: this run's copy of the cascade (a kept one runs again)
    deployed: DeployedQuery
    #: None for prepared executions and plan-memo hits (no annotation
    #: phase)
    annotation: Optional[Annotation]
    schedule: ScheduleResult
    #: the observation context the submission ran under: span tree,
    #: its events, attributed transfers, trace exports
    context: QueryContext
    #: Q-Error observations harvested from this execution (estimate vs
    #: actual per task boundary and base-table scan)
    feedback: List[Observation]
    #: where each base table's scan ran when this entry started
    placement_before: Dict[str, str]
    #: the client ledger's outstanding leaked objects at report time
    leaked_objects: int
    #: the client's connectors (quiet ones appear in ``resilience``)
    connector_names: Tuple[str, ...]

    @cached_property
    def _phase_spans(self) -> Dict[str, Span]:
        root = self.context.root
        return {s.name: s for s in root.children if s.kind == "phase"}

    @cached_property
    def phases(self) -> Dict[str, float]:
        """Seconds per phase: prep / lopt / ann in real CPU + simulated
        time (0 when nothing was planned); exec as the simulated schedule
        plus the control messages and retry backoff under its span
        (middleware CPU is off the critical path while DBMSes run)."""
        ctx, spans = self.context, self._phase_spans
        phases = {
            name: ctx.phase_seconds(spans[name]) if name in spans else 0.0
            for name in ("prep", "lopt", "ann")
        }
        phases["exec"] = (
            self.schedule.total_seconds
            + ctx.control_seconds(spans["exec"])
            + ctx.backoff_in(spans["exec"])
        )
        return phases

    @cached_property
    def transfers(self) -> TransferSummary:
        """What moved during the exec phase (Fig. 14)."""
        return self.context.transfer_summary(self._phase_spans["exec"])

    @cached_property
    def consultations(self) -> int:
        """Rule-4 consultation round-trips this entry's planning made."""
        return self.annotation.consultations if self.annotation else 0

    @cached_property
    def resilience(self) -> ResilienceSummary:
        """Per-connector retry/failure counters for this submission."""
        summary = self.context.resilience_summary(self.connector_names)
        summary.leaked_objects = self.leaked_objects
        return summary

    @cached_property
    def recovery(self) -> RecoveryReport:
        """What the recovery scopes did (see ``RecoveryReport.touched``)."""
        return RecoveryReport.of(
            self.context,
            self.placement_before,
            PlanPipeline.placement(self.plan),
        )

    @cached_property
    def qos(self) -> Optional[QoSReport]:
        """The QoS receipt, when the submission carried a policy."""
        return QoSReport.of(self.context) if self.context.qos else None

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())

    @property
    def execution_seconds(self) -> float:
        return self.phases["exec"]

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
        """EXPLAIN ANALYZE-style span tree for this submission, with a
        ``branch resilience:`` section when a fault domain was exercised
        (what each recovery scope did, branches the gather skipped)."""
        out = self._phase_line() + "\n" + self.context.explain_tree()
        table = qerror_table(self.feedback) if self.feedback else ""
        if table:
            out += "\n" + table
        lines = [f"  {part}" for part in self.recovery.parts()]
        cancelled = sum(
            event.attributes["count"]
            for event in self.context.root.subtree_events("branches-cancelled")
        )
        if cancelled:
            lines.append(f"  branches cancelled: {cancelled}")
        if lines:
            out += "\nbranch resilience:\n" + "\n".join(lines)
        return out

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
        ``xf_/xm_/xv_`` objects cannot collide; objects are named
        ``x{f,m,v}_<namespace><epoch>_<task>``, so a namespace must not
        end in a digit (``ValueError``) — ``"1"`` would read client
        ``""``'s ``xv_15_1`` as its own epoch 5.  Every client of one
        namespace on one deployment shares its delegated-object ledger,
        which the deployment keeps: epochs come from one counter, and
        each client's reaper fences every live cascade of the namespace.
        ``ledger_path`` persists that ledger as JSON, so a restarted
        client can still reap what a crashed one leaked; the first
        client of a namespace sets it, and a later one may pass only
        the same path (or none) — another raises ``ValueError``.

        The Q-Error loop is opt-in: pass a :class:`FeedbackStore`
        (``FeedbackStore(path=...)`` persists it as JSON) and every
        execution harvests per-operator (estimate, actual) pairs that
        re-steer the join-order DP and Rule-4 costing of later plans.
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
        self.ledger = deployment._ledger(ddl_namespace, ledger_path)
        self.delegator = DelegationEngine(self.connectors, ledger=self.ledger)
        #: epoch-fenced reaper: reconciles engine-held ``xf_/xm_/xv_``
        #: objects against the ledger, dropping only retired epochs
        self.reaper = OrphanReaper(self.ledger, self.connectors)
        # Engine recovery (breaker half-open → closed) marks the engine
        # pending; the *next* submission sweeps it — sweeping inside the
        # guarded call path would recurse into the connectors.
        deployment.health.add_recovery_listener(self.reaper.note_recovery)
        #: the re-enterable planning pipeline every submission runs on,
        #: and the owner of every cascade the client keeps
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
        )
        #: this client's simulated clock (see ``PlanPipeline.clock``)
        self.clock = self.pipeline.clock

    # -- public API --------------------------------------------------------------

    def submit(
        self,
        query: Union[str, ast.Select],
        cleanup: bool = True,
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

        Admission: every submission holds one gate slot per engine its
        plan touches for the whole execution phase, arriving at this
        client's simulated clock (``self.clock``) plus its own spend so
        far, and queueing or being shed under overload.  QoS: with a
        :class:`~repro.qos.QoSPolicy` it also draws every connector
        call, retry, backoff, and queue wait from one per-query
        :class:`~repro.qos.Deadline` budget, and — should that budget
        expire mid-delegation — rolls the in-flight DDL back under the
        deadline's grace budget before raising a structured
        :class:`~repro.errors.DeadlineExceeded`.

        Plan reuse: a SQL text submitted again reuses the delegation
        plan its last clean planning made, for as long as nothing that
        planning read has changed (DESIGN.md §7 "Middleware plan
        memo").  The report then carries a ``plan-reused`` event, no
        lopt / ann phase and no annotation.  Such a repeat that answers
        cleanly keeps its cascade deployed instead of dropping it, and
        the next submission of the text runs on it as a prepared
        handle does: a ``cascade-reused`` event, the ``xm_`` snapshots
        refreshed, no delegation and no cleanup.  The cascade is
        dropped when its memo entry goes, or by :meth:`close`; a first
        submission, and any with ``cleanup=False``, never keeps one.
        """
        state = self.pipeline.new_state(query, budget=self.repair_budget)
        return self._run(state, qos, cleanup)

    def _run(
        self,
        state: PlanState,
        qos: Optional[QoSPolicy],
        cleanup: bool,
    ) -> XDBReport:
        """One pass of ``state`` through the pipeline, under a fresh
        :class:`QueryContext` — the body of both entry points.

        A state that has not been planned yet (``submit``) runs the
        planning phases first (a memo hit may swap in a kept state); a
        prepared query's state enters at ``execute`` and reports zero
        planning phases.
        """
        # The member engines' row tuples and chunk lists hold no
        # cycles, yet their allocations set the cyclic collector off
        # a dozen times a query, and each full pass walks every stored
        # table (DESIGN.md §7 "The cycle collector").  Pause it for the
        # submission; only the call that paused it turns it back on.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # Engines that recovered since the last entry get their
            # deferred orphan sweep now, outside the query's context
            # (and never allowed to fail the query itself).
            try:
                self.reaper.sweep_pending()
            except ReproError:
                pass
            plans = state.dplan is None
            ctx = QueryContext(label=state.label or "prepared", qos=qos)
            try:
                with ctx:
                    if plans:
                        state = self.pipeline.plan(state, ctx, retain=cleanup)
                    placement_before = self.pipeline.placement(state.dplan)
                    self.pipeline.execute(state, ctx, cleanup=cleanup)
                return XDBReport(
                    result=state.result,
                    plan=state.dplan,
                    deployed=replace(state.deployed),
                    # what *this* entry annotated: nothing for a
                    # prepared one or a plan-memo hit
                    annotation=state.annotation if plans else None,
                    schedule=state.schedule,
                    context=ctx,
                    feedback=list(state.observations),
                    placement_before=placement_before,
                    leaked_objects=self.ledger.leaked_count(),
                    connector_names=tuple(self.connectors),
                )
            finally:
                # Answered, shed or expired: the client's clock moves
                # on by everything the query spent on the simulated
                # clock.
                self.clock.advance(ctx.tracer.sim_now)
        finally:
            if collecting:
                gc.enable()

    def close(self) -> None:
        """Drop every cascade the client keeps deployed: the plan
        memo's, and every open prepared handle's, which closes it.

        Best effort: a DROP that fails leaves its object in the ledger
        under a closed epoch, for the reaper.  The memo's plans stay,
        so the client remains usable.
        """
        self.pipeline._release_all()

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
    ) -> str:
        """Run the query and render its observed span tree.

        The cross-database analogue of ``EXPLAIN ANALYZE``: submits the
        query, then prints the phase breakdown, every span (engine
        calls, DDL statements, operator cardinalities, schedule tasks)
        with its wall/simulated timings, and the per-operator Q-Error
        table — estimated vs actual rows, worst miss flagged as the
        planning locus with its routed rewrite hypothesis.
        """
        return self.submit(query, cleanup=cleanup).explain_analyze()

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
        return PreparedQuery(self, self.pipeline.prepare(state))

    def invalidate_metadata(self) -> None:
        self.pipeline.metadata_fresh = False

    def warm_metadata(self) -> None:
        """Gather global-catalog metadata ahead of time (benchmarks)."""
        self.catalog.refresh()
        self.pipeline.metadata_fresh = True


class PreparedQuery:
    """A delegated query kept deployed for repeated execution.

    The handle is a key on a :class:`PlanState` the client's pipeline
    keeps: every :meth:`execute` re-runs it (``PlanPipeline.rerun``) at
    the ``execute`` stage under a *fresh* :class:`QueryContext`, so
    repeated executions report identical, independent numbers —
    counters cannot leak from one run into the next.  Use as a context
    manager (or call :meth:`close`, or the client's) so the short-lived
    views / foreign tables are dropped from the DBMSes afterwards.
    """

    def __init__(self, xdb: XDB, key: int):
        self._xdb = xdb
        self._key = key
        self.executions = 0

    @property
    def state(self) -> PlanState:
        """The kept state — source query, plan and cascade — that
        schema drift or a blown estimate replans in place."""
        return self._xdb.pipeline.prepared(self._key)

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
        xdb = self._xdb
        state = xdb.pipeline.rerun(self.state, budget=xdb.repair_budget)
        report = xdb._run(state, qos, cleanup=True)
        self.executions += 1
        return report

    def close(self) -> None:
        """Drop every deployed object (a no-op once closed).

        The handle is closed even when a drop fails: the raised
        :class:`DelegationError` reports the leak, and the ledger owns
        the leaked objects until the reaper collects them.
        """
        self._xdb.pipeline._release(self._key, strict=True)

    def __enter__(self) -> "PreparedQuery":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
