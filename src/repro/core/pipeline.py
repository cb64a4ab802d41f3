"""The re-enterable planning pipeline (parse → … → execute).

One submission is a :class:`PlanState` driven through

    parse → catalog → optimize → annotate → finalize → delegate → execute

Every stage writes its output onto the state and advances
``state.stage``; running the pipeline again skips completed stages.
:meth:`PlanPipeline.execute` is the only code that admits, delegates,
runs, schedules and harvests a query.  A kept cascade — a prepared
handle's, or a repeated submission's — is its state, kept by the
pipeline and re-run at ``execute`` (:meth:`PlanPipeline.rerun`), where
*no cascade yet → delegate* and *cascade kept → refresh the ``xm_``
snapshots, or serve them stale when the policy allows* are the one
branch.

Recovery is stage re-entry, and it exists once: :meth:`PlanPipeline.
_recover` classifies a failure's cause chain in a single walk and looks
the remedy up in :data:`RECOVERY` — failure class → scope → the budget
it draws from → re-entry stage → what survives the re-entry.

The pipeline also closes the cardinality-feedback loop: after every
execution it harvests (estimate, actual) pairs from the delegation
plan's edge statistics and the operator spans, and — when the client
carries a :class:`~repro.feedback.store.FeedbackStore` — persists them
so the next optimization of an equivalent subexpression runs on
observed row counts.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Tuple, Union

from repro.core.annotate import Annotation, PlanAnnotator
from repro.core.catalog import GlobalCatalog
from repro.core.delegate import DelegationEngine, DeployedQuery, grace
from repro.core.finalize import PlanFinalizer
from repro.core.logical import LogicalOptimizer, _annotate_all
from repro.core.partition import (
    is_partition_table,
    partition_completeness,
    prune_missing_shards,
)
from repro.core.plan import DelegationPlan, Movement
from repro.core.timing import (
    ScheduleResult,
    attribute_edge_stats,
    simulate_schedule,
)
from repro.engine.cost import CardinalityEstimator
from repro.engine.result import Result
from repro.errors import (
    BindError,
    CatalogError,
    CircuitOpenError,
    DeadlineExceeded,
    DelegationError,
    EngineUnavailableError,
    OptimizerError,
    OverloadError,
    ReproError,
    SchemaDriftError,
    TypeCheckError,
)
from repro.federation.deployment import Deployment
from repro.feedback import qerror
from repro.feedback.harvest import harvest_execution
from repro.feedback.store import FeedbackOverlay, FeedbackStore, Observation
from repro.health import BreakerEvent, BreakerState, SimulatedClock
from repro.obs.clock import wall_now
from repro.obs.context import QueryContext
from repro.qos import PRIORITY_NORMAL, AdmissionLease, QoSPolicy
from repro.relational import algebra
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.render import render

#: The pipeline's stages, in order.  ``PlanState.stage`` names the next
#: stage to run; re-entry means resetting it to an earlier stage and
#: running the pipeline again.
STAGES = (
    "parse",
    "catalog",
    "optimize",
    "annotate",
    "finalize",
    "delegate",
    "execute",
)


def _stage_index(stage: str) -> int:
    try:
        return STAGES.index(stage)
    except ValueError:
        raise OptimizerError(
            f"unknown pipeline stage {stage!r} (expected one of {STAGES})"
        )


def _pending(state: "PlanState", stage: str) -> bool:
    """Whether ``state`` still has to run ``stage``."""
    return _stage_index(state.stage) <= _stage_index(stage)


#: Statements the middleware plan memo keeps, least recently served
#: first out (:meth:`PlanPipeline.plan`).
PLAN_MEMO_SIZE = 64

#: Branch-scoped recoveries one submission may spend, independently of
#: the whole-query ``repair_budget`` — so in-place branch repairs never
#: eat the budget a later engine outage needs.
BRANCH_REPAIR_BUDGET = 2


@dataclass(frozen=True)
class Remedy:
    """One row of the failure-domain table (DESIGN.md §6)."""

    #: the narrowest domain that absorbs the failure:
    #: ``call`` < ``branch`` < ``stage`` < ``query``
    scope: str
    #: the :class:`PlanState` counter one recovery draws from (None:
    #: bounded by the policy's staleness bound, not by a count)
    budget: Optional[str]
    #: the stage the state re-enters at
    reentry: str
    #: what survives the re-entry; everything else is torn down
    pins: str


#: Failure class → remedy, narrowest scope first.  :meth:`PlanPipeline.
#: _recover` tries a failure's candidate classes in the order
#: :meth:`PlanPipeline.classify` diagnosed them and escalates to the
#: next when a remedy cannot help or its budget is spent.
RECOVERY: Dict[str, Remedy] = {
    # A retained cascade answers from its existing snapshots, within
    # the policy's staleness bound.
    "overload": Remedy("call", None, "execute", "the cascade"),
    "breaker-open": Remedy("call", None, "execute", "the cascade"),
    # Only the failed branch re-annotates; completed siblings are pinned.
    "shard-outage": Remedy("branch", "branch_budget", "annotate", "salvage"),
    "branch-outage": Remedy("branch", "branch_budget", "annotate", "salvage"),
    # The plan is rebuilt from the source query on the adopted schema.
    "schema-drift": Remedy("stage", "budget", "optimize", "nothing"),
    # Only the unexecuted suffix re-annotates, on observed row counts.
    "blown-estimate": Remedy("stage", "adapt_budget", "annotate", "producers"),
    # The breaker trips and the whole plan routes around the engine.
    "engine-outage": Remedy("query", "budget", "annotate", "nothing"),
}

#: the failures a retained cascade may answer stale
_CALL_SCOPED = {OverloadError: "overload", CircuitOpenError: "breaker-open"}


@dataclass(frozen=True)
class Failure:
    """A failure's cause chain, walked once (:meth:`PlanPipeline.classify`)."""

    exc: BaseException
    #: candidate keys of :data:`RECOVERY`, most specific diagnosis first
    classes: Tuple[str, ...] = ()
    #: the DBMS an outage blames (None: unrepairable — every holder of
    #: some table is down — or no outage in the chain at all)
    db: Optional[str] = None
    #: the struck shard of a shard-scoped outage
    table: Optional[str] = None
    #: ``(task_id, db, kind, name)`` snapshots a failed delegation kept
    salvage: Tuple[Tuple[int, str, str, str], ...] = ()


@dataclass
class RecoveryReport:
    """What the self-healing layer did for one submission.

    Present on every report, prepared re-executions included;
    :attr:`touched` distinguishes the common untouched case from
    submissions some recovery scope acted on.  :meth:`of` builds it
    from the events the recovery decisions recorded in the query
    context; nothing writes it beside them.
    """

    #: DBMSes reported to the health registry as down, one per
    #: whole-query re-plan, in repair order
    repaired_dbs: List[str] = field(default_factory=list)
    #: simulated + CPU seconds spent from first failure to repaired run
    repair_seconds: float = 0.0
    #: circuit-breaker transitions recorded during this submission
    breaker_transitions: List[BreakerEvent] = field(default_factory=list)
    #: where each base table's scan ran in the first finalized plan
    #: (table → DBMS) — keyed by table, not task, because a repaired
    #: plan may group operators into different tasks entirely
    placement_before: Dict[str, str] = field(default_factory=dict)
    #: scan placement of the plan that actually produced the result
    placement: Dict[str, str] = field(default_factory=dict)
    #: schema drifts absorbed (re-introspect + replan) this submission
    drift_events: int = 0
    #: (db, table) pairs whose drift was absorbed, in detection order
    drifted_tables: List[Tuple[str, str]] = field(default_factory=list)
    #: (db, table) pairs quarantined as unreconcilable this submission
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: mid-query adaptations: suffix replans off a blown estimate
    adaptations: int = 0
    #: (task_id, q_error) pairs that tripped the adaptivity threshold
    blown_estimates: List[Tuple[int, float]] = field(default_factory=list)
    #: producer tasks whose materializations were pinned during
    #: adaptation (their snapshots were reused, not recomputed)
    pinned_tasks: List[int] = field(default_factory=list)
    #: one ``(action, db, table)`` per branch-scoped recovery, in
    #: order: a failed delegated task / union branch was re-routed (or
    #: its shard quarantined) *in place*, with the completed sibling
    #: snapshots pinned — no whole-query re-entry, so these do NOT
    #: count toward :attr:`repair_attempts`.  Action is ``"failover"``
    #: (shard re-routed to a surviving holder), ``"reroute"``
    #: (engine-level branch failure re-placed around the outage), or
    #: ``"partial"`` (shard dropped above the ``completeness_floor``)
    branch_events: List[Tuple[str, str, str]] = field(default_factory=list)
    #: row-weighted fraction of the partitioned data the answer covers
    completeness: float = 1.0
    #: shard tables missing from a partial answer (empty: complete)
    missing_partitions: List[str] = field(default_factory=list)

    @classmethod
    def of(
        cls,
        ctx: QueryContext,
        placement_before: Optional[Dict[str, str]] = None,
        placement: Optional[Dict[str, str]] = None,
    ) -> "RecoveryReport":
        """The report of what ``ctx``'s recovery decisions did.

        One pass over the span tree: ``repair``, ``recovered``,
        ``schema-drift``, ``quarantine`` / ``shard-quarantine``,
        ``branch-repair``, ``partial-degrade``, ``estimate-blown``,
        ``feedback-replan`` and ``breaker`` events, plus the ``adapt``
        steps (one per mid-query adaptation, carrying the pinned
        tasks).  Works on the context a failed submission's error
        carries too (``exc.context``); the placements are the caller's.
        """
        report = cls(
            placement_before=placement_before or {},
            placement=placement or {},
        )
        breakers = []
        for span in ctx.root.iter_spans():
            if span.name == "adapt":
                report.adaptations += 1
                report.pinned_tasks.extend(span.attributes["pinned"])
            for event in span.events:
                name, attrs = event.name, event.attributes
                if name == "repair":
                    report.repaired_dbs.append(attrs["db"])
                elif name == "recovered":
                    report.repair_seconds = (
                        attrs["cpu_seconds"] + attrs["sim_seconds"]
                    )
                elif name == "schema-drift":
                    report.drift_events += 1
                    key = (attrs["db"], attrs["table"])
                    if key not in report.drifted_tables:
                        report.drifted_tables.append(key)
                elif name in ("quarantine", "shard-quarantine"):
                    report.quarantined.append((attrs["db"], attrs["table"]))
                elif name == "branch-repair":
                    report.branch_events.append(
                        (attrs["action"], attrs["db"], attrs["table"])
                    )
                    report.pinned_tasks.extend(attrs["pinned"])
                elif name == "partial-degrade":
                    report.completeness = attrs["completeness"]
                    report.missing_partitions = list(attrs["missing"])
                elif name == "estimate-blown":
                    q = attrs["qerror"]
                    report.blown_estimates.append(
                        (attrs["task"], qerror.INFINITE if q < 0 else q)
                    )
                elif name == "feedback-replan":
                    report.adaptations += 1
                elif name == "breaker":
                    breakers.append(event)
        # Transitions fire inside engine calls and on the phase spans
        # alike: put them back in the order they were recorded.
        breakers.sort(key=lambda event: event.seq)
        report.breaker_transitions = [
            BreakerEvent(
                attrs["db"],
                BreakerState(attrs["old"]),
                BreakerState(attrs["new"]),
                attrs["at"],
                attrs["reason"],
            )
            for attrs in (event.attributes for event in breakers)
        ]
        return report

    @property
    def repair_attempts(self) -> int:
        """Whole-query re-plans (0 = no repair needed)."""
        return len(self.repaired_dbs)

    @property
    def branch_repairs(self) -> int:
        return len(self.branch_events)

    @property
    def partial(self) -> bool:
        """The answer omits shards that lost every healthy holder."""
        return bool(self.missing_partitions)

    @property
    def repaired(self) -> bool:
        return bool(self.repaired_dbs)

    @property
    def drifted(self) -> bool:
        return self.drift_events > 0

    @property
    def adapted(self) -> bool:
        return self.adaptations > 0

    def placement_diff(self) -> Dict[str, Tuple[str, str]]:
        """Tables whose scan moved: table → (old DBMS, new DBMS)."""
        return {
            table: (self.placement_before[table], db)
            for table, db in self.placement.items()
            if self.placement_before.get(table, db) != db
        }

    @property
    def touched(self) -> bool:
        """Whether any recovery scope acted on this submission."""
        return self.repaired or self.drifted or self.adapted or bool(
            self.branch_events or self.missing_partitions
        )

    def describe(self) -> str:
        return "; ".join(self.parts()) or "no repair needed"

    def parts(self) -> List[str]:
        """One line per recovery scope that acted (``describe`` joins
        them; ``explain_analyze`` lists them)."""
        parts = [
            f"branch {action}: {f'{db}.{table}' if table else db}"
            for action, db, table in self.branch_events
        ]
        if self.partial:
            parts.append(
                f"partial answer: {self.completeness:.1%} complete, "
                f"missing {', '.join(self.missing_partitions)}"
            )
        if self.repaired:
            moved = ", ".join(
                f"{table}: {old}→{new}"
                for table, (old, new) in sorted(
                    self.placement_diff().items()
                )
            )
            parts.append(
                f"{self.repair_attempts} repair(s) around "
                f"{sorted(set(self.repaired_dbs))} in "
                f"{self.repair_seconds:.3f}s"
                + (f"; moved {moved}" if moved else "")
            )
        if self.drifted:
            drifted = ", ".join(
                f"{db}.{table}" for db, table in self.drifted_tables
            )
            line = f"{self.drift_events} drift(s) absorbed on {drifted}"
            if not self.repaired:
                line += f" in {self.repair_seconds:.3f}s"
            if self.quarantined:
                line += "; quarantined " + ", ".join(
                    f"{db}.{table}" for db, table in self.quarantined
                )
            parts.append(line)
        if self.adapted:
            if self.blown_estimates or self.pinned_tasks:
                worst = max(
                    (q for _, q in self.blown_estimates), default=0.0
                )
                worst_text = (
                    "inf" if worst == qerror.INFINITE else f"{worst:.1f}"
                )
                parts.append(
                    f"{self.adaptations} mid-query adaptation(s) "
                    f"(worst Q-Error {worst_text}; pinned tasks "
                    f"{sorted(self.pinned_tasks)})"
                )
            else:
                # A prepared handle replanned between executions off
                # the warmed feedback store — no mid-query pinning.
                parts.append(
                    f"{self.adaptations} feedback replan(s) "
                    f"(learned cardinalities)"
                )
        return parts


@dataclass
class MemoEntry:
    """One statement's clean plan, as the middleware plan memo keeps it."""

    select: ast.Statement
    logical_plan: algebra.LogicalPlan
    #: never executed: each run gets :meth:`DelegationPlan.for_run`
    dplan: DelegationPlan
    #: the engines placement found available; the entry is served only
    #: while each still is
    engines: Tuple[str, ...]
    #: the state of the repeat that left its cascade deployed (None:
    #: nothing kept, or a run holds it right now)
    cascade: Optional["PlanState"] = None


@dataclass
class PlanState:
    """Everything one submission carries between pipeline stages."""

    query: Union[str, ast.Statement]
    #: human-readable label (the SQL text) for the query context
    label: str = ""
    #: the next stage to run — re-entry resets this to an earlier one
    stage: str = "parse"
    #: remaining repair budget (outage / drift re-entries)
    budget: int = 0
    #: remaining *branch*-scoped recovery budget — spent on in-place
    #: branch failover / shard quarantine / partial degradation, kept
    #: separate so branch repairs never eat the whole-query budget
    branch_budget: int = 0
    #: one adaptation round per entry (guards the Q-Error loop)
    adapt_budget: int = 0
    select: Optional[ast.Statement] = None
    logical_plan: Optional[algebra.LogicalPlan] = None
    annotation: Optional[Annotation] = None
    dplan: Optional[DelegationPlan] = None
    deployed: Optional[DeployedQuery] = None
    result: Optional[Result] = None
    schedule: Optional[ScheduleResult] = None
    #: shard tables this entry's answer omits: a partial answer stays
    #: partial across re-entries, and the next entry replans in full
    missing_partitions: List[str] = field(default_factory=list)
    #: (db, kind, name) materializations kept across a re-entry,
    #: awaiting re-fencing under the next deployment's epoch
    pending_keeps: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Q-Error observations harvested from the execution
    observations: List[Observation] = field(default_factory=list)
    #: the admission slots the current entry holds (released once
    #: the entry is over)
    lease: Optional[AdmissionLease] = None
    #: the plan memo key whose plan nodes this state shares (None:
    #: its plan is its own) — recovery evicts it before rewriting them
    memo_key: Optional[str] = None
    #: who may keep the cascade (:meth:`PlanPipeline._keep`): a handle
    #: key, or the key of a memo hit — its SQL repeats (None: nobody)
    keeper: Optional[Union[int, str]] = None
    # -- what a kept cascade (a prepared handle's, or one the plan memo
    # -- keeps) carries between runs; a one-shot never reads these back
    #: root-query runs the deployed cascade has answered (the first
    #: reads the CTAS snapshots of its delegation, later ones refresh)
    runs: int = 0
    #: simulated time the ``xm_`` snapshots were last built
    refreshed_at: float = 0.0
    #: the catalog learned a table this plan scans has drifted: the
    #: next entry replans (or serves a bounded stale read)
    stale_plan: bool = False
    #: the last run's worst Q-Error blew the adaptivity threshold: the
    #: next entry replans against the warmed feedback store
    estimates_blown: bool = False
    #: why this entry answers from the existing snapshots without a
    #: refresh — "overload", "breaker-open" or "drift" ("" = fresh)
    stale_reason: str = ""


class PlanPipeline:
    """Drives a :class:`PlanState` through the pipeline's stages.

    Owns the one execute path, the one recovery routine and every
    kept cascade: ``XDB.submit`` enters at ``parse``, a prepared handle
    — or a submission the plan memo hands a kept cascade — re-enters at
    ``execute`` through :meth:`rerun`, and every recovery re-enters at
    the stage :data:`RECOVERY` names instead of duplicating either.
    """

    def __init__(
        self,
        deployment: Deployment,
        catalog: GlobalCatalog,
        optimizer: LogicalOptimizer,
        annotator: PlanAnnotator,
        finalizer: PlanFinalizer,
        delegator: DelegationEngine,
        repair_budget: int = 2,
        feedback: Optional[FeedbackStore] = None,
        adaptivity_threshold: Optional[float] = None,
    ):
        self.deployment = deployment
        #: the client's simulated clock, starting at the gate's present:
        #: a query arrives at the gate at ``clock.now()`` plus its own
        #: simulated spend so far, and the client advances it by the
        #: query's whole spend once the query is over
        self.clock = SimulatedClock()
        self.clock.advance(deployment.workload_gate.horizon())
        self.connectors = deployment.connectors
        self.catalog = catalog
        self.optimizer = optimizer
        self.annotator = annotator
        self.finalizer = finalizer
        self.delegator = delegator
        self.repair_budget = repair_budget
        #: the persistent Q-Error feedback store (None = loop disabled)
        self.feedback = feedback
        #: Q-Error above which a materialized task boundary triggers a
        #: mid-query suffix replan, and a retained cascade replans
        #: before its next execution (None = adaptivity disabled)
        self.adaptivity_threshold = adaptivity_threshold
        self.metadata_fresh = False
        #: statement text -> its clean plan, all stored under
        #: ``_memo_stamp`` (see :meth:`plan`)
        self._memo: "OrderedDict[str, MemoEntry]" = OrderedDict()
        self._memo_stamp: Optional[tuple] = None
        #: handle key -> a prepared handle's state, kept beside the memo:
        #: never served to a submission, popped or stamped out
        self._handles: Dict[int, PlanState] = {}
        self._handle_keys = count()

    # -- state construction ------------------------------------------------

    def new_state(
        self, query: Union[str, ast.Statement], budget: Optional[int] = None
    ) -> PlanState:
        state = PlanState(query=query, label=self.label_of(query))
        return self.rearm(state, budget)

    def rearm(
        self, state: PlanState, budget: Optional[int] = None
    ) -> PlanState:
        """Fresh budgets for one entry, so each execution of a retained
        state is bounded — and reports — independently of the previous
        ones."""
        state.budget = self.repair_budget if budget is None else budget
        state.branch_budget = BRANCH_REPAIR_BUDGET
        state.adapt_budget = 1
        state.stale_reason = ""
        if state.missing_partitions:
            # A degraded cascade is never served undeclared: the next
            # entry replans in full (and degrades again, if it must).
            state.stage = "optimize"
            state.missing_partitions = []
        return state

    def rerun(
        self, state: PlanState, budget: Optional[int] = None
    ) -> PlanState:
        """THE re-run path of a kept state, whoever keeps it: rearmed,
        on edges of its own (``for_run()``) its cascade points at, so
        no run rewrites an earlier report's plan."""
        self.rearm(state, budget)
        if state.dplan is not None:
            state.dplan = state.dplan.for_run()
            if state.stage == "execute":
                state.deployed.plan = state.dplan
        return state

    @staticmethod
    def label_of(query: Union[str, ast.Statement]) -> str:
        """The query's SQL text, for trace labels and jitter seeding
        (``"<ast>"`` only for a statement that cannot be rendered)."""
        if isinstance(query, str):
            return query
        try:
            return render(query)
        except ReproError:
            return "<ast>"

    @staticmethod
    def parse(query: Union[str, ast.Statement]) -> ast.Statement:
        if isinstance(query, ast.QUERY_STATEMENTS):
            return query
        statement = parse_statement(query)
        if not isinstance(statement, ast.QUERY_STATEMENTS):
            raise OptimizerError(
                "XDB accepts analytical SELECT / UNION ALL queries only"
            )
        return statement

    # -- stage plumbing ----------------------------------------------------

    @staticmethod
    def _step(tracer, name: str):
        """A step span when tracing, a no-op otherwise — so the traced
        and offline paths share one stage body."""
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name, kind="step")

    @staticmethod
    @contextlib.contextmanager
    def _phase(ctx: Optional[QueryContext], name: str):
        """A phase span (nothing offline) around a group of stages."""
        if ctx is None:
            yield
            return
        with ctx.tracer.span(name, kind="phase"):
            ctx.enter_phase(name)
            yield

    def _optimize(self, state: PlanState, tracer=None) -> None:
        with self._step(tracer, "optimize"):
            plan = self.optimizer.optimize(state.select)
            missing = state.missing_partitions
            if missing:
                # A partial answer stays partial across re-entries.
                pruned, _ = prune_missing_shards(plan, missing)
                if pruned is not None:
                    self._reestimate(pruned)
                    plan = pruned
            state.logical_plan = plan
        state.stage = "annotate"

    def _annotate_finalize(self, state: PlanState, tracer=None) -> None:
        """THE annotate+finalize body — every caller re-enters here."""
        with self._step(tracer, "annotate"):
            state.annotation = self.annotator.annotate(state.logical_plan)
        with self._step(tracer, "finalize"):
            state.dplan = self.finalizer.finalize(
                state.logical_plan, state.annotation
            )
        state.stage = "delegate"

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        state: PlanState,
        ctx: Optional[QueryContext] = None,
        retain: bool = False,
    ) -> PlanState:
        """Run the planning stages the state has not passed yet; return
        the state to run.

        Under ``ctx`` the stages run inside the prep / lopt / ann phase
        spans (the report's phase breakdown reads them), and an
        annotation-time outage is repaired within ``state.budget``.
        Without one (``explain`` / ``plan_query`` / ``prepare``) the
        same stage bodies run untraced and the first failure
        propagates.  A re-entered state resumes where it was reset to —
        re-entry at ``optimize`` correctly skips the catalog refresh.

        A submission's fresh state goes through the plan memo: once the
        catalog stage has decided against a refresh, a current entry
        for the same SQL text is reused (:meth:`_reuse`) and neither
        lopt nor ann runs; otherwise the plan is made and, when clean,
        stored (:meth:`_remember`).  With ``retain`` (a submission that
        cleans up) a hit returns the state the entry keeps, if any.
        """
        tracer = ctx.tracer if ctx is not None else None
        # Only a submission shares plans with the memo: a re-entered or
        # prepared state may carry pins and pruned shards.
        memoize = (
            ctx is not None
            and state.stage == "parse"
            and state.label != "<ast>"
        )
        stamp = None
        with self._phase(ctx, "prep"):
            # A refresh moves the catalog version, so nothing would hit.
            refresh = not self.metadata_fresh
            if memoize and not refresh and (
                reused := self._reuse(state, ctx, retain)
            ):
                return reused
            if _pending(state, "parse"):
                with self._step(tracer, "parse"):
                    state.select = self.parse(state.query)
                state.stage = "catalog"
            if _pending(state, "catalog"):
                if refresh:
                    with self._step(tracer, "catalog-refresh"):
                        self.catalog.refresh()
                    self.metadata_fresh = True
                state.stage = "optimize"
            if memoize:
                stamp = self._stamp()
        with self._phase(ctx, "lopt"):
            if _pending(state, "optimize"):
                self._optimize(state, tracer)
        with self._phase(ctx, "ann"):
            while _pending(state, "finalize"):
                try:
                    self._annotate_finalize(state, tracer)
                except EngineUnavailableError as exc:
                    if ctx is None or not self._repair_query(
                        state, "engine-outage", self.classify(exc), ctx
                    ):
                        raise
                    stamp = None  # a repaired plan is not stored
        if stamp is not None:
            self._remember(state, stamp)
        return state

    # -- the middleware plan memo ------------------------------------------

    def _stamp(self) -> tuple:
        """Every input planning reads, except engine availability."""
        return (
            self.catalog.catalog_version,
            self.catalog.stats_version,
            self.deployment.network.version,
            None if self.feedback is None else self.feedback.version,
            self.deployment.partition_version,
            tuple(c.fault_injector for c in self.connectors.values()),
        )

    def _reset_memo(self, stamp: tuple) -> None:
        """Drop the memo whole, cascades too, when the stamp has moved."""
        if stamp != self._memo_stamp:
            for key in self._memo:
                self._release(key)
            self._memo.clear()
            self._memo_stamp = stamp

    def _available(self, db: str) -> bool:
        """Whether ``db`` answers available without a probe: with its
        breaker closed, ``is_available`` consumes nothing."""
        connector = self.connectors.get(db)
        if connector is None:
            return True
        health = connector.health
        return (
            health is None or health.state(db) is BreakerState.CLOSED
        ) and connector.is_available()

    def _serves(self, entry: MemoEntry) -> bool:
        """Whether the memo would hand ``entry`` out now: no refresh is
        due, its stamp holds, and every engine it asked about is still
        available."""
        return (
            self.metadata_fresh
            and self._memo_stamp == self._stamp()
            and all(map(self._available, entry.engines))
        )

    def _reuse(
        self, state: PlanState, ctx: QueryContext, retain: bool
    ) -> Optional[PlanState]:
        """The state to run on the memo's plan for its SQL (None: miss).

        ``state`` skips to ``delegate`` with its own edges (run
        statistics never cross reports) and no annotation, so the
        report shows no consultations, as a prepared execution does.
        With ``retain``, the state the entry keeps is re-run instead,
        as a handle's is.  An entry that does not serve releases its
        cascade: each engine the cascade runs on is one placement asked
        about, so :meth:`_serves` checked its breaker and availability.
        """
        key = state.label
        self._reset_memo(self._stamp())
        entry = self._memo.get(key)
        if entry is None:
            return None
        if not self._serves(entry):
            self._release(key)
            return None
        self._memo.move_to_end(key)
        ctx.tracer.add_event("plan-reused")
        if retain and entry.cascade is not None:
            # The run holds the cascade until :meth:`_keep` hands it
            # back; a recovery that evicts the entry meanwhile leaves it
            # to the run, which then cleans up like any one-shot.
            kept, entry.cascade = entry.cascade, None
            ctx.tracer.add_event("cascade-reused", epoch=kept.deployed.epoch)
            return self.rerun(kept)
        state.select = entry.select
        state.logical_plan = entry.logical_plan
        state.dplan = entry.dplan.for_run()
        state.stage = "delegate"
        state.memo_key = state.keeper = key
        return state

    def _remember(self, state: PlanState, stamp: tuple) -> None:
        """Store a clean plan: made under ``stamp``, which still holds,
        with every engine placement asked about available."""
        availability = state.annotation.availability
        if stamp != self._stamp() or not all(availability.values()):
            return
        self._reset_memo(stamp)
        self._release(state.label)
        self._memo[state.label] = MemoEntry(
            state.select, state.logical_plan, state.dplan, tuple(availability)
        )
        self._memo.move_to_end(state.label)
        if len(self._memo) > PLAN_MEMO_SIZE:
            oldest = next(iter(self._memo))
            self._release(oldest)
            del self._memo[oldest]
        state.dplan = state.dplan.for_run()
        state.memo_key = state.label

    def _evict(self, state: PlanState) -> None:
        """Forget the entry ``state`` shares plan nodes with: recovery
        is about to rewrite them (``_pin`` / ``_reestimate``)."""
        if state.memo_key is not None:
            self._release(state.memo_key)
            self._memo.pop(state.memo_key, None)
            state.memo_key = None

    def prepare(self, state: PlanState) -> int:
        """Deploy a prepared handle's state and keep it under a new key."""
        self.deploy(state)
        state.keeper = key = next(self._handle_keys)
        self._handles[key] = state
        return key

    def prepared(self, key: int) -> PlanState:
        """The state an open prepared handle's key keeps."""
        state = self._handles.get(key)
        if state is None:
            raise OptimizerError("prepared query is closed")
        return state

    def _keep(self, state: PlanState) -> bool:
        """THE keep rule at a run's end (False: the run tears down).

        A handle holds its state until closed, runs included.  A memo
        entry takes it back after a clean run only: every recovery
        evicts the entry first, and a blown estimate means replan.
        """
        if state.keeper in self._handles:
            return True
        entry = self._memo.get(state.keeper)
        if entry is None or state.estimates_blown or entry.cascade is not None:
            return False
        entry.cascade = state
        return True

    def _release(self, key: Union[int, str], strict: bool = False) -> None:
        """End the cascade kept under ``key`` (a handle's goes with its
        key): THE routine of eviction, a stamp move, an LRU pop, a
        refused reuse, ``close()`` and ``XDB.close()``.  A DROP that
        fails is the reaper's (``strict``: raised as well)."""
        kept = self._handles.pop(key, None)
        entry = self._memo.get(key)
        if entry is not None:
            kept, entry.cascade = entry.cascade, None
        if kept is not None:
            self._teardown(kept.deployed, strict=strict)

    def _release_all(self) -> None:
        """End every kept cascade (the memo's plans stay)."""
        for key in [*self._memo, *self._handles]:
            self._release(key)

    def deploy(
        self, state: PlanState, tracer=None, salvage: bool = False
    ) -> None:
        """The delegate stage: deploy ``state.dplan`` and retain it.

        A cascade the state still held (a stale handle replanning)
        stays executable until the fresh one is up, then is torn down.
        Snapshots an earlier re-entry kept are adopted: their old epoch
        closed with the cascade they came from, so they were
        momentarily reapable; re-recording them under the new (live)
        epoch fences them again, and prepending them to
        ``created_objects`` makes the final cleanup drop them last
        (consumers before producers).
        """
        with self._step(tracer, "delegate"):
            deployed = self.delegator.delegate(state.dplan, salvage=salvage)
        superseded, state.deployed = state.deployed, deployed
        state.stage = "execute"
        state.runs = 0
        state.stale_plan = state.estimates_blown = False
        state.refreshed_at = self.deployment.health.clock.now()
        self._teardown(superseded)
        for keep in state.pending_keeps:
            db, kind, name = keep
            deployed.created_objects.insert(0, keep)
            deployed.ledger.record(db, kind, name, deployed.epoch)
        state.pending_keeps = []

    # -- execution ---------------------------------------------------------

    def execute(
        self, state: PlanState, ctx: QueryContext, cleanup: bool = True
    ) -> None:
        """Delegate (unless a cascade is kept) and run the query.

        The exec phase of every entry point.  A run that cleans up
        leaves its cascade to its keeper (:meth:`_keep`) — a kept one
        even when the run fails — or tears it down; ``cleanup=False``
        leaves it to the caller.  A kept cascade's next run refreshes
        its ``xm_`` snapshots (or serves them stale, see
        :meth:`_serve_stale`) without re-planning.  Failures re-enter
        earlier stages in place through :meth:`_recover`.
        """
        tracer = ctx.tracer
        retained = state.deployed
        state.lease = None
        answered = False
        try:
            with tracer.span("exec", kind="phase") as exec_span:
                result = self._answer(state, ctx, exec_span)
                deployed = state.deployed
                attribute_edge_stats(deployed, exec_span.subtree_records())
                # A single-worker deployment keeps the legacy
                # unbounded-overlap semantics (None); only explicit
                # multi-worker engines cap how many delegated tasks one
                # engine advances concurrently.
                workers = self.deployment.parallel_workers
                with tracer.span("schedule", kind="step"):
                    state.schedule = simulate_schedule(
                        deployed,
                        self.connectors,
                        self.deployment.network,
                        self.deployment.client_node,
                        result_bytes=result.byte_size(),
                        worker_slots=workers if workers > 1 else None,
                    )
                # Harvest the Q-Error observations while the span tree
                # still has the operator spans at hand.  Observations
                # ride on every report (explain_analyze's Q-Error
                # column); they persist only when a store is wired.
                state.observations = harvest_execution(
                    state.dplan, exec_span, self.catalog, len(result.rows)
                )
                if self.feedback is not None and state.observations:
                    with tracer.span("harvest", kind="step"):
                        self.feedback.observe_many(state.observations)
                    # A retained cascade re-enters at optimize next
                    # time, once the store knows better than its plan.
                    state.estimates_blown = (
                        self.adaptivity_threshold is not None
                        and max(o.q_error for o in state.observations)
                        > self.adaptivity_threshold
                    )

            answered = True
            # Cleanup runs outside the exec span (its drops are not
            # part of the execution window's transfer summary) but
            # still under the admission lease, and — with a deadline —
            # under the grace budget, so a query that *met* its
            # deadline cannot fail while tearing itself down.
            if cleanup and not self._keep(state):
                ctx.current_phase = "cleanup"
                with grace():
                    deployed.cleanup()
        except DeadlineExceeded as exc:
            # Only a cascade this call deployed is cancelled: one
            # retained from an earlier call outlives a missed deadline,
            # and an expiry *inside* the delegation engine already
            # rolled itself back and stamped the error.
            if state.deployed is not None and state.deployed is not retained:
                state.deployed.cancel(exc)
                state.deployed = None
                state.stage = "delegate"
            raise
        finally:
            if state.lease is not None:
                state.lease.release(self.clock.now() + tracer.sim_now)
            if cleanup and retained is not None and not answered:
                if not self._keep(state):
                    with grace():
                        self._teardown(state.deployed)

    def _answer(
        self, state: PlanState, ctx: QueryContext, exec_span
    ) -> Result:
        """Attempt the query until it answers or recovery gives up."""
        tracer = ctx.tracer
        if state.stage == "execute" and (
            state.stale_plan or state.estimates_blown
        ):
            if (
                state.stale_plan
                and state.deployed.materializations
                and self._degradable(state, ctx.qos)
            ):
                # The snapshots predate the drift and are inside the
                # caller's staleness bound: serve them rather than
                # paying for a replan.
                state.stale_reason = "drift"
            else:
                if not state.stale_plan:
                    # The warmed feedback store holds the corrected
                    # cardinalities; this replan is the entry's one
                    # adaptation round.
                    state.adapt_budget -= 1
                    tracer.add_event("feedback-replan")
                state.stage = "optimize"
        repair_start: Optional[Tuple[float, float]] = None
        while True:
            try:
                result = self._attempt(state, ctx, exec_span)
                if result is not None:
                    break
            except DeadlineExceeded:
                raise
            except ReproError as exc:
                repair_start = repair_start or (wall_now(), tracer.sim_now)
                if not self._recover(state, exc, ctx):
                    raise
        if repair_start is not None:
            repair_wall, repair_sim = repair_start
            tracer.add_event(
                "recovered",
                cpu_seconds=wall_now() - repair_wall,
                sim_seconds=tracer.sim_now - repair_sim,
            )
        return result

    def _attempt(
        self, state: PlanState, ctx: QueryContext, exec_span
    ) -> Optional[Result]:
        """One pass from the state's stage to the root query's result
        (None: a blown estimate re-entered the state — go again)."""
        gate = self.deployment.workload_gate
        health = self.deployment.health
        qos, tracer = ctx.qos, ctx.tracer
        # Re-entry: the annotator now sees the open breaker (or the
        # pinned plan), so replicated tables land on a healthy holder
        # and Rule 4 drops the dead candidate.
        if _pending(state, "optimize"):
            self._optimize(state, tracer)
        if _pending(state, "finalize"):
            self._annotate_finalize(state, tracer)
        if state.stale_reason:
            # A stale read only touches the root: the snapshots already
            # hold everything else.
            engines = [state.deployed.root_db]
        else:
            # Lazy drift verification: once per table per catalog
            # epoch.  A refresh pre-marks everything it read, so the
            # common case is an empty list — no span, no engine calls.
            pending = self.catalog.unverified(self.placement(state.dplan))
            if pending:
                with tracer.span("verify", kind="step"):
                    for vdb, vtable in pending:
                        self.catalog.verify_table(vdb, vtable)
            engines = sorted(
                {task.annotation for task in state.dplan.tasks.values()}
            )
        if state.lease is not None and set(state.lease.engines) != set(
            engines
        ):
            # The re-entered plan runs on a different engine set: swap
            # the admission slots to match.
            state.lease.release(self.clock.now() + tracer.sim_now)
            state.lease = None
        if state.lease is None:
            ctx.enter_phase("admission")
            with tracer.span("admit", kind="step"):
                state.lease = gate.acquire(
                    engines,
                    priority=(
                        qos.priority if qos is not None else PRIORITY_NORMAL
                    ),
                    deadline=ctx.deadline,
                    at=self.clock.now() + tracer.sim_now,
                )
                ctx.record_admission(state.lease)
        if state.stage != "execute":
            # No cascade for this plan yet.  With branch budget left, a
            # mid-cascade failure salvages the completed sibling
            # snapshots instead of rolling them back — branch recovery
            # pins them in place.
            ctx.enter_phase("delegate")
            self.deploy(state, tracer, salvage=state.branch_budget > 0)
            if self._maybe_adapt(state, exec_span, tracer):
                return None
        elif state.runs and not state.stale_reason:
            # Retained cascade: the first run read the CTAS snapshots
            # of its delegation; later ones rebuild them — unless a
            # snapshot host's breaker is open and the policy accepts
            # the existing ones.
            if self._degradable(state, qos) and any(
                health.is_open(db)
                for db, _, _ in state.deployed.materializations
            ):
                state.stale_reason = "breaker-open"
            else:
                ctx.enter_phase("refresh")
                with tracer.span("refresh", kind="step"):
                    state.deployed.refresh_materializations()
                state.refreshed_at = health.clock.now()
        staleness = self.staleness(state) if state.stale_reason else None
        ctx.enter_phase("execute")
        with tracer.span("execute", kind="step"):
            result = self.connectors[state.deployed.root_db].run_query(
                state.deployed.xdb_query, self.deployment.client_node
            )
        if ctx.deadline is not None:
            # A result that lands after the deadline is a miss, not a
            # success: cancel it.
            ctx.deadline.check("execute", detail="post-execution")
        if state.stale_reason:
            # The receipt: the age the snapshots were served at (the
            # federation clock moves on as the run's calls land).
            tracer.add_event(
                "stale-read",
                staleness_seconds=staleness,
                reason=state.stale_reason,
            )
        state.result = result
        state.runs += 1
        return result

    def staleness(self, state: PlanState) -> float:
        """Age of the retained ``xm_`` snapshots (simulated seconds)."""
        now = self.deployment.health.clock.now()
        return max(now - state.refreshed_at, 0.0)

    def _degradable(
        self, state: PlanState, qos: Optional[QoSPolicy]
    ) -> bool:
        """Whether a stale answer is an acceptable fallback right now:
        the caller opted into a staleness bound and the retained
        snapshots are still within it."""
        return (
            qos is not None
            and qos.max_staleness_seconds is not None
            and self.staleness(state) <= qos.max_staleness_seconds
        )

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def classify(exc: BaseException) -> Failure:
        """Walk a failure's ``__cause__``/``__context__`` chain, once.

        A :class:`DelegationError` wraps the original connector error,
        so every fact recovery needs sits somewhere down the chain: the
        first :class:`EngineUnavailableError` names the blamed DBMS
        (``db=None`` on it means every holder of some table is down —
        unrepairable), the first one carrying a ``table`` narrows the
        fault to a shard, a delegation failure may carry salvaged
        sibling snapshots, and a bind/type/catalog error anywhere makes
        the failure *schema-shaped* — possibly a drifted remote table
        rather than an outage.  A failure with no engine outage in its
        chain (e.g. a transient fault that exhausted the retry budget)
        is not an outage: re-planning cannot help.
        """
        outage = shard = None
        salvage: Tuple[Tuple[int, str, str, str], ...] = ()
        schema_shaped = False
        seen = set()
        node: Optional[BaseException] = exc
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, EngineUnavailableError):
                if outage is None:
                    outage = node
                if shard is None and node.table is not None:
                    shard = node
            elif isinstance(node, DelegationError):
                salvage = salvage or tuple(node.salvaged or ())
            elif isinstance(node, (BindError, TypeCheckError, CatalogError)):
                schema_shaped = True
            node = node.__cause__ or node.__context__
        blamed = shard if shard is not None else outage
        classes = []
        if type(exc) in _CALL_SCOPED:
            classes.append(_CALL_SCOPED[type(exc)])
        if schema_shaped:
            classes.append("schema-drift")
        if shard is not None:
            classes.append("shard-outage")
        elif salvage and outage is not None and outage.db is not None:
            classes.append("branch-outage")
        if blamed is not None and blamed.db is not None:
            classes.append("engine-outage")
        return Failure(
            exc=exc,
            classes=tuple(classes),
            db=blamed.db if blamed is not None else None,
            table=shard.table if shard is not None else None,
            salvage=salvage,
        )

    def _recover(
        self, state: PlanState, exc: BaseException, ctx: QueryContext
    ) -> bool:
        """THE recovery routine: classify once, look the remedy up.

        Tries the failure's candidate classes in order; a remedy that
        cannot help (or whose budget is spent) escalates to the next.
        Returns True when the state was re-entered at the remedy's
        stage (the caller loops), False to let the failure propagate.
        """
        if state.stale_reason == "drift" and not isinstance(
            exc, OverloadError
        ):
            # The stale cascade cannot answer it either (the drifted
            # table feeds a view): replan, keeping the old cascade
            # until the fresh one supersedes it.
            state.stale_reason = ""
            state.stage = "optimize"
            return True
        remedies = {
            "call": self._serve_stale,
            "branch": self._repair_branch,
            "stage": self._recover_drift,
            "query": self._repair_query,
        }
        failure = self.classify(exc)
        for cls in failure.classes:
            verdict = remedies[RECOVERY[cls].scope](state, cls, failure, ctx)
            if verdict is not None:
                return verdict
        # Nothing helped: salvaged snapshots and earlier pins would
        # leak under their closed epoch until the reaper finds them.
        self._abandon_salvage(state, failure, ctx.tracer)
        return False

    def _reenter(self, state: PlanState, cls: str) -> None:
        """Spend ``cls``'s budget and reset the state to its re-entry
        stage; a re-entry before ``execute`` invalidates the plan and
        tears the cascade down, releasing the pinned snapshots."""
        self._evict(state)
        remedy = RECOVERY[cls]
        if remedy.budget is not None:
            setattr(state, remedy.budget, getattr(state, remedy.budget) - 1)
        state.stage = remedy.reentry
        if remedy.reentry != "execute":
            self._teardown(state.deployed, keep=state.pending_keeps)
            state.deployed = None
            state.dplan = None

    @staticmethod
    def _teardown(
        deployed: Optional[DeployedQuery],
        keep: List[Tuple[str, str, str]] = (),
        strict: bool = False,
    ) -> None:
        """Release ``keep`` from a cascade, tear the rest down.

        Best effort: objects whose DROP fails are in the ledger, and
        the reaper collects them once their engine is reachable again.
        The next deployment gets fresh names under a fresh epoch, so
        nothing collides with what is left behind.
        """
        if deployed is None:
            return
        if keep:
            kept = set(keep)
            deployed.created_objects[:] = [
                obj for obj in deployed.created_objects if obj not in kept
            ]
        try:
            deployed.cleanup()
        except ReproError:
            if strict:
                raise

    # -- call scope: staleness-bounded reads -------------------------------

    def _serve_stale(
        self, state: PlanState, cls: str, failure: Failure, ctx: QueryContext
    ) -> Optional[bool]:
        """Answer from the retained snapshots instead of failing.

        A shed admission retries against the root engine only; an open
        breaker on a snapshot host skips the refresh.  A snapshot older
        than the bound is never served stale, and a cascade that has
        answered before is not torn down on a fail-fast either: the
        original error propagates, and the snapshots stay servable for
        a caller that opts into staleness.
        """
        if state.stage != "execute":
            return None
        if not state.stale_reason and self._degradable(state, ctx.qos):
            state.stale_reason = cls
            self._reenter(state, cls)
            return True
        return False if state.runs else None

    # -- stage scope: schema drift -----------------------------------------

    def _recover_drift(
        self, state: PlanState, cls: str, failure: Failure, ctx: QueryContext
    ) -> Optional[bool]:
        """Absorb a detected drift: re-introspect, invalidate, replan.

        A schema-shaped failure may be a drifted remote table rather
        than an outage: unless the failure *is* the drift, the placed
        tables are force-verified and the first drift found is taken —
        transient giveups and outages never reach the fingerprint path,
        so their fault schedules are unchanged.  Re-enters at
        ``optimize``.  When replanning still fails — e.g. a drifted
        replica now diverges from its siblings, or the table vanished
        and only this holder had it — the table is quarantined
        (placement avoids it like a dead holder) and the replan is
        retried once; a second failure propagates.
        """
        tracer = ctx.tracer
        drift = failure.exc
        if not isinstance(drift, SchemaDriftError):
            drift = None
            for table, db in sorted(self.placement(state.dplan).items()):
                try:
                    self.catalog.verify_table(db, table, force=True)
                except SchemaDriftError as found:
                    drift = found
                    break
                except ReproError:
                    continue
        if drift is None:
            return None
        if state.budget <= 0:
            if drift is failure.exc:
                return None
            raise drift from failure.exc
        self._reenter(state, cls)
        tracer.add_event(
            "schema-drift",
            db=drift.db,
            table=drift.table,
            diff=drift.diff_summary(),
        )
        with tracer.span("reintrospect", kind="step"):
            adopted = self.catalog.reintrospect(drift.db, drift.table)
        if self.feedback is not None:
            # Learned cardinalities observed under the old schema are
            # as stale as the plans built on them.
            self.feedback.invalidate_table(drift.db, drift.table)
        # So are the handles' cascades that scan the table on the
        # drifted holder (a replica elsewhere did not move).
        table = drift.table.lower()
        for kept in self._handles.values():
            if any(
                name.lower() == table and db == drift.db
                for name, db in self.placement(kept.dplan).items()
            ):
                kept.stale_plan = True
        try:
            self._optimize(state, tracer)
        except ReproError:
            if adopted is not None:
                self.catalog.quarantine(
                    drift.db, drift.table, "unreconcilable schema drift"
                )
            tracer.add_event("quarantine", db=drift.db, table=drift.table)
            try:
                self._optimize(state, tracer)
            except ReproError as replan_exc:
                # Even with the drifted holder out of the way the query
                # cannot bind (the table vanished everywhere, or it
                # referenced a now-renamed column): surface the
                # structured drift error, not the planner's.
                drift.quarantined = True
                raise drift from replan_exc
        return True

    # -- stage scope: mid-query adaptivity (the Q-Error loop's fast path) --

    def _maybe_adapt(self, state: PlanState, exec_span, tracer) -> bool:
        """Suffix replan at the materialization boundary, if warranted.

        Delegation already ran every explicit edge's CTAS, so the rows
        that actually crossed those task boundaries are known *before*
        the root XDB query runs — the paper-world analogue of a task
        boundary mid-query.  When a materialized producer's actual
        cardinality blows its estimate past the adaptivity threshold,
        the producers are **pinned** (executed work is never redone)
        and the unexecuted suffix re-enters the pipeline at the
        annotate stage with corrected cardinalities.

        Returns True when the state was re-entered (caller loops);
        False to proceed with the current deployment.
        """
        threshold = self.adaptivity_threshold
        if threshold is None or state.adapt_budget <= 0:
            return False
        dplan, deployed = state.dplan, state.deployed
        # The CTAS fetches were recorded inside the delegate step — the
        # exec span's subtree already carries the explicit-edge actuals.
        attribute_edge_stats(deployed, exec_span.subtree_records())
        blown: List[Tuple[int, float]] = []
        producers = []
        for edge in dplan.edges:
            if (
                edge.movement is not Movement.EXPLICIT
                or not edge.moved_rows
                or edge.moved_rows <= 0
            ):
                continue
            producer = dplan.tasks[edge.producer_id]
            q = qerror.q_error(producer.estimated_rows, float(edge.moved_rows))
            db, name = deployed.snapshots[producer.task_id]
            producers.append((producer.task_id, db, "TABLE", name))
            if q > threshold and _pinnable(producer.source_expr):
                blown.append((producer.task_id, q))
        pinned = self._pin(state, producers)[0] if blown else []
        if not pinned:
            state.adapt_budget = 0  # one check per entry, blown or not
            return False
        with tracer.span("adapt", kind="step", pinned=tuple(pinned)):
            for task_id, q in blown:
                tracer.add_event(
                    "estimate-blown",
                    task=task_id,
                    qerror=(-1.0 if q == qerror.INFINITE else q),
                )
            self._reenter(state, "blown-estimate")
        return True

    def _pin(
        self, state: PlanState, producers
    ) -> Tuple[List[int], List[Tuple[str, str, str]]]:
        """Pin producers' ``xm_`` snapshots into the logical plan.

        Each ``(task_id, db, kind, name)`` producer's subtree becomes a
        placeholder scan of its existing snapshot, so re-delegation
        recomputes only what has not run.  Returns the pinned task ids
        and the snapshots that could not be pinned: the producer is
        already covered by an ancestor's pin, or its output needed the
        finalizer's dedup projection — its snapshot columns no longer
        match its logical schema, so it is left to be recomputed.
        """
        self._evict(state)
        dplan, plan = state.dplan, state.logical_plan
        overlay = FeedbackOverlay(self.feedback)
        moved = {
            edge.producer_id: float(edge.moved_rows)
            for edge in reversed(dplan.edges)
            if edge.moved_rows
        }
        keeps: List[Tuple[str, str, str]] = []
        unusable: List[Tuple[str, str, str]] = []
        pinned_ids: List[int] = []
        for task_id, db, kind, name in producers:
            producer = dplan.tasks.get(task_id)
            src = producer.source_expr if producer is not None else None
            replaced = False
            if _pinnable(src):
                actual = moved.get(task_id)
                pinned = algebra.Scan(
                    table=name,
                    binding=f"xpin_{task_id}",
                    schema=src.schema,
                    source_db=db,
                    placeholder=True,
                    requalify=False,
                )
                pinned.estimated_rows = (
                    actual
                    if actual is not None
                    else float(producer.estimated_rows or 1.0)
                )
                plan, replaced = _replace_subtree(plan, src, pinned)
            if not replaced:
                unusable.append((db, kind, name))
                continue
            keeps.append((db, kind, name))
            pinned_ids.append(task_id)
            if actual is not None:
                overlay.pin(overlay.fingerprint_of(src), actual)
        if keeps:
            # The rebuilt ancestors lost their estimates: the pinned
            # scans feed their *actual* row counts in, and the overlay
            # folds in any store-learned corrections for untouched
            # subtrees.
            self._reestimate(plan, overlay)
            state.logical_plan = plan
            state.pending_keeps.extend(keeps)
        return pinned_ids, unusable

    def _reestimate(
        self,
        plan: algebra.LogicalPlan,
        overlay: Optional[FeedbackOverlay] = None,
    ) -> None:
        """A fresh estimator pass over a rebuilt plan — Rule 4 requires
        an estimate on every node."""
        estimator = CardinalityEstimator(
            self.catalog.scan_stats,
            feedback=overlay or FeedbackOverlay(self.feedback),
        )
        _annotate_all(plan, estimator)

    # -- branch scope ------------------------------------------------------

    def _repair_branch(
        self, state: PlanState, cls: str, failure: Failure, ctx: QueryContext
    ) -> Optional[bool]:
        """Repair a failed *branch* in place instead of the whole query.

        * a **shard-scoped** fault (the error chain carries the struck
          table): the one holder is quarantined — the engine's breaker
          stays closed — and the branch re-routes to a surviving
          replica holder on re-annotation; with no healthy holder left,
          the query degrades to a policy-bounded **partial** answer;
        * an **engine** fault that left completed sibling ``xm_``
          snapshots behind: the siblings are pinned (executed work is
          never redone) and only the failed branch re-plans around the
          outage.  Without siblings to pin, the whole-query repair does
          the identical work.

        Salvaged snapshots ride in on the :class:`DelegationError` and
        are pinned exactly like the adaptivity path's producers.
        """
        if state.branch_budget <= 0 or state.dplan is None:
            return None
        tracer = ctx.tracer
        health = self.deployment.health
        blamed, shard = failure.db, failure.table
        if cls == "shard-outage":
            if blamed is not None and not self.catalog.is_quarantined(
                blamed, shard
            ):
                # The disk under one shard died, not the server: only
                # that holder leaves placement, via quarantine — never
                # the breaker.
                self.catalog.quarantine(blamed, shard, "a shard outage")
                health.report_shard_outage(
                    blamed, shard, "branch execution failed"
                )
                tracer.add_event("shard-quarantine", db=blamed, table=shard)
            if any(
                not self.catalog.is_quarantined(db, shard)
                and db in self.connectors
                and self.connectors[db].is_available()
                for db in self.catalog.holders(shard)
            ):
                action = "failover"
            elif self._try_partial(state, shard, ctx.qos, tracer):
                action = "partial"
            else:
                return None
        else:
            health.report_outage(blamed, "branch execution failed")
            action = "reroute"
        pinned, unusable = self._pin(state, failure.salvage)
        # Snapshots that cannot be pinned are dropped instead of leaking.
        self.delegator.ledger.drop(self.connectors, unusable, rollback=True)
        self._reenter(state, cls)
        tracer.add_event(
            "branch-repair",
            action=action,
            db=blamed or "",
            table=shard or "",
            pinned=tuple(pinned),
        )
        return True

    def _try_partial(
        self,
        state: PlanState,
        shard: str,
        qos: Optional[QoSPolicy],
        tracer,
    ) -> bool:
        """Degrade to a partial answer by pruning a dead shard's branch.

        Opt-in via ``QoSPolicy.completeness_floor``: when the shard has
        no healthy holder left, its gather branches are pruned and the
        row-weighted completeness (from catalog shard statistics) is
        checked against the floor; a completeness of 0 is refused even
        under a floor of 0.  Returns True when the plan was degraded in
        place.
        """
        if qos is None or qos.completeness_floor is None:
            return False
        if not is_partition_table(shard):
            return False
        self._evict(state)
        plan, pruned = prune_missing_shards(state.logical_plan, [shard])
        if plan is None or not pruned:
            return False
        missing = list(dict.fromkeys(state.missing_partitions + pruned))
        completeness = partition_completeness(
            missing, self.catalog.partition_spec, self._shard_rows
        )
        if completeness <= 0.0 or completeness < qos.completeness_floor:
            # Nothing of some table the query reads survives: there
            # is no partial answer to give, whatever the floor.
            tracer.add_event(
                "partial-refused",
                table=shard,
                completeness=round(completeness, 4),
                floor=qos.completeness_floor,
            )
            return False
        self._reestimate(plan)
        state.logical_plan = plan
        state.missing_partitions = missing
        tracer.add_event(
            "partial-degrade",
            table=shard,
            completeness=completeness,
            missing=tuple(missing),
        )
        return True

    # -- query scope -------------------------------------------------------

    def _repair_query(
        self, state: PlanState, cls: str, failure: Failure, ctx: QueryContext
    ) -> Optional[bool]:
        """Re-plan the whole query around the DBMS an outage blames."""
        db = failure.db
        if db is None or state.budget <= 0:
            return None
        planning = ctx.current_phase == "ann"
        ctx.tracer.add_event(
            "repair", db=db, phase="ann" if planning else "exec"
        )
        # Trip the breaker FIRST so the best-effort teardown of the
        # partial deployment fails fast on the dead engine instead of
        # burning its retry budget per object.
        self.deployment.health.report_outage(
            db,
            "annotation-time consultation failed"
            if planning
            else "execution failed",
        )
        self._reenter(state, cls)
        # Whole-query repair cannot reuse salvaged snapshots or earlier
        # pins (they may live on the dead engine).
        self._abandon_salvage(state, failure, ctx.tracer, skip_db=db)
        return True

    def _abandon_salvage(
        self,
        state: PlanState,
        failure: Failure,
        tracer,
        skip_db: Optional[str] = None,
    ) -> None:
        """Drop salvage the recovery path cannot use (best effort).

        ``skip_db`` marks an engine known to be down — its objects are
        left for the reaper rather than burning the retry budget.
        Abandoning pins also re-enters at ``optimize``: the logical
        plan is rebuilt from the source query, so placeholder scans of
        dropped snapshots cannot survive into the next annotation.
        """
        objects = [(db, kind, name) for _t, db, kind, name in failure.salvage]
        objects.extend(state.pending_keeps)
        if state.pending_keeps:
            state.pending_keeps = []
            state.stage = "optimize"
        if objects:
            self.delegator.ledger.drop(
                self.connectors, objects, skip_db=skip_db, rollback=True
            )
            tracer.add_event("salvage-abandoned", objects=len(objects))

    def _shard_rows(self, shard: str) -> Optional[int]:
        """Catalog row count of one shard (any holder; None = unknown)."""
        for db in self.catalog.holders(shard):
            stats = self.catalog.stats_of(db, shard)
            if stats is not None and stats.row_count is not None:
                return int(stats.row_count)
        return None

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def placement(dplan: Optional[DelegationPlan]) -> Dict[str, str]:
        """Base table → DBMS map for the recovery placement diff.

        Keyed by scanned table rather than task: a repaired plan may
        merge or split tasks (co-location changes when a replica holder
        takes over), so task identities do not survive re-planning but
        table names do.
        """
        placement: Dict[str, str] = {}
        if dplan is None:
            return placement
        for task in dplan.tasks.values():
            for scan in task.expr.leaves():
                if not scan.placeholder:
                    placement[scan.table] = task.annotation
        return placement


def _pinnable(src: Optional[algebra.LogicalPlan]) -> bool:
    """Whether a producer's snapshot still matches its logical schema."""
    if src is None:
        return False
    names = [f.name.lower() for f in src.schema]
    return len(set(names)) == len(names)


def _replace_subtree(
    root: algebra.LogicalPlan,
    target: algebra.LogicalPlan,
    replacement: algebra.LogicalPlan,
) -> Tuple[algebra.LogicalPlan, bool]:
    """Replace ``target`` (by identity) inside ``root``.

    Returns ``(new_root, replaced)``; the tree is returned unchanged
    when ``target`` does not occur (e.g. it lived inside a subtree an
    earlier replacement already swapped out).
    """
    if root is target:
        return replacement, True
    children = root.children()
    if not children:
        return root, False
    new_children = []
    replaced = False
    for child in children:
        new_child, hit = _replace_subtree(child, target, replacement)
        new_children.append(new_child)
        replaced = replaced or hit
    if not replaced:
        return root, False
    return root.with_children(new_children), True
