"""The Database: one autonomous, black-box DBMS instance.

A database is driven exclusively through its declarative interface
(``execute``), mirroring the paper's execution-autonomy assumption: the
caller never controls physical operators or plan shapes, only submits
SQL (queries *and* the SQL/MED DDL the delegation engine emits) and
reads results or EXPLAIN estimates back.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional

from repro.engine.catalog import (
    BaseTable,
    Catalog,
    ForeignTable,
    VersionStamp,
    View,
)
from repro.engine.cost import CardinalityEstimator, CostModel, ExplainInfo
from repro.engine.planner import LocalPlanner
from repro.engine.profiles import EngineProfile, profile_for
from repro.engine.result import Result
from repro.engine.stats import TableStats
from repro.errors import CatalogError, ExecutionError
from repro.obs.runtime import current_context
from repro.relational import algebra
from repro.relational.builder import build_plan
from repro.relational.expressions import compile_expression
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.dialects import dialect_for
from repro.sql.parser import parse_statement
from repro.sql.render import Renderer


class _Planned(NamedTuple):
    """One plan-memo entry (immutable; EXPLAIN replaces it with a copy
    that carries the estimate)."""

    #: the optimized logical plan — physical operators are built per
    #: execution and never kept
    plan: algebra.LogicalPlan
    #: every catalog version the plan (and ``info``) was derived under
    stamp: VersionStamp
    info: Optional[ExplainInfo] = None


class Database:
    """A single simulated DBMS (PostgreSQL / MariaDB / Hive flavoured)."""

    def __init__(
        self,
        name: str,
        profile: str = "postgres",
        node: Optional[str] = None,
        parallel_workers: int = 1,
    ):
        self.name = name
        self.profile: EngineProfile = (
            profile_for(profile) if isinstance(profile, str) else profile
        )
        #: name of the network node hosting this DBMS
        self.node = node or name
        #: worker threads for intra-query parallelism (> 1 makes the
        #: planner lower UNION ALL chains — notably gathered partition
        #: branches — to a pool-fed parallel operator)
        self.parallel_workers = max(int(parallel_workers), 1)
        self.catalog = Catalog(name)
        self.dialect: Renderer = dialect_for(self.profile.dialect)
        self.planner = LocalPlanner(self)
        self.cost_model = CostModel(self.profile)
        #: when True, physical plans are wrapped with per-operator
        #: timers (see :mod:`repro.engine.instrument`) and the operator
        #: spans mirrored into the observability context carry measured
        #: ``exec_seconds`` — the calibration harness's data source.
        self.instrument_execution = False
        self._servers: Dict[str, object] = {}
        #: statement (in this engine's dialect) -> its local plan, for
        #: as long as nothing the plan read has changed; holds entries
        #: of one catalog version only (see :meth:`_planned`)
        self._memo: Dict[str, _Planned] = {}
        self._memo_version = 0
        self._memo_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"Database({self.name!r}, profile={self.profile.name!r})"

    # -- setup helpers ----------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, rows=None, replace: bool = False
    ) -> BaseTable:
        """Directly register a stored table (bulk-load path)."""
        table = BaseTable(name, schema, rows)
        self.catalog.add(table, replace=replace)
        return table

    def register_server(self, name: str, server) -> None:
        """Register a SQL/MED server (a :class:`RemoteServer`)."""
        self._servers[name.lower()] = server
        self.catalog.bump_version()

    def server(self, name: str):
        server = self._servers.get(name.lower())
        if server is None:
            raise CatalogError(
                f"unknown server {name!r} on database {self.name!r}"
            )
        return server

    def server_names(self) -> List[str]:
        return sorted(self._servers)

    def table_stats(self, name: str) -> Optional[TableStats]:
        obj = self.catalog.get(name)
        if isinstance(obj, BaseTable):
            return obj.stats
        return None

    # -- the declarative interface -----------------------------------------------

    def execute(self, sql: str) -> Result:
        """Parse and execute one SQL statement (query or DDL)."""
        ctx = current_context()
        if ctx is not None:
            ctx.tracer.add_event("sql", db=self.name, sql=sql)
            ctx.metrics.inc("engine.statements", db=self.name)
        statement = parse_statement(sql)
        return self._dispatch(statement)

    def _dispatch(self, statement: ast.Statement) -> Result:
        if isinstance(statement, ast.QUERY_STATEMENTS):
            return self.execute_select(statement)
        if isinstance(statement, ast.Explain):
            info = self.explain_select(statement.query)
            schema = Schema(
                [Field("QUERY PLAN", _text_type())]
            )
            rows = [(line,) for line in info.plan_text.splitlines()]
            result = Result(schema, rows, command="EXPLAIN")
            result.explain_info = info  # type: ignore[attr-defined]
            return result
        if isinstance(statement, ast.CreateView):
            return self._create_view(statement)
        if isinstance(statement, ast.CreateForeignTable):
            return self._create_foreign_table(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table_ddl(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._create_table_as(statement)
        if isinstance(statement, ast.DropObject):
            return self._drop(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )

    # -- queries -------------------------------------------------------------------

    def _planned(self, select, explain: bool = False) -> _Planned:
        """The local plan of ``select`` (with its estimate when
        ``explain``), computed once per catalog version.

        The plan memo: keyed on the statement rendered in this engine's
        dialect (so literals of different type never share an entry)
        and stamped with this catalog's version, read *before*
        planning, plus the stamp of every remote consulted on the way.
        An entry is served only while its whole stamp is current.  A
        plan and its estimate read statistics snapshots, never rows
        (:class:`~repro.engine.catalog.BaseTable`), so an INSERT moves a
        version — and retires entries — only when it takes its table
        past the re-ANALYZE bound; DDL, drift and a new server always
        do.  Every stamp contains this engine's own version, so the
        dict is dropped wholesale the first time it is touched under a
        newer one — the per-query-unique object names of delegated
        cascades cannot pile up.  The lock guards the dict only;
        planning, which recurses into other engines, runs outside it,
        so two threads may plan the same statement at once (harmless)
        but neither can be handed a stale entry.
        """
        key = self.dialect.render(select)
        version = self.catalog.version
        with self._memo_lock:
            if self._memo_version < version:
                self._memo = {}
                self._memo_version = version
            entry = self._memo.get(key)
        if entry is not None and not entry.stamp.is_current():
            entry = None
        if entry is not None and (entry.info is not None or not explain):
            return entry
        stamp = VersionStamp({self.catalog: version})
        estimator = self.planner.make_estimator(stamp)
        if entry is None:
            plan = self.planner.optimize(
                build_plan(select, self.catalog), estimator
            )
        else:
            plan = entry.plan
            stamp.merge(entry.stamp)
        info = self._explain(plan, estimator) if explain else None
        entry = _Planned(plan, stamp, info)
        with self._memo_lock:
            if self._memo_version == version:
                self._memo[key] = entry
        return entry

    def execute_select(self, select) -> Result:
        """Execute a query AST (SELECT or UNION ALL)."""
        plan = self._planned(select).plan
        physical_plan = self.planner.to_physical(plan)
        if self.instrument_execution:
            from repro.engine.instrument import instrument_plan

            instrument_plan(physical_plan)
        rows: List[tuple] = []
        for batch in physical_plan.batches():
            rows.extend(batch)
        ctx = current_context()
        if ctx is not None:
            ctx.record_operator_tree(physical_plan, db=self.name)
        return Result(plan.schema.unqualified(), rows)

    def explain_select(
        self, select, reads: Optional[VersionStamp] = None
    ) -> ExplainInfo:
        """Plan + cost a query without executing it (EXPLAIN).

        A caller that derives something cacheable from the estimate
        passes ``reads`` to learn which catalog versions it rests on.
        """
        entry = self._planned(select, explain=True)
        if reads is not None:
            reads.merge(entry.stamp)
        return entry.info

    def _explain(
        self, plan: algebra.LogicalPlan, estimator: CardinalityEstimator
    ) -> ExplainInfo:
        cost = self.cost_model.plan_cost(plan, estimator)
        rows = estimator.estimate_rows(plan)
        text = (
            f"{plan.pretty()}\n"
            f"  (rows={rows:.0f} cost={cost:.2f} engine={self.name})"
        )
        return ExplainInfo(
            estimated_rows=rows,
            total_cost=cost,
            row_width=plan.schema.row_width(),
            plan_text=text,
        )

    # -- DDL ------------------------------------------------------------------------

    def _create_view(self, statement: ast.CreateView) -> Result:
        # Validate eagerly: the defining query must bind.
        build_plan(statement.query, self.catalog)
        view = View(statement.name, statement.query)
        self.catalog.add(view, replace=statement.or_replace)
        return Result(Schema([]), [], command="CREATE VIEW")

    def _create_foreign_table(
        self, statement: ast.CreateForeignTable
    ) -> Result:
        self.server(statement.server)  # must exist
        schema = Schema(
            [Field(col.name, col.type) for col in statement.columns]
        )
        table = ForeignTable(
            statement.name, schema, statement.server, statement.remote_object
        )
        self.catalog.add(table)
        return Result(Schema([]), [], command="CREATE FOREIGN TABLE")

    def _create_table_ddl(self, statement: ast.CreateTable) -> Result:
        schema = Schema(
            [Field(col.name, col.type) for col in statement.columns]
        )
        table = BaseTable(
            statement.name, schema, temporary=statement.temporary
        )
        self.catalog.add(table)
        return Result(Schema([]), [], command="CREATE TABLE")

    def _create_table_as(self, statement: ast.CreateTableAs) -> Result:
        # Compute before swapping: with OR REPLACE, a failing defining
        # query must leave the previous snapshot intact.
        result = self.execute_select(statement.query)
        table = BaseTable(
            statement.name,
            result.schema,
            result.rows,
            temporary=statement.temporary,
        )
        self.catalog.add(table, replace=statement.or_replace)
        return Result(Schema([]), [], command="CREATE TABLE AS")

    def _drop(self, statement: ast.DropObject) -> Result:
        obj = self.catalog.get(statement.name)
        if obj is None:
            if statement.if_exists:
                return Result(Schema([]), [], command="DROP")
            raise CatalogError(
                f"object {statement.name!r} does not exist in database "
                f"{self.name!r}"
            )
        self.catalog.drop(statement.name, statement.kind)
        return Result(Schema([]), [], command="DROP")

    def _insert(self, statement: ast.Insert) -> Result:
        obj = self.catalog.require(statement.table)
        if not isinstance(obj, BaseTable):
            raise ExecutionError(
                f"cannot INSERT into {obj.kind} {statement.table!r}"
            )
        if statement.columns:
            indices = [
                obj.schema.resolve(name) for name in statement.columns
            ]
        else:
            indices = list(range(len(obj.schema)))
        empty = Schema([])
        rows = []
        for value_exprs in statement.rows:
            if len(value_exprs) != len(indices):
                raise ExecutionError(
                    f"INSERT row arity {len(value_exprs)} does not match "
                    f"{len(indices)} target columns"
                )
            row: List[object] = [None] * len(obj.schema)
            for index, expr in zip(indices, value_exprs):
                row[index] = compile_expression(expr, empty).fn(())
            rows.append(tuple(row))
        count = obj.insert(rows)
        return Result(Schema([]), [], command=f"INSERT {count}")


def _text_type():
    from repro.sql.types import varchar

    return varchar()
