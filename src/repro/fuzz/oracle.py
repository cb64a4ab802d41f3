"""Fuzz oracles: round-trip, differential execution, pushdown,
drift-recovery, partition, feedback, partial-result, and plan-memo
invariants.

Eight invariants, each cheap to state and brutal to uphold:

1. **Round-trip**: for every dialect, ``render(stmt)`` must parse back
   to the same AST (modulo the recorded surface ``syntax``) and a
   second render must reproduce the first text byte-for-byte.  The one
   sanctioned exception: MariaDB's FEDERATED ``CONNECTION`` string
   cannot represent ``/`` in a remote object name, and the renderer
   must *say so* (raise ``SQLError``) rather than emit a string that
   parses back wrong.
2. **Differential execution**: a query returns the same multiset of
   rows on the engine, for every vendor profile, as on sqlite
   (:mod:`repro.fuzz.reference`, a DBMS that shares none of the
   engine's code); under ORDER BY the sort-key column comes back in
   the same order, and under a LIMIT only the rows the limit does not
   leave to the implementation are compared.

Invariants 3–7 judge a federation's answer by sqlite too, over the
tables the engines store (or the fuzz tables a partitioned deployment
was sharded from), through the one comparison of invariant 2
(:func:`_mismatch`); each case builds one federation, and no second
configuration of the engine judges the first:

3. **Pushdown**: a query over a foreign table on a two-engine
   deployment answers what sqlite answers over the remote table,
   whatever the wrapper's pushdown capabilities.
4. **Drift recovery**: after a live schema mutation lands on the
   remote engine behind the federation's back, an XDB client with the
   stale catalog must still answer — what sqlite answers over the
   drifted tables.
5. **Partitions**: splitting tables into hash/range shards across a
   four-engine federation (each shard a task, the gathering engine
   draining the branches in order) must not change any query's
   answer from sqlite's over the unsharded tables.
6. **Feedback**: the Q-Error loop only changes *how* a query runs,
   never *what* it returns — a client with skewed statistics, a
   :class:`~repro.feedback.store.FeedbackStore` and (optionally)
   mid-query adaptivity answers what sqlite answers, on both the cold
   and the warmed submission.
7. **Partial results**: when a shard dies with no replica and the
   policy allows partial answers, the degraded result is a row-multiset
   *subset* of sqlite's answer, and the reported completeness is
   exactly the row-weighted fraction implied by the reported missing
   partitions (above 0, never below the policy floor); a refusal
   names the shard outage and comes only when no such answer exists.

Invariant 8 compares the engines' caches with a plan made from
scratch on the same engines — what it judges is a memo, not an answer:

8. **Plan-memo parity**: after every DDL / INSERT / drift step on a
   chain of engines reading each other through foreign tables, each
   entry an engine's local-plan memo would still serve equals the plan
   and estimate computed from scratch on the engines as they now are —
   a cached local plan is never served across a change it was not
   built for, and neither is the physical tree a run kept for it.
   A table a ``CREATE TABLE … AS`` leaves, created, replaced or kept,
   holds the rows its query returns at that moment.
   The middleware's plan memo is held to the same rule:
   each delegation plan a client would still reuse describes the same
   tasks and edges, and delegates the same SQL, as the plan the client
   makes from scratch; a cascade it keeps deployed for that plan and
   would still serve ran the same DDL, but for its epoch, as a fresh
   delegation does, and every object it created is still there.
"""

from __future__ import annotations

import re
from contextlib import closing
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.core.client import XDB
from repro.core.delegate import DeployedQuery
from repro.core.partition import partition_completeness, partition_name
from repro.core.plan import DelegationPlan
from repro.drift.mutate import apply_drift
from repro.engine.catalog import BaseTable
from repro.engine.database import Database
from repro.engine.physical import SeqScan
from repro.errors import ReproError, SQLError
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.faults.policy import SchemaDrift
from repro.federation.deployment import Deployment
from repro.feedback.store import FeedbackStore
from repro.fuzz.generators import query_statement, spec_to_statement
from repro.fuzz.reference import Reference, contains_rows, same_rows
from repro.qos import QoSPolicy
from repro.relational.builder import build_plan
from repro.relational.decompile import plan_to_select
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.dialects import available_dialects, dialect_for
from repro.sql.parser import parse_statement
from repro.sql.render import render
from repro.sql.types import DOUBLE, INTEGER, varchar

DIALECTS = tuple(available_dialects())
PROFILES = ("postgres", "mariadb", "hive")

#: Values the fuzz schema's VARCHAR column cycles through — includes
#: the string-pool edges so WHERE predicates on them can match rows.
_B_VALUES = ["plain", "it's", "", "a''b", "sla/sh", "ünïcode-значение"]


def _normalize(stmt: ast.Statement, dialect: str = "") -> ast.Statement:
    """Erase surface markers the dialect is allowed to lose.

    ``syntax`` on a foreign-table DDL records which surface parsed it;
    MariaDB additionally drops federated tables with plain ``DROP
    TABLE`` (the catalog sanctions that narrowing), so its DROP
    round-trip may collapse FOREIGN TABLE to TABLE.
    """
    if isinstance(stmt, ast.CreateForeignTable):
        return replace(stmt, syntax="postgres")
    if (
        dialect == "mariadb"
        and isinstance(stmt, ast.DropObject)
        and stmt.kind == "FOREIGN TABLE"
    ):
        return replace(stmt, kind="TABLE")
    return stmt


def expected_unrepresentable(stmt: ast.Statement, dialect: str) -> bool:
    """True when ``dialect`` is *allowed* to refuse to render ``stmt``."""
    return (
        dialect == "mariadb"
        and isinstance(stmt, ast.CreateForeignTable)
        and "/" in stmt.remote_object
    )


def check_roundtrip(stmt: ast.Statement) -> List[str]:
    """Render → parse → render through every dialect."""
    failures: List[str] = []
    for name in DIALECTS:
        renderer = dialect_for(name)
        try:
            text = renderer.render(stmt)
        except SQLError as exc:
            if expected_unrepresentable(stmt, name):
                continue
            failures.append(f"{name}: render raised SQLError: {exc}")
            continue
        except Exception as exc:  # crash = finding
            failures.append(f"{name}: render crashed: {exc!r}")
            continue
        if expected_unrepresentable(stmt, name):
            failures.append(
                f"{name}: rendered an unrepresentable statement "
                f"instead of refusing: {text!r}"
            )
            continue
        try:
            parsed = parse_statement(text)
        except Exception as exc:
            failures.append(
                f"{name}: rendered SQL does not parse back: {exc!r} "
                f"for {text!r}"
            )
            continue
        if _normalize(parsed, name) != _normalize(stmt, name):
            failures.append(
                f"{name}: AST changed across round-trip for {text!r}: "
                f"parsed {parsed!r}"
            )
            continue
        second = renderer.render(parsed)
        if second != text:
            failures.append(
                f"{name}: render not idempotent: {text!r} -> {second!r}"
            )
    return failures


# -- differential query execution ------------------------------------------


def _fuzz_tables():
    """``(name, schema, rows)`` of the fuzz schema."""
    t1 = [
        (i % 70, _B_VALUES[i % len(_B_VALUES)], (i * 7 % 100) / 2.0)
        for i in range(60)
    ]
    t2 = [(i * 3 % 70, f"d{i}") for i in range(20)]
    return [
        (
            "t1",
            Schema([Field("a", INTEGER), Field("b", varchar(25)), Field("c", DOUBLE)]),
            t1,
        ),
        ("t2", Schema([Field("a", INTEGER), Field("d", varchar(8))]), t2),
    ]


def _fuzz_database(name: str, profile: str) -> Database:
    db = Database(name, profile=profile)
    for table, schema, rows in _fuzz_tables():
        db.create_table(table, schema, rows)
    return db


def _stored_tables(deployment: Deployment):
    """``(name, schema, rows)`` of every table stored on the deployment's
    engines — the first holder's copy of a replicated one."""
    stored = {}
    for database in deployment.databases.values():
        for table in database.catalog.tables():
            stored.setdefault(table.name.lower(), (table.name, table.schema, table.rows))
    return list(stored.values())


def _mismatch(select: ast.Select, got, want) -> str:
    """How the engine's rows ``got`` differ from sqlite's ``want`` for
    ``select``; empty when they agree.

    Which rows a LIMIT keeps is implementation-defined unless ORDER BY
    decides it — and even then not among ties on the sort key — so a
    limited query compares its cardinality only, and an ordered one
    also its sort-key column (the first) in order.
    """
    if len(got) != len(want):
        return f"cardinality mismatch ({len(got)} vs {len(want)} sqlite rows)"
    if select.limit is None and not same_rows(got, want):
        return "row mismatch"
    if select.order_by and not same_rows(
        [row[:1] for row in got], [row[:1] for row in want], ordered=True
    ):
        return "sort-key order mismatch"
    return ""


def check_query_differential(spec: Dict[str, object]) -> List[str]:
    """The engine vs sqlite, across all vendor profiles."""
    select = query_statement(spec)
    failures: List[str] = []
    with closing(Reference(_fuzz_tables())) as reference:
        for profile in PROFILES:
            sql = dialect_for(profile).render(select)
            try:
                result = _fuzz_database(f"fz_{profile}", profile).execute(sql)
                want = reference.rows(select, result.schema)
            except Exception as exc:
                failures.append(f"{profile}: execution failed: {exc!r} for {sql!r}")
                continue
            mismatch = _mismatch(select, result.rows, want)
            if mismatch:
                failures.append(f"{profile}: engine vs sqlite {mismatch} for {sql!r}")
    return failures


def _judge(tables, sql: str, result) -> str:
    """:func:`_mismatch` of a federation's ``result`` for ``sql`` against
    sqlite over ``tables``."""
    select = parse_statement(sql)
    with closing(Reference(tables)) as reference:
        return _mismatch(select, result.rows, reference.rows(select, result.schema))


# -- foreign-table pushdown --------------------------------------------------


def check_pushdown(spec: Dict[str, object]) -> List[str]:
    """A query over a foreign table vs sqlite over the remote table."""
    deployment = Deployment({"L": "postgres", "R": spec["remote_profile"]})
    local = deployment.databases["L"]
    deployment.load_table(
        "R",
        "rt",
        Schema([Field("a", INTEGER), Field("c", DOUBLE)]),
        [(i % 70, (i * 3 % 50) / 2.0) for i in range(120)],
    )
    ddl = ast.CreateForeignTable(
        name="ft",
        columns=(ast.ColumnDef("a", INTEGER), ast.ColumnDef("c", DOUBLE)),
        server="R",
        remote_object="rt",
    )
    try:
        local.execute(local.dialect.render(ddl))
    except Exception as exc:
        return [f"foreign-table DDL failed: {exc!r}"]
    projection = "a, c" if spec.get("project_all") else "a"
    where = ""
    if spec.get("where_value") is not None:
        where = f" WHERE a > {spec['where_value']}"
    try:
        delegated = local.execute(f"SELECT {projection} FROM ft{where}")
        mismatch = _judge(
            _stored_tables(deployment), f"SELECT {projection} FROM rt{where}", delegated
        )
    except Exception as exc:
        return [f"pushdown execution failed on {spec['remote_profile']}: {exc!r}"]
    if mismatch:
        return [
            f"pushdown vs sqlite {mismatch} on {spec['remote_profile']} "
            f"(projection={projection!r}, where={where!r})"
        ]
    return []


# -- schema-drift recovery ----------------------------------------------------


def _drift_deployment(profile: str) -> Deployment:
    """Two engines, one cross-database join's worth of data."""
    deployment = Deployment({"L": "postgres", "R": profile})
    deployment.load_table(
        "L",
        "lt",
        Schema([Field("a", INTEGER), Field("b", varchar(8))]),
        [(i % 40, f"v{i % 9}") for i in range(80)],
    )
    deployment.load_table(
        "R",
        "rt",
        Schema([Field("a", INTEGER), Field("c", DOUBLE)]),
        [(i % 70, (i * 3 % 50) / 2.0) for i in range(120)],
    )
    return deployment


def check_drift(spec: Dict[str, object]) -> List[str]:
    """Stale-catalog recovery vs sqlite over the drifted tables.

    The spec carries a cross-database ``query`` and a ``drift`` (the
    :class:`~repro.faults.policy.SchemaDrift` fields, minus ``db`` /
    ``table`` which are fixed to the remote ``rt``).  A warmed XDB
    client submits the query, the drift lands directly on the remote
    engine, and the same client submits again: it must absorb the
    drift inside its repair budget and answer what sqlite answers over
    the tables the engines now store.
    """
    drift_fields = dict(spec["drift"])
    new_type = drift_fields.get("new_type")
    drift = SchemaDrift(
        db="R",
        table=str(drift_fields.get("table", "rt")),
        kind=str(drift_fields["kind"]),
        column=drift_fields.get("column"),
        new_name=drift_fields.get("new_name"),
        new_type=tuple(new_type) if new_type is not None else None,
    )
    sql = str(spec["query"])

    deployment = _drift_deployment(spec["remote_profile"])
    xdb = XDB(deployment)
    try:
        xdb.submit(sql)
    except Exception as exc:
        return [f"pre-drift baseline failed: {exc!r} for {sql!r}"]
    try:
        apply_drift(deployment.database("R"), drift)
    except Exception as exc:
        return [f"drift did not apply: {exc!r} for {drift!r}"]
    try:
        recovered = xdb.submit(sql).result
    except Exception as exc:
        return [
            f"stale-catalog submission did not recover from "
            f"{drift.kind}: {exc!r} for {sql!r}"
        ]
    try:
        mismatch = _judge(_stored_tables(deployment), sql, recovered)
    except Exception as exc:
        return [f"sqlite failed on the drifted tables: {exc!r} for {sql!r}"]
    if mismatch:
        return [f"drift recovery vs sqlite {mismatch} after {drift.kind} for {sql!r}"]
    return []


# -- partitions ----------------------------------------------------------------


def _sharded_deployment(spec: Dict[str, object]) -> Deployment:
    """Four engines holding the fuzz tables, sharded per ``spec``."""
    deployment = Deployment(
        {f"p{i}": "postgres" for i in range(1, 5)}, parallel_workers=2
    )
    for db, (table, schema, rows) in zip(("p1", "p2"), _fuzz_tables()):
        deployment.load_table(db, table, schema, rows)
    by_db = [f"p{index % 4 + 1}" for index in range(int(spec["partitions"]))]
    scheme = str(spec["scheme"])
    bounds = tuple(spec.get("bounds") or ())
    for table in ("t1", "t2") if spec.get("co_partition") else ("t1",):
        deployment.partition_table(table, "a", by_db, scheme=scheme, bounds=bounds)
    return deployment


def check_partition(spec: Dict[str, object]) -> List[str]:
    """A query over hash/range shards vs sqlite over the fuzz tables."""
    select = query_statement(dict(spec["query"]))
    sql = dialect_for("postgres").render(select)
    try:
        sharded = XDB(_sharded_deployment(spec)).submit(sql)
        mismatch = _judge(_fuzz_tables(), sql, sharded.result)
    except Exception as exc:
        return [
            f"partitioned execution failed "
            f"({spec['scheme']}/{spec['partitions']}): {exc!r} "
            f"for {sql!r}"
        ]
    if mismatch:
        return [
            f"partitioned vs sqlite {mismatch} "
            f"({spec['scheme']}/{spec['partitions']}, "
            f"co_partition={spec.get('co_partition')}) for {sql!r}"
        ]
    return []


# -- partial results -----------------------------------------------------------


def check_partial(spec: Dict[str, object]) -> List[str]:
    """Policy-bounded partial answers vs sqlite over the fuzz tables.

    One shard of ``t1`` dies (shard-scoped outage, no replica); a
    submission with a ``completeness_floor`` must then:

    * return a row-*multiset subset* of sqlite's rows — a partial
      answer may drop rows, never invent or duplicate them;
    * report ``completeness`` in ``(0, 1]`` that is exactly the
      row-weighted surviving fraction implied by its own
      ``missing_partitions`` (and no lower than the policy's floor);
    * quarantine only the struck holder — the engine-level breaker
      stays closed;

    or refuse with an error that names the shard outage, when losing
    the shard (and, in a co-partitioned join, its ``t2`` sibling)
    leaves nothing of a table or less than the floor.

    Specs must not use LIMIT (it changes *which* rows survive, so the
    subset comparison would be vacuous).
    """
    qspec = dict(spec["query"])
    if qspec.get("limit") is not None:
        return ["partial specs must not carry LIMIT"]
    select = query_statement(qspec)
    sql = dialect_for("postgres").render(select)
    count = int(spec["partitions"])
    dead = int(spec["dead_shard"]) % count
    shard = partition_name("t1", dead)
    holder = f"p{dead % 4 + 1}"
    floor = float(spec.get("completeness_floor", 0.0))

    deployment = _sharded_deployment(spec)
    xdb = XDB(deployment)
    try:
        xdb.warm_metadata()
        with FaultInjector(
            FaultPolicy(outages=(EngineOutage(db=holder, table=shard),))
        ).install(deployment):
            report = xdb.submit(sql, qos=QoSPolicy(completeness_floor=floor))
    except Exception as exc:
        rows = {name: len(held) for name, _, held in _stored_tables(deployment)}
        lost = [shard]
        # a co-partitioned join zips t1's shards with t2's, and loses
        # the t2 shard zipped with the dead one
        if spec.get("co_partition") and qspec.get("join"):
            lost.append(partition_name("t2", dead))
        implied = partition_completeness(
            lost, deployment.partition_specs.get, rows.get
        )
        refusable = implied <= 0.0 or implied < floor
        if refusable and isinstance(exc, ReproError) and "shard outage" in str(exc):
            return []
        return [
            f"partial submission failed ({holder}/{shard}, implied "
            f"completeness {implied} vs floor {floor}): {exc!r} for {sql!r}"
        ]

    failures: List[str] = []
    recovery = report.recovery
    with closing(Reference(_fuzz_tables())) as reference:
        want = reference.rows(select, report.result.schema)
    if not contains_rows(want, report.result.rows):
        failures.append(
            f"partial answer is not a subset of sqlite's "
            f"{len(want)} rows for {sql!r}"
        )
    if not recovery.partial:
        failures.append(
            f"partial degrade never engaged under a dead shard "
            f"({holder}/{shard}) for {sql!r}"
        )
        return failures
    if not (0.0 < recovery.completeness <= 1.0):
        failures.append(
            f"completeness {recovery.completeness} outside (0, 1] "
            f"for {sql!r}"
        )
    if recovery.completeness < floor:
        failures.append(
            f"completeness {recovery.completeness} below the policy "
            f"floor {floor} for {sql!r}"
        )
    implied = partition_completeness(
        recovery.missing_partitions,
        xdb.catalog.partition_spec,
        xdb.pipeline._shard_rows,
    )
    if abs(recovery.completeness - implied) > 1e-9:
        failures.append(
            f"completeness {recovery.completeness} inconsistent with "
            f"missing partitions {recovery.missing_partitions} "
            f"(implied {implied}) for {sql!r}"
        )
    if not xdb.catalog.is_quarantined(holder, shard):
        failures.append(
            f"struck holder {holder}/{shard} was not quarantined "
            f"for {sql!r}"
        )
    if deployment.health.is_open(holder):
        failures.append(
            f"shard-scoped fault tripped the engine breaker on "
            f"{holder!r} for {sql!r}"
        )
    return failures


# -- feedback ----------------------------------------------------------------


def check_feedback(spec: Dict[str, object]) -> List[str]:
    """A client learning from feedback vs sqlite over the same tables.

    The spec carries a cross-database ``query`` over the two-engine
    drift deployment, a ``skew`` that misleads the client's statistics
    (``override_stats`` on the remote table), and the optional
    ``movement_policy`` / ``adaptivity_threshold`` knobs that arm
    mid-query adaptation.  Whatever plans the Q-Error loop picks —
    cold under skewed stats, adapted mid-query, or replanned off the
    warmed store — every submission must answer what sqlite answers.
    """
    sql = str(spec["query"])
    skew = dict(spec.get("skew") or {})
    threshold = spec.get("adaptivity_threshold")
    deployment = _drift_deployment(str(spec.get("remote_profile", "postgres")))
    xdb = XDB(
        deployment,
        movement_policy=str(spec.get("movement_policy", "cost")),
        feedback=FeedbackStore(),
        adaptivity_threshold=float(threshold) if threshold is not None else None,
    )
    try:
        xdb.warm_metadata()
        if skew:
            xdb.catalog.override_stats(
                str(skew.get("db", "R")),
                str(skew.get("table", "rt")),
                int(skew.get("row_count", 1)),
            )
        cold = xdb.submit(sql)
        mismatch = _judge(_stored_tables(deployment), sql, cold.result)
    except Exception as exc:
        return [
            f"cold feedback submission failed under skew {skew}: "
            f"{exc!r} for {sql!r}"
        ]
    if mismatch:
        return [
            f"feedback vs sqlite {mismatch} on the cold run "
            f"(skew={skew}, adapted={cold.recovery.adaptations}) for {sql!r}"
        ]
    try:
        warm = xdb.submit(sql)
        mismatch = _judge(_stored_tables(deployment), sql, warm.result)
    except Exception as exc:
        return [f"warmed feedback submission failed: {exc!r} for {sql!r}"]
    if mismatch:
        return [
            f"feedback vs sqlite {mismatch} on the warmed run "
            f"({len(xdb.feedback)} learned entries) for {sql!r}"
        ]
    return []


# -- plan-memo parity --------------------------------------------------------


def chain_deployment(profile: str = "postgres") -> Deployment:
    """``A.v_a -> A.ft_b => B.v_b -> B.ft_c => C.t`` (``=>`` a foreign
    hop): a base table two hops below the view A plans, plus a local
    table ``lt`` on A.  B runs the spec's vendor profile."""
    deployment = Deployment({"A": "postgres", "B": profile, "C": "postgres"})
    deployment.load_table(
        "C",
        "t",
        Schema([Field("a", INTEGER), Field("c", DOUBLE)]),
        [(i % 40, (i * 3 % 50) / 2.0) for i in range(120)],
    )
    deployment.load_table(
        "A",
        "lt",
        Schema([Field("a", INTEGER), Field("b", varchar(8))]),
        [(i % 25, f"v{i % 9}") for i in range(50)],
    )
    columns = (ast.ColumnDef("a", INTEGER), ast.ColumnDef("c", DOUBLE))
    for db, name, server, remote, view in (
        ("B", "ft_c", "C", "t", "v_b"),
        ("A", "ft_b", "B", "v_b", "v_a"),
    ):
        database = deployment.database(db)
        database.execute(
            database.dialect.render(
                ast.CreateForeignTable(
                    name=name,
                    columns=columns,
                    server=server,
                    remote_object=remote,
                )
            )
        )
        database.execute(f"CREATE VIEW {view} AS SELECT a, c FROM {name}")
    return deployment


def memo_failures(databases, clients: Sequence[XDB] = ()) -> List[str]:
    """Invariant 8 on live engines: every memo entry that would still
    be served, against a plan and estimate made from scratch — and its
    operators (the tree it keeps, or lowers to if no run kept one)
    against the fresh plan's, since a plan carries the estimates its
    hash joins' build sides are chosen from.  Every scan of a kept tree
    must read the row list of the table the catalog holds now.

    Engines are judged one by one, so the fresh plan of an engine may
    consult the memo of the engine below it — whose entries are judged
    by the same loop.  Each of ``clients`` is judged on its middleware
    plan memo: an entry it would still reuse against ``plan_query``'s
    plan of the same SQL (which consults the engines like any plan),
    by ``describe()`` and :func:`delegated_sql` — and a cascade the
    entry keeps deployed and would still serve, by
    :func:`_cascade_failures`."""
    failures: List[str] = []
    for database in databases:
        for key, entry in list(database._memo.items()):
            if not entry.stamp.is_current():
                continue
            try:
                estimator = database.planner.make_estimator()
                plan = database.planner.optimize(
                    build_plan(parse_statement(key), database.catalog),
                    estimator,
                )
                info = database._explain(plan, estimator)
                lowered = database.planner.to_physical(plan).pretty()
                kept = entry.lowered
                served = (
                    database.planner.to_physical(entry.plan)
                    if kept is None
                    else kept.root
                ).pretty()
            except Exception as exc:
                failures.append(
                    f"{database.name}: memo still serves {key!r} but "
                    f"planning it from scratch fails: {exc!r}"
                )
                continue
            if plan.pretty() != entry.plan.pretty():
                failures.append(
                    f"{database.name}: memo serves a stale plan for "
                    f"{key!r}: {entry.plan.pretty()!r} vs fresh "
                    f"{plan.pretty()!r}"
                )
            elif lowered != served:
                # same logical plan, other operators: the hash joins'
                # build sides were chosen from estimates since moved
                failures.append(
                    f"{database.name}: memo serves stale operators for "
                    f"{key!r}: {served!r} vs fresh {lowered!r}"
                )
            elif entry.info is not None and entry.info != info:
                failures.append(
                    f"{database.name}: memo serves a stale estimate for "
                    f"{key!r}: {entry.info!r} vs fresh {info!r}"
                )
            if kept is not None:
                failures.extend(
                    f"{database.name}: memo keeps a scan of "
                    f"{scan.table_name!r} for {key!r} that reads rows the "
                    "catalog no longer holds"
                    for scan in kept.operators
                    if isinstance(scan, SeqScan)
                    and scan._rows is not _rows_of(database, scan.table_name)
                )
    for xdb in clients:
        pipeline = xdb.pipeline
        for key, entry in list(pipeline._memo.items()):
            if not pipeline._serves(entry):
                continue
            try:
                fresh = xdb.plan_query(key)
            except Exception as exc:
                failures.append(
                    f"client memo still serves {key!r} but planning it "
                    f"from scratch fails: {exc!r}"
                )
                continue
            if entry.dplan.describe() != fresh.describe():
                failures.append(
                    f"client memo serves a stale plan for {key!r}: "
                    f"{entry.dplan.describe()!r} vs fresh "
                    f"{fresh.describe()!r}"
                )
            elif delegated_sql(entry.dplan) != delegated_sql(fresh):
                failures.append(
                    f"client memo serves stale delegated SQL for {key!r}: "
                    f"{delegated_sql(entry.dplan)!r} vs fresh "
                    f"{delegated_sql(fresh)!r}"
                )
            cascade = entry.cascade
            if cascade is not None:
                failures.extend(
                    f"client memo keeps a stale cascade for {key!r}: {f}"
                    for f in _cascade_failures(xdb, cascade.deployed, fresh)
                )
    return failures


def _rows_of(database: Database, name: str):
    """The row list of the stored table ``name`` on ``database``, or
    None if there is none."""
    table = database.catalog.get(name)
    return table.rows if isinstance(table, BaseTable) else None


def _cascade_failures(
    xdb: XDB, deployed: DeployedQuery, fresh: DelegationPlan
) -> List[str]:
    """A retained cascade against a fresh delegation of ``fresh``: the
    same DDL but for the epoch, and every object it created still on
    its engine.  The fresh cascade is dropped again afterwards."""
    shape = re.compile(rf"\b(x[fmv]_{re.escape(xdb.ledger.namespace)})\d+_")

    def epochless(ddl_log):
        return [(db, shape.sub(r"\1", sql)) for db, sql in ddl_log]

    failures = []
    try:
        redone = xdb.delegator.delegate(fresh)
    except ReproError as exc:
        return [f"delegating it from scratch fails: {exc!r}"]
    try:
        if epochless(deployed.ddl_log) != epochless(redone.ddl_log):
            failures.append(
                f"DDL {deployed.ddl_log!r} vs fresh {redone.ddl_log!r}"
            )
    finally:
        redone.cleanup()
    for db, kind, name in deployed.created_objects:
        if xdb.deployment.database(db).catalog.get(name) is None:
            failures.append(f"{kind} {name!r} is gone from {db!r}")
    return failures


def delegated_sql(dplan: DelegationPlan) -> List[Tuple[str, str]]:
    """(DBMS, view SQL) per task, producers first: what delegating
    ``dplan`` creates, each placeholder named after its producer task
    instead of one delegation's object."""
    out = []
    for task in dplan.topological():
        sql = render(plan_to_select(task.expr))
        names = {scan.binding: scan.table for scan in task.placeholders()}
        for edge in dplan.in_edges(task):
            sql = re.sub(
                rf"\b{re.escape(names[edge.placeholder])}\b",
                f"task_{edge.producer_id}",
                sql,
            )
        out.append((task.annotation, sql))
    return out


def _snapshot_failures(
    database: Database, statement: ast.CreateTableAs
) -> List[str]:
    """The rows a ``CREATE TABLE … AS`` just left in its table against
    the rows its defining query returns now, planned and run from
    scratch: a table kept across a refresh that wrote other rows holds
    stale rows."""
    try:
        plan = database.planner.optimize(
            build_plan(statement.query, database.catalog),
            database.planner.make_estimator(),
        )
        want = [
            row
            for batch in database.planner.to_physical(plan).batches()
            for row in batch
        ]
    except Exception as exc:
        return [
            f"{statement.name!r} was stored, but running its query "
            f"from scratch fails: {exc!r}"
        ]
    held = _rows_of(database, statement.name)
    if held is None or not same_rows(held, want):
        return [
            f"{statement.name!r} holds {len(held or ())} rows that are "
            f"not the {len(want)} rows its query returns"
        ]
    return []


def check_memo(spec: Dict[str, object]) -> List[str]:
    """Plan-memo parity across a scripted sequence of steps.

    ``steps`` are ``["explain" | "query" | "sql", db, text]`` — plan,
    run, or execute DDL / INSERT on one engine — and ``["drift", db,
    {SchemaDrift fields}]``.  A step the engines refuse (a query over a
    drifted-away column, say) is part of the script, not a finding;
    :func:`memo_failures` is checked after every step, and after a
    ``CREATE TABLE … AS`` that succeeds, the rows it stored against
    its query's (:func:`_snapshot_failures`).
    """
    deployment = chain_deployment(str(spec.get("remote_profile", "postgres")))
    databases = list(deployment.databases.values())
    failures: List[str] = []
    for index, (op, db, payload) in enumerate(spec["steps"]):
        database = deployment.database(db)
        try:
            if op == "explain":
                database.explain_select(parse_statement(payload))
            elif op == "query":
                database.execute_select(parse_statement(payload))
            elif op == "sql":
                statement = parse_statement(payload)
                database.execute_statement(statement, payload)
                if isinstance(statement, ast.CreateTableAs):
                    failures.extend(
                        f"after step {index} (sql on {db}): {failure}"
                        for failure in _snapshot_failures(database, statement)
                    )
            elif op == "drift":
                fields = dict(payload)
                if fields.get("new_type") is not None:
                    fields["new_type"] = tuple(fields["new_type"])
                apply_drift(database, SchemaDrift(db=db, **fields))
            else:
                return [f"unknown memo step {op!r}"]
        except ReproError:
            pass
        except Exception as exc:
            failures.append(f"step {index} {op} on {db} crashed: {exc!r}")
        failures.extend(
            f"after step {index} ({op} on {db}): {failure}"
            for failure in memo_failures(databases)
        )
    return failures


def run_case(spec: Dict[str, object]) -> List[str]:
    """Run every applicable oracle; empty list means the case passed."""
    kind = spec["kind"]
    if kind == "pushdown":
        return check_pushdown(spec)
    if kind == "drift":
        return check_drift(spec)
    if kind == "partition":
        return check_partition(spec)
    if kind == "partial":
        return check_partial(spec)
    if kind == "feedback":
        return check_feedback(spec)
    if kind == "memo":
        return check_memo(spec)
    try:
        stmt = spec_to_statement(spec)
    except Exception as exc:
        return [f"spec_to_statement crashed: {exc!r}"]
    failures = check_roundtrip(stmt)
    if kind == "query":
        failures.extend(check_query_differential(spec))
    return failures
