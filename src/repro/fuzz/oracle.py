"""Fuzz oracles: round-trip, differential execution, pushdown,
drift-recovery, partition, feedback, partial-result, and plan-memo
parity.

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
3. **Pushdown parity**: a query over a foreign table on a two-engine
   deployment returns the same rows as running it directly on the
   remote engine, whatever the wrapper's pushdown capabilities.
4. **Drift-recovery parity**: after a live schema mutation lands on
   the remote engine behind the federation's back, an XDB client with
   the stale catalog must still answer — and must return exactly the
   rows a fresh client (introspecting the drifted engine from scratch)
   returns for the same query.
5. **Partition parity**: splitting a table into hash/range shards
   across a four-engine federation (workers pulling the gathered
   branches in parallel) must not change any query's result — the
   partitioned deployment returns exactly the unpartitioned
   deployment's rows.
6. **Feedback parity**: the Q-Error loop only changes *how* a query
   runs, never *what* it returns — a client with skewed statistics,
   a warmed :class:`~repro.feedback.store.FeedbackStore`, and
   (optionally) mid-query adaptivity must return byte-identical rows
   to a feedback-free oracle client, on both the cold and the warmed
   submission.
7. **Partial-result parity**: when a shard dies with no replica and
   the policy allows partial answers, the degraded result is a
   row-multiset *subset* of the fault-free oracle, and the reported
   completeness is exactly the row-weighted fraction implied by the
   reported missing partitions (never below the policy floor).
8. **Plan-memo parity**: after every DDL / INSERT / drift step on a
   chain of engines reading each other through foreign tables, each
   entry an engine's local-plan memo would still serve equals the plan
   and estimate computed from scratch on the engines as they now are —
   a cached local plan is never served across a change it was not
   built for.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import replace
from typing import Dict, List

from repro.core.client import XDB
from repro.drift.mutate import apply_drift
from repro.engine.database import Database
from repro.errors import ReproError, SQLError
from repro.faults.policy import SchemaDrift
from repro.federation.deployment import Deployment
from repro.fuzz.generators import query_statement, spec_to_statement
from repro.fuzz.reference import Reference, same_rows
from repro.relational.builder import build_plan
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.dialects import available_dialects, dialect_for
from repro.sql.parser import parse_statement
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


def _canonical(rows) -> List[str]:
    return sorted(repr(tuple(row)) for row in rows)


def check_query_differential(spec: Dict[str, object]) -> List[str]:
    """The engine vs sqlite, across all vendor profiles."""
    select = query_statement(spec)
    failures: List[str] = []
    # Which rows a LIMIT keeps is implementation-defined unless ORDER BY
    # decides it — and even then not among ties on the sort key, so an
    # ordered query compares its sort-key column (the first) in order.
    limited = spec.get("limit") is not None
    ordered = bool(spec.get("order"))
    with closing(Reference(_fuzz_tables())) as reference:
        for profile in PROFILES:
            sql = dialect_for(profile).render(select)
            try:
                result = _fuzz_database(f"fz_{profile}", profile).execute(sql)
                want = reference.rows(select, result.schema)
            except Exception as exc:
                failures.append(f"{profile}: execution failed: {exc!r} for {sql!r}")
                continue
            got = result.rows
            if len(got) != len(want):
                failures.append(
                    f"{profile}: engine vs sqlite cardinality mismatch "
                    f"({len(got)} vs {len(want)}) for {sql!r}"
                )
            elif not limited and not same_rows(got, want):
                failures.append(f"{profile}: engine vs sqlite row mismatch for {sql!r}")
            elif ordered and not same_rows(
                [row[:1] for row in got], [row[:1] for row in want], ordered=True
            ):
                failures.append(f"{profile}: engine vs sqlite order mismatch for {sql!r}")
    return failures


# -- foreign-table pushdown parity -----------------------------------------


def check_pushdown(spec: Dict[str, object]) -> List[str]:
    """Delegated foreign-table query vs direct remote execution."""
    failures: List[str] = []
    deployment = Deployment(
        {"L": "postgres", "R": spec["remote_profile"]}
    )
    local, remote = (
        deployment.databases["L"],
        deployment.databases["R"],
    )
    rt = [(i % 70, (i * 3 % 50) / 2.0) for i in range(120)]
    remote.create_table(
        "rt",
        Schema([Field("a", INTEGER), Field("c", DOUBLE)]),
        rt,
    )
    ddl = ast.CreateForeignTable(
        name="ft",
        columns=(
            ast.ColumnDef("a", INTEGER),
            ast.ColumnDef("c", DOUBLE),
        ),
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
        delegated = local.execute(
            f"SELECT {projection} FROM ft{where}"
        ).rows
        direct = remote.execute(
            f"SELECT {projection} FROM rt{where}"
        ).rows
    except Exception as exc:
        return [
            f"pushdown execution failed on "
            f"{spec['remote_profile']}: {exc!r}"
        ]
    if _canonical(delegated) != _canonical(direct):
        failures.append(
            f"pushdown mismatch vs {spec['remote_profile']}: "
            f"{len(delegated)} delegated rows vs {len(direct)} direct "
            f"(projection={projection!r}, where={where!r})"
        )
    return failures


# -- schema-drift recovery parity -------------------------------------------


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
    """Stale-catalog recovery vs a fresh client over the drifted engine.

    The spec carries a cross-database ``query`` and a ``drift`` (the
    :class:`~repro.faults.policy.SchemaDrift` fields, minus ``db`` /
    ``table`` which are fixed to the remote ``rt``).  A warmed XDB
    client submits the query, the drift lands directly on the remote
    engine, and the same client submits again: it must absorb the
    drift inside its repair budget and match the oracle — a brand-new
    client introspecting the already-drifted deployment.
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

    stale_deployment = _drift_deployment(spec["remote_profile"])
    xdb = XDB(stale_deployment)
    try:
        xdb.submit(sql)
    except Exception as exc:
        return [f"pre-drift baseline failed: {exc!r} for {sql!r}"]
    try:
        apply_drift(stale_deployment.database("R"), drift)
    except Exception as exc:
        return [f"drift did not apply: {exc!r} for {drift!r}"]
    try:
        recovered = xdb.submit(sql).result.rows
    except Exception as exc:
        return [
            f"stale-catalog submission did not recover from "
            f"{drift.kind}: {exc!r} for {sql!r}"
        ]

    oracle_deployment = _drift_deployment(spec["remote_profile"])
    apply_drift(oracle_deployment.database("R"), drift)
    try:
        direct = XDB(oracle_deployment).submit(sql).result.rows
    except Exception as exc:
        return [f"drift oracle execution failed: {exc!r} for {sql!r}"]
    if _canonical(recovered) != _canonical(direct):
        return [
            f"drift recovery mismatch after {drift.kind}: "
            f"{len(recovered)} recovered rows vs {len(direct)} oracle "
            f"rows for {sql!r}"
        ]
    return []


# -- partition parity --------------------------------------------------------


def _parity_deployment(
    spec: Dict[str, object], partitioned: bool
) -> Deployment:
    """Four engines with the fuzz tables; optionally shard them."""
    deployment = Deployment(
        {f"p{i}": "postgres" for i in range(1, 5)},
        parallel_workers=2 if partitioned else 1,
    )
    for db, (table, schema, rows) in zip(("p1", "p2"), _fuzz_tables()):
        deployment.load_table(db, table, schema, rows)
    if partitioned:
        count = int(spec["partitions"])
        by_db = [f"p{index % 4 + 1}" for index in range(count)]
        scheme = str(spec["scheme"])
        bounds = tuple(spec.get("bounds") or ())
        deployment.partition_table(
            "t1", "a", by_db, scheme=scheme, bounds=bounds
        )
        if spec.get("co_partition"):
            deployment.partition_table(
                "t2", "a", by_db, scheme=scheme, bounds=bounds
            )
    return deployment


def check_partition(spec: Dict[str, object]) -> List[str]:
    """Partitioned vs unpartitioned execution of the same query."""
    qspec = dict(spec["query"])
    select = query_statement(qspec)
    sql = dialect_for("postgres").render(select)
    # LIMIT without ORDER BY leaves *which* rows implementation-defined
    # (and partitioning legitimately changes arrival order).
    compare_rows = not (
        qspec.get("limit") is not None and not qspec.get("order")
    )
    try:
        plain = XDB(_parity_deployment(spec, False)).submit(sql)
    except Exception as exc:
        return [f"unpartitioned baseline failed: {exc!r} for {sql!r}"]
    try:
        sharded = XDB(_parity_deployment(spec, True)).submit(sql)
    except Exception as exc:
        return [
            f"partitioned execution failed "
            f"({spec['scheme']}/{spec['partitions']}): {exc!r} "
            f"for {sql!r}"
        ]
    plain_c = _canonical(plain.result.rows)
    sharded_c = _canonical(sharded.result.rows)
    if len(plain_c) != len(sharded_c):
        return [
            f"partition parity cardinality mismatch "
            f"({spec['scheme']}/{spec['partitions']}): {len(plain_c)} "
            f"unpartitioned vs {len(sharded_c)} rows for {sql!r}"
        ]
    if compare_rows and plain_c != sharded_c:
        return [
            f"partition parity mismatch "
            f"({spec['scheme']}/{spec['partitions']}, "
            f"co_partition={spec.get('co_partition')}): rows differ "
            f"for {sql!r}"
        ]
    return []


# -- partial-result parity ---------------------------------------------------


def check_partial(spec: Dict[str, object]) -> List[str]:
    """Policy-bounded partial answers vs the fault-free oracle.

    One shard of the partitioned fuzz deployment dies (shard-scoped
    outage, no replica); an ``allow_partial`` submission must then:

    * return a row-*multiset subset* of the fault-free oracle's rows —
      a partial answer may drop rows, never invent or duplicate them;
    * report ``completeness`` in ``(0, 1]`` that is exactly the
      row-weighted surviving fraction implied by its own
      ``missing_partitions`` (and no lower than the policy's floor);
    * quarantine only the struck holder — the engine-level breaker
      stays closed.

    Specs must not use LIMIT (it changes *which* rows survive, so the
    subset comparison would be vacuous).
    """
    from collections import Counter

    from repro.core.partition import partition_completeness, partition_name
    from repro.faults import EngineOutage, FaultInjector, FaultPolicy
    from repro.qos import QoSPolicy

    qspec = dict(spec["query"])
    if qspec.get("limit") is not None:
        return ["partial specs must not carry LIMIT"]
    select = query_statement(qspec)
    sql = dialect_for("postgres").render(select)
    count = int(spec["partitions"])
    by_db = [f"p{index % 4 + 1}" for index in range(count)]
    dead = int(spec["dead_shard"]) % count
    shard = partition_name("t1", dead)
    holder = by_db[dead]
    floor = float(spec.get("completeness_floor", 0.0))

    try:
        oracle = XDB(_parity_deployment(spec, True)).submit(sql)
    except Exception as exc:
        return [f"partial oracle baseline failed: {exc!r} for {sql!r}"]

    deployment = _parity_deployment(spec, True)
    xdb = XDB(deployment)
    try:
        xdb.warm_metadata()
        with FaultInjector(
            FaultPolicy(outages=(EngineOutage(db=holder, table=shard),))
        ).install(deployment):
            report = xdb.submit(
                sql,
                qos=QoSPolicy(
                    allow_partial=True, completeness_floor=floor
                ),
            )
    except Exception as exc:
        return [
            f"partial submission failed ({holder}/{shard}): {exc!r} "
            f"for {sql!r}"
        ]

    failures: List[str] = []
    recovery = report.recovery
    got = Counter(_canonical(report.result.rows))
    want = Counter(_canonical(oracle.result.rows))
    extra = got - want
    if extra:
        failures.append(
            f"partial answer is not a subset of the fault-free oracle: "
            f"{sum(extra.values())} extra rows for {sql!r}"
        )
    if not recovery.partial:
        failures.append(
            f"partial degrade never engaged under a dead shard "
            f"({holder}/{shard}) for {sql!r}"
        )
        return failures
    if not recovery.missing_partitions:
        failures.append(
            f"partial answer reports no missing partitions for {sql!r}"
        )
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


# -- feedback parity ---------------------------------------------------------


def check_feedback(spec: Dict[str, object]) -> List[str]:
    """Warmed feedback store vs a feedback-free oracle client.

    The spec carries a cross-database ``query`` over the two-engine
    drift deployment, a ``skew`` that misleads the warmed client's
    statistics (``override_stats`` on the remote table), and the
    optional ``movement_policy`` / ``adaptivity_threshold`` knobs that
    arm mid-query adaptation.  Whatever plans the Q-Error loop picks —
    cold under skewed stats, adapted mid-query, or replanned off the
    warmed store — every submission must return exactly the oracle's
    rows.
    """
    from repro.feedback.store import FeedbackStore

    sql = str(spec["query"])
    profile = str(spec.get("remote_profile", "postgres"))
    movement = str(spec.get("movement_policy", "cost"))
    threshold = spec.get("adaptivity_threshold")
    skew = dict(spec.get("skew") or {})

    try:
        oracle = XDB(
            _drift_deployment(profile), movement_policy=movement
        ).submit(sql)
    except Exception as exc:
        return [f"feedback oracle baseline failed: {exc!r} for {sql!r}"]
    expected = _canonical(oracle.result.rows)

    deployment = _drift_deployment(profile)
    xdb = XDB(
        deployment,
        movement_policy=movement,
        feedback=FeedbackStore(),
        adaptivity_threshold=(
            float(threshold) if threshold is not None else None
        ),
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
    except Exception as exc:
        return [
            f"cold feedback submission failed under skew {skew}: "
            f"{exc!r} for {sql!r}"
        ]
    if _canonical(cold.result.rows) != expected:
        return [
            f"feedback parity mismatch on the cold run "
            f"(skew={skew}, adapted={cold.recovery.adaptations}): "
            f"{len(cold.result.rows)} rows vs {len(expected)} oracle "
            f"rows for {sql!r}"
        ]
    try:
        warm = xdb.submit(sql)
    except Exception as exc:
        return [
            f"warmed feedback submission failed: {exc!r} for {sql!r}"
        ]
    if _canonical(warm.result.rows) != expected:
        return [
            f"feedback parity mismatch on the warmed run "
            f"({len(xdb.feedback)} learned entries): "
            f"{len(warm.result.rows)} rows vs {len(expected)} oracle "
            f"rows for {sql!r}"
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


def memo_failures(databases) -> List[str]:
    """Invariant 8 on live engines: every memo entry that would still
    be served, against a plan and estimate made from scratch — and the
    operators both lower to, since a plan carries the estimates its
    hash joins' build sides are chosen from.

    Engines are judged one by one, so the fresh plan of an engine may
    consult the memo of the engine below it — whose entries are judged
    by the same loop."""
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
                served = database.planner.to_physical(entry.plan).pretty()
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
    return failures


def check_memo(spec: Dict[str, object]) -> List[str]:
    """Plan-memo parity across a scripted sequence of steps.

    ``steps`` are ``["explain" | "query" | "sql", db, text]`` — plan,
    run, or execute DDL / INSERT on one engine — and ``["drift", db,
    {SchemaDrift fields}]``.  A step the engines refuse (a query over a
    drifted-away column, say) is part of the script, not a finding;
    :func:`memo_failures` is checked after every step.
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
                database.execute(payload)
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
