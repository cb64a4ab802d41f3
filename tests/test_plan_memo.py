"""The plan memos: the member engines' local-plan memo
(``Database._planned``) and the middleware's (``PlanPipeline.plan``).

One engine entry per statement and catalog version, shared by
``execute_select`` and ``explain_select``; an entry's stamp names every
engine catalog the plan read, transitively through foreign tables, and
any change to one of them forces a re-plan.  One middleware entry per
submitted SQL text, served while nothing its planning read has changed.
These tests reach into ``_memo`` — the program itself has no switch
that bypasses or sizes either.
"""

import datetime
import gc
import os
import random
import re
from collections import Counter
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import build_tpch_deployment
from repro.core import pipeline as pipeline_module
from repro.core.client import XDB
from repro.drift.ledger import LedgerEntry
from repro.drift.mutate import apply_drift
from repro.engine.database import Database
from repro.engine.fdw import RemoteServer
from repro.engine.stats import (
    REANALYZE_FRACTION,
    ColumnStats,
    TableStats,
    compute_stats,
)
from repro.errors import (
    EngineUnavailableError,
    OptimizerError,
    OverloadError,
    ReproError,
)
from repro.faults import FaultInjector, FaultPolicy
from repro.faults.policy import SchemaDrift
from repro.federation.deployment import Deployment
from repro.feedback.store import FeedbackStore, Observation
from repro.fuzz.oracle import chain_deployment, memo_failures
from repro.net.network import TransferRecord
from repro.qos import GateConfig, QoSPolicy
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import DOUBLE, INTEGER, varchar
from repro.workloads.tpch import TABLE_NAMES, generate, query

from conftest import assert_same_rows


def make_chain():
    """The fuzz oracle's chain, ``A.v_a -> A.ft_b => B.v_b -> B.ft_c =>
    C.t`` (``=>`` is a foreign hop) plus ``lt`` local to A, as (A, B, C)."""
    deployment = chain_deployment()
    return tuple(deployment.database(name) for name in "ABC")


JOIN = parse_statement("SELECT v_a.c, lt.b FROM v_a, lt WHERE v_a.a = lt.a")


# -- (i) one plan per statement and version --------------------------------


def test_repeated_remote_estimates_plan_the_view_once(optimize_calls):
    a, b, c = make_chain()
    server = a.server("B")
    first = server.remote_row_estimate("v_b")
    second = server.remote_row_estimate("v_b")
    assert first == second
    assert optimize_calls == {"B": 1}


def test_explain_then_execute_plan_once(optimize_calls):
    a, _, _ = make_chain()
    info = a.explain_select(JOIN)
    rows = a.execute_select(JOIN).rows
    assert optimize_calls["A"] == 1
    # ... and in the other order, on a fresh federation
    a2, _, _ = make_chain()
    optimize_calls.clear()
    assert_same_rows(a2.execute_select(JOIN).rows, rows)
    assert a2.explain_select(JOIN) == info
    assert optimize_calls["A"] == 1


def test_stamp_names_every_engine_below():
    a, b, c = make_chain()
    a.explain_select(JOIN)
    (entry,) = a._memo.values()
    assert {
        catalog.database_name: version
        for catalog, version in entry.stamp.items()
    } == {
        "A": a.catalog.version,
        "B": b.catalog.version,
        "C": c.catalog.version,
    }


# -- (ii) every invalidation source ----------------------------------------


def _create(a, b, c):
    a.execute("CREATE TABLE extra (x INTEGER)")


def _drop(a, b, c):
    a.execute("DROP TABLE lt2")


def _or_replace(a, b, c):
    a.execute("CREATE OR REPLACE VIEW v_a AS SELECT a, c FROM ft_b WHERE a > 20")


def _replace_with_other_rows(a, b, c):
    a.execute("CREATE OR REPLACE TABLE lt AS SELECT a, b FROM lt WHERE a > 10")


def _insert_local(a, b, c):
    a.execute(
        "INSERT INTO lt VALUES "
        + ", ".join(f"({i}, 'new')" for i in range(100, 160))
    )


def _insert_two_hops_below(a, b, c):
    c.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i % 40}, 1.5)" for i in range(300))
    )


def _drift_on_remote(a, b, c):
    apply_drift(
        c, SchemaDrift(db="C", table="t", kind="add_column", column="extra")
    )


def _register_server(a, b, c):
    a.register_server(
        "C", RemoteServer("C", c, a.server("B").network, "A", "C")
    )


@pytest.mark.parametrize(
    "mutate",
    [
        _create,
        _drop,
        _or_replace,
        _replace_with_other_rows,
        _insert_local,
        _insert_two_hops_below,
        _drift_on_remote,
        _register_server,
    ],
)
def test_invalidation_source_forces_a_cold_equal_replan(
    mutate, optimize_calls
):
    def federation():
        a, b, c = make_chain()
        a.create_table("lt2", Schema([Field("x", INTEGER)]), [(1,)])
        return a, b, c

    warm = federation()
    before = warm[0].explain_select(JOIN)
    assert warm[0].explain_select(JOIN) is before  # served from the memo
    planned = optimize_calls["A"]
    mutate(*warm)
    after = warm[0].explain_select(JOIN)
    # a replace also plans its own defining query on A
    assert optimize_calls["A"] == planned + 1 + (mutate is _replace_with_other_rows)

    cold = federation()
    mutate(*cold)
    expected = cold[0].explain_select(JOIN)
    assert after.plan_text == expected.plan_text
    assert after.estimated_rows == expected.estimated_rows
    assert after == expected
    assert_same_rows(
        warm[0].execute_select(JOIN).rows, cold[0].execute_select(JOIN).rows
    )


SNAP = "CREATE TABLE snap AS SELECT lt.a, lt.b, src.x FROM lt, src"
REFRESH = SNAP.replace("CREATE", "CREATE OR REPLACE")
SNAP_JOIN = parse_statement(
    "SELECT v_a.c, snap.b, snap.x FROM v_a, snap WHERE v_a.a = snap.a"
)


def _unchanged(a):
    pass


def _retype_values(a):
    # rows that compare equal to the snapshot's, with a float for its int
    a.execute("DROP TABLE src")
    a.execute("CREATE TABLE src (x DOUBLE)")
    a.execute("INSERT INTO src VALUES (1.0)")


@pytest.mark.parametrize(
    "change, kept",
    [(_unchanged, True), (_retype_values, False)],
    ids=["same-rows", "value-type"],
)
def test_a_refresh_keeps_its_table_only_for_the_same_rows(
    change, kept, optimize_calls
):
    def federation():
        a, _, _ = make_chain()
        a.execute("CREATE TABLE src (x DOUBLE)")
        a.execute("INSERT INTO src VALUES (1)")  # an int in a DOUBLE column
        a.execute(SNAP)
        return a

    warm = federation()
    info = warm.explain_select(SNAP_JOIN)
    warm.execute_select(SNAP_JOIN)
    table = warm.catalog.get("snap")
    (entry,) = warm._memo.values()
    change(warm)
    version = warm.catalog.version
    warm.execute(REFRESH)
    assert (warm.catalog.get("snap") is table) == kept
    assert (warm.catalog.version == version) == kept
    planned = optimize_calls["A"]  # the refresh planned its defining query
    served = warm.explain_select(SNAP_JOIN)
    assert (served is info) == kept
    assert (warm._memo[warm.dialect.render(SNAP_JOIN)] is entry) == kept
    assert optimize_calls["A"] == planned + (0 if kept else 1)
    rows = warm.execute_select(SNAP_JOIN).rows
    assert {type(row[2]) for row in rows} == {int if kept else float}

    cold = federation()
    change(cold)
    cold.execute(REFRESH)
    assert served == cold.explain_select(SNAP_JOIN)
    want = cold.execute_select(SNAP_JOIN).rows
    assert sorted(map(repr, rows)) == sorted(map(repr, want))


def test_estimate_moves_with_rows_two_hops_below():
    a, b, c = make_chain()
    everything = parse_statement("SELECT * FROM v_a")
    before = a.explain_select(everything).estimated_rows
    _insert_two_hops_below(a, b, c)
    assert a.explain_select(everything).estimated_rows > before


# -- (iii) literals of different type never share an entry -----------------


def test_literal_types_get_their_own_entries():
    _, _, c = make_chain()
    variants = [
        parse_statement(f"SELECT a, {literal} AS k FROM t WHERE a = 1")
        for literal in ("1", "1.0", "TRUE")
    ]
    # the premise: frozen-dataclass ASTs cannot tell these apart
    assert variants[0] == variants[1] == variants[2]
    assert len({hash(v) for v in variants}) == 1
    kinds = []
    for statement in variants:
        c.explain_select(statement)
        result = c.execute_select(statement)
        kinds.append((str(result.schema[1].type), type(result.rows[0][1])))
    assert len(c._memo) == 3
    assert kinds == [("INTEGER", int), ("DOUBLE", float), ("BOOLEAN", bool)]


# -- (iv) parity with a federation that never reuses a plan ----------------

TPCH_QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")


def _run_tpch(td: str, forget: bool):
    deployment, _ = build_tpch_deployment(td, 0.001)
    engines = list(deployment.databases.values())
    original = Database._planned

    def planned_cold(self, select, explain=False):
        for engine in engines:
            engine._memo.clear()
        return original(self, select, explain)

    xdb = XDB(deployment)
    out = []
    with pytest.MonkeyPatch.context() as patch:
        if forget:
            patch.setattr(Database, "_planned", planned_cold)
        for name in TPCH_QUERIES:
            report = xdb.submit(query(name))
            out.append(
                (
                    report.result.rows,
                    report.schedule.total_seconds,
                    [
                        (t.src, t.dst, t.payload_bytes, t.rows, t.tag, t.seconds)
                        for t in report.context.transfers
                    ],
                )
            )
    return out


@pytest.mark.parametrize("td", ["TD1", "TD3"])
def test_memo_changes_no_answer_schedule_or_transfer(td):
    memoized = _run_tpch(td, False)
    cold = _run_tpch(td, True)
    for name, got, want in zip(TPCH_QUERIES, memoized, cold):
        assert got[0] == want[0], name
        assert got[1] == want[1], name
        assert got[2] == want[2], name


# -- (v) nothing per-query is retained -------------------------------------


def _census():
    gc.collect()
    counts = Counter()
    for obj in gc.get_objects():
        if type(obj) is LedgerEntry:
            counts["ledger"] += 1
        elif type(obj) is TransferRecord:
            counts["transfers"] += 1
    return counts


def _delegated_epochs(deployment: Deployment) -> set:
    """Epochs of the ``xf_/xm_/xv_`` objects the engines hold."""
    return {
        int(match)
        for database in deployment.databases.values()
        for name in database.catalog.names()
        for match in re.findall(r"^x[fmv]_(\d+)_", name)
    }


def test_a_submit_leaves_nothing_behind():
    deployment, _ = build_tpch_deployment("TD3", 0.001)
    xdb = XDB(deployment)
    names = [TPCH_QUERIES[i % len(TPCH_QUERIES)] for i in range(20)]
    # two passes over the six queries: the first plans each, the second
    # deploys each plan again and keeps the cascade, and together they
    # use every (link, tag) a control message can have here; from then
    # on every submission runs on a kept cascade and nothing new may be
    # retained: a transfer lives only as long as the context it was
    # attributed to
    for name in names[:12]:
        xdb.submit(query(name))
    early = _census()
    for name in names[12:]:
        xdb.submit(query(name))
    late = _census()
    assert late["ledger"] <= early["ledger"]
    assert late["transfers"] <= early["transfers"]
    assert xdb.ledger.leaked_count() == 0
    # an epoch per first submission and one per kept cascade
    assert xdb.ledger.max_epoch() == 12
    live = xdb.ledger.live_epochs()
    assert len(live) == len(TPCH_QUERIES)
    # the engines hold the kept cascades and nothing else
    assert _delegated_epochs(deployment) == live

    for engine in deployment.databases.values():
        # entries only for the kept cascades' objects, all of this
        # catalog generation
        epochs = {
            int(match)
            for key in engine._memo
            for match in re.findall(r"x[fmv]_(\d+)_", key)
        }
        assert epochs <= live, (engine.name, sorted(engine._memo))
        for entry in engine._memo.values():
            assert entry.stamp[engine.catalog] == engine._memo_version

    xdb.close()
    assert _delegated_epochs(deployment) == set()
    assert xdb.ledger.live_epochs() == set()
    assert xdb.ledger.leaked_count() == 0


# -- (vi) threads ----------------------------------------------------------


def test_partitioned_submits_never_serve_a_stale_stamp(monkeypatch):
    """4 shards, 2 simulated task slots: CTAS and DROP bump versions
    between the plans the gather's branches ask for.  No DDL runs
    *while* a branch plans, so a served entry must still be current on
    return."""
    served = []
    original = Database._planned

    def checking(self, select, explain=False):
        entry = original(self, select, explain)
        served.append(
            entry.stamp.is_current()
            and entry.stamp[self.catalog] == self.catalog.version
        )
        return entry

    monkeypatch.setattr(Database, "_planned", checking)

    def deployment(partitioned: bool) -> Deployment:
        dep = Deployment(
            {f"p{i}": "postgres" for i in range(1, 5)},
            parallel_workers=2 if partitioned else 1,
        )
        dep.load_table(
            "p1",
            "facts",
            Schema([Field("k", INTEGER), Field("v", DOUBLE)]),
            [(i, float(i % 13)) for i in range(400)],
        )
        dep.load_table(
            "p2",
            "dims",
            Schema([Field("k", INTEGER), Field("name", varchar(8))]),
            [(i, f"d{i % 5}") for i in range(0, 400, 3)],
        )
        if partitioned:
            by_db = ["p1", "p2", "p3", "p4"]
            dep.partition_table("facts", "k", by_db)
        return dep

    sql = (
        "SELECT dims.name, SUM(facts.v) AS total FROM facts, dims "
        "WHERE facts.k = dims.k GROUP BY dims.name"
    )
    plain = XDB(deployment(False)).submit(sql).result.rows
    xdb = XDB(deployment(True), movement_policy="explicit")
    for _ in range(4):
        assert_same_rows(xdb.submit(sql).result.rows, plain)
    assert served and all(served)


def test_concurrent_writers_never_make_an_estimate_go_back():
    """Rows only ever arrive and statistics are snapshots of them, so
    what one reader is told never shrinks; and ``published`` is raised
    only after an INSERT has returned, so an estimate further below the
    value read *before* asking than a snapshot may lag (a tenth of
    itself, plus the batch that takes it past that) can only come from
    an entry served past its version.  One writer and five readers take
    turns in a seeded order."""
    a, b, c = make_chain()
    everything = parse_statement("SELECT * FROM v_a")
    published = len(c.catalog.get("t").rows)
    largest_batch = 3
    rng = random.Random(5)
    last = [0.0] * 5

    def lags_too_far(estimate: float, rows: int) -> bool:
        return estimate < rows / (1 + REANALYZE_FRACTION) - largest_batch

    for _ in range(240):
        reader = rng.randrange(6)
        if reader == 5:
            batch = rng.randrange(1, largest_batch + 1)
            c.execute(
                "INSERT INTO t VALUES "
                + ", ".join("(1, 1.0)" for _ in range(batch))
            )
            published = len(c.catalog.get("t").rows)
            # CTAS on the middle engine: bumps B between A's plans
            b.execute("CREATE OR REPLACE TABLE snap AS SELECT a FROM ft_c")
            continue
        rows = a.explain_select(everything).estimated_rows
        assert not lags_too_far(rows, published), (rows, published)
        assert rows >= last[reader], (rows, last[reader])
        last[reader] = rows
    settled = a.explain_select(everything).estimated_rows
    assert settled <= published
    assert not lags_too_far(settled, published)


# -- (vii) compute_stats against the implementation it replaced ------------


def _reference_value_width(value: object) -> float:
    if value is None:
        return 1.0
    if isinstance(value, str):
        return float(len(value))
    if isinstance(value, (int, bool)):
        return 4.0
    return 8.0


def _reference_orderable(values: Sequence[object]) -> bool:
    return all(
        isinstance(value, (int, float, str, datetime.date))
        and not isinstance(value, bool)
        for value in values
    ) and (
        len({type(v) is str for v in values}) <= 1
        and len({isinstance(v, datetime.date) for v in values}) <= 1
        and len({isinstance(v, datetime.datetime) for v in values}) <= 1
    )


def reference_compute_stats(schema, rows, sample_size=20_000) -> TableStats:
    """``compute_stats`` as it was before the one-pass rewrite: the
    same seeded sample, every value visited through Python calls."""
    row_count = len(rows)
    if row_count > sample_size:
        rng = random.Random(0xA11A5)
        sample = [rows[i] for i in rng.sample(range(row_count), sample_size)]
        scale = row_count / len(sample)
    else:
        sample = rows
        scale = 1.0
    columns = {}
    for index, field in enumerate(schema):
        non_null = [row[index] for row in sample if row[index] is not None]
        null_count = int((len(sample) - len(non_null)) * scale)
        distinct = len(set(non_null))
        if scale > 1.0 and non_null:
            if distinct >= 0.85 * len(non_null):
                ndv = int(distinct * scale)
            else:
                ndv = distinct
        else:
            ndv = distinct
        if non_null and _reference_orderable(non_null):
            min_value: Optional[object] = min(non_null)
            max_value: Optional[object] = max(non_null)
        else:
            min_value = max_value = None
        avg_width = (
            sum(_reference_value_width(v) for v in non_null) / len(non_null)
            if non_null
            else float(field.type.byte_width())
        )
        columns[field.name.lower()] = ColumnStats(
            ndv=ndv,
            null_count=null_count,
            min_value=min_value,
            max_value=max_value,
            avg_width=avg_width,
        )
    return TableStats(row_count=row_count, columns=columns)


def test_compute_stats_matches_reference_on_tpch():
    data = generate(0.01, 19921)
    assert len(data.tables["lineitem"][1]) > 20_000  # the sampled path
    for table in TABLE_NAMES:
        schema, rows = data.tables[table]
        rows = list(rows)
        assert compute_stats(schema, rows) == reference_compute_stats(
            schema, rows
        ), table


def test_compute_stats_matches_reference_when_sampling():
    schema = Schema(
        [Field("k", INTEGER), Field("g", varchar(4)), Field("x", DOUBLE)]
    )
    rows = [
        (i, None if i % 11 == 0 else f"g{i % 17}", (i * 7 % 100) / 4.0)
        for i in range(900)
    ]
    for sample_size in (100, 899, 900):
        assert compute_stats(schema, rows, sample_size) == (
            reference_compute_stats(schema, rows, sample_size)
        )


def test_compute_stats_still_raises_on_a_short_row():
    schema = Schema([Field("a", INTEGER), Field("b", INTEGER)])
    with pytest.raises(IndexError):
        compute_stats(schema, [(1, 2), (3,)])


class _Text(str):
    """A value type outside the plain set: takes the per-value route."""


_DATES = st.dates(
    min_value=datetime.date(1990, 1, 1), max_value=datetime.date(2030, 1, 1)
)
_DATETIMES = st.datetimes(
    min_value=datetime.datetime(1990, 1, 1),
    max_value=datetime.datetime(2030, 1, 1),
)
_VALUE_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-50, 50),
    "float": st.floats(-50, 50, allow_nan=False),
    "str": st.text(alphabet="abc", max_size=4),
    "date": _DATES,
    "datetime": _DATETIMES,
    "subclass": st.text(alphabet="ab", max_size=3).map(_Text),
}


@st.composite
def _columns(draw):
    """A column drawn from a random mix of value kinds (so NULLs, int +
    float, date + datetime, ... all meet in one column)."""
    kinds = draw(
        st.lists(
            st.sampled_from(sorted(_VALUE_KINDS)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    values = st.one_of(*[_VALUE_KINDS[kind] for kind in kinds])
    return draw(st.lists(values, max_size=30))


@settings(max_examples=200, deadline=None)
@given(column=_columns(), other=_columns())
def test_compute_stats_matches_reference_on_mixed_columns(column, other):
    schema = Schema([Field("x", INTEGER), Field("y", varchar(5))])
    size = min(len(column), len(other))
    rows = list(zip(column[:size], other[:size]))
    for sample_size in (20_000, 7):
        try:
            expected = reference_compute_stats(schema, rows, sample_size)
        except TypeError:
            # unhashable / unorderable mixes fail the same way in both
            with pytest.raises(TypeError):
                compute_stats(schema, rows, sample_size)
        else:
            assert compute_stats(schema, rows, sample_size) == expected


# -- (viii) the middleware plan memo (``PlanPipeline._memo``) --------------


def _reused(ctx) -> bool:
    return bool(ctx.root.subtree_events("plan-reused"))


def _cascade_reused(ctx) -> bool:
    return bool(ctx.root.subtree_events("cascade-reused"))


def _epochless(text: str) -> str:
    return re.sub(r"\b(x[fmv])_\d+_", r"\1_", text)


def _run(report, skip=("consult",)):
    """What one run did, without its planning and its epoch: rows,
    plan, delegated statements, schedule, and every transfer of its
    phases but those tagged ``skip`` (by default the consultations).
    A cleanup's drops run outside the phases: a run that keeps its
    cascade has none."""
    return (
        report.result.rows,
        report.plan.describe(),
        [(db, _epochless(sql)) for db, sql in report.deployed.ddl_log],
        report.schedule.total_seconds,
        [
            (t.src, t.dst, t.payload_bytes, t.rows, _epochless(t.tag), t.seconds)
            for span in report.context.root.children
            if span.kind == "phase"
            for t in span.subtree_records()
            if t.tag not in skip
        ],
    )


def _client(deployment: Deployment, **kwargs) -> XDB:
    xdb = XDB(deployment, **kwargs)
    xdb.warm_metadata()
    return xdb


@pytest.mark.parametrize("td", ["TD1", "TD3"])
def test_a_reused_plan_runs_as_a_cold_one(td):
    deployment, _ = build_tpch_deployment(td, 0.002)
    xdb = _client(deployment)
    for name in TPCH_QUERIES:
        sql = query(name)
        assert not _reused(xdb.submit(sql).context), name
        again = xdb.submit(sql)
        cold = _client(deployment).submit(sql)
        assert _reused(again.context) and not _reused(cold.context), name
        assert _run(again) == _run(cold), name
    assert len(xdb.pipeline._memo) == len(TPCH_QUERIES)
    assert memo_failures([], [xdb]) == []


def test_a_reused_plan_skips_lopt_and_ann():
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    sql = query("Q3")
    cold = xdb.submit(sql)
    again = xdb.submit(sql)
    phases = {s.name: s for s in again.context.root.children if s.kind == "phase"}
    assert "lopt" not in phases and "ann" not in phases
    assert [e.name for e in phases["prep"].events] == ["plan-reused"]
    steps = {s.name for s in again.context.root.iter_spans() if s.kind == "step"}
    assert not steps & {"parse", "optimize", "annotate", "finalize"}
    assert cold.consultations > 0
    assert again.annotation is None and again.consultations == 0
    assert again.phases["lopt"] == again.phases["ann"] == 0.0
    assert not [t for t in again.context.transfers if t.tag == "consult"]
    # the same DDL, under the reuse's own epoch
    assert len(again.deployed.ddl_log) == len(cold.deployed.ddl_log)
    assert again.deployed.epoch == cold.deployed.epoch + 1


def _changed_correction(xdb, deployment):
    entry = xdb.feedback.entries()[0]
    xdb.feedback.observe(
        Observation(
            entry.fingerprint, entry.kind, "join", entry.tables,
            entry.estimated_rows, entry.actual_rows * 2 + 1,
        )
    )


#: (what changes, how) — each moves an input planning read, so the next
#: submission plans cold.  Q3 on TD1 scans db1 and db2; db3 / db4 and
#: the part table are off its plan.
MISSES = {
    "invalidate_metadata": lambda xdb, dep: xdb.invalidate_metadata(),
    "warm_metadata": lambda xdb, dep: xdb.warm_metadata(),
    "drift_reintrospection": lambda xdb, dep: xdb.catalog.reintrospect(
        "db2", "orders"
    ),
    "quarantine": lambda xdb, dep: xdb.catalog.quarantine(
        "db4", "part", "unreconcilable schema drift"
    ),
    "override_stats": lambda xdb, dep: xdb.catalog.override_stats(
        "db2", "orders", 10
    ),
    "degrade_link": lambda xdb, dep: dep.network.degrade_link(
        "db3", "db4", latency_factor=3.0
    ),
    "partition_link": lambda xdb, dep: dep.network.partition_link(
        "db3", "db4"
    ),
    "forbid_link": lambda xdb, dep: dep.network.forbid_link("db3", "db4"),
    "feedback_correction": _changed_correction,
    "report_outage": lambda xdb, dep: dep.health.report_outage("db1"),
    "fault_injector": lambda xdb, dep: FaultInjector(FaultPolicy()).install(
        dep
    ),
    "partition_table": lambda xdb, dep: dep.partition_table(
        "part", "p_partkey", ["db3", "db4"]
    ),
}


def _memoized_q3():
    """A TD1 client with a feedback store whose next Q3 is a reuse."""
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment, feedback=FeedbackStore())
    sql = query("Q3")
    # the first run teaches the store, the second plans on what it
    # learned and is stored, the third reuses it
    assert [_reused(xdb.submit(sql).context) for _ in range(3)] == [False, False, True]
    return deployment, xdb, sql


def _submit_context(xdb, sql):
    try:
        return xdb.submit(sql).context
    except ReproError as exc:  # an outage the cold plan cannot route around
        return exc.context


@pytest.mark.parametrize("change", sorted(MISSES))
def test_every_planning_input_forces_a_cold_plan(change):
    deployment, xdb, sql = _memoized_q3()
    MISSES[change](xdb, deployment)
    assert memo_failures([], [xdb]) == []
    ctx = _submit_context(xdb, sql)
    assert not _reused(ctx)
    assert ctx.root.find_all(name="ann", kind="phase")


def test_an_unchanged_correction_keeps_the_plan():
    deployment, xdb, sql = _memoized_q3()
    version = xdb.feedback.version
    for entry in xdb.feedback.entries():
        xdb.feedback.observe(
            Observation(
                entry.fingerprint, entry.kind, "join", entry.tables,
                entry.estimated_rows + 1.0, entry.actual_rows,
            )
        )
    assert xdb.feedback.version == version
    assert memo_failures([], [xdb]) == []
    assert _reused(xdb.submit(sql).context)


#: the CI chaos job's fault seed
CHAOS_SEED = int(os.environ.get("XDB_FAULT_SEED", "11"))


def test_a_lookup_draws_nothing_from_the_fault_schedule():
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    injector = FaultInjector(
        FaultPolicy(seed=CHAOS_SEED, transient_error_rate=0.05)
    ).install(deployment)
    try:
        xdb = _client(deployment)
        sql = query("Q3")
        xdb.submit(sql)  # transient faults are retried, not repaired
        entry = xdb.pipeline._memo[sql]
        drawn = (dict(injector.calls_by_db), injector._rng.getstate())
        assert xdb.pipeline._serves(entry)
        assert (dict(injector.calls_by_db), injector._rng.getstate()) == drawn
        assert _reused(xdb.submit(sql).context)
    finally:
        injector.uninstall()


def test_a_reused_plan_that_meets_an_outage_is_evicted(monkeypatch):
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    sql = query("Q3")
    xdb.submit(sql)
    root = xdb.submit(sql).deployed.root_db

    def down(*args, **kwargs):
        raise EngineUnavailableError(f"{root} went down", db=root)

    monkeypatch.setattr(deployment.connector(root), "run_query", down)
    with pytest.raises(ReproError) as err:
        xdb.submit(sql)
    assert _reused(err.value.context)
    assert err.value.context.root.subtree_events("repair")
    assert sql not in xdb.pipeline._memo


def test_a_later_run_leaves_an_earlier_report_alone():
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    sql = query("Q3")
    first = xdb.submit(sql)
    described = first.plan.describe()
    moved = [(e.moved_rows, e.moved_bytes) for e in first.plan.edges]
    # Every order and lineitem twice over, behind the statistics' back:
    # the rerun moves more rows over whichever edge the plan has.
    for table in ("orders", "lineitem"):
        for database in deployment.databases.values():
            stored = database.catalog.get(table)
            if stored is not None:
                stored.rows.extend(list(stored.rows))
    second = xdb.submit(sql)
    assert _reused(second.context)
    assert second.plan.describe() != described
    assert first.plan.describe() == described
    assert [(e.moved_rows, e.moved_bytes) for e in first.plan.edges] == moved
    assert not set(map(id, first.plan.edges)) & set(map(id, second.plan.edges))
    # the third runs on the cascade the second kept, with edges of its own
    described_second = second.plan.describe()
    moved_second = [(e.moved_rows, e.moved_bytes) for e in second.plan.edges]
    for table in ("orders", "lineitem"):
        for database in deployment.databases.values():
            stored = database.catalog.get(table)
            if stored is not None:
                stored.rows.extend(list(stored.rows))
    third = xdb.submit(sql)
    assert _cascade_reused(third.context)
    assert third.deployed.plan is third.plan
    assert third.plan.describe() != described_second
    assert second.plan.describe() == described_second
    assert [
        (e.moved_rows, e.moved_bytes) for e in second.plan.edges
    ] == moved_second
    assert first.plan.describe() == described
    assert not set(map(id, second.plan.edges)) & set(map(id, third.plan.edges))


def test_a_later_execute_leaves_an_earlier_report_alone():
    """The prepared-handle twin of the test above: each execute runs on
    edges of its own, and its report keeps a cascade pointing at them."""
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    handle = xdb.prepare(query("Q3"))
    reports, kept = [], []
    for _ in range(3):
        reports.append(handle.execute())
        kept.append(
            (
                reports[-1].plan.describe(),
                [(e.moved_rows, e.moved_bytes) for e in reports[-1].plan.edges],
                reports[-1].deployed.plan,
            )
        )
        # every order and lineitem twice over: the next run moves more
        for table in ("orders", "lineitem"):
            for database in deployment.databases.values():
                stored = database.catalog.get(table)
                if stored is not None:
                    stored.rows.extend(list(stored.rows))
    for report, (described, moved, plan) in zip(reports, kept):
        assert report.plan.describe() == described
        assert [(e.moved_rows, e.moved_bytes) for e in report.plan.edges] == moved
        assert report.deployed.plan is plan is report.plan
        assert report.deployed.epoch == handle.deployed.epoch
    assert len({described for described, _, _ in kept}) == 3
    edges = [set(map(id, report.plan.edges)) for report in reports]
    assert not edges[0] & edges[1] and not edges[1] & edges[2]
    handle.close()


def test_the_memo_keeps_the_most_recently_served_plans(monkeypatch):
    monkeypatch.setattr(pipeline_module, "PLAN_MEMO_SIZE", 2)
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    q3, q5, q10 = (query(name) for name in ("Q3", "Q5", "Q10"))
    xdb.submit(q3)
    xdb.submit(q5)
    assert _reused(xdb.submit(q3).context)  # now the most recently served
    xdb.submit(q10)  # evicts q5
    assert list(xdb.pipeline._memo) == [q3, q10]
    assert not _reused(xdb.submit(q5).context)
    assert list(xdb.pipeline._memo) == [q10, q5]
    assert _reused(xdb.submit(q10).context)


# -- (ix) retained cascades ------------------------------------------------

#: the delegation control messages (CREATE, CTAS refresh, DROP)
_NO_DDL = ("consult", "delegation")


def _held(deployment: Deployment, epoch: int) -> list:
    """(db, name) of every delegated object of ``epoch`` on an engine."""
    return sorted(
        (db, name)
        for db, database in deployment.databases.items()
        for name in database.catalog.names()
        if re.fullmatch(rf"x[fmv]_{epoch}_\d+", name)
    )


def _kept_epoch(xdb: XDB, sql: str) -> int:
    cascade = xdb.pipeline._memo[sql].cascade
    assert cascade is not None
    return cascade.deployed.epoch


@pytest.mark.parametrize("td", ["TD1", "TD3"])
def test_a_kept_cascade_answers_as_a_cold_client(td):
    deployment, _ = build_tpch_deployment(td, 0.002)
    xdb = _client(deployment)
    for name in TPCH_QUERIES:
        sql = query(name)
        _, second, third = (xdb.submit(sql) for _ in range(3))
        assert not _cascade_reused(second.context), name
        assert _cascade_reused(third.context), name
        assert second.deployed.epoch == third.deployed.epoch == _kept_epoch(
            xdb, sql
        )
        # the cascade runs only on engines the entry's serving checks
        entry = xdb.pipeline._memo[sql]
        assert set(entry.dplan.annotations()) <= set(entry.engines), name
        assert not third.context.root.subtree_events("ddl"), name
        assert third.consultations == 0 and third.annotation is None
        phases = [s.name for s in third.context.root.children]
        assert phases == ["prep", "exec"], name
        steps = {s.name for s in third.context.root.iter_spans()}
        assert not steps & {"parse", "optimize", "annotate", "delegate"}
        cold = _client(deployment).submit(sql)
        assert _run(third, _NO_DDL) == _run(cold, _NO_DDL), name
    assert memo_failures([], [xdb]) == []
    xdb.close()
    assert _delegated_epochs(deployment) == set()


def _users_and_events() -> Deployment:
    deployment = Deployment({"A": "postgres", "B": "postgres"})
    deployment.load_table(
        "A",
        "users",
        Schema([Field("id", INTEGER), Field("name", varchar(8))]),
        [(i, f"u{i % 7}") for i in range(40)],
    )
    deployment.load_table(
        "B",
        "events",
        Schema([Field("user_id", INTEGER), Field("w", DOUBLE)]),
        [(i % 50, float(i % 9)) for i in range(300)],
    )
    return deployment


USERS_EVENTS = (
    "SELECT u.name, COUNT(*) AS n, SUM(e.w) AS w FROM users u, events e "
    "WHERE u.id = e.user_id GROUP BY u.name"
)


@pytest.mark.parametrize("movement", ["cost", "explicit"])
def test_a_kept_cascade_reads_rows_inserted_since(movement):
    deployment = _users_and_events()
    xdb = _client(deployment, movement_policy=movement)
    xdb.submit(USERS_EVENTS)
    kept = xdb.submit(USERS_EVENTS)
    assert bool(kept.deployed.materializations) == (movement == "explicit")
    for batch in range(3):
        deployment.database("B").execute(
            "INSERT INTO events VALUES "
            + ", ".join(f"({40 + batch + i}, {i}.5)" for i in range(6))
        )
        deployment.database("A").execute(
            f"INSERT INTO users VALUES ({40 + batch}, 'new{batch}')"
        )
        report = xdb.submit(USERS_EVENTS)
        assert _cascade_reused(report.context)
        refreshed = report.context.root.find_all(name="refresh", kind="step")
        assert len(refreshed) == 1
        cold = _client(deployment, movement_policy=movement).submit(
            USERS_EVENTS
        )
        assert_same_rows(report.result.rows, cold.result.rows)
        assert any(name.startswith(f"new{batch}") for name, *_ in report.result.rows)
    assert memo_failures([], [xdb]) == []


def test_an_open_breaker_releases_the_cascade_before_the_run():
    deployment = _users_and_events()
    xdb = _client(deployment)
    xdb.submit(USERS_EVENTS)
    xdb.submit(USERS_EVENTS)
    epoch = _kept_epoch(xdb, USERS_EVENTS)
    held = _held(deployment, epoch)
    assert {db for db, _ in held} == {"A", "B"}
    deployment.health.report_outage("B")
    ctx = _submit_context(xdb, USERS_EVENTS)
    assert not _cascade_reused(ctx)
    assert not xdb.ledger.is_live(epoch)
    # A's objects are dropped; B's, behind the open breaker, are owed
    assert _held(deployment, epoch) == [o for o in held if o[0] == "B"]
    assert {(e.db, e.name) for e in xdb.ledger.leaked_entries()} == {
        o for o in held if o[0] == "B"
    }
    # the deferred sweep pays them down once B is back
    deployment.health.record_success("B")
    xdb.submit(USERS_EVENTS)
    assert _held(deployment, epoch) == []
    assert xdb.ledger.leaked_count() == 0


def _kept_and_blocked():
    """A client keeping USERS_EVENTS's cascade, and a gate holder on
    the one cascade engine that is not the cascade's root."""
    deployment = _users_and_events()
    deployment.configure_qos(GateConfig(max_concurrent=1, max_queue=0))
    xdb = _client(deployment)
    xdb.submit(USERS_EVENTS)
    xdb.submit(USERS_EVENTS)
    cascade = xdb.pipeline._memo[USERS_EVENTS].cascade
    (other,) = set(cascade.dplan.annotations()) - {cascade.deployed.root_db}
    blocker = deployment.workload_gate.acquire([other], at=xdb.clock.now())
    return deployment, xdb, cascade.deployed.epoch, blocker


def test_a_shed_run_hands_the_cascade_back():
    deployment, xdb, epoch, blocker = _kept_and_blocked()
    with pytest.raises(OverloadError) as err:
        xdb.submit(USERS_EVENTS)
    assert _cascade_reused(err.value.context)
    # the shed run held the cascade; the memo keeps it again, as a
    # prepared handle keeps its own
    assert _kept_epoch(xdb, USERS_EVENTS) == epoch
    assert xdb.ledger.is_live(epoch) and _held(deployment, epoch)
    blocker.release(xdb.clock.now())
    report = xdb.submit(USERS_EVENTS)
    assert _cascade_reused(report.context) and report.deployed.epoch == epoch


def test_a_stale_read_answers_from_the_cascade_then_drops_it():
    deployment, xdb, epoch, _ = _kept_and_blocked()
    report = xdb.submit(
        USERS_EVENTS, qos=QoSPolicy(max_staleness_seconds=1e6)
    )
    assert _cascade_reused(report.context)
    assert report.qos.stale_read and report.qos.stale_reason == "overload"
    assert report.deployed.epoch == epoch
    # the stale read evicted the entry, so the run cleaned up
    assert USERS_EVENTS not in xdb.pipeline._memo
    assert not xdb.ledger.is_live(epoch) and _held(deployment, epoch) == []


def test_an_lru_pop_releases_the_cascade(monkeypatch):
    monkeypatch.setattr(pipeline_module, "PLAN_MEMO_SIZE", 2)
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    q3, q5, q10 = (query(name) for name in ("Q3", "Q5", "Q10"))
    for sql in (q3, q3, q5, q5):
        xdb.submit(sql)
    epochs = {sql: _kept_epoch(xdb, sql) for sql in (q3, q5)}
    assert _delegated_epochs(deployment) == set(epochs.values())
    xdb.submit(q10)  # a miss: stored, and q3 goes
    assert list(xdb.pipeline._memo) == [q5, q10]
    assert _held(deployment, epochs[q3]) == []
    assert not xdb.ledger.is_live(epochs[q3])
    assert _delegated_epochs(deployment) == {epochs[q5]}
    assert _cascade_reused(xdb.submit(q5).context)
    xdb.close()
    assert _delegated_epochs(deployment) == set()
    assert xdb.ledger.leaked_count() == 0


def test_client_close_ends_every_kept_cascade():
    """``XDB.close()`` ends an open handle's cascade as it ends the
    memo's: nothing delegated is left, no epoch is live, and the handle
    is closed with it."""
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    handle = xdb.prepare(query("Q5"))
    handle.execute()
    sql = query("Q3")
    for _ in range(3):
        xdb.submit(sql)
    assert _kept_epoch(xdb, sql) != handle.deployed.epoch
    assert len(_delegated_epochs(deployment)) == 2
    xdb.close()
    xdb.reap()
    assert _delegated_epochs(deployment) == set()
    assert xdb.ledger.live_epochs() == set()
    assert xdb.ledger.leaked_count() == 0
    with pytest.raises(OptimizerError, match="closed"):
        handle.execute()
    handle.close()  # already closed: a no-op
    # the client stays usable, and its memo still serves the plan
    assert _reused(xdb.submit(sql).context)
    xdb.close()
    assert _delegated_epochs(deployment) == set()


@pytest.mark.parametrize("change", sorted(MISSES))
def test_every_planning_input_releases_the_cascade(change):
    deployment, xdb, sql = _memoized_q3()
    epoch = _kept_epoch(xdb, sql)
    held = _held(deployment, epoch)
    assert held
    MISSES[change](xdb, deployment)
    ctx = _submit_context(xdb, sql)
    assert not _cascade_reused(ctx)
    assert not xdb.ledger.is_live(epoch)
    # what an open breaker kept from being dropped is owed, not lost
    leaked = {(e.db, e.name) for e in xdb.ledger.leaked_entries()}
    assert set(_held(deployment, epoch)) == leaked & set(held)
    xdb.close()
    assert _held(deployment, epoch) == sorted(leaked & set(held))


def test_invariant_8_judges_a_kept_cascade():
    deployment, _ = build_tpch_deployment("TD1", 0.001)
    xdb = _client(deployment)
    sql = query("Q3")
    xdb.submit(sql)
    xdb.submit(sql)
    assert memo_failures([], [xdb]) == []
    # an object of the kept cascade dropped behind the client's back
    db, kind, name = xdb.pipeline._memo[sql].cascade.deployed.created_objects[0]
    deployment.database(db).execute(f"DROP {kind} {name}")
    (failure,) = memo_failures([], [xdb])
    assert "stale cascade" in failure and name in failure
