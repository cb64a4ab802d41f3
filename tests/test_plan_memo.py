"""The member engines' local-plan memo (``Database._planned``).

One entry per statement and catalog version, shared by
``execute_select`` and ``explain_select``; an entry's stamp names every
engine catalog the plan read, transitively through foreign tables, and
any change to one of them forces a re-plan.  These tests reach into
``_memo`` — the program itself has no switch that bypasses or sizes it.
"""

import datetime
import gc
import random
import re
import sys
import threading
from collections import Counter
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import build_tpch_deployment
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
from repro.faults.policy import SchemaDrift
from repro.federation.deployment import Deployment
from repro.fuzz.oracle import chain_deployment
from repro.net.network import TransferRecord
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
    assert optimize_calls["A"] == planned + 1

    cold = federation()
    mutate(*cold)
    expected = cold[0].explain_select(JOIN)
    assert after.plan_text == expected.plan_text
    assert after.estimated_rows == expected.estimated_rows
    assert after == expected
    assert_same_rows(
        warm[0].execute_select(JOIN).rows, cold[0].execute_select(JOIN).rows
    )


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


def test_a_submit_leaves_nothing_behind():
    deployment, _ = build_tpch_deployment("TD3", 0.001)
    xdb = XDB(deployment)
    names = [TPCH_QUERIES[i % len(TPCH_QUERIES)] for i in range(20)]
    # one pass over the six queries uses every (link, tag) a control
    # message can have here; from then on nothing new may be retained:
    # a transfer lives only as long as the context it was attributed to
    for name in names[:6]:
        xdb.submit(query(name))
    early = _census()
    for name in names[6:]:
        xdb.submit(query(name))
    late = _census()
    assert late["ledger"] <= early["ledger"]
    assert late["transfers"] <= early["transfers"]
    assert xdb.ledger.leaked_count() == 0
    assert xdb.ledger.max_epoch() == 20

    for engine in deployment.databases.values():
        # one generation of entries, all from the last query that
        # touched this engine
        epochs = {
            match
            for key in engine._memo
            for match in re.findall(r"x[fmv]_(\d+)_", key)
        }
        assert len(epochs) <= 1, (engine.name, sorted(engine._memo))
        for entry in engine._memo.values():
            assert entry.stamp[engine.catalog] == engine._memo_version


# -- (vi) threads ----------------------------------------------------------


def test_partitioned_submits_never_serve_a_stale_stamp(monkeypatch):
    """4 shards, 2 pool workers: CTAS and DROP bump versions between
    the plans the pool threads ask for.  No DDL runs *while* a pool
    thread plans, so a served entry must still be current on return."""
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
    an entry served past its version."""
    a, b, c = make_chain()
    everything = parse_statement("SELECT * FROM v_a")
    published = [len(c.catalog.get("t").rows)]
    largest_batch = 3
    stop = threading.Event()
    problems: List[str] = []

    def lags_too_far(estimate: float, rows: int) -> bool:
        return estimate < rows / (1 + REANALYZE_FRACTION) - largest_batch

    def writer():
        rng = random.Random(5)
        while not stop.is_set():
            batch = rng.randrange(1, largest_batch + 1)
            c.execute(
                "INSERT INTO t VALUES "
                + ", ".join("(1, 1.0)" for _ in range(batch))
            )
            published[0] = len(c.catalog.get("t").rows)
            # CTAS on the middle engine: bumps B between A's plans
            b.execute("CREATE OR REPLACE TABLE snap AS SELECT a FROM ft_c")

    def reader():
        last = 0.0
        try:
            while not stop.is_set():
                floor = published[0]
                rows = a.explain_select(everything).estimated_rows
                if lags_too_far(rows, floor):
                    problems.append(f"estimate {rows} for {floor} rows")
                if rows < last:
                    problems.append(f"estimate {rows} after {last}")
                last = rows
        except Exception as exc:  # a crash is a finding too
            problems.append(repr(exc))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(5)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        stop.wait(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    settled = a.explain_select(everything).estimated_rows
    assert settled <= published[0]
    assert not lags_too_far(settled, published[0])


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
