"""Statistics are ANALYZE snapshots (``BaseTable.stats`` / ``insert``).

A table's statistics — ``row_count`` included — are what its last
analysis saw.  An INSERT keeps them, and the catalog version with them,
while the rows appended since stay within ``REANALYZE_FRACTION`` of the
snapshot; the write that goes past the bound invalidates it (one version
bump), the next read analyzes again.  Nothing here times anything: an
analysis is counted at ``repro.engine.catalog.compute_stats`` or read
off the query context's ``engine.stats.analyze`` counter.
"""

from collections import Counter

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.drift.mutate import apply_drift
from repro.engine import catalog as catalog_module
from repro.engine.catalog import BaseTable
from repro.engine.database import Database
from repro.engine.stats import DEFAULT_SAMPLE_SIZE
from repro.faults.policy import SchemaDrift
from repro.fuzz.oracle import chain_deployment
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import DOUBLE, INTEGER
from repro.workloads.tpch import TABLE_NAMES, query
from repro.workloads.tpch.distributions import distribution

from conftest import assert_same_rows

SCHEMA = Schema([Field("k", INTEGER), Field("v", DOUBLE)])


def rows(start: int, count: int):
    return [(i, i / 2.0) for i in range(start, start + count)]


@pytest.fixture
def analyses(monkeypatch):
    """Counts calls of ``compute_stats`` from the catalog, by row count."""
    seen = []
    original = catalog_module.compute_stats

    def counting(schema, table_rows, *args, **kwargs):
        seen.append(len(table_rows))
        return original(schema, table_rows, *args, **kwargs)

    monkeypatch.setattr(catalog_module, "compute_stats", counting)
    return seen


def analyzed_table(count: int = 1000):
    """A ``count``-row table in a catalog, snapshot taken."""
    database = Database("D")
    table = database.create_table("t", SCHEMA, rows(0, count))
    return database, table, table.stats


# -- (i) below, at and above the bound --------------------------------------


@pytest.mark.parametrize("batch", [1, 99, 100])
def test_a_write_within_the_bound_keeps_snapshot_and_version(batch, analyses):
    database, table, snapshot = analyzed_table()
    version = database.catalog.version
    analyses.clear()
    table.insert(rows(1000, batch))
    assert database.catalog.version == version
    assert table.stats is snapshot
    assert snapshot.row_count == 1000 and len(table.rows) == 1000 + batch
    assert analyses == []


def test_the_write_past_the_bound_bumps_once_and_the_next_read_analyzes(
    analyses,
):
    database, table, snapshot = analyzed_table()
    version = database.catalog.version
    analyses.clear()
    table.insert(rows(1000, 101))
    assert database.catalog.version == version + 1
    assert analyses == []  # the write does not pay for the analysis ...
    fresh = table.stats  # ... the next read does
    assert analyses == [1101]
    assert fresh is not snapshot
    assert fresh.row_count == 1101
    assert fresh.column("k").max_value == 1100
    assert table.stats is fresh and analyses == [1101]
    assert database.catalog.version == version + 1


# -- (ii) accumulation -------------------------------------------------------


def test_small_batches_accumulate_to_one_crossing(analyses):
    database, table, snapshot = analyzed_table()
    version = database.catalog.version
    analyses.clear()
    versions = []
    for batch in range(10):
        table.insert(rows(1000 + 20 * batch, 20))  # 2 % each
        versions.append(database.catalog.version - version)
        table.stats  # a read between writes, as a query would make
    # 100 pending rows are still within the bound, 120 are not; the new
    # snapshot (1 120 rows) then absorbs the remaining 80
    assert versions == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert analyses == [1120]
    assert table.stats.row_count == 1120 and len(table.rows) == 1200


# -- (iii) empty and never-analyzed tables, as before ------------------------


def test_an_empty_snapshot_is_exceeded_by_any_row(analyses):
    database = Database("D")
    table = database.create_table("t", SCHEMA, [])
    assert table.stats.row_count == 0
    version = database.catalog.version
    table.insert(rows(0, 1))
    assert database.catalog.version == version + 1
    assert table.stats.row_count == 1
    assert analyses == [0, 1]


def test_a_table_nobody_has_analyzed_announces_every_write(analyses):
    database = Database("D")
    table = database.create_table("t", SCHEMA, rows(0, 1000))
    version = database.catalog.version
    for batch in range(3):
        table.insert(rows(1000 + batch, 1))
        assert database.catalog.version == version + batch + 1
    assert analyses == []
    assert table.stats.row_count == 1003


# -- (iv) a three-engine chain ------------------------------------------------

JOIN = parse_statement("SELECT v_a.c, lt.b FROM v_a, lt WHERE v_a.a = lt.a")


def test_small_inserts_two_hops_below_keep_every_engine_serving(
    optimize_calls,
):
    """``A.v_a -> A.ft_b => B.v_b -> B.ft_c => C.t``, ``lt`` local to A
    (the fuzz oracle's chain): plans are data-independent, so a served
    plan over grown data must still answer what one engine holding both
    tables answers."""
    deployment = chain_deployment()
    chain = a, b, c = [deployment.database(name) for name in "ABC"]

    def single_node_answer():
        single = Database("single")
        for holder, name in ((c, "t"), (a, "lt")):
            table = holder.catalog.get(name)
            single.create_table(name, table.schema, table.rows)
        return single.execute(
            "SELECT t.c, lt.b FROM t, lt WHERE t.a = lt.a"
        ).rows

    def chain_calls():
        return {n: optimize_calls[n] for n in "ABC" if optimize_calls[n]}

    assert_same_rows(a.execute_select(JOIN).rows, single_node_answer())
    estimate = a.explain_select(JOIN)
    entries = [dict(engine._memo) for engine in chain]
    versions = [engine.catalog.version for engine in chain]
    optimize_calls.clear()

    answers = []
    for batch in range(4):  # 12 rows into 120: at the bound, not past it
        c.execute(
            f"INSERT INTO t VALUES ({batch}, 0.5), ({batch + 20}, 1.5), "
            "(99, 2.5)"
        )
        answers.append(a.execute_select(JOIN).rows)
        assert_same_rows(answers[-1], single_node_answer())
        assert a.explain_select(JOIN) is estimate
    assert len(answers[-1]) > len(answers[0])
    assert chain_calls() == {}
    assert [engine.catalog.version for engine in chain] == versions
    for engine, before in zip(chain, entries):
        assert all(engine._memo[key] is entry for key, entry in before.items())

    c.execute("INSERT INTO t VALUES (1, 1.0)")  # the 13th row: past it
    assert a.explain_select(JOIN).estimated_rows > estimate.estimated_rows
    assert_same_rows(a.execute_select(JOIN).rows, single_node_answer())
    # A and B re-plan their views, C the scan B pushes down to it
    assert chain_calls() == {"A": 1, "B": 1, "C": 1}


# -- (v) a prepared TPC-H handle over TD1 ------------------------------------


def test_prepared_handle_survives_small_batches_and_replans_past_the_bound(
    optimize_calls,
):
    deployment, data = build_tpch_deployment("TD1", 0.002)
    placement = distribution("TD1")
    oracle = Database("oracle")
    for name in TABLE_NAMES:
        oracle.create_table(name, *data.tables[name])
    written = {
        name: (
            deployment.database(placement[name]).catalog.get(name),
            oracle.catalog.get(name),
        )
        for name in ("orders", "lineitem")
    }
    sql = query("Q3")
    handle = XDB(deployment).prepare(sql)
    warm = handle.execute().result.rows
    assert_same_rows(warm, oracle.execute(sql).rows)

    # new orders are copies, under fresh keys, of the orders Q3 ranks
    # highest — so every batch changes the answer
    orders = {row[0]: row for row in data.tables["orders"][1]}
    lines = {}
    for line in data.tables["lineitem"][1]:
        lines.setdefault(line[0], []).append(line)
    hot = [row[0] for row in warm]
    next_key = max(orders) + 1

    def write(count: int) -> None:
        nonlocal next_key
        new_orders, new_lines = [], []
        for key in range(next_key, next_key + count):
            template = hot[key % len(hot)]
            new_orders.append((key,) + orders[template][1:])
            new_lines.extend((key,) + line[1:] for line in lines[template])
        next_key += count
        for name, batch in (("orders", new_orders), ("lineitem", new_lines)):
            for table in written[name]:
                table.insert(batch)

    def analyzed(report) -> Counter:
        """Analyses of the written tables this execution paid for."""
        return Counter(
            event.attributes["table"]
            for event in report.context.root.subtree_events("analyze")
            if event.attributes["table"] in written
        )

    def federation_calls():
        return {n: c for n, c in optimize_calls.items() if n != "oracle"}

    snapshots = {name: written[name][0].stats for name in written}
    optimize_calls.clear()
    answers = [warm]
    for _ in range(5):
        write(20)  # 0.7 % of ``orders``
        report = handle.execute()
        assert_same_rows(report.result.rows, oracle.execute(sql).rows)
        assert analyzed(report) == {}
        assert report.result.rows != answers[-1]
        answers.append(report.result.rows)
    assert federation_calls() == {}
    assert all(written[name][0].stats is snapshots[name] for name in written)

    write(450)  # 15 % in one batch
    report = handle.execute()
    assert_same_rows(report.result.rows, oracle.execute(sql).rows)
    assert analyzed(report) == {"orders": 1, "lineitem": 1}
    traced = [
        event.attributes["table"]
        for span in report.context.root.iter_spans()
        for event in span.events
        if event.name == "analyze"
    ]
    assert sorted(traced) == ["lineitem", "orders"]
    assert {placement["orders"], placement["lineitem"]} <= set(
        federation_calls()
    )
    assert analyzed(handle.execute()) == {}


# -- (vi) in-place edits invalidate unconditionally ---------------------------


def test_drift_invalidates_whatever_the_size_of_the_change(analyses):
    database, table, snapshot = analyzed_table()
    version = database.catalog.version
    apply_drift(
        database, SchemaDrift(db="D", table="t", kind="add_column", column="z")
    )
    assert database.catalog.version == version + 1
    fresh = table.stats
    assert fresh is not snapshot and fresh.column("z") is not None
    assert analyses == [1000, 1000]


# -- one analysis per table at a time, and every analysis visible -------------


def test_concurrent_readers_of_a_cold_table_pay_for_one_analysis(analyses):
    table = BaseTable("t", SCHEMA, rows(0, 60_000))
    results = [table.stats for _ in range(8)]
    assert analyses == [60_000]
    assert all(stats is results[0] for stats in results)


def test_an_invalidation_that_overtakes_an_analysis_discards_it(monkeypatch):
    database, table, _ = analyzed_table()
    original = catalog_module.compute_stats
    overtaken = []

    def overtaking(schema, table_rows, *args, **kwargs):
        stats = original(schema, table_rows, *args, **kwargs)
        if not overtaken:
            overtaken.append(stats)
            table.insert(rows(5000, 500))
        return stats

    table.invalidate_stats()
    monkeypatch.setattr(catalog_module, "compute_stats", overtaking)
    assert table.stats.row_count == 1000  # what that reader scanned
    assert table.stats.row_count == 1500  # nobody is served it again


def test_an_analysis_is_counted_and_traced_in_the_query_context():
    database = Database("D")
    database.create_table("small", SCHEMA, rows(0, 10))
    database.create_table("big", SCHEMA, rows(0, DEFAULT_SAMPLE_SIZE + 5))
    with QueryContext() as ctx:
        database.execute("EXPLAIN SELECT COUNT(*) FROM small")
        database.execute("EXPLAIN SELECT k FROM small WHERE k > 3")
        database.execute("EXPLAIN SELECT COUNT(*) FROM big")
    analyses = ctx.root.subtree_events("analyze")
    assert Counter(
        (e.attributes["db"], e.attributes["table"]) for e in analyses
    ) == {("D", "small"): 1, ("D", "big"): 1}
    profiled = {e.attributes["table"]: e.attributes["rows"] for e in analyses}
    assert profiled["small"] == 10
    assert profiled["big"] == DEFAULT_SAMPLE_SIZE
    events = [
        event.attributes
        for span in ctx.root.iter_spans()
        for event in span.events
        if event.name == "analyze"
    ]
    assert events == [
        {"db": "D", "table": "small", "rows": 10},
        {"db": "D", "table": "big", "rows": DEFAULT_SAMPLE_SIZE},
    ]
    assert "analyze" in ctx.explain_tree()
