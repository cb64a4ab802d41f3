"""A kept task is priced and fingerprinted once.

The runs of a kept cascade share their ``Task`` objects
(``DelegationPlan.for_run``), and each task keeps two derivations on
``Task._memo``: the schedule simulator's price, keyed by every input
that pricing reads and a re-run can change, and the Q-Error harvest's
``(fingerprint, locus, tables)`` of its ``source_expr``.  A warm run
must derive exactly what a cold client derives.
"""

import dataclasses

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.core.plan import Movement
from repro.drift.mutate import apply_drift
from repro.engine.catalog import BaseTable
from repro.engine.cost import CostModel
from repro.engine.stats import REANALYZE_FRACTION
from repro.faults.policy import SchemaDrift
from repro.feedback import harvest
from repro.feedback.harvest import harvest_execution
from repro.feedback.store import FeedbackStore
from repro.workloads.tpch import query

SQL = query("Q3")


def _td1():
    deployment, _ = build_tpch_deployment("TD1", 0.002)
    return deployment


def _partitioned():
    """TD1 with ``orders`` / ``lineitem`` hash-partitioned over two
    engines, each advancing two delegated tasks at a time."""
    deployment = _td1()
    deployment.partition_table("orders", "o_orderkey", ["db1", "db2"])
    deployment.partition_table("lineitem", "l_orderkey", ["db1", "db2"])
    deployment.parallel_workers = 2
    return deployment


def _client(deployment, **kwargs) -> XDB:
    """A client whose every cross-database edge is an ``xm_`` snapshot."""
    xdb = XDB(deployment, movement_policy="explicit", **kwargs)
    xdb.warm_metadata()
    return xdb


def _kept(report) -> bool:
    return bool(report.context.root.subtree_events("cascade-reused"))


def _reused(report) -> bool:
    return bool(report.context.root.subtree_events("plan-reused"))


def _exec_span(report):
    return report.context.root.find_all(name="exec", kind="phase")[0]


def _producer_tables(deployment, report):
    """Every stored table a producing task scans."""
    tables = []
    for task_id in sorted({edge.producer_id for edge in report.plan.edges}):
        task = report.plan.tasks[task_id]
        catalog = deployment.database(task.annotation).catalog
        for name in task.base_tables():
            table = catalog.get(name)
            if isinstance(table, BaseTable):
                tables.append((task.annotation, table))
    return tables


def _grow(fraction):
    """Append a copy of the first ``fraction`` of each table's rows."""

    def change(deployment, tables):
        for _, table in tables:
            table.insert(table.rows[: max(int(len(table.rows) * fraction), 1)])

    return change


def _drift(deployment, tables):
    db, table = tables[0]
    apply_drift(
        deployment.database(db),
        SchemaDrift(db=db, table=table.name, kind="add_column", column="extra"),
    )


#: what happens between the kept run and the one under test
CHANGES = {
    "clean": lambda deployment, tables: None,
    "insert_below_bound": _grow(REANALYZE_FRACTION / 2),
    "insert_past_bound": _grow(REANALYZE_FRACTION * 2),
    "drift": _drift,
}


def _fresh(dplan):
    """``dplan`` with tasks and edges copied: nothing derived yet."""
    copy = dplan.for_run()
    copy.tasks = {key: dataclasses.replace(t) for key, t in dplan.tasks.items()}
    copy.edges = [dataclasses.replace(edge) for edge in dplan.edges]
    return copy


def _harvest_fresh(xdb, report):
    return harvest_execution(
        _fresh(report.plan), _exec_span(report), xdb.catalog, len(report.result.rows)
    )


@pytest.mark.parametrize(
    "build, change",
    [(_td1, change) for change in CHANGES] + [(_partitioned, "clean")],
    ids=[f"td1-{change}" for change in CHANGES] + ["partitioned-clean"],
)
def test_a_kept_task_is_priced_as_a_cold_client_prices_it(
    build, change, monkeypatch
):
    deployment = build()
    xdb = _client(deployment)
    kept = [xdb.submit(SQL) for _ in range(3)][-1]
    assert _kept(kept)
    assert any(edge.movement is Movement.EXPLICIT for edge in kept.plan.edges)
    tables = _producer_tables(deployment, kept)
    assert tables
    snapshots = [table.stats for _, table in tables]
    moved = [edge.moved_rows for edge in kept.plan.edges]
    CHANGES[change](deployment, tables)

    priced = []
    plan_seconds = CostModel.plan_seconds

    def counting(self, plan, estimator):
        priced.append(plan)
        return plan_seconds(self, plan, estimator)

    monkeypatch.setattr(CostModel, "plan_seconds", counting)
    warm = xdb.submit(SQL)
    monkeypatch.undo()
    cold = _client(deployment).submit(SQL)

    assert _kept(warm)
    assert warm.plan.describe() == cold.plan.describe()
    assert warm.schedule.tasks == cold.schedule.tasks
    assert warm.schedule.total_seconds == cold.schedule.total_seconds
    now = [edge.moved_rows for edge in warm.plan.edges]
    restats = [table.stats is not before for (_, table), before in zip(tables, snapshots)]
    if change == "clean":
        assert now == moved and not any(restats)
        assert priced == []
    elif change == "insert_below_bound":
        assert now != moved and not any(restats)
    elif change == "insert_past_bound":
        assert all(restats)
    else:
        assert restats[0]
    xdb.close()


def test_a_kept_task_is_fingerprinted_once(monkeypatch):
    seen = []
    fingerprint = harvest.fingerprint

    def counting(plan):
        seen.append(plan)
        return fingerprint(plan)

    monkeypatch.setattr(harvest, "fingerprint", counting)
    deployment = _td1()
    xdb = _client(deployment, feedback=FeedbackStore())
    # the first run teaches the store and the second plans on what it
    # learned; the later ones share the second's tasks, and from the
    # fourth on they run on its kept cascade
    reports = [xdb.submit(SQL) for _ in range(6)]
    assert [_reused(report) for report in reports] == [False] * 2 + [True] * 4
    assert [_kept(report) for report in reports] == [False] * 3 + [True] * 3
    assert len(seen) == len(reports[0].plan.tasks) + len(reports[1].plan.tasks)
    assert len({id(src) for src in seen}) == len(seen)
    monkeypatch.undo()
    for report in reports:
        assert report.feedback
        assert report.feedback == _harvest_fresh(xdb, report)
    xdb.close()


def test_a_new_source_expr_is_fingerprinted_afresh():
    deployment = _td1()
    xdb = _client(deployment)
    report = xdb.submit(SQL)
    before = report.feedback
    first, second = list(report.plan.tasks.values())[:2]
    # a task cut anew: each task now stands for the other's subtree
    first.source_expr, second.source_expr = second.source_expr, first.source_expr
    again = harvest_execution(
        report.plan, _exec_span(report), xdb.catalog, len(report.result.rows)
    )
    assert again == _harvest_fresh(xdb, report)
    assert [obs.fingerprint for obs in again] != [
        obs.fingerprint for obs in before
    ]
