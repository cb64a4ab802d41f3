"""A member engine lowers each memoized local plan once.

The physical tree a plan-memo entry's first execution lowered, and the
kernels its operators lowered on their first pull, are kept on the entry
(``Database._planned``) and run again by every later execution; each run
starts from zeroed counts.  Each case here runs a kept cascade (the
fourth submission of one text on one client) after a change, and holds
it to a cold client on a fresh deployment that saw the same change: the
same rows, the same operator spans (labels with the cascade's epoch
elided, ``db`` and ``rows_out``) and the same simulated schedule.
"""

import re

import pytest

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.drift import apply_drift
from repro.engine import planner, vector
from repro.engine.fdw import RemoteServer
from repro.errors import ConnectorError, ReproError
from repro.faults import SchemaDrift
from repro.fuzz.oracle import chain_deployment, memo_failures
from repro.sql.parser import parse_statement
from repro.workloads.tpch import query

SCENARIOS = ("TD1", "TD3")
Q3 = query("Q3")
LIMITED = (
    "SELECT l.l_orderkey, l.l_quantity, o.o_orderdate "
    "FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey"
)
_EPOCH = re.compile(r"\b(x[fmv]_\D*?)\d+_")

#: A write below the re-ANALYZE bound: a BUILDING customer's new order
#: and its two lineitems, large enough to lead Q3's answer.
SMALL_WRITE = {
    "orders": "INSERT INTO orders VALUES (900001, 6, 'O', 900000.0, "
    "DATE '1995-03-01', '1-URGENT', 'Clerk#000000001', 0, 'new order')",
    "lineitem": "INSERT INTO lineitem VALUES "
    + ", ".join(
        f"(900001, {line}, {line}, {line}, 10.0, {price}, 0.0, 0.0, 'N', "
        "'O', DATE '1995-04-01', DATE '1995-04-02', DATE '1995-04-03', "
        "'NONE', 'MAIL', 'new item')"
        for line, price in ((1, 400000.0), (2, 300000.0))
    ),
}
#: A write past it: 150 customers at sf 0.001, 20 more.
LARGE_WRITE = {
    "customer": "INSERT INTO customer VALUES "
    + ", ".join(
        f"({key}, 'Customer#{key}', 'new', 1, '11-111-111-1111', 10.0, "
        "'BUILDING', 'new')"
        for key in range(900000, 900020)
    ),
}


def _holders(deployment, table):
    return [
        database
        for database in deployment.databases.values()
        if database.catalog.get(table) is not None
    ]


def write(statements):
    def change(deployment):
        for table, sql in statements.items():
            for holder in _holders(deployment, table):
                holder.execute(sql)

    return change


def add_column(deployment):
    for holder in _holders(deployment, "orders"):
        apply_drift(
            holder,
            SchemaDrift(
                db=holder.name, table="orders", kind="add_column",
                column="o_extra",
            ),
        )


def unchanged(deployment):
    pass


def client(deployment, **options):
    xdb = XDB(deployment, **options)
    xdb.warm_metadata()
    return xdb


def kept(scenario, sql, **options):
    """A client that ran ``sql`` on a kept cascade: the miss, the
    deploying hit and the first run on the cascade."""
    deployment, _ = build_tpch_deployment(scenario, 0.001)
    xdb = client(deployment, **options)
    for _ in range(3):
        xdb.submit(sql)
    return deployment, xdb


def cold(scenario, sql, change=unchanged, **options):
    """What a fresh client's first submission of ``sql`` sees when
    ``change`` lands between its metadata warm-up (the statistics
    snapshots a kept client's plan was made from) and the submission."""
    deployment, _ = build_tpch_deployment(scenario, 0.001)
    xdb = client(deployment, **options)
    change(deployment)
    return observed(xdb.submit(sql))


def observed(report):
    operators = [
        (
            _EPOCH.sub(r"\1E_", span.name),
            span.attributes["db"],
            span.attributes["rows_out"],
        )
        for span in report.context.root.find_all(kind="operator")
    ]
    schedule = sorted(
        (t.task_id, t.db, t.start, t.proc_seconds, t.finish)
        for t in report.schedule.tasks.values()
    )
    return report.result.rows, operators, schedule


class Lowerings:
    """Counts what a run plans and lowers: ``optimize`` and
    ``to_physical`` calls, and kernels."""

    def __init__(self, monkeypatch):
        self.optimize = self.to_physical = self.kernels = 0
        optimize = planner.LocalPlanner.optimize
        lower = planner.LocalPlanner.to_physical

        def optimizing(planner_self, *args, **kwargs):
            self.optimize += 1
            return optimize(planner_self, *args, **kwargs)

        def to_physical(planner_self, plan):
            self.to_physical += 1
            return lower(planner_self, plan)

        monkeypatch.setattr(planner.LocalPlanner, "optimize", optimizing)
        monkeypatch.setattr(planner.LocalPlanner, "to_physical", to_physical)
        monkeypatch.setattr(vector, "_kernel", self._counting(vector._kernel))

    def _counting(self, build):
        def counted(*args, **kwargs):
            self.kernels += 1
            return build(*args, **kwargs)

        return counted

    def reset(self):
        self.optimize = self.to_physical = self.kernels = 0


def kept_trees(deployment):
    return [
        entry.lowered
        for database in deployment.databases.values()
        for entry in database._memo.values()
        if entry.lowered is not None
    ]


@pytest.mark.parametrize(
    "scenario, options",
    [pytest.param(scenario, {}, id=scenario) for scenario in SCENARIOS]
    + [
        pytest.param(
            scenario, {"movement_policy": "explicit"}, id=f"{scenario}-explicit"
        )
        for scenario in SCENARIOS
    ],
)
def test_a_clean_repeat_lowers_nothing(scenario, options, monkeypatch):
    # under explicit movement every run refreshes its xm_ snapshots,
    # with the rows they already hold
    deployment, xdb = kept(scenario, Q3, **options)
    trees = {id(tree.root) for tree in kept_trees(deployment)}
    assert trees
    lowerings = Lowerings(monkeypatch)
    report = xdb.submit(Q3)
    assert (lowerings.optimize, lowerings.to_physical, lowerings.kernels) == (
        0, 0, 0,
    )
    assert {id(tree.root) for tree in kept_trees(deployment)} == trees
    assert observed(report) == cold(scenario, Q3, **options)
    xdb.close()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize(
    "change, moves",
    [(write(SMALL_WRITE), True), (write(LARGE_WRITE), False), (add_column, False)],
    ids=["insert-below-bound", "insert-past-bound", "add-column"],
)
def test_a_kept_tree_after_a_change_runs_as_a_cold_one(scenario, change, moves):
    deployment, xdb = kept(scenario, Q3)
    before = xdb.submit(Q3).result.rows
    change(deployment)
    report = xdb.submit(Q3)
    assert observed(report) == cold(scenario, Q3, change)
    assert (report.result.rows != before) == moves
    assert observed(xdb.submit(Q3)) == observed(report)
    xdb.close()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_refreshed_snapshot_is_read_by_a_fresh_scan(scenario):
    deployment, xdb = kept(scenario, Q3, movement_policy="explicit")
    assert xdb.pipeline._memo[Q3].cascade.deployed.materializations
    change = write(SMALL_WRITE)
    change(deployment)
    report = xdb.submit(Q3)
    assert {"refresh"} <= {span.name for span in report.context.root.iter_spans()}
    assert report.result.rows[0][0] == 900001
    assert observed(report) == cold(scenario, Q3, change, movement_policy="explicit")
    xdb.close()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_limit_that_stops_early_then_a_full_run(scenario):
    limited = f"{LIMITED} LIMIT 7"
    deployment, xdb = kept(scenario, limited)
    stopped = observed(xdb.submit(limited))
    assert len(stopped[0]) == 7
    assert stopped == cold(scenario, limited)
    for _ in range(3):
        full = xdb.submit(LIMITED)
    assert observed(full) == cold(scenario, LIMITED)
    assert observed(xdb.submit(limited)) == stopped
    xdb.close()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_fetch_fault_mid_run_leaves_nothing_behind(scenario, monkeypatch):
    deployment, xdb = kept(scenario, Q3)
    fetches = []
    fetch = RemoteServer.fetch

    def failing(server, remote_query, tag="fdw"):
        # the remote side runs its tree; the hand-off of the last fetch
        # of the run fails
        result = fetch(server, remote_query, tag)
        fetches.append(tag)
        if len(fetches) == armed:
            raise ConnectorError("injected fetch fault")
        return result

    armed = None
    monkeypatch.setattr(RemoteServer, "fetch", failing)
    xdb.submit(Q3)
    armed, fetches[:] = len(fetches), []
    try:
        xdb.submit(Q3)
    except ReproError:
        pass
    assert len(fetches) >= armed
    monkeypatch.setattr(RemoteServer, "fetch", fetch)
    lowerings = Lowerings(monkeypatch)
    report = xdb.submit(Q3)
    assert lowerings.to_physical == 0
    assert observed(report) == cold(scenario, Q3)
    xdb.close()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_instrumentation_switches_lower_again_and_time_each_run(
    scenario, monkeypatch
):
    deployment, xdb = kept(scenario, Q3)
    want = cold(scenario, Q3)
    lowerings = Lowerings(monkeypatch)

    def run(instrumented):
        for database in deployment.databases.values():
            database.instrument_execution = instrumented
        lowerings.reset()
        report = xdb.submit(Q3)
        spans = report.context.root.find_all(kind="operator")
        assert all(
            ("exec_seconds" in span.attributes) == instrumented for span in spans
        )
        assert observed(report) == want
        return spans

    run(True)
    assert lowerings.to_physical > 0
    # A kept instrumented tree: counts and timings start from zero.
    for tree in kept_trees(deployment):
        for operator in tree.operators:
            operator.rows_out = operator.exec_seconds = 10**9
    spans = run(True)
    assert lowerings.to_physical == 0
    assert all(span.attributes["exec_seconds"] < 10**9 for span in spans)
    run(False)
    assert lowerings.to_physical > 0
    assert not any(
        getattr(operator, "_instrumented", False)
        for tree in kept_trees(deployment)
        for operator in tree.operators
    )
    xdb.close()


def test_the_memo_oracle_reports_a_tree_kept_across_a_replaced_table():
    deployment = chain_deployment()
    a = deployment.database("A")
    a.execute("CREATE TABLE snap AS SELECT a, b FROM lt")
    select = parse_statement("SELECT a, b FROM snap WHERE a > 3")
    a.execute_select(select)
    (stale,) = kept_trees(deployment)
    a.execute("CREATE OR REPLACE TABLE snap AS SELECT a, b FROM lt WHERE a > 10")
    a.execute_select(select)
    assert memo_failures(deployment.databases.values()) == []
    (entry,) = [entry for entry in a._memo.values() if entry.lowered is not None]
    entry.lowered = stale  # as if the tree had survived the replacement
    (failure,) = memo_failures(deployment.databases.values())
    assert "scan of 'snap'" in failure and "no longer holds" in failure
