"""Every priced number, pinned to what the commit before the price list
moved into ``engine/cost.py`` computed.

``tests/golden/pricing.json`` is ``collect()`` below, run at commit
6d5b7b7 with that commit's ``calibrate.harness._features_for`` as the
feature function: every Rule-4 alternative's cost, the simulated
schedule, the calibrated EXPLAIN of every stored table, the three
baselines' columns, and the per-constant coefficients of one operator
of each physical kind.  The comparison is to 1e-12 relative — only
re-association of a float sum passes, a changed term does not.  A
change that means to move a price re-records the file the same way
(``json.dumps(collect(unit_features), indent=1, sort_keys=True)``,
``unit_features`` from ``conftest``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.bench.scenarios import HETEROGENEOUS_PROFILES, build_tpch_deployment
from repro.core.client import XDB
from repro.federation.deployment import Deployment
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import INTEGER
from repro.workloads.tpch import query

GOLDEN = Path(__file__).parent / "golden" / "pricing.json"
QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")
SCALE_FACTOR = 0.002
#: name -> (table distribution, vendor overrides).  ``TD3-mixed`` is
#: the only one whose edges speak JDBC, i.e. the only one that reaches
#: the protocol-decode charge.
CONFIGS = {
    "TD1": ("TD1", None),
    "TD3": ("TD3", None),
    "TD3-mixed": ("TD3", HETEROGENEOUS_PROFILES),
}
#: (physical kind, rows out, rows out of each child)
OPERATORS = (
    ("SeqScan", 1000.0, []),
    ("ValuesScan", 7.0, []),
    ("ForeignScan", 250.0, []),
    ("Filter", 120.0, [1000.0]),
    ("Project", 120.0, [120.0]),
    ("HashJoin", 800.0, [1000.0, 300.0]),
    ("NestedLoopJoin", 600.0, [30.0, 20.0]),
    ("HashAggregate", 12.0, [1000.0]),
    ("Sort", 1000.0, [1000.0]),
    ("Limit", 10.0, [1000.0]),
    ("DistinctOp", 40.0, [1000.0]),
    ("UnionAllOp", 1300.0, [1000.0, 300.0]),
)


def _xdb_numbers(report) -> dict:
    return {
        "decisions": [
            [list(cost) for cost in decision.costs]
            for decision in report.annotation.decisions.values()
        ],
        "schedule_total_seconds": report.schedule.total_seconds,
        "proc_seconds": {
            str(task_id): timing.proc_seconds
            for task_id, timing in sorted(report.schedule.tasks.items())
        },
    }


def _baseline_numbers(report) -> dict:
    return {
        "total_seconds": report.total_seconds,
        "processing_seconds": report.processing_seconds,
        "transfer_seconds": report.transfer_seconds,
    }


def collect_config(name: str) -> dict:
    """XDB, EXPLAIN and baseline numbers of one deployment."""
    td, profiles = CONFIGS[name]
    deployment, _ = build_tpch_deployment(td, SCALE_FACTOR, profiles=profiles)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    out = {
        "xdb": {q: _xdb_numbers(xdb.submit(query(q))) for q in QUERIES},
        "explain": {
            db: {
                table.name: deployment.connector(db)
                .explain(parse_statement(f"SELECT * FROM {table.name}"))
                .cost_seconds
                for table in deployment.database(db).catalog.tables()
            }
            for db in deployment.database_names()
        },
    }
    # The baselines add their mediator to the deployment they run on.
    deployment, _ = build_tpch_deployment(td, SCALE_FACTOR, profiles=profiles)
    for system in (
        GarlicSystem(deployment),
        PrestoSystem(deployment, workers=4),
        ScleraSystem(deployment),
    ):
        out[system.name] = {
            q: _baseline_numbers(system.run(query(q))) for q in QUERIES
        }
    return out


def collect_probe_divergence() -> dict:
    """A pipelined input (100 rows) smaller than its local sibling
    (1000 rows): what Rule 4 was quoted for the join, and what the
    schedule simulator then charged the task that ran it."""
    deployment = Deployment({"A": "postgres", "B": "postgres"})
    schema = Schema([Field("id", INTEGER), Field("v", INTEGER)])
    deployment.load_table("A", "big", schema, [(i, i) for i in range(1000)])
    deployment.load_table("B", "small", schema, [(i, i) for i in range(100)])
    report = XDB(deployment, movement_policy="implicit").submit(
        "SELECT big.v, small.v FROM big JOIN small ON big.id = small.id"
    )
    (decision,) = report.annotation.decisions.values()
    assert decision.chosen_db == "A"
    (edge,) = report.plan.edges
    assert edge.moved_rows == 100
    return _xdb_numbers(report)


def collect(features_for) -> dict:
    out = {name: collect_config(name) for name in CONFIGS}
    out["probe_divergence"] = collect_probe_divergence()
    out["features"] = {
        kind: features_for(kind, rows_out, child_rows)
        for kind, rows_out, child_rows in OPERATORS
    }
    return out


# -- comparison ------------------------------------------------------------


def _mismatches(golden, actual, path=""):
    """Paths at which ``actual`` is not ``golden`` to 1e-12 relative."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or set(golden) != set(actual):
            return [f"{path}: keys differ"]
        return [
            line
            for key in golden
            for line in _mismatches(golden[key], actual[key], f"{path}/{key}")
        ]
    if isinstance(golden, list):
        if not isinstance(actual, (list, tuple)) or len(golden) != len(actual):
            return [f"{path}: length differs"]
        return [
            line
            for index, (g, a) in enumerate(zip(golden, actual))
            for line in _mismatches(g, a, f"{path}[{index}]")
        ]
    if isinstance(golden, float):
        if math.isclose(golden, actual, rel_tol=1e-12, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != golden {golden!r}"]
    return [] if golden == actual else [f"{path}: {actual!r} != {golden!r}"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_deployment_numbers_are_where_they_were(golden, name):
    assert _mismatches(golden[name], collect_config(name)) == []


def test_calibration_features_are_where_they_were(golden):
    from conftest import unit_features

    actual = {
        kind: unit_features(kind, rows_out, child_rows)
        for kind, rows_out, child_rows in OPERATORS
    }
    assert _mismatches(golden["features"], actual) == []


def test_probe_term_divergence_is_pinned_on_both_sides(golden):
    """The planner quotes a pipelined join's probe at the rows that
    move, the simulator charges it at the larger (local) side; the gap
    is ``(local − moved) · cpu_tuple_cost`` and both ends are golden."""
    assert _mismatches(
        golden["probe_divergence"], collect_probe_divergence()
    ) == []

    from repro.engine.cost import CostModel
    from repro.engine.profiles import profile_for

    model = CostModel(profile_for("postgres"))
    local, moved, out = 1000.0, 100.0, 100.0
    planned = model.planned_join_seconds(local, moved, out, materialized=False)
    observed = model.seconds(
        model.operator_cost("ForeignScan", moved)
        + model.operator_cost("HashJoin", out, [local, moved])
    ) + model.forced_build_seconds(local, moved)
    # postgres: fetch 20·100, build .02·1000, cpu .01 per row, 2e6 units/s
    assert planned == pytest.approx((2000 + 20 + 1 + 1) / 2e6, rel=1e-12)
    assert observed == pytest.approx((2000 + 20 + 10 + 1) / 2e6, rel=1e-12)
    assert observed - planned == pytest.approx(
        (local - moved) * 0.01 / 2e6, rel=1e-9
    )

