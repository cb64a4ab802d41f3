"""One price list: only ``engine/cost.py`` turns rows into cost.

Ruff's ``TID251`` keeps ``time.perf_counter`` inside ``obs/clock.py``;
it cannot ban an *attribute*, so this walks the AST instead.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.calibrate.fit import predicted_units
from repro.engine.cost import (
    CardinalityEstimator,
    CostModel,
    ScanStats,
    operator_features,
)
from repro.engine.profiles import CALIBRATABLE_CONSTANTS, profile_base
from repro.relational import algebra
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_expression
from repro.sql.types import INTEGER

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PRICES = {
    "seq_scan_cost_per_row",
    "cpu_tuple_cost",
    "hash_build_cost_per_row",
    "foreign_fetch_cost_per_row",
    "sort_cost_factor",
    "startup_cost",
    "startup_latency",
    "cost_to_seconds",
}
#: ``calibrate/fit.py`` names constants to *write* fitted values, never
#: to price with them.
ALLOWED = {"engine/cost.py", "engine/profiles.py", "calibrate/fit.py"}


def test_no_module_outside_the_price_list_reads_a_cost_constant():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        reads = [
            f"{node.attr}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in PRICES
        ]
        if reads:
            offenders[relative] = reads
    assert offenders == {}


# -- calibration prices what the planner prices ---------------------------

_SCHEMA = Schema([Field("k", INTEGER)])


def _scan(name: str, placeholder: bool = False) -> algebra.Scan:
    return algebra.Scan(name, name, _SCHEMA, placeholder=placeholder)


def _operators():
    """(physical kind, logical node) for every kind the planner emits."""
    left, right = _scan("l"), _scan("r")
    key = parse_expression("l.k = r.k")
    return [
        ("SeqScan", left),
        ("ForeignScan", _scan("p", placeholder=True)),
        ("Filter", algebra.Filter(left, parse_expression("l.k > 3"))),
        (
            "Project",
            algebra.Project(
                left, [algebra.ProjectItem(parse_expression("l.k"), "k")]
            ),
        ),
        ("HashJoin", algebra.Join(left, right, key)),
        ("NestedLoopJoin", algebra.Join(left, right, kind="CROSS")),
        (
            "HashAggregate",
            algebra.Aggregate(
                left, [algebra.ProjectItem(parse_expression("l.k"), "k")], []
            ),
        ),
        (
            "Sort",
            algebra.Sort(left, [algebra.SortKey(parse_expression("l.k"))]),
        ),
        ("Limit", algebra.Limit(left, 10)),
        ("DistinctOp", algebra.Distinct(left)),
        ("UnionAllOp", algebra.Union(left, right)),
    ]


@pytest.mark.parametrize(
    "kind,plan", [pytest.param(*case, id=case[0]) for case in _operators()]
)
def test_features_times_constants_is_the_planner_charge(kind, plan):
    rng = random.Random(kind)
    profile = profile_base("postgres").with_constants(
        **{name: rng.uniform(0.01, 50.0) for name in CALIBRATABLE_CONSTANTS}
    )
    table_rows = {"l": 4000.0, "r": 300.0, "p": 750.0}
    estimator = CardinalityEstimator(
        lambda scan: ScanStats(row_count=table_rows[scan.table], columns={})
    )
    features = operator_features(
        kind,
        estimator.estimate_rows(plan),
        [estimator.estimate_rows(child) for child in plan.children()],
    )
    assert features
    assert predicted_units(features, profile.constants()) == pytest.approx(
        CostModel(profile).node_self_cost(plan, estimator), rel=1e-12
    )
