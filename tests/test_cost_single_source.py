"""One price list: only ``engine/cost.py`` turns rows into cost, and
only ``net/network.py`` turns rows into bytes on the wire.

Ruff's ``TID251`` keeps ``time.perf_counter`` inside ``obs/clock.py``;
it cannot ban an *attribute*, so this walks the AST instead.
"""

from __future__ import annotations

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import PER_ROW_CONSTANTS, unit_features

from repro.engine.cost import CardinalityEstimator, CostModel, ScanStats
from repro.engine.profiles import profile_for
from repro.net.network import wire_bytes
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
#: Where the constants are defined and where they are applied.
ALLOWED = {"engine/cost.py", "engine/profiles.py"}


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


def _wire_price_reads(tree: ast.AST):
    """Line numbers where ``PROTOCOL_FACTORS`` is read for a value, not
    only tested for membership (``protocol in PROTOCOL_FACTORS``)."""
    membership = {
        id(node.comparators[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.In, ast.NotIn))
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            (isinstance(node, ast.Name) and node.id == "PROTOCOL_FACTORS")
            or (
                isinstance(node, ast.Attribute)
                and node.attr == "PROTOCOL_FACTORS"
            )
        )
        and isinstance(node.ctx, ast.Load)
        and id(node) not in membership
    ]


def test_only_the_network_prices_the_wire():
    """``wire_bytes`` is the one place a protocol factor multiplies
    bytes: Rule 4's quote and every recorded transfer call it."""
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "net/network.py":
            continue
        reads = _wire_price_reads(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if reads:
            offenders[relative] = reads
    assert offenders == {}


# -- the two places that still price bytes their own way ------------------


def test_result_transfer_divergence_is_pinned_on_both_sides():
    """XDB records its result at the wire price of its protocol; the
    mediators record and time theirs at the unframed size, JDBC or not
    (DESIGN.md §5)."""
    from repro.baselines.presto import PrestoSystem
    from repro.bench.scenarios import build_tpch_deployment
    from repro.core.client import XDB
    from repro.workloads.tpch import query

    deployment, _ = build_tpch_deployment(
        "TD1", 0.001, profiles={f"db{i}": "mariadb" for i in range(1, 5)}
    )
    network = deployment.network

    xdb = XDB(deployment).submit(query("Q3"))
    size = xdb.result.byte_size()
    (record,) = [r for r in xdb.context.transfers if r.tag == "result"]
    assert record.protocol == "jdbc"
    assert record.payload_bytes == wire_bytes(size, "jdbc") > size

    presto = PrestoSystem(deployment, workers=4).run(query("Q3"))
    assert presto.result.byte_size() == size
    (record,) = [r for r in presto.context.transfers if r.tag == "result"]
    assert (record.protocol, record.payload_bytes) == ("jdbc", size)
    assert record.seconds == network.transfer_time(
        record.src, record.dst, size
    )


def test_sclera_relay_divergence_is_pinned_on_both_sides(
    tpch_tiny, monkeypatch
):
    """Sclera records each relayed intermediate at the JDBC wire price
    but times both relay legs on the unframed bytes."""
    from repro.baselines.sclera import ScleraSystem
    from repro.connect.connector import DBMSConnector
    from repro.workloads.tpch import query

    deployment, _ = tpch_tiny
    network, middleware = deployment.network, deployment.middleware_node
    shipped = {}  # tag -> (unframed bytes, rows, consuming connector)
    push_rows = DBMSConnector.push_rows

    def spy(self, table_name, schema, rows, tag="mediator-ship"):
        shipped[tag] = (schema.row_width() * len(rows), len(rows), self)
        return push_rows(self, table_name, schema, rows, tag)

    monkeypatch.setattr(DBMSConnector, "push_rows", spy)
    system = ScleraSystem(deployment)
    report = system.run(query("Q3"))
    records = {r.tag: r for r in report.context.transfers}

    assert shipped
    expected = 0.0
    for tag, (size, rows, consumer) in shipped.items():
        assert records[tag].payload_bytes == wire_bytes(size, "jdbc") > size
        producer = records["sclera-fetch:" + tag.split(":")[1]].src
        expected += (
            network.transfer_time(producer, middleware, size)
            + network.transfer_time(middleware, consumer.node, size)
            + system._relay_seconds(rows, consumer)
        )
    assert report.transfer_seconds == pytest.approx(expected, rel=1e-12)


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
    profile = replace(
        profile_for("postgres"),
        **{name: rng.uniform(0.01, 50.0) for name in PER_ROW_CONSTANTS},
    )
    table_rows = {"l": 4000.0, "r": 300.0, "p": 750.0}
    estimator = CardinalityEstimator(
        lambda scan: ScanStats(row_count=table_rows[scan.table], columns={})
    )
    features = unit_features(
        kind,
        estimator.estimate_rows(plan),
        [estimator.estimate_rows(child) for child in plan.children()],
    )
    assert features
    units = sum(getattr(profile, name) * value for name, value in features.items())
    assert units == pytest.approx(
        CostModel(profile).node_self_cost(plan, estimator), rel=1e-12
    )
