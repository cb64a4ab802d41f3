"""The calibration harness: measurement and Q-error scoring.

``repro.calibrate`` prices every measured operator with the planner's
own ``CostModel.operator_cost`` and gates on the scored median Q-error
staying under a recorded bound, with every operator kind observed.
The tests below show the gate passes on working code and fails on
each of the two breaks it is there for.
"""

import json
import math

from conftest import PER_ROW_CONSTANTS, unit_features

import repro.calibrate.harness
import repro.engine.instrument
from repro.calibrate.__main__ import main
from repro.calibrate.harness import MIN_SECONDS, observe_query, q_error, run_workload
from repro.calibrate.workload import build_workload
from repro.engine.cost import CostModel

#: One profile, CI-sized: the gate's own workload at 1/20 of its rows.
SMALL = ["--profiles", "hive", "--rows", "2000", "--repeat", "1", "--check"]


def test_q_error_definition():
    assert q_error(10.0, 10.0) == 1.0
    assert q_error(20.0, 10.0) == 2.0
    assert q_error(5.0, 10.0) == 2.0
    assert q_error(0.0, 10.0) > 1.0  # floored, never divides by zero


def test_workload_covers_every_constant():
    """Every per-row constant's operator family is observed: scan,
    cpu-only, sort, foreign fetch and hash."""
    observations = run_workload("postgres", rows=2000, repeat=1)
    driven = {
        name
        for obs in observations
        for name in unit_features(obs.op, obs.rows_out, obs.child_rows)
    }
    assert driven == set(PER_ROW_CONSTANTS)


def test_foreign_scan_observations_add_the_simulated_fetch(monkeypatch):
    """The fetch constant prices the remote production and the wire, so
    a ForeignScan observation adds the fetch's simulated transfer
    seconds (tagged ``fdw:<remote object>``) to its measured self time."""
    monkeypatch.setattr(
        repro.calibrate.harness, "_span_self_seconds", lambda span: 0.0
    )
    workload = build_workload("postgres", rows=500)
    workload.local.instrument_execution = True
    observations = observe_query(workload, "foreign", "SELECT id, val FROM ffact")
    (fetch,) = [obs for obs in observations if obs.op == "ForeignScan"]
    assert fetch.seconds > MIN_SECONDS
    assert all(
        obs.seconds == MIN_SECONDS for obs in observations if obs is not fetch
    )


def test_small_run_passes_the_gate(tmp_path):
    out = tmp_path / "report.json"
    assert main(SMALL + ["--out", str(out)]) == 0
    entry = json.loads(out.read_text())["profiles"]["hive"]
    errors = [entry["median_q_error"], entry["max_q_error"]] + [
        stats[key]
        for stats in entry["per_operator"].values()
        for key in ("median_q_error", "max_q_error")
    ]
    assert all(math.isfinite(err) and err >= 1.0 for err in errors)
    assert entry["observations"] == sum(
        stats["count"] for stats in entry["per_operator"].values()
    )


def test_gate_fails_when_spans_stop_carrying_measured_seconds(
    monkeypatch, capsys
):
    monkeypatch.setattr(
        repro.engine.instrument, "instrument_plan", lambda plan: plan
    )
    assert main(SMALL) == 1
    assert "FAIL: hive: no SeqScan observation" in capsys.readouterr().out


def test_gate_fails_when_prices_move_by_three_orders(monkeypatch, capsys):
    charge = CostModel.operator_cost

    def inflated(self, *args, **kwargs):
        units = charge(self, *args, **kwargs)
        return None if units is None else units * 1000

    monkeypatch.setattr(CostModel, "operator_cost", inflated)
    assert main(SMALL) == 1
    out = capsys.readouterr().out
    assert "FAIL: hive: median Q-error" in out
    assert "FAIL: hive: no" not in out


def test_instrumented_spans_carry_exec_seconds():
    """The harness's data source: operator spans export measured time."""
    from repro.obs.context import QueryContext

    workload = build_workload("postgres", rows=500)
    workload.local.instrument_execution = True
    with QueryContext(label="probe") as ctx:
        workload.local.execute("SELECT id, val FROM fact")

    def operator_spans(span):
        found = []
        if span.kind == "operator":
            found.append(span)
        for child in span.children:
            found.extend(operator_spans(child))
        return found

    spans = [
        s
        for s in operator_spans(ctx.root)
        if s.attributes.get("db") == workload.local.name
    ]
    assert spans, "no operator spans mirrored into the context"
    assert any(
        s.attributes.get("exec_seconds", 0.0) > 0.0 for s in spans
    )
    assert all("exec_seconds" in s.attributes for s in spans)


def test_self_seconds_of_a_read_through_plan_sum_to_at_most_the_root():
    """scan → narrowing project → filter → hash-join probe: the probe
    reads through the filter and the projection, and their pulls are
    timed too, so no one's time is counted twice."""
    from repro.engine.database import Database
    from repro.engine.instrument import instrument_plan, self_seconds
    from repro.relational.builder import build_plan
    from repro.relational.schema import Field, Schema
    from repro.sql.parser import parse_statement
    from repro.sql.types import DOUBLE, INTEGER, varchar

    database = Database("D")
    database.create_table(
        "fact",
        Schema([Field("id", INTEGER), Field("did", INTEGER), Field("v", DOUBLE),
                Field("g", varchar(8))]),
        [(i, i % 50, float(i % 97), "g%d" % (i % 7)) for i in range(6000)],
    )
    database.create_table(
        "dim",
        Schema([Field("id", INTEGER), Field("name", varchar(8))]),
        [(i, "n%d" % i) for i in range(50)],
    )
    sql = "SELECT f.id, d.name FROM dim d, fact f WHERE d.id = f.did AND f.v > 40"
    plan = database.planner.optimize(build_plan(parse_statement(sql), database.catalog))
    root = instrument_plan(database.planner.to_physical(plan))
    rows = [row for chunk in root.batches() for row in chunk]
    assert rows
    (join,) = [node for node in root.walk() if node.label().startswith("HashJoin")]
    assert join.build_left
    probe_chain = list(join.right.walk())
    assert [node.label().split("[")[0] for node in probe_chain] == [
        "Filter", "Project", "SeqScan"
    ]
    assert all(node.exec_seconds > 0.0 for node in probe_chain)
    total = sum(self_seconds(node) for node in root.walk())
    assert total <= root.exec_seconds * (1 + 1e-9)
